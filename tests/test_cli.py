"""Tests for the ``repro`` command line: the experiment runner (driven
both directly and as ``repro experiments``) and ``repro serve``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as repro_main
from repro.experiments.cli import main


class TestCli:
    def test_section4_runs(self, capsys):
        assert main(["section4"]) == 0
        out = capsys.readouterr().out
        assert "Section 4.4 worked example" in out
        assert "[section4 completed" in out

    def test_fig4_quick(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4 (left)" in out

    def test_multiple_experiments_deduplicated(self, capsys):
        assert main(["section4", "section4"]) == 0
        out = capsys.readouterr().out
        assert out.count("Section 4.4 worked example") == 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_requires_argument(self):
        with pytest.raises(SystemExit):
            main([])

    def test_mounted_as_a_repro_subcommand(self, capsys):
        assert repro_main(["experiments", "list", "section4"]) == 0
        out = capsys.readouterr().out
        assert "registered experiments:" in out
        assert "[section4 completed" in out
        with pytest.raises(SystemExit):
            repro_main(["experiments", "fig99"])


class TestServe:
    @pytest.mark.in_flight  # the horizon cuts the serve with a backlog
    def test_report_conserves_arrivals(self, capsys):
        argv = "serve --scale-factor 0.0005 --rate 0.0004 --horizon 30000 --drain 30000"
        assert repro_main(argv.split()) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        count = {
            name: int(value)
            for name, value in re.findall(
                r"(arrivals|shed|completed|backlog) (\d+)", summary
            )
        }
        assert count["arrivals"] > 0
        assert count["arrivals"] == (
            count["completed"] + count["shed"] + count["backlog"]
        )

    def test_served_decisions_are_scored(self, capsys):
        """A drain long enough for every arrival to finish: the audit
        table prints a projection error for the served decisions."""
        argv = (
            "serve --scale-factor 0.0005 --rate 0.0004 --horizon 30000 --drain 600000 --audit"
        )
        assert repro_main(argv.split()) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("backlog 0")
        header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["seq", "query"])
        errors = [line.split()[-1] for line in lines[header + 1 :]]
        assert any(error != "-" for error in errors)

    def test_unknown_query_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["serve", "--queries", "q6,q99"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown TPC-H query q99" in err
        assert "q1, q13, q4, q6" in err


class TestStdlibOnlyRuntime:
    def test_importing_every_entry_point_loads_no_third_party_module(self):
        """The CLI, the server and every experiment driver import
        nothing beyond ``repro`` and the standard library."""
        src = Path(repro.__file__).resolve().parents[1]
        # Modules the interpreter's own start-up loaded (site hooks of
        # whatever is installed beside pytest) are not the package's.
        program = (
            "import sys, json; before = set(sys.modules); "
            "import repro, repro.cli, repro.server, repro.experiments.cli; "
            "tops = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(json.dumps(sorted(tops - {'repro'} - set(sys.stdlib_module_names))))"
        )
        done = subprocess.run(
            [sys.executable, "-c", program],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    def test_pyproject_declares_no_dependency_and_no_static_version(self):
        text = (Path(repro.__file__).resolve().parents[2] / "pyproject.toml").read_text()
        project = re.search(r"^\[project\]\n(.*?)^\[", text, re.S | re.M).group(1)
        assert re.search(r"^dependencies = \[\]$", project, re.M)
        assert re.search(r'^dynamic = \["version"\]$', project, re.M)
        assert not re.search(r"^version\b", project, re.M)
        assert 'version = { attr = "repro.__version__" }' in text
