"""The docs cannot rot: headings, links, figure names, and command
lines are checked.

* ``docs/experiments.md`` must document exactly the experiments the
  CLI registers — one ``##`` heading per registry key — and each
  section's **Knobs.** paragraph must name exactly its ``run()``
  parameters;
* every relative markdown link in README.md and ``docs/*.md`` must
  resolve to a real file;
* every ``fig_*`` name mentioned in README.md and ``docs/*.md`` must
  be a registered experiment;
* every ``repro ...`` / ``python -m repro.cli ...`` line inside a
  fenced block of those files must parse against the real parser.

The CI docs job runs this module (plus the repro.db doctests), so a
renamed experiment, a moved doc, a stale link, or a removed
subcommand or flag fails the build.
"""

import inspect
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments.cli import _EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
CHECKED_FILES = [REPO_ROOT / "README.md", *DOCS]

LINK_PATTERN = re.compile(r"\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
FIG_PATTERN = re.compile(r"\bfig_[a-z]+\b")
FENCED_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
# A shell line that runs the CLI, installed or as a module, possibly
# after ``$``, ``cmd &&`` and ``VAR=value`` prefixes.
COMMAND_LINE = re.compile(
    r"^(?:\$ )?(?:.*&& )?(?:\w+=\S+ )*(python3? -m repro\S*|repro[\w-]*)( .*)?$"
)


def test_docs_directory_exists_and_is_populated():
    names = {path.name for path in DOCS}
    assert "ARCHITECTURE.md" in names
    assert "experiments.md" in names


def test_experiment_doc_headings_match_cli_registry():
    """docs/experiments.md has exactly one section per registered
    experiment — the doc and the registry cannot diverge."""
    text = (REPO_ROOT / "docs" / "experiments.md").read_text()
    headings = set(re.findall(r"^## (\S+)$", text, flags=re.MULTILINE))
    registered = set(_EXPERIMENTS)
    missing = registered - headings
    stale = {h for h in headings - registered if not h.startswith("Quick")}
    assert not missing, f"experiments undocumented in docs/experiments.md: {sorted(missing)}"
    assert not stale, f"docs/experiments.md documents unknown experiments: {sorted(stale)}"


def test_knobs_match_run_signature():
    """Each experiment's **Knobs.** paragraph backticks exactly the
    parameters of its module's ``run()`` — no knob documented that
    does not exist, none that exists left undocumented."""
    text = (REPO_ROOT / "docs" / "experiments.md").read_text()
    sections = dict(re.findall(r"^## (\S+)\n(.*?)(?=^## |\Z)", text, flags=re.M | re.S))
    drifted = {}
    for name, experiment in _EXPERIMENTS.items():
        knobs = re.search(r"^\*\*Knobs\.\*\*(.*?)(?:\n\n|\Z)", sections[name], flags=re.M | re.S)
        documented = set(re.findall(r"`([^`]+)`", knobs.group(1)))
        parameters = set(inspect.signature(experiment.module.run).parameters)
        if documented != parameters:
            drifted[name] = (sorted(documented), sorted(parameters))
    assert not drifted, f"Knobs paragraphs vs run() parameters: {drifted}"


@pytest.mark.parametrize(
    "path", CHECKED_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_relative_links_resolve(path):
    """Every relative markdown link points at a file that exists."""
    text = path.read_text()
    broken = []
    for target in LINK_PATTERN.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (path.parent / target).exists():
            broken.append(target)
    assert not broken, f"broken links in {path.name}: {broken}"


@pytest.mark.parametrize(
    "path", CHECKED_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_mentioned_fig_names_are_registered(path):
    """A ``fig_*`` name in the docs must be a real experiment."""
    mentioned = set(FIG_PATTERN.findall(path.read_text()))
    unknown = mentioned - set(_EXPERIMENTS)
    assert not unknown, f"{path.name} mentions unregistered experiments: {sorted(unknown)}"


@pytest.mark.parametrize(
    "path", CHECKED_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_documented_command_lines_parse(path, capsys):
    """A command line shown in a fenced block names the one installed
    script (or its module) and uses only subcommands, flags and
    experiment names the parser accepts."""
    parser = build_parser()
    rejected = []
    for block in FENCED_BLOCK.findall(path.read_text()):
        for line in block.splitlines():
            match = COMMAND_LINE.match(line.strip())
            if match is None:
                continue
            command, args = match.groups()
            if command.split()[-1] not in ("repro", "repro.cli"):
                rejected.append(f"{line.strip()!r}: not the repro CLI")
                continue
            try:
                parser.parse_args(shlex.split(args or "", comments=True))
            except SystemExit:
                usage_error = capsys.readouterr().err.strip().splitlines()[-1]
                rejected.append(f"{line.strip()!r}: {usage_error}")
    assert not rejected, f"stale command lines in {path.name}: {rejected}"


def test_readme_links_the_docs():
    """The README is the entry point; it must point into docs/."""
    text = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in text
    assert "docs/experiments.md" in text
