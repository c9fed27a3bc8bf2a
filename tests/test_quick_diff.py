"""``tools/quick_diff.py``: the figures of two commits, wall-clock lines
dropped. The figure runs themselves (minutes) are replaced by a stub;
what is checked is what the tool adds around them."""

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "quick_diff", os.path.join(REPO, "tools", "quick_diff.py")
)
quick_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quick_diff)

FIGURE = (
    "fig1\n| p | Z |\n| 1 | 2.0 |\n[fig1 completed in {}s]\n"
    "\nfig2\n| ok |\n[fig2 completed in 0.4s]\n"
)


def _main(monkeypatch, outputs, statuses=(0, 0)):
    """``main`` over two stub sides: no checkout, no figure run."""
    monkeypatch.setattr(quick_diff, "checkout", lambda ref, root: ref)
    sides = iter(zip(statuses, outputs))
    return quick_diff.main(["old", "new"], runner=lambda root: next(sides))


def test_wall_clock_lines_are_dropped_and_nothing_else():
    lines = quick_diff.figure_lines(FIGURE.format("12.3"))
    assert lines == ["fig1", "| p | Z |", "| 1 | 2.0 |", "", "fig2", "| ok |"]
    # A figure row that merely mentions the words stays.
    assert quick_diff.figure_lines("[x completed in soon]") == ["[x completed in soon]"]


def test_equal_figures_at_different_speeds_exit_0(monkeypatch, capsys):
    outputs = (FIGURE.format("12.3"), FIGURE.format("97.0"))
    assert _main(monkeypatch, outputs) == 0
    assert "no difference in 6 lines" in capsys.readouterr().out


def test_a_changed_figure_is_printed_and_exits_1(monkeypatch, capsys):
    outputs = (FIGURE.format("1.0"), FIGURE.format("1.0").replace("2.0", "2.1"))
    assert _main(monkeypatch, outputs) == 1
    out = capsys.readouterr().out
    assert "-| 1 | 2.0 |" in out and "+| 1 | 2.1 |" in out
    assert "completed in" not in out


def test_a_failed_run_exits_1(monkeypatch, capsys):
    assert _main(monkeypatch, ("", ""), statuses=(0, 2)) == 1
    assert "new: experiments exited with status 2" in capsys.readouterr().out
