"""Plain-text rendering of experiment results.

The paper's figures are line charts; a terminal reproduction prints
the same series as aligned tables (one row per client count, one
column per line — what EXPERIMENTS.md records) and, for a quick visual
read, as ASCII line charts (:func:`ascii_chart`). A sweep figure's
section is one :func:`block`: a title, a table, and the claim lines
the figure asserts.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

__all__ = ["format_table", "block", "series_table", "ascii_chart"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Align columns; floats are rendered with three significant
    decimals, everything else via ``str``."""
    rendered: list[list[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append(
            [f"{value:.3f}" if isinstance(value, float) else str(value) for value in row]
        )
    widths = [max(len(line[i]) for line in rendered) for i in range(len(rendered[0]))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def block(
    title: str,
    columns: Sequence[tuple[str, Callable]],
    items: Iterable,
    *claim_lines: Sequence[tuple[str, object]],
) -> str:
    """A titled table, one row per item, followed by its claim lines.

    ``columns`` pairs each header with the function that renders that
    column's cell from an item (:func:`format_table` formats what it
    returns). Each claim line is a sequence of ``(label, value)``
    pairs, printed indented as ``label: value`` joined by ``;  ``.
    """
    headers = [header for header, _ in columns]
    rows = [[cell(item) for _, cell in columns] for item in items]
    lines = [title, format_table(headers, rows)]
    for claims in claim_lines:
        lines.append("  " + ";  ".join(f"{label}: {value}" for label, value in claims))
    return "\n".join(lines)


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence,
    height: int = 12,
    marker_line: float | None = 1.0,
) -> str:
    """Plot several y-series over a shared x-axis as an ASCII chart.

    Each series gets a distinct glyph (its legend index); overlapping
    points show the later series. ``marker_line`` draws a horizontal
    guide (the Z = 1 break-even line by default).
    """
    if not series:
        return "(no data)"
    if height < 3:
        raise ValueError(f"height must be >= 3, got {height}")
    n_points = len(x_values)
    for name, values in series.items():
        if len(values) != n_points:
            raise ValueError(f"series {name!r} has {len(values)} points, x-axis has {n_points}")
    all_values = [v for values in series.values() for v in values]
    if marker_line is not None:
        all_values.append(marker_line)
    lo, hi = min(all_values), max(all_values)
    if hi == lo:
        hi = lo + 1.0

    def row_of(value: float) -> int:
        return round((value - lo) / (hi - lo) * (height - 1))

    glyphs = "ox*+#@%&"
    grid = [[" "] * n_points for _ in range(height)]
    if marker_line is not None and lo <= marker_line <= hi:
        marker_row = row_of(marker_line)
        for x in range(n_points):
            grid[marker_row][x] = "-"
    for index, (name, values) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        for x, value in enumerate(values):
            grid[row_of(value)][x] = glyph

    lines = []
    for row_index in range(height - 1, -1, -1):
        label = lo + (hi - lo) * row_index / (height - 1)
        lines.append(f"{label:>8.2f} |" + "".join(grid[row_index]))
    lines.append(" " * 9 + "+" + "-" * n_points)
    axis = "".join(str(x)[-1] if isinstance(x, (int, float)) else "." for x in x_values)
    lines.append(" " * 10 + axis)
    legend = "  ".join(f"{glyphs[i % len(glyphs)]}={name}" for i, name in enumerate(series))
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def series_table(series_list, value_label: str = "Z") -> str:
    """Render SpeedupSeries-like objects sharing one client axis."""
    if not series_list:
        return "(no data)"
    clients = series_list[0].clients
    headers = ["clients"] + [f"{s.query}@{s.processors}cpu" for s in series_list]
    rows = []
    for i, m in enumerate(clients):
        rows.append([m] + [s.speedups[i] for s in series_list])
    return format_table(headers, rows)
