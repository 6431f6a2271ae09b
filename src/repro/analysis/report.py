"""ASCII rendering helpers shared by benchmarks and examples."""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "render_bars"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table with a separator under the header."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def render_bars(values: dict[str, float], *, width: int = 40, unit: str = "") -> str:
    """Horizontal bar chart, one row per labelled value."""
    if not values:
        return "(no data)"
    peak = max(values.values()) or 1.0
    lines = []
    for label, value in values.items():
        bar = "#" * max(0, int(width * value / peak))
        lines.append(f"{label:>20} {value:>12.3f}{unit} {bar}")
    return "\n".join(lines)
