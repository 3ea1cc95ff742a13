"""Plain-text table rendering for experiment output.

The benchmark harness prints the same rows the paper's figures plot; this
module renders them as aligned ASCII tables so bench output is readable in
a terminal and diffable in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations.

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when every tenant gets the same
    share, approaching ``1/n`` as one tenant monopolises.  An empty or
    all-zero allocation is perfectly fair by convention (nobody got
    anything, equally).
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(xs) * squares)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render rows as an aligned table string."""
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_fmt.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)

    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append(fmt_row(["-" * w for w in widths]))
    for row in rendered:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def improvement_pct(new: float, base: float) -> float:
    """Percentage improvement of ``new`` over ``base`` (positive = better)."""
    if base == 0:
        return 0.0
    return (new - base) / base * 100.0


def speedup(new: float, base: float) -> float:
    """Multiplicative factor new/base (the paper's 'X' notation)."""
    if base == 0:
        return float("inf") if new > 0 else 1.0
    return new / base


def reduction_pct(new: float, base: float) -> float:
    """Percentage reduction of ``new`` relative to ``base`` (positive = lower)."""
    if base == 0:
        return 0.0
    return (base - new) / base * 100.0
