"""Paper-style plain-text reporting of experiment results.

Benchmarks print the same rows/series the paper's figures plot; these
helpers keep that formatting consistent.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from .runner import MethodReport


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width table with a separator line, like the paper's tables."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def method_comparison_table(reports: Dict[str, MethodReport],
                            title: str = "") -> str:
    """The Figs. 4/5/7 layout: per-method precision/recall/F1 + time."""
    rows = []
    for name, report in reports.items():
        rows.append([
            name,
            report.mean_precision,
            report.mean_recall,
            report.mean_f1,
            report.mean_process_seconds,
            report.setup_seconds,
        ])
    rows.sort(key=lambda r: -r[3])
    return format_table(
        ["method", "precision", "recall", "f1",
         "process_s/shard", "setup_s"],
        rows, title=title)


def series_table(x_name: str, xs: Sequence, columns: Dict[str, Sequence],
                 title: str = "") -> str:
    """A figure-as-table: one x column plus one column per series."""
    headers = [x_name] + list(columns)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [columns[c][i] for c in columns])
    return format_table(headers, rows, title=title)


def speedup_line(fast: MethodReport, slow: MethodReport) -> str:
    """The paper's 'X× detection speedup' phrasing."""
    ratio = fast.speedup_over(slow)
    return (f"{fast.method} achieves {ratio:.2f}x detection speedup on "
            f"average process time over {slow.method}")
