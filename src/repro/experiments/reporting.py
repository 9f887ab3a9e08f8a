"""Plain-text and CSV reporting helpers for the experiment drivers.

The paper's figures are line/surface plots; headless reproduction prints
the same series as aligned text tables so the shape (who wins, where the
bumps and crossovers fall) can be read directly from the benchmark output,
and writes them as CSV with a stable column order so the plots can be
regenerated with any plotting tool.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render rows as an aligned monospace table.

    Floats are fixed to ``precision`` decimals; other values are str()'d.
    Tolerates ragged input: rows shorter than the widest row (or the
    header) are padded with empty cells, longer rows widen the table with
    unnamed columns.  An empty row list renders the header alone, and a
    fully empty table renders as an empty string.
    """
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append(
            [
                f"{value:.{precision}f}" if isinstance(value, float) else str(value)
                for value in row
            ]
        )
    ncols = max(len(r) for r in rendered)
    if ncols == 0:
        return ""
    for r in rendered:
        r.extend([""] * (ncols - len(r)))
    widths = [max(len(r[col]) for r in rendered) for col in range(ncols)]
    lines = []
    for i, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def rows_to_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    precision: int = 3,
) -> str:
    """Render a list of row dicts, selecting and ordering ``columns``."""
    return format_table(
        columns, [[row.get(col, "") for col in columns] for row in rows], precision
    )


def summarize_ratio(rows: Sequence[Mapping[str, float]], key_actual: str, key_optimal: str) -> str:
    """One-line worst/mean achieved-to-optimal summary for a rate sweep."""
    ratios = [
        row[key_actual] / row[key_optimal]
        for row in rows
        if row.get(key_optimal) and row[key_optimal] > 0
    ]
    if not ratios:
        return "no comparable rows"
    worst = min(ratios)
    mean = sum(ratios) / len(ratios)
    return (
        f"achieved/optimal over {len(ratios)} points: "
        f"mean {mean:.4f}, worst {worst:.4f} "
        f"(paper reports within 3-4% of optimal)"
    )


def write_rows(
    path: str,
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] = None,
) -> int:
    """Write row dicts to ``path`` as CSV; returns the row count.

    Columns default to the union of keys in first-seen order (excluding
    values that are not scalars, e.g. Figure 2's column lists).
    """
    if not rows:
        raise ValueError("no rows to export")
    if columns is None:
        columns = []
        for row in rows:
            for key, value in row.items():
                if key not in columns and isinstance(value, (int, float, str, bool)):
                    columns.append(key)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in columns})
    return len(rows)
