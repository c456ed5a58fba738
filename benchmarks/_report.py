"""Shared reporting for the experiment benchmarks.

Every benchmark regenerates one experiment from DESIGN.md's index
(E1..E14) and reports its rows through :func:`record`, which prints
the table (visible with ``pytest -s`` and in the captured output
section) and appends it to ``benchmarks/results/experiments.md`` so
EXPERIMENTS.md can be assembled from actual runs.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Sequence

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_RESULTS_FILE = os.path.join(_RESULTS_DIR, "experiments.md")


def _format_table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])


def record(
    experiment: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Print and persist one experiment table; returns the rendering."""
    table = _format_table(header, rows)
    block = f"\n### {experiment} — {title}\n\n{table}\n"
    if notes:
        block += f"\n{notes}\n"
    print(block)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(_RESULTS_FILE, "a") as fh:
        fh.write(f"<!-- {stamp} -->\n{block}")
    return table

