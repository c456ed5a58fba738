"""The benchmark's contract and the statistics every other file shares.

``BENCHMARK.json`` at the repository root is the single source of the
workload names, the metric names, their units, directions and
regression bounds; nothing here repeats them.  The helpers are plain
Python (no numpy, no ``repro`` import) so the orchestrator in
``run.py`` stays a light process.
"""

from __future__ import annotations

import json
import os
import re
import statistics
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The sketches' own hash seed is configuration of the program under
# test, not input: it stays fixed, so --seed varies the traffic only and
# placement tables, vertex samples and sketch sizes are the same run to run.
SKETCH_SEED = 2015

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_names(spec) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def metric_table(spec, section: str) -> Dict[str, Dict[str, object]]:
    """``name -> {unit, better[, bound]}`` of one BENCHMARK.json section."""
    return {m["name"]: m for m in spec[section]}


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the contract's measure of run-to-run spread."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worsening(better: str, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
