"""Stage budget of one fresh Theorem 4 answer on the ``vertex_query_n128``
shape.

Builds ``SeparatorGraph(128, seed)`` into
``VertexConnectivityQuerySketch(128, k=2)`` (the benchmark's sketch seed),
then runs monitoring rounds of 8 scalar updates, each followed by a
fresh ``certificate()``, and prints per answer:

* ``gather`` — the component gathers of ``_sample_round`` (the counter
  reads, the ``minus`` subtraction and the window bookkeeping);
* ``peel`` — the peel and read-off (``QueryMetrics.kernel_seconds``);
* ``merge`` — the rest of ``decode_stack``: the component layout, the
  edge unranking and the union-find merges;
* ``cells`` — ``QueryMetrics.cells_gathered``;

and a SHA-256 over every round's certificate, so two trees can be
checked for identical answers.  Run from the repository root::

    PYTHONPATH=src python scripts/decode_budget.py --seeds 11 12 --rounds 12
"""

import argparse
import hashlib
import os
import statistics
import sys
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from benchmarks.perf.library import CHUNK, K_VERTEX, N_VERTEX  # noqa: E402
from benchmarks.perf.spec import SKETCH_SEED  # noqa: E402
from benchmarks.perf.workloads import SeparatorGraph  # noqa: E402
from repro.core import _sampled  # noqa: E402
from repro.core.connectivity_query import VertexConnectivityQuerySketch  # noqa: E402
from repro.engine.query import collect_query_metrics  # noqa: E402
from repro.sketch import spanning_forest  # noqa: E402

MS = 1e3


def timed(fn, clock):
    """``fn`` that adds its wall time to ``clock[0]``."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            clock[0] += time.perf_counter() - t0
    return wrapper


def run_seed(seed: int, rounds: int):
    graph = SeparatorGraph(N_VERTEX, seed)
    sk = VertexConnectivityQuerySketch(N_VERTEX, K_VERTEX, seed=SKETCH_SEED)
    sk.update_batch([(graph.edge(i), 1) for i in graph.graph_ids])
    live = {int(i) for i in graph.graph_ids}
    sk.certificate()
    digest = hashlib.sha256()
    stages = []
    sample_s, stack_s = [0.0], [0.0]
    with mock.patch.object(
        spanning_forest, "_sample_round",
        timed(spanning_forest._sample_round, sample_s),
    ), mock.patch.object(
        _sampled, "decode_stack", timed(_sampled.decode_stack, stack_s),
    ):
        for _ in range(rounds):
            for edge, sign in graph.monitoring_round(live, CHUNK):
                sk.update(edge, sign)
            sample_s[0] = stack_s[0] = 0.0
            with collect_query_metrics() as qm:
                t0 = time.perf_counter()
                cert = sk.certificate()
                answer = time.perf_counter() - t0
            digest.update(repr(sorted(cert.edges())).encode())
            stages.append({
                "answer": answer * MS,
                "gather": (sample_s[0] - qm.kernel_seconds) * MS,
                "peel": qm.kernel_seconds * MS,
                "merge": (stack_s[0] - sample_s[0]) * MS,
                "cells": qm.cells_gathered,
            })
    return stages, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    print(f"{'seed':>4} {'answer':>8} {'gather':>8} {'peel':>8} "
          f"{'merge':>8} {'cells':>9}  sha256 (p50 ms per answer)")
    for seed in args.seeds:
        stages, sha = run_seed(seed, args.rounds)
        p50 = {k: statistics.median(s[k] for s in stages) for k in stages[0]}
        print(f"{seed:>4} {p50['answer']:8.2f} {p50['gather']:8.2f} "
              f"{p50['peel']:8.2f} {p50['merge']:8.2f} {p50['cells']:9.0f}  "
              f"{sha[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
