#!/usr/bin/env python
"""Profile the decode/query engine: per-kernel timing + cProfile dump.

Runs one spanning-forest (or skeleton) decode over a G(n,p) churn
stream through the scalar reference oracle and through the library's
batch decode, prints the QueryMetrics breakdown (rounds, kernel
seconds, cells verified) and the top cProfile entries of the batch
decode — the first place to look when the E23 speedup bar regresses.

Usage::

    PYTHONPATH=src python scripts/profile_decode.py [--n N] [--p P]
        [--seed S] [--sketch {forest,skeleton}] [--k K] [--repeats R]
        [--top T]
"""

import argparse
import cProfile
import os
import pstats
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.engine.query import collect_query_metrics  # noqa: E402
from repro.graph.generators import gnp_graph  # noqa: E402
from repro.sketch import reference  # noqa: E402
from repro.sketch.skeleton import SkeletonSketch  # noqa: E402
from repro.sketch.spanning_forest import SpanningForestSketch  # noqa: E402
from repro.stream.generators import with_churn  # noqa: E402


def build_sketch(args):
    target = gnp_graph(args.n, args.p, seed=args.seed)
    decoys = gnp_graph(args.n, args.p, seed=args.seed + 1).edges()
    stream = with_churn(target, decoys, shuffle_seed=args.seed)
    if args.sketch == "skeleton":
        sketch = SkeletonSketch(args.n, k=args.k, seed=args.seed)
        decode = sketch.decode_layers
    else:
        sketch = SpanningForestSketch(args.n, seed=args.seed)
        decode = sketch.decode
    sketch.update_batch(stream)
    return decode, len(stream)


def timed(decode, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        decode()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--p", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--sketch", choices=["forest", "skeleton"],
                    default="forest")
    ap.add_argument("--k", type=int, default=3,
                    help="skeleton layers (--sketch skeleton)")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--top", type=int, default=20,
                    help="cProfile rows to print")
    args = ap.parse_args(argv)

    decode, events = build_sketch(args)

    print(f"{args.sketch} n={args.n} p={args.p} events={events}")

    with collect_query_metrics() as qm_scalar:
        with reference.oracle():
            scalar_best = timed(decode, args.repeats)
    print(f"\nscalar oracle: best of {args.repeats} = "
          f"{scalar_best * 1e3:.1f}ms")
    print(qm_scalar.summary())

    with collect_query_metrics() as qm_batch:
        batch_best = timed(decode, args.repeats)
    print(f"\nbatch decode: best of {args.repeats} = {batch_best * 1e3:.1f}ms "
          f"(speedup {scalar_best / batch_best:.2f}x)")
    print(qm_batch.summary())

    print(f"\ncProfile of one batch decode (top {args.top} by cumulative):")
    profiler = cProfile.Profile()
    profiler.enable()
    decode()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
