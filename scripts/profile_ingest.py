#!/usr/bin/env python
"""cProfile harness for the ingest hot paths (batched and sharded).

Profiles one churn-stream ingest through the batched kernel and/or the
sharded engine and prints the top functions by cumulative time plus the
achieved throughput, so before/after comparisons of kernel changes are
one command each:

    PYTHONPATH=src python scripts/profile_ingest.py --n 1024 --mode batched
    PYTHONPATH=src python scripts/profile_ingest.py --n 512 --mode sharded --backend shm

The summaries committed in ``docs/profile_ingest.md`` were produced
with these invocations.  Only the ingest call itself runs under the
profiler — stream generation and (with ``--warm``, the default) the
one-time placement-table build are excluded, matching how the E19
benchmarks time steady-state ingest.  Sharded profiles capture the
parent's view (partitioning, IPC, merge); worker-side fold time shows
up as wait time in the pool calls.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import time


def build_stream(n: int, p: float, seed: int):
    from repro.graph.generators import gnp_graph
    from repro.stream.generators import with_churn

    target = gnp_graph(n, p, seed=seed)
    decoys = gnp_graph(n, p, seed=seed + 1).edges()
    return with_churn(target, decoys, shuffle_seed=seed)


def profile_call(fn, sort: str, limit: int) -> tuple[float, str]:
    """Run ``fn`` under cProfile; returns (wall seconds, stats text)."""
    profiler = cProfile.Profile()
    profiler.enable()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats(sort).print_stats(limit)
    return wall, out.getvalue()


def run_batched(args, stream) -> None:
    from repro.sketch.spanning_forest import SpanningForestSketch

    if args.warm:
        # Populate the pooled placement tables outside the profile.
        SpanningForestSketch(args.n, seed=args.seed).update_batch(stream[:64])
    sketch = SpanningForestSketch(args.n, seed=args.seed)
    wall, text = profile_call(
        lambda: sketch.update_batch(stream), args.sort, args.limit
    )
    emit(args, "batched", wall, len(stream), text)


def run_sharded(args, stream) -> None:
    from repro.engine.shard import ShardedIngestEngine
    from repro.sketch.spanning_forest import SpanningForestSketch

    engine = ShardedIngestEngine(
        SpanningForestSketch(args.n, seed=args.seed),
        shards=args.shards,
        batch_size=args.batch_size,
        backend=args.backend,
    )
    wall, text = profile_call(
        lambda: engine.ingest(stream), args.sort, args.limit
    )
    emit(args, f"sharded[{args.backend} x{args.shards}]", wall, len(stream), text)


def emit(args, mode: str, wall: float, events: int, text: str) -> None:
    lines = [
        f"== {mode} | n={args.n} p={args.p} events={events} ==",
        f"wall {wall:.3f}s  {events / wall:,.0f} updates/sec",
        text.rstrip(),
        "",
    ]
    block = "\n".join(lines)
    print(block)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(block + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1024, help="vertex count")
    parser.add_argument("--p", type=float, default=0.02, help="G(n,p) density")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument(
        "--backend", choices=["serial", "shm"], default="shm"
    )
    parser.add_argument(
        "--mode", choices=["batched", "sharded", "both"], default="batched"
    )
    parser.add_argument(
        "--no-warm",
        dest="warm",
        action="store_false",
        help="include the one-time placement-table build in the profile",
    )
    parser.add_argument(
        "--sort", default="cumulative", help="pstats sort key (default: cumulative)"
    )
    parser.add_argument(
        "--limit", type=int, default=20, help="rows of the stats table"
    )
    parser.add_argument("--out", help="append the summary to this file")
    args = parser.parse_args()

    stream = build_stream(args.n, args.p, args.seed)
    if args.mode in ("batched", "both"):
        run_batched(args, stream)
    if args.mode in ("sharded", "both"):
        run_sharded(args, stream)


if __name__ == "__main__":
    main()
