"""Stage budget of batch ingest on three benchmark shapes.

* ``bulk`` — ``SpanningForestSketch(1024).update_batch`` of 4,096-event
  batches with 25% flaps (the ``bulk_forest_n1024`` feed);
* ``svc256`` / ``svc2048`` — ``SpanningForestSketch(256)`` with its
  placement tables attached, ``update_batch_pairs`` of 256- and
  2,048-pair churn batches (the service shapes' kernel call);
* ``thm4`` — Theorem 4's ``VertexConnectivityQuerySketch(128, k=2)``,
  8 single-edge ``update()`` calls per batch (``vertex_query_n128``'s
  timed ingest).

Each shape runs twice on a fresh sketch.  The first pass times whole
batches (``batch``); the second wraps the ingest functions in
timers and charges each one's own time, nested calls excluded, to a
stage, per batch:

* ``expand`` — edges to incidence rows, and the union's routing of
  edges to the instances that sampled them;
* ``coalesce`` — ``grid_update_batch``'s validation and net-delta
  coalescing;
* ``hash`` — the coordinate, level, bucket and fingerprint hashes;
* ``fold`` — ``fold_cells``, the counter writes;
* ``place`` — the rest of the kernel: the (group, key, level) expansion,
  the cell addresses and the index-sum / fingerprint products (trees
  that form those products in ``grid_update_batch`` count them under
  ``coalesce``).

Above the kernel's threading gate two threads hash and fold at once and
their times add up, so the stages can sum to more than ``batch``.  The
line ends with a SHA-256 of the final ``dump_sketch`` (of each union
instance, for ``thm4``): two trees with
equal counters print equal digests.  Function names of older trees are
wrapped too, so the script can be copied into a checkout of another
commit and compared.  Run from the repository root::

    PYTHONPATH=src python scripts/ingest_budget.py --batches 12
"""

import argparse
import contextlib
import hashlib
import os
import statistics
import sys
import threading
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from benchmarks.perf.library import (  # noqa: E402
    BATCH, CHUNK, K_VERTEX, N_VERTEX, ForestFeed,
)
from benchmarks.perf.spec import SKETCH_SEED  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    ChurnStream, EdgeUniverse, SeparatorGraph,
)
from repro.core import _sampled  # noqa: E402
from repro.engine import batch  # noqa: E402
from repro.sketch import spanning_forest  # noqa: E402
from repro.sketch.serialization import dump_sketch  # noqa: E402
from repro.sketch.spanning_forest import SpanningForestSketch  # noqa: E402

MS = 1e3
STAGES = ("expand", "coalesce", "hash", "fold", "place")
HASHES = ("premix64_np", "hash64_premixed", "level_counts_np", "bucket_np",
          "field_value_many", "field_residue_np")
#: (owner, attribute) -> stage; attributes a tree lacks are skipped.
WRAPPED = [
    *((mod, name, "expand") for mod in (batch, _sampled) for name in (
        "expand_pair_batch", "expand_edge_batch", "expand_edges",
        "pairs_of_updates")),
    (spanning_forest.SpanningForestSketch, "incidence", "expand"),
    (_sampled.SampledForestUnion, "_fold", "expand"),
    (batch, "grid_update_batch", "coalesce"),
    *((mod, name, "hash") for mod in (batch, _sampled) for name in HASHES),
    *((mod, "fold_cells", "fold") for mod in (batch, _sampled)),
    *((mod, name, "place") for mod in (batch, _sampled) for name in (
        "fold_stack", "_grid_update_batch_fused")),
    (_sampled.SampledForestUnion, "_fold_pairs", "place"),
]


class StageClock:
    """Exclusive time per stage: a wrapped call's time, minus the time
    of the wrapped calls it makes, on each thread."""

    def __init__(self):
        self.totals = dict.fromkeys(STAGES, 0.0)
        self.lock = threading.Lock()
        self.local = threading.local()

    def wrap(self, fn, stage):
        def timed(*args, **kwargs):
            nested = getattr(self.local, "nested", None)
            self.local.nested = [0.0]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                inner = self.local.nested[0]
                self.local.nested = nested
                if nested is not None:
                    nested[0] += spent
                with self.lock:
                    self.totals[stage] += spent - inner
        return timed

    @contextlib.contextmanager
    def patched(self):
        with contextlib.ExitStack() as stack:
            for owner, name, stage in WRAPPED:
                fn = owner.__dict__.get(name)
                if fn is not None:
                    stack.enter_context(mock.patch.object(
                        owner, name, self.wrap(fn, stage)
                    ))
            yield


def bulk(seed, batches):
    feed = ForestFeed(seed)
    sketch = SpanningForestSketch(1024, seed=SKETCH_SEED)
    sketch.attach_hash_cache()
    preload = feed.preload()
    for start in range(0, len(preload), BATCH):
        sketch.update_batch(preload[start:start + BATCH])
    work = [feed.next_events()[1] for _ in range(batches)]
    return sketch, [lambda u=u: sketch.update_batch(u) for u in work]


def service(pairs):
    def build(seed, batches):
        stream = ChurnStream(EdgeUniverse(256), 4096, seed)
        sketch = SpanningForestSketch(256, seed=SKETCH_SEED)
        sketch.attach_hash_cache()
        sketch.update_batch_pairs(*stream.preload())
        work = [stream.next_batch(pairs // 2) for _ in range(batches)]
        return sketch, [
            lambda b=b: sketch.update_batch_pairs(*b) for b in work
        ]
    return build


def thm4(seed, batches):
    from repro.core.connectivity_query import VertexConnectivityQuerySketch

    graph = SeparatorGraph(N_VERTEX, seed)
    sketch = VertexConnectivityQuerySketch(N_VERTEX, K_VERTEX, seed=SKETCH_SEED)
    sketch.update_batch([(graph.edge(i), 1) for i in graph.graph_ids])
    live = {int(i) for i in graph.graph_ids}
    work = [graph.monitoring_round(live, CHUNK) for _ in range(batches)]

    def one(events):
        for edge, sign in events:
            sketch.update(edge, sign)
    return sketch, [lambda e=e: one(e) for e in work]


SHAPES = {"bulk": bulk, "svc256": service(256), "svc2048": service(2048),
          "thm4": thm4}


def digest(sketch) -> str:
    """SHA-256 of the counters: ``dump_sketch`` of the sketch, or of
    every instance of a Theorem 4 sketch's union in id order."""
    union = getattr(sketch, "_union", None)
    parts = [sketch] if union is None else [
        union.sketches[i] for i in sorted(union.sketches)
    ]
    h = hashlib.sha256()
    for part in parts:
        h.update(dump_sketch(part))
    return h.hexdigest()


def run(shape, seed, batches):
    sketch, work = SHAPES[shape](seed, batches)
    walls = []
    for step in work:
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)
    sha = digest(sketch)
    clock = StageClock()
    sketch, work = SHAPES[shape](seed, batches)
    with clock.patched():
        for step in work:
            step()
    if digest(sketch) != sha:
        raise SystemExit(f"{shape}: the timed pass changed the counters")
    stages = {k: v / batches * MS for k, v in clock.totals.items()}
    return statistics.median(walls) * MS, stages, sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", nargs="+", default=list(SHAPES),
                        choices=list(SHAPES))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--batches", type=int, default=12)
    args = parser.parse_args(argv)
    print(f"{'shape':>8} {'batch':>8} " + " ".join(f"{s:>8}" for s in STAGES)
          + "  sha256 (ms per batch; batch = median, stages = mean)")
    for shape in args.shapes:
        wall, stages, sha = run(shape, args.seed, args.batches)
        print(f"{shape:>8} {wall:8.3f} "
              + " ".join(f"{stages[s]:8.3f}" for s in STAGES)
              + f"  {sha[:16]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
