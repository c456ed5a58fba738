"""The correctness gate: exact oracles the sketches are compared with.

Every function returns the number of *wrong answers* it found (0 when
all is well), so callers add the result straight into the run's
``failed`` count.  The oracles are deliberately independent of the
library's own graph code: a plain union-find and a plain BFS over the
live edge set the generator tracked.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np


def exact_components(n: int, us, vs) -> List[List[int]]:
    """Sorted components of the graph on ``n`` vertices with these edges."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(np.asarray(us).tolist(), np.asarray(vs).tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: Dict[int, List[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


def exact_connected(n: int, us, vs) -> bool:
    """Is the graph connected?  Minimum-label propagation to a fixpoint,
    in numpy: cheap enough to sit inside a feeder's closed loop."""
    us, vs = np.asarray(us), np.asarray(vs)
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[us], labels[vs])
        before = labels.copy()
        np.minimum.at(labels, us, low)
        np.minimum.at(labels, vs, low)
        if np.array_equal(labels, before):
            return bool((labels == labels[0]).all())


def forest_errors(n: int, forest_edges: Iterable[Sequence[int]],
                  live_us, live_vs) -> int:
    """A decoded forest must be a subset of the live edges and have
    exactly the live graph's components."""
    live = set(zip(np.minimum(live_us, live_vs).tolist(),
                   np.maximum(live_us, live_vs).tolist()))
    edges = [tuple(sorted(e)) for e in forest_edges]
    if any(e not in live for e in edges):
        return 1
    got = exact_components(n, [e[0] for e in edges], [e[1] for e in edges])
    return int(got != exact_components(n, live_us, live_vs))


def adjacency(n: int, edges: Iterable[Tuple[int, int]]) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def exact_disconnects(n: int, adj: List[Set[int]], removed) -> bool:
    """Does deleting ``removed`` leave the surviving vertices disconnected?"""
    gone = set(removed)
    survivors = [v for v in range(n) if v not in gone]
    if len(survivors) <= 1:
        return False
    seen = {survivors[0]}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in gone and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) != len(survivors)


def expected_dump(n: int, sketch_seed: int, live_us, live_vs) -> bytes:
    """The only state a correct run can end in.

    The sketches are linear and their counters exact, so whatever
    batches, shards or connections carried the stream, the final
    counters equal those of a fresh same-seed sketch fed just the net
    live edge set — which is one small batch, not a replay of the run.
    """
    from repro.sketch.serialization import dump_sketch
    from repro.sketch.spanning_forest import SpanningForestSketch

    sketch = SpanningForestSketch(n, seed=sketch_seed)
    sketch.update_batch_pairs(
        live_us, live_vs, np.ones(len(live_us), dtype=np.int64)
    )
    return dump_sketch(sketch)


def preflight(seed: int, events: int = 2000) -> int:
    """Scalar loop vs fast path, byte for byte, on the seed's first events.

    n=64 keeps the scalar reference loop under half a second; the churn
    (with flaps) exercises net-delta coalescing on the fast side.
    """
    from repro.sketch.serialization import dump_sketch
    from repro.sketch.spanning_forest import SpanningForestSketch

    from .spec import SKETCH_SEED
    from .workloads import ChurnStream, EdgeUniverse, as_edge_updates

    stream = ChurnStream(EdgeUniverse(64), live=400, seed=seed, stream=9)
    batches = [stream.preload()]
    done = len(batches[0][0])
    while done < events:
        batches.append(stream.next_batch(churn=150, flaps=100))
        done += len(batches[-1][0])
    scalar = SpanningForestSketch(64, seed=SKETCH_SEED)
    fast = SpanningForestSketch(64, seed=SKETCH_SEED)
    for us, vs, signs in batches:
        updates = as_edge_updates(us, vs, signs)
        for u in updates:
            scalar.update(u.edge, u.sign)
        fast.update_batch(updates)
    return int(dump_sketch(scalar) != dump_sketch(fast))
