"""Seeded traffic for the five workloads.

The benchmark owns its inputs: everything here is a pure function of
``--seed`` (numpy ``default_rng`` keyed by the seed and a stream
index), and the program under test only ever sees the generated
events.  ``repro.service.loadgen`` is deliberately not used — its edge
slice saturates at n=256, so its batches shrink mid-run.

All churn is *stationary*: after a preload of ``live`` edges every
batch deletes as many live edges as it inserts fresh ones, so batch
size, live-graph size and the net-delta coalescing ratio are constant
for as long as a run lasts, and a run can be bounded by time instead of
by a fixed event count.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def edge_ids(us, vs) -> np.ndarray:
    """Colex id ``u + v(v-1)/2`` of each edge ``{u < v}`` — the coordinate
    the sketches use, so ids double as exact-oracle keys."""
    lo = np.minimum(us, vs).astype(np.int64)
    hi = np.maximum(us, vs).astype(np.int64)
    return lo + hi * (hi - 1) // 2


class EdgeUniverse:
    """Every rank-2 edge on ``n`` vertices, addressed by colex id."""

    def __init__(self, n: int):
        self.n = n
        self.v = np.repeat(np.arange(n, dtype=np.int64), np.arange(n))
        ids = np.arange(self.v.size, dtype=np.int64)
        self.u = ids - self.v * (self.v - 1) // 2
        self.size = ids.size


class ChurnStream:
    """Stationary insert/delete churn over a slice of the universe.

    ``perm[:live]`` is the live edge set; a batch swaps ``deletes``
    random live positions with as many random dead ones.  ``flaps``
    further dead edges are inserted *and* deleted inside the batch
    (net zero), which is what gives net-delta coalescing work to do.
    Several streams over disjoint slices (ids ``stream`` mod ``stride``) can
    feed one sketch concurrently without ever touching each other's
    edges, so every delete is of an edge its own stream made live.
    """

    def __init__(self, universe: EdgeUniverse, live: int, seed: int,
                 stream: int = 0, stride: int = 1):
        self.universe = universe
        self.rng = np.random.default_rng([seed, 0xC4, stream])
        mine = np.arange(stream % stride, universe.size, stride, dtype=np.int64)
        self.perm = self.rng.permutation(mine)
        self.live = live
        if live * 2 > self.perm.size:
            raise ValueError("live set must leave room for fresh inserts")

    def pairs(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.universe.u[ids], self.universe.v[ids]

    def preload(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        us, vs = self.pairs(self.perm[: self.live])
        return us, vs, np.ones(self.live, dtype=np.int64)

    def live_ids(self) -> np.ndarray:
        return self.perm[: self.live].copy()

    def next_batch(self, churn: int, flaps: int = 0):
        """``churn`` deletes + ``churn`` inserts + ``flaps`` insert/delete
        pairs, as ``(us, vs, signs)``; deletes first, so the batch is a
        valid dynamic stream read left to right."""
        d_pos = self.rng.choice(self.live, churn, replace=False)
        dead = self.rng.choice(
            self.perm.size - self.live, churn + flaps, replace=False
        ) + self.live
        i_pos, f_pos = dead[:churn], dead[churn:]
        del_ids, ins_ids = self.perm[d_pos], self.perm[i_pos]
        flap_ids = self.perm[f_pos]
        self.perm[d_pos], self.perm[i_pos] = ins_ids, del_ids
        ids = np.concatenate([del_ids, ins_ids, flap_ids, flap_ids])
        signs = np.concatenate([
            np.full(churn, -1, dtype=np.int64),
            np.ones(churn + flaps, dtype=np.int64),
            np.full(flaps, -1, dtype=np.int64),
        ])
        us, vs = self.pairs(ids)
        return us, vs, signs


def as_edge_updates(us, vs, signs) -> list:
    """The ``update_batch`` / engine event form of a pair batch."""
    from repro.stream.updates import EdgeUpdate

    return [
        EdgeUpdate((u, v), s)
        for u, v, s in zip(us.tolist(), vs.tolist(), signs.tolist())
    ]


def coalesce_counts(us, vs, signs) -> Tuple[int, int]:
    """Exact (raw rows, distinct nonzero-net (member, index) rows).

    Each rank-2 event expands to two incidence rows sharing one
    coordinate, so the distinct nonzero-net rows are twice the edges
    whose signs do not cancel inside the batch.
    """
    ids = edge_ids(us, vs)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    net = np.add.reduceat(signs[order], starts)
    return 2 * int(ids.size), 2 * int(np.count_nonzero(net))


class SeparatorGraph:
    """Two G(m, p) blobs joined only through a planted 2-vertex separator.

    Vertices are relabelled by a seeded permutation, so the separator is
    a different pair for every seed.  Whether each blob happens to be
    connected is left to chance (p=0.12 on 63 vertices almost always
    is); every answer is checked against an exact search of the live
    graph either way.
    """

    def __init__(self, n: int, seed: int, p: float = 0.12, links: int = 4):
        rng = np.random.default_rng([seed, 0x5E9])
        label = rng.permutation(n)
        m = (n - 2) // 2
        self.n = n
        self.blobs = [label[:m], label[m:2 * m]]
        self.separator = (int(label[2 * m]), int(label[2 * m + 1]))
        self.universe = EdgeUniverse(n)
        graph: List[np.ndarray] = []
        self.blob_pairs: List[np.ndarray] = []
        for blob in self.blobs:
            iu, iv = np.triu_indices(m, k=1)
            ids = edge_ids(blob[iu], blob[iv])
            self.blob_pairs.append(ids)
            graph.append(ids[rng.random(ids.size) < p])
            for s in self.separator:
                picks = rng.choice(blob, links, replace=False)
                graph.append(edge_ids(picks, np.full(links, s)))
        self.graph_ids = rng.permutation(np.unique(np.concatenate(graph)))
        outside = np.setdiff1d(
            np.arange(self.universe.size), self.graph_ids, assume_unique=False
        )
        self.decoy_ids = rng.permutation(outside)
        self.rng = rng

    def edge(self, edge_id: int) -> Tuple[int, int]:
        return (int(self.universe.u[edge_id]), int(self.universe.v[edge_id]))

    def monitoring_round(self, live: set, updates: int = 8):
        """``updates`` stationary events inside the blobs: half deletes of
        live blob edges, half inserts of fresh same-blob edges — the
        separator stays the only bridge.  Mutates ``live``."""
        events = []
        for k in range(updates // 2):
            ids = self.blob_pairs[k % 2]
            mask = np.fromiter((int(i) in live for i in ids), bool, ids.size)
            gone = int(self.rng.choice(ids[mask]))
            fresh = int(self.rng.choice(ids[~mask]))
            live.discard(gone)
            live.add(fresh)
            events.append((self.edge(gone), -1))
            events.append((self.edge(fresh), 1))
        return events

    def query_sets(self, count: int) -> list:
        """Alternating planted separator / random vertex pair."""
        out = []
        for i in range(count):
            if i % 2 == 0:
                out.append(self.separator)
            else:
                a, b = self.rng.choice(self.n, 2, replace=False)
                out.append((int(a), int(b)))
        return out
