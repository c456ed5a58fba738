"""Shared machinery for the Section 3 vertex-sampling constructions.

Both vertex-connectivity algorithms build the same object: ``R``
vertex-sampled graphs ``G_i`` (each vertex kept with probability
``1/k``), a spanning-forest sketch per ``G_i``, and the union
``H = T_1 ∪ ... ∪ T_R`` of decoded forests.  They differ only in how
``R`` is chosen and what question is asked of ``H``.  The R forest
sketches are one stack of grids both ways: ingest folds through the
batch kernel :func:`~repro.engine.batch.fold_stack`, and the decode
runs :func:`~repro.sketch.spanning_forest.decode_stack`.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.batch import (
    _expand,
    expand_edges,
    expand_pair_batch,
    fold_stack,
    pairs_of_updates,
)
from ..errors import DomainError
from ..graph.hypergraph import Hypergraph
from ..sketch import bank
from ..sketch.incidence import IncidenceScheme
from ..sketch.spanning_forest import (
    EdgeSpaceCache,
    SpanningForestSketch,
    decode_stack,
)
from ..util.hashing import derive_seed, hash64_many
from ..util.rng import normalize_seed
from .params import DEFAULT_PARAMS, Params



class SampledForestUnion:
    """R vertex-sampled spanning-forest sketches plus the union decode.

    The counters of all R instances live in **one contiguous int64
    arena**: the block of instance ``i``'s
    :class:`~repro.sketch.bank.SamplerGrid` is the slice
    ``arena[base_i : base_i + 3 · plane_i]`` (live instances in
    ascending id order, each slice its weight / index-sum /
    fingerprint planes back to back), adopted zero-copy through the
    grid's ``block=`` storage seam.  Stream updates fold into the arena
    as one stack (:func:`~repro.engine.batch.fold_stack`);
    ``sketches[i].update`` — the scalar reference — writes the same
    pages.  Either route, and every merge or restore of an instance,
    makes it dirty for the decode cache, which compares grid mutation
    counters.

    Parameters
    ----------
    n, r:
        Ambient vertex count and hyperedge rank bound.
    k:
        The connectivity parameter: vertices survive into each sample
        with probability ``1/k``.
    repetitions:
        The number ``R`` of sampled graphs.
    seed:
        Master randomness seed.
    params:
        Sketch geometry knobs.
    """

    def __init__(
        self,
        n: int,
        k: int,
        repetitions: int,
        r: int = 2,
        seed: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
    ):
        if n < 2:
            raise DomainError(f"need n >= 2, got {n}")
        if k < 1:
            raise DomainError(f"need k >= 1, got {k}")
        self.n = n
        self.k = k
        self.r = r
        self.repetitions = repetitions
        self.seed = normalize_seed(seed)
        self.params = params
        self.scheme = IncidenceScheme(EdgeSpaceCache.get(n, r))
        # membership[i, v]: is vertex v sampled into G_i?  The paper
        # keeps each vertex with probability 1/k; we use 1/(k+1), which
        # has identical asymptotics (the Lemma 3 bound becomes
        # (1/(k+1))^2 (1 - 1/(k+1))^k >= 1/(e (k+1)^2)) and — unlike
        # the literal 1/k — remains non-degenerate at k = 1, where
        # keeping *every* vertex would mean no sampled graph ever
        # avoids the query set S.  Deterministic keyed hash = the
        # "public coins" of Section 2.
        vertices = np.arange(n, dtype=np.int64)
        membership = np.zeros((repetitions, n), dtype=bool)
        for i in range(repetitions):
            membership[i] = hash64_many(
                derive_seed(self.seed, 0xA11, i), vertices
            ) % np.uint64(k + 1) == 0
        self.membership = membership
        self._build_arena()
        self._updates = 0
        self._union_cache: Optional[Hypergraph] = None
        # Per-instance decode cache: an instance's spanning forest only
        # changes when an update reaches its grid, so monitoring
        # workloads (few updates between decodes) re-decode only the
        # touched instances instead of all R.  The cache is flat: the
        # edge coordinates of every cached forest beside the instance
        # each belongs to; per instance, whether its decode had a FAILED
        # round and its grid's mutation counter at the time (-1: never).
        self._forest_cache = (np.empty(0, dtype=np.int64),) * 2
        self._had_failed = np.zeros(repetitions, dtype=bool)
        self._decoded_at = np.full(repetitions, -1)

    def _build_arena(self) -> None:
        """Allocate the arena, build the instances on their slices, and
        concatenate their seeds and offsets for the kernels.

        The kernels address a counter by *global group*: instance
        ``i``'s Borůvka group ``g`` is row ``first[i] + g`` of the
        :class:`~repro.sketch.bank.HashStack` ``_hashes`` (its seeds)
        and of ``_group_base`` (arena offset of the group's first
        weight counter).  No table here is larger than ``R × n`` words.
        """
        params, R = self.params, self.repetitions
        rows, buckets = params.rows, params.buckets
        levels = bank.default_levels(self.scheme.dimension)
        stride = levels * rows * buckets  # counters of one (group, member)
        sampled = self.membership.sum(axis=1)
        # An instance with < 2 sampled vertices never sees an edge: it
        # gets no groups, no slice and no sketch.
        groups = np.array([
            max(1, int(m).bit_length() + params.rounds_slack) if m >= 2 else 0
            for m in sampled
        ])
        self._levels, self._member_stride = levels, stride
        first = np.cumsum(groups) - groups
        #: counters in one plane of instance i's block — the distance
        #: from a weight cell to its index-sum cell, and from there to
        #: its fingerprint cell
        self._plane = groups * sampled * stride
        #: arena offset of instance i's slice (planes w, s, f in order)
        self._base = 3 * (np.cumsum(self._plane) - self._plane)
        # np.zeros maps untouched pages: the arena is resident only
        # where the stream has written.
        self._arena = np.zeros(3 * int(self._plane.sum()), dtype=np.int64)
        group_seeds = np.zeros((int(groups.sum()), 1 + rows), np.uint64)
        self._group_base = np.zeros(int(groups.sum()), dtype=np.int64)
        salts = np.zeros((R, levels), dtype=np.uint64)
        rho_seeds = np.zeros((R, 2), dtype=np.uint64)
        tiebreak_seeds = np.zeros(int(groups.sum()), dtype=np.uint64)
        self.sketches: Dict[int, SpanningForestSketch] = {}
        for i in np.flatnonzero(groups).tolist():
            sketch = SpanningForestSketch(
                self.n,
                r=self.r,
                seed=derive_seed(self.seed, 0xF03, i),
                vertices=np.flatnonzero(self.membership[i]).tolist(),
                rounds=int(groups[i]),
                rows=rows,
                buckets=buckets,
                levels=levels,
                block=self._arena_slice(i),
            )
            self.sketches[i] = sketch
            grid = sketch.grid
            at = slice(first[i], first[i] + groups[i])
            # The grid already holds its seeds in the kernels' array form.
            group_seeds[at] = grid._hashes.group_seeds
            tiebreak_seeds[at] = grid._hashes.tiebreak_seeds
            self._group_base[at] = self._base[i] + np.arange(groups[i]) * (
                sampled[i] * stride
            )
            salts[i] = grid._hashes.salts[0]
            rho_seeds[i] = grid._hashes.rho_seeds[0]
        #: the kernels' view of the same seeds, instance = owner
        self._hashes = bank.HashStack(
            self.scheme.dimension, levels, rows, buckets, group_seeds,
            tiebreak_seeds, salts, rho_seeds,
            np.repeat(np.arange(R), groups), first,
        )
        # Vertex -> grid member (the rank among the sampled vertices,
        # which SpanningForestSketch keeps sorted); -1 where unsampled.
        self._member_lut = np.where(
            self.membership, np.cumsum(self.membership, axis=1) - 1, -1
        )

    # -- storage ------------------------------------------------------------

    def _arena_slice(self, i: int) -> np.ndarray:
        """Instance ``i``'s counter block, as a view of the arena."""
        lo = int(self._base[i])
        return self._arena[lo:lo + 3 * int(self._plane[i])]

    def __getstate__(self) -> dict:
        # The arena travels once; the instances travel as shells whose
        # grids carry no counters and re-adopt their slices on arrival.
        state = dict(self.__dict__)
        shells = {}
        for i, sketch in self.sketches.items():
            shell = copy.copy(sketch)
            shell.grid = copy.copy(sketch.grid)
            shell.grid._block = np.zeros((3, 0), dtype=np.int64)
            shells[i] = shell
        state["sketches"] = shells
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for i, sketch in self.sketches.items():
            sketch.grid._adopt_block(self._arena_slice(i))

    # -- streaming ------------------------------------------------------

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Route an edge update to every instance that sampled all its
        endpoints (:meth:`update_batch` of one, expanded per event)."""
        self._fold(*expand_edges(self.scheme, [(edge, sign)]))

    def update_batch(self, updates: Iterable) -> int:
        """Apply a batch of signed (hyper)edge updates to all instances.

        ``updates`` yields :class:`~repro.stream.updates.EdgeUpdate`
        (or ``(edge, sign)`` pairs).  Every event is validated — sign,
        vertex range, distinctness, rank — before any counter moves, so
        a rejected batch leaves the structure untouched whether or not
        some instance sampled the offending edge.  The final state is
        bit-identical to routing each event through
        ``sketches[i].update`` of every instance that sampled it.
        Returns the number of events applied.
        """
        updates = updates if isinstance(updates, list) else list(updates)
        if self.r == 2:
            pairs = pairs_of_updates(updates)
            if pairs is not None:
                return self.update_batch_pairs(*pairs)
        return self._fold(*expand_edges(self.scheme, updates))

    def update_batch_pairs(self, us, vs, signs) -> int:
        """:meth:`update_batch` for rank-2 edges given as parallel arrays
        (the array form :meth:`SpanningForestSketch.update_batch_pairs`
        takes)."""
        # Every vertex "active" as itself: the members are the ends.
        verts, index, coef = expand_pair_batch(
            self.scheme, np.arange(self.n), us, vs, signs
        )
        return self._fold(
            index[0::2], np.arange(0, verts.size + 1, 2), verts, coef
        )

    def _fold(self, index, ptr, verts, coef) -> int:
        """Route validated edges, in the CSR form of
        :func:`~repro.engine.batch.expand_edges`, to the instances that
        sampled them whole — one :func:`~repro.engine.batch.fold_stack`
        key per (instance, edge) pair — and give each hit instance its
        scalar ``update``'s bookkeeping: rows counted, epoch bumped.
        """
        events = index.size
        if events == 0:
            return 0
        self._updates += events
        hit = np.logical_and.reduceat(
            self.membership[:, verts], ptr[:-1], axis=1
        )
        i_p, e_p = np.nonzero(hit)  # (instance, edge) pairs, i_p ascending
        if i_p.size == 0:
            return events
        width = np.diff(ptr)[e_p]
        p_u, c_u = _expand(width)
        v_u = ptr[e_p][p_u] + c_u  # the pairs' rows, in (verts, coef)
        fold_stack(
            self._hashes, (self._arena,) * 3, self._group_base, self._plane,
            i_p, index[e_p], np.concatenate(([0], np.cumsum(width))),
            self._member_lut[i_p[p_u], verts[v_u]], coef[v_u],
        )
        counts = np.bincount(i_p, weights=width).astype(np.int64)
        for i in np.flatnonzero(counts).tolist():
            grid = self.sketches[i].grid
            grid._updates += int(counts[i])
            grid._touch()
        return events

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of a (hyper)edge."""
        self.update(edge, 1)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of a (hyper)edge."""
        self.update(edge, -1)

    # -- decoding -----------------------------------------------------------

    @property
    def _dirty(self) -> set:
        """Instances whose grid was mutated since their forest was
        cached — by the kernel, ``sketches[i].update``, a merge or a
        restore alike."""
        decoded_at = self._decoded_at.tolist()
        return {
            i for i, sketch in self.sketches.items()
            if decoded_at[i] != sketch.grid._epoch
        }

    def _refresh(self, skip=()) -> None:
        """Re-decode the dirty instances not in ``skip``, all in one
        batched Borůvka loop (:func:`~repro.sketch.spanning_forest.
        decode_stack`)."""
        todo = sorted(self._dirty.difference(skip))
        if not todo:
            return
        grids = {i: sketch.grid for i, sketch in self.sketches.items()}
        rows, buckets = self.params.rows, self.params.buckets
        coords, src, failed = decode_stack(
            self.scheme, self._hashes,
            self._arena.reshape(-1, self._levels, rows, buckets),
            grids, self._member_lut, self._base // self._member_stride, todo,
        )
        old, old_src = self._forest_cache
        keep = ~np.isin(old_src, todo)
        self._forest_cache = (
            np.concatenate([old[keep], coords]),
            np.concatenate([old_src[keep], src]),
        )
        self._had_failed[todo] = failed[todo]
        self._decoded_at[todo] = [grids[i]._epoch for i in todo]
        self._union_cache = None
        if bank._QUERY_METRICS is not None:
            bank._QUERY_METRICS.instances_decoded += len(todo)

    def decode_union(self) -> Hypergraph:
        """H = union of a decoded spanning forest of every sample.

        Cached until the next stream update; the decode is the
        expensive post-processing step, queries on H are cheap.
        """
        self._refresh()
        if self._union_cache is None:
            self._union_cache = self.scheme.hypergraph_of(
                np.unique(self._forest_cache[0])
            )
        return self._union_cache

    def decode_union_accounted(
        self, exclude: Sequence[int] = ()
    ) -> Tuple[Hypergraph, List[int]]:
        """Union of per-instance *strict* decodes, with failure accounting.

        An instance's strict decode fails exactly when a Borůvka round
        it ran reported a component FAILED, and otherwise equals its
        plain decode — so this reads the same per-instance cache as
        :meth:`decode_union` and *skips* the instances whose decode had
        a FAILED round (the others are independently seeded, so the
        rest of the union stays valid), returning their ids in the
        failure list.  ``exclude`` lists instance ids to leave out
        unread — the integrity auditor routes instances with corrupted
        banks here, so a damaged counter can never contribute edges —
        and they are reported in the failure list too.  The degraded
        query layer (:mod:`repro.core.degraded`) answers from the
        surviving R - m instances, with honest reporting of m.
        """
        excluded = set(exclude)
        self._refresh(skip=excluded)
        failed = [
            i for i in self.sketches if i in excluded or self._had_failed[i]
        ]
        coords, src = self._forest_cache
        return self.scheme.hypergraph_of(
            np.unique(coords[~np.isin(src, failed)])
        ), failed

    # -- accounting -----------------------------------------------------------

    def space_counters(self) -> int:
        """Machine words across all instances."""
        return sum(s.space_counters() for s in self.sketches.values())

    def space_bytes(self) -> int:
        """Bytes of counter state across all instances."""
        return sum(s.space_bytes() for s in self.sketches.values())

    @property
    def live_instances(self) -> int:
        """Instances that sampled at least two vertices."""
        return len(self.sketches)
