"""Shared machinery for the Section 3 vertex-sampling constructions.

Both vertex-connectivity algorithms build the same object: ``R``
vertex-sampled graphs ``G_i`` (each vertex kept with probability
``1/k``), a spanning-forest sketch per ``G_i``, and the union
``H = T_1 ∪ ... ∪ T_R`` of decoded forests.  They differ only in how
``R`` is chosen and what question is asked of ``H``.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.batch import (
    expand_pair_batch,
    fold_cells,
    index_sums,
    pairs_of_updates,
)
from ..errors import DomainError
from ..graph.graph import Graph
from ..graph.hypergraph import Hypergraph
from ..sketch import bank
from ..sketch.incidence import IncidenceScheme
from ..sketch.l0 import default_levels
from ..sketch.spanning_forest import (
    EdgeSpaceCache,
    SpanningForestSketch,
    decode_stack,
)
from ..util.hashing import (
    derive_seed,
    field_residue_np,
    hash64_many,
    hash64_premixed,
    premix64_np,
    splitmix64_np,
    trailing_zeros64_np,
)
from ..util.prime_field import MERSENNE_61, mul_vec_mod
from ..util.rng import normalize_seed
from .params import DEFAULT_PARAMS, Params

_P = MERSENNE_61


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR expansion of a nonempty ``counts``: the ``(owner, local)``
    index pair of each of the ``counts[j]`` rows that ``j`` owns."""
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(counts.size), counts)
    local = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    return owner, local


class SampledForestUnion:
    """R vertex-sampled spanning-forest sketches plus the union decode.

    The counters of all R instances live in **one contiguous int64
    arena**: the block of instance ``i``'s
    :class:`~repro.sketch.bank.SamplerGrid` is the slice
    ``arena[base_i : base_i + 3 · plane_i]`` (live instances in
    ascending id order, each slice its weight / index-sum /
    fingerprint planes back to back), adopted zero-copy through the
    grid's ``block=`` storage seam.  Stream updates fold into the arena
    through one cross-instance kernel (:meth:`update_batch`);
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
        concatenate their seeds and offsets for the kernel.

        The kernel addresses a counter by *global group*: instance
        ``i``'s Borůvka group ``g`` is row ``_group_ptr[i] + g`` of
        ``_group_seeds`` (column 0 its level seed, columns ``1..rows``
        its bucket seeds) and of ``_group_base`` (arena offset of the
        group's first weight counter).  No table here is larger than
        ``R × n`` words.
        """
        params, R = self.params, self.repetitions
        rows, buckets = params.rows, params.buckets
        levels = default_levels(self.scheme.dimension)
        stride = levels * rows * buckets  # counters of one (group, member)
        sampled = self.membership.sum(axis=1)
        # An instance with < 2 sampled vertices never sees an edge: it
        # gets no groups, no slice and no sketch.
        groups = np.array([
            max(1, int(m).bit_length() + params.rounds_slack) if m >= 2 else 0
            for m in sampled
        ])
        self._levels, self._member_stride = levels, stride
        self._groups = groups
        self._group_ptr = np.cumsum(groups) - groups
        #: counters in one plane of instance i's block — the distance
        #: from a weight cell to its index-sum cell, and from there to
        #: its fingerprint cell
        self._plane = groups * sampled * stride
        #: arena offset of instance i's slice (planes w, s, f in order)
        self._base = 3 * (np.cumsum(self._plane) - self._plane)
        # np.zeros maps untouched pages: the arena is resident only
        # where the stream has written.
        self._arena = np.zeros(3 * int(self._plane.sum()), dtype=np.int64)
        self._group_seeds = np.zeros((int(groups.sum()), 1 + rows), np.uint64)
        self._group_base = np.zeros(int(groups.sum()), dtype=np.int64)
        self._salts = np.zeros((R, levels), dtype=np.uint64)
        self._rho_seeds = np.zeros((R, 2), dtype=np.uint64)
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
            at = slice(self._group_ptr[i], self._group_ptr[i] + groups[i])
            # The grid already holds its seeds in the kernels' array form.
            self._group_seeds[at] = grid._hashes.group_seeds
            tiebreak_seeds[at] = grid._hashes.tiebreak_seeds
            self._group_base[at] = self._base[i] + np.arange(groups[i]) * (
                sampled[i] * stride
            )
            self._salts[i] = grid._hashes.salts[0]
            self._rho_seeds[i] = grid._hashes.rho_seeds[0]
        #: the decode kernel's view of the same seeds, instance = owner
        self._hashes = bank.HashStack(
            self.scheme.dimension, levels, rows, buckets, self._group_seeds,
            tiebreak_seeds, self._salts, self._rho_seeds,
            np.repeat(np.arange(R), groups), self._group_ptr,
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
        endpoints (:meth:`update_batch` of one)."""
        self.update_batch([(edge, sign)])

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
        index: List[int] = []
        ptr: List[int] = [0]
        verts: List[int] = []
        coef: List[int] = []
        for u in updates:
            edge, sign = (u.edge, u.sign) if hasattr(u, "edge") else u
            if sign not in (1, -1):
                raise DomainError(f"sign must be +1 or -1, got {sign}")
            index.append(self.scheme.index_of(edge))
            for vertex, c in self.scheme.coefficients(edge):
                # the int64 array below would truncate 1.5 to vertex 1
                if not float(vertex).is_integer():
                    raise DomainError(
                        f"edge {tuple(edge)} touches non-integer vertex {vertex}"
                    )
                verts.append(vertex)
                coef.append(sign * c)
            ptr.append(len(verts))
        return self._fold(
            np.array(index, dtype=np.int64),
            np.array(ptr, dtype=np.int64),
            np.array(verts, dtype=np.int64),
            np.array(coef, dtype=np.int64),
        )

    def update_batch_pairs(self, us, vs, signs) -> int:
        """:meth:`update_batch` for rank-2 edges given as parallel arrays
        (the array form :meth:`SpanningForestSketch.update_batch_pairs`
        takes)."""
        # With every vertex "active" as itself, the pair expansion's
        # members are the endpoints: one validation, one closed-form
        # coordinate, shared with the per-sketch path.
        verts, index, coef = expand_pair_batch(
            self.scheme, np.arange(self.n), us, vs, signs
        )
        return self._fold(
            index[0::2], np.arange(0, verts.size + 1, 2), verts, coef
        )

    def _fold(self, index, ptr, verts, coef) -> int:
        """Route validated edges to their instances and fold them in.

        Edge ``e`` has coordinate ``index[e]`` and incidence rows
        ``ptr[e]:ptr[e+1]`` of ``(verts, coef)`` — vertex and signed
        coefficient, the minimum vertex first.
        """
        events = index.size
        if events == 0:
            return 0
        self._updates += events
        width = np.diff(ptr)
        hit = np.logical_and.reduceat(
            self.membership[:, verts], ptr[:-1], axis=1
        )
        i_p, e_p = np.nonzero(hit)  # (instance, edge) pairs, i_p ascending
        if i_p.size:
            self._fold_pairs(i_p, e_p, index, ptr, verts, coef, width)
        return events

    def _fold_pairs(self, i_p, e_p, index, ptr, verts, coef, width) -> None:
        """The cross-instance kernel: (instance, edge) pairs → arena.

        Three CSR expansions take the pairs to counter cells: a pair →
        its instance's Borůvka groups; a group → the levels
        ``0..depth`` the coordinate survives to; a level → the edge's
        incidence rows.  The coordinate is mixed once per edge and
        hashed once per (pair, group) under the concatenated
        level/bucket seeds — not once per endpoint, as the scalar route
        does — and every cell of every instance goes through one
        :func:`~repro.engine.batch.fold_cells`.  Then each hit instance
        gets the bookkeeping its scalar ``update`` does: its incidence
        rows counted, its mutation counter and touched members' epochs
        bumped, and its digest, if any, moved by the fold entries that
        landed in its block.
        """
        rows, buckets = self.params.rows, self.params.buckets
        mixed = premix64_np(index)[e_p]
        width = width[e_p]
        # (pair, group): one level hash and `rows` bucket hashes.
        p_q, g_q = _expand(self._groups[i_p])
        group = self._group_ptr[i_p][p_q] + g_q
        h = hash64_premixed(self._group_seeds[group], mixed[p_q][:, None])
        depth = np.minimum(trailing_zeros64_np(h[:, 0]), self._levels - 1)
        # (pair, group, level): the in-member cell offset per row.
        q_t, lvl = _expand(depth + 1)
        p_t = p_q[q_t]
        bucket = splitmix64_np(
            h[q_t, 1:] ^ self._salts[i_p[p_t], lvl][:, None]
        ) % np.uint64(buckets)
        cell = (
            lvl[:, None] * rows + np.arange(rows)
        ) * buckets + bucket.astype(np.int64)
        # (pair, incidence row): member, delta and the two residues.
        p_u, c_u = _expand(width)
        v_u = ptr[e_p][p_u] + c_u
        i_u = i_p[p_u]
        delta = coef[v_u]
        cs = index_sums(delta, index[e_p][p_u], self.scheme.dimension)
        rho = hash64_premixed(self._rho_seeds[i_p], mixed[:, None])
        cf = mul_vec_mod(
            delta % _P, field_residue_np(rho[:, 0], rho[:, 1], _P)[p_u]
        )
        member = self._member_lut[i_u, verts[v_u]]
        member_at = member * self._member_stride
        # (pair, group, level, incidence row) x rows: the cells touched.
        t_x, c_x = _expand(width[p_t])
        u_x = (np.cumsum(width) - width)[p_t][t_x] + c_x
        flat = (
            (self._group_base[group][q_t][t_x] + member_at[u_x])[:, None]
            + cell[t_x]
        ).reshape(-1)
        u_n = np.repeat(u_x, rows)
        entries = fold_cells(
            (self._arena,) * 3, flat, delta[u_n], cs[u_n], cf[u_n],
            plane_shift=self._plane[i_u][u_n],
        )
        # Rows and entries both come in pair order, so in runs of
        # ascending instance.
        insts, lo = np.unique(i_u, return_index=True)
        hi = np.r_[lo[1:], i_u.size]
        audited = []
        for i, a, b in zip(insts.tolist(), lo.tolist(), hi.tolist()):
            grid = self.sketches[i].grid
            grid._updates += b - a
            grid._touch_members(member[a:b])
            if grid._digest is not None:
                audited.append(i)
        if audited:
            owner = i_u[u_n]
            lo = np.searchsorted(owner, audited)
            hi = np.searchsorted(owner, audited, side="right")
            for i, a, b in zip(audited, lo.tolist(), hi.tolist()):
                grid = self.sketches[i].grid
                cells, d, c_s, c_f = (e[a:b] for e in entries)
                grid._digest.observe_cells(
                    grid, cells - self._base[i], d, c_s, c_f
                )

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

    def decode_union_graph(self) -> Graph:
        """H as an ordinary graph (rank-2 inputs only)."""
        return self.decode_union().to_graph()

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
