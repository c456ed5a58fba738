"""AGM spanning-graph sketches for graphs and hypergraphs.

Implements the primitive the paper's Theorem 2 cites (Ahn, Guha,
McGregor: a vertex-based sketch of size O(n polylog n) from which a
spanning forest can be built w.h.p.) and its hypergraph generalisation,
the paper's Theorem 13 — the construction in Section 4.1: per-vertex L0
sketches of the signed incidence rows, decoded with Borůvka rounds.

Key facts the implementation leans on:

* summing the member sketches of a component ``S`` (within one round's
  shared randomness) yields an L0 sketch of ``δ(S)``, so sampling it
  returns a hyperedge *leaving* the component — a verified one, thanks
  to the cell fingerprints;
* each Borůvka round uses a **fresh, independent** group of sketches:
  Section 4.2's cautionary discussion explains why reusing one sketch
  across adaptively chosen components would void the union bound, so
  the number of rounds is fixed up front at ``O(log n)``.

The sketch is vertex-based in the paper's Definition 1 sense; the
communication layer (:mod:`repro.comm`) serialises one member's state
as a player message.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import DomainError, IncompatibleSketchError, SamplerFailedError
from ..graph.hypergraph import Hypergraph
from ..graph.union_find import UnionFind
from ..util.hashing import derive_seed
from ..util.rng import normalize_seed
from . import bank
from .bank import SamplerGrid, SummedBatch, _sum_slots
from .incidence import IncidenceScheme

#: Counter cells one pass of :func:`decode_stack` gathers in its first
#: round: about what one n=1024 round handles.  All R = 132 instances
#: of a Theorem 4 structure in a single pass (~1.3M cells) measured
#: 405 MB peak RSS against 345 MB (``docs/query.md``).
_PASS_CELLS = 1 << 19


def default_rounds(active_vertices: int) -> int:
    """Borůvka rounds: log2 of the active-vertex count plus slack."""
    return max(1, active_vertices.bit_length() + 3)


class SpanningForestSketch:
    """Linear sketch from which a spanning graph can be decoded.

    Parameters
    ----------
    n:
        Total number of vertices in the ambient graph.
    r:
        Maximum hyperedge cardinality (2 = ordinary graph).
    seed:
        Randomness seed; sketches combine linearly iff all parameters
        and the seed agree.
    vertices:
        Optional active subset.  Only edges among active vertices may
        be inserted, and the decoded spanning graph spans the induced
        components — this is how the vertex-connectivity algorithms
        sketch the vertex-sampled graphs ``G_i`` cheaply (each ``G_i``
        has ~n/k vertices, giving the space bound of Theorems 4/8).
    rounds:
        Number of independent Borůvka groups.
    rows, buckets, levels:
        L0 sampler geometry (see :mod:`repro.sketch.bank`).
    block:
        Caller-owned counter storage, handed to
        :class:`~repro.sketch.bank.SamplerGrid` (``block=``) as is.
    """

    def __init__(
        self,
        n: int,
        r: int = 2,
        seed: Optional[int] = None,
        vertices: Optional[Sequence[int]] = None,
        rounds: Optional[int] = None,
        rows: int = 2,
        buckets: int = 8,
        levels: Optional[int] = None,
        block=None,
    ):
        self.scheme = IncidenceScheme(EdgeSpaceCache.get(n, r))
        self.n = n
        self.r = r
        if vertices is None:
            self.vertices: Tuple[int, ...] = tuple(range(n))
        else:
            self.vertices = tuple(sorted(set(vertices)))
            if self.vertices and (self.vertices[0] < 0 or self.vertices[-1] >= n):
                raise DomainError("active vertices outside [0, n)")
        if not self.vertices:
            raise DomainError("sketch needs at least one active vertex")
        self._member_of: Dict[int, int] = {v: i for i, v in enumerate(self.vertices)}
        self.rounds = rounds if rounds is not None else default_rounds(len(self.vertices))
        self.seed = normalize_seed(seed)
        self.grid = SamplerGrid(
            groups=self.rounds,
            members=len(self.vertices),
            domain=self.scheme.dimension,
            seed=derive_seed(self.seed, 0x5F0),
            rows=rows,
            buckets=buckets,
            levels=levels,
            block=block,
        )

    # -- streaming ------------------------------------------------------

    def contains_vertexwise(self, edge: Sequence[int]) -> bool:
        """True if every endpoint of the edge is active."""
        return all(v in self._member_of for v in edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Insert (+1) or delete (-1) a hyperedge."""
        if sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {sign}")
        index = self.scheme.index_of(edge)
        for vertex, coeff in self.scheme.coefficients(edge):
            member = self._member_of.get(vertex)
            if member is None:
                raise DomainError(
                    f"edge {tuple(edge)} touches inactive vertex {vertex}"
                )
            self.grid.update(member, index, sign * coeff)

    def update_batch(self, updates) -> int:
        """Apply a whole batch of signed hyperedge updates at once.

        ``updates`` is an iterable of
        :class:`~repro.stream.updates.EdgeUpdate` (or ``(edge, sign)``
        pairs).  The batch is expanded into signed incidence-row
        updates and folded through the vectorised grid kernel —
        bit-identical to calling :meth:`update` per event, but much
        faster on heavy streams.  Returns the number of incidence-row
        updates applied.
        """
        return self.grid.update_batch(*self.incidence(updates))

    def incidence(self, updates) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(members, indices, deltas)`` incidence-row triple of a
        batch of signed hyperedges: what :meth:`update_batch` folds and
        what a decode's ``minus=`` removes.  Rank-2 batches take the
        vectorised pair expansion; anything else (and any malformed
        event) the generic one, which raises its exact validation
        errors."""
        from ..engine.batch import (
            expand_edge_batch, expand_pair_batch, pairs_of_updates,
        )

        if self.r == 2:
            # Materialise once: the fast-path probe must not consume a
            # one-shot iterator the generic fallback still needs.
            updates = updates if isinstance(updates, list) else list(updates)
            fast = pairs_of_updates(updates)
            if fast is not None:
                return expand_pair_batch(self.scheme, self._member_lut(), *fast)
        return expand_edge_batch(self.scheme, self._member_of, updates)

    def _member_lut(self):
        """Vertex-id -> member numpy lookup table (-1 = inactive)."""
        lut = getattr(self, "_member_lut_arr", None)
        if lut is None:
            lut = np.full(self.n, -1, dtype=np.int64)
            for v, m in self._member_of.items():
                lut[v] = m
            self._member_lut_arr = lut
        return lut

    def update_batch_pairs(self, us, vs, signs) -> int:
        """Apply a batch of signed rank-2 edges given as parallel arrays.

        The all-numpy sibling of :meth:`update_batch`: endpoints and
        signs arrive as arrays (the serving layer's binary ingest
        codec decodes straight into this form), the incidence expansion
        is vectorised (:func:`repro.engine.batch.expand_pair_batch`),
        and the result is bit-identical to updating the same edges one
        at a time.  Returns the number of incidence-row updates.
        """
        from ..engine.batch import expand_pair_batch

        members, indices, deltas = expand_pair_batch(
            self.scheme, self._member_lut(), us, vs, signs
        )
        return self.grid.update_batch(members, indices, deltas)

    def attach_hash_cache(self, max_bytes: int = 1 << 28) -> int:
        """Precompute placement tables for sustained ingest; see
        :meth:`repro.sketch.bank.SamplerGrid.attach_hash_cache`.
        Returns the table footprint in bytes."""
        return self.grid.attach_hash_cache(max_bytes=max_bytes)

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of a hyperedge."""
        self.update(edge, 1)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of a hyperedge."""
        self.update(edge, -1)

    def update_local(self, vertex: int, edge: Sequence[int], sign: int) -> None:
        """Apply only ``vertex``'s own coefficient of the edge.

        This is the *vertex-based* property of Definition 1 made
        operational: the measurements local to ``vertex`` depend only
        on edges incident to it, so a distributed player holding just
        those edges can compute its share of the sketch
        (see :mod:`repro.comm.simultaneous`).  Applying ``update_local``
        for every endpoint of an edge is equivalent to ``update``.
        """
        if sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {sign}")
        index = self.scheme.index_of(edge)
        for v, coeff in self.scheme.coefficients(edge):
            if v == vertex:
                member = self._member_of.get(vertex)
                if member is None:
                    raise DomainError(f"vertex {vertex} is not active")
                self.grid.update(member, index, sign * coeff)
                return
        raise DomainError(f"vertex {vertex} is not an endpoint of {tuple(edge)}")

    # -- linearity --------------------------------------------------------

    def _check_compatible(self, other: "SpanningForestSketch") -> None:
        if (
            self.n != other.n
            or self.r != other.r
            or self.vertices != other.vertices
            or self.rounds != other.rounds
            or self.seed != other.seed
        ):
            raise IncompatibleSketchError("spanning-forest sketches incompatible")

    def __iadd__(self, other: "SpanningForestSketch") -> "SpanningForestSketch":
        self._check_compatible(other)
        self.grid += other.grid
        return self

    def __isub__(self, other: "SpanningForestSketch") -> "SpanningForestSketch":
        self._check_compatible(other)
        self.grid -= other.grid
        return self

    def copy(self) -> "SpanningForestSketch":
        """An independent deep copy (shares only immutable structure)."""
        out = SpanningForestSketch.__new__(SpanningForestSketch)
        out.__dict__.update(self.__dict__)
        out.grid = self.grid.copy()
        return out

    # -- decoding -----------------------------------------------------------

    def decode(self, strict: bool = False, minus: Iterable = ()) -> Hypergraph:
        """Borůvka-decode a spanning graph of the sketched (hyper)graph.

        Returns a hypergraph on the ambient ``n`` vertices containing
        the recovered spanning edges.  Every returned hyperedge is a
        genuine edge of the sketched graph (fingerprint-verified); with
        the default parameters the result spans every component w.h.p.

        With ``strict=False`` (default) decode failures are silent in
        the sense that an undersized sketch may return a forest with
        too many components — callers that need certainty compare
        component counts against other information (see the
        theorem-validation benchmarks).  With ``strict=True`` the
        *detectable* probabilistic failure — a component whose summed
        sketch is provably nonzero but no subsampling level isolates a
        coordinate — raises :class:`~repro.errors.SamplerFailedError`
        (a :class:`~repro.errors.SketchDecodeError`) instead of being
        swallowed, which is what the degraded-decoding layer
        (:mod:`repro.core.degraded`) retries and falls back on.

        ``minus`` lists hyperedges to decode the sketch of ``G − minus``
        from, by linearity, without writing a counter (the peel of
        Theorem 14): they are subtracted from each round's gathered
        component sums, never from the grid.

        A single sketch is a stack of one: see :func:`decode_stack`.
        """
        grid = self.grid
        coords, _, failed = decode_stack(
            self.scheme, grid._hashes, grid._slots(), [grid],
            self._member_lut()[None], np.zeros(1, dtype=np.int64), [0],
            minus=self.incidence([(e, 1) for e in minus]),
        )
        if strict and failed[0]:
            raise SamplerFailedError("no subsampling level decoded")
        return self.scheme.hypergraph_of(coords)

    def appears_zero(self, minus: Iterable = ()) -> bool:
        """Whether every counter of the sketch of ``G − minus`` vanishes
        (every group, every member), computed without writing: each
        group's members as singleton components, ``minus`` subtracted
        from those sums."""
        grid = self.grid
        drop = self.incidence([(e, 1) for e in minus])
        members = np.arange(grid.members)
        for group in range(grid.groups):
            batch = grid.summed_segments(group, members, np.ones_like(members))
            batch.subtract(*drop)
            if not batch.appears_zero_many().all():
                return False
        return True

    def components_of_decode(self) -> List[List[int]]:
        """Components of the decoded spanning graph, restricted to the
        active vertex set."""
        forest = self.decode()
        uf = UnionFind(self.n)
        for e in forest.edges():
            uf.union_many(e)
        groups: Dict[int, List[int]] = {}
        for v in self.vertices:
            groups.setdefault(uf.find(v), []).append(v)
        return [sorted(g) for g in groups.values()]

    def is_connected(self) -> bool:
        """Whether the sketched graph appears connected on the active set."""
        return len(self.components_of_decode()) == 1

    def estimate_degree(self, vertex: int, group: int = 0) -> Optional[int]:
        """Estimate the vertex's degree (its incidence row's support).

        A dynamic distinct-count query for free: the L0 levels of the
        vertex's own sketch estimate ‖a_v‖₀ = deg(v).  Exact for
        degrees within the level-0 recovery capacity; ``None`` when no
        level certifies.  The shallowest level that peels to zero
        holds each neighbour with probability 2^-ℓ, so its support
        size times 2^ℓ is the estimate; a certified-empty level says
        little, so only a nonempty one (or level 0) answers.
        """
        member = self._member_of.get(vertex)
        if member is None:
            raise DomainError(f"vertex {vertex} is not active")
        if not 0 <= group < self.rounds:
            raise DomainError(f"group {group} outside [0, {self.rounds})")
        one = np.array([member])
        batch = self.grid.summed_segments(group, one, np.ones_like(one))
        # One component, so unit u of the peel is level u.
        zero, residual, unit, index, weight, _ = batch._recover_levels_many()
        if zero[0]:
            return 0
        for lvl in np.flatnonzero(~residual).tolist():
            at = unit == lvl
            coords, label = np.unique(index[at], return_inverse=True)
            sums = np.bincount(label, weight[at], coords.size)
            size = int(np.count_nonzero(sums))  # cancelled weights drop out
            if size or lvl == 0:
                return size << lvl
        return None

    # -- accounting -----------------------------------------------------------

    def space_counters(self) -> int:
        """Machine words of state."""
        return self.grid.space_counters()

    def space_bytes(self) -> int:
        """Bytes of counter state."""
        return self.grid.space_bytes()


def decode_stack(scheme, hashes, slots, grids, luts, base, todo, minus=None):
    """Borůvka-decode many independent sketches in one batched loop.

    The sketches share ``scheme`` and one counter buffer ``slots``
    (:func:`~repro.sketch.bank._sum_slots`).  Instance ``i`` of
    ``hashes`` (a :class:`~repro.sketch.bank.HashStack`) is
    ``grids[i]``: its samplers start at slot ``base[i]``, ``luts[i]``
    maps a vertex to its member.  Returns ``(coordinates, instance,
    failed)``: every spanning edge of the instances in ``todo`` with
    the instance it belongs to, and per instance whether a round it ran
    reported a component FAILED — exactly when its strict decode raises.

    The instances form one disjoint graph over global node ids
    (instance-major, members ascending); round ``g`` reads group ``g``
    of every instance still running, in passes of ``_PASS_CELLS``.
    Components sort by smallest node and an instance leaves exactly
    when its own loop would (spanned, no merge this round, rounds
    exhausted), so each forest is the one a lone decode finds
    (``docs/query.md``).  Each round's components are sampled by
    :func:`_sample_round`.

    ``minus`` is an incidence triple ``(nodes, indices, deltas)``
    (global node ids; for one instance, its members) of entries to
    decode without: each round they are subtracted from the gathered
    component sums, which by linearity decodes the sketch of the graph
    minus those edges and leaves the counters untouched.
    """
    metrics = bank._QUERY_METRICS
    todo = np.asarray(todo, dtype=np.int64)
    members, rounds = np.zeros((2, hashes.first.size), dtype=np.int64)
    for i in todo.tolist():
        members[i], rounds[i] = grids[i].members, grids[i].groups
    failed = np.zeros(members.size, dtype=bool)
    found = [(np.empty(0, dtype=np.int64),) * 2]
    ahead = (np.cumsum(members[todo]) - members[todo]) * (
        hashes.levels * hashes.rows * hashes.buckets
    )
    if minus is None:
        minus = (np.empty(0, dtype=np.int64),) * 3
    offset = 0  # global id of the pass's node 0
    for ids in np.split(todo, np.flatnonzero(np.diff(ahead // _PASS_CELLS)) + 1):
        inst = np.repeat(ids, members[ids])  # node -> instance
        mine = (minus[0] >= offset) & (minus[0] < offset + inst.size)
        drop_node, drop_index, drop_delta = (a[mine] for a in minus)
        drop_node -= offset
        offset += inst.size
        ptr = np.zeros_like(members)  # instance -> its first node
        ptr[ids] = np.cumsum(members[ids]) - members[ids]
        member = np.arange(inst.size) - ptr[inst]  # node -> grid member
        smallest = np.arange(inst.size)  # node -> its component's smallest
        uf = UnionFind(inst.size)
        parts = members.copy()  # components left, per instance
        active = np.isin(np.arange(members.size), ids)
        for rnd in range(int(rounds[ids].max())):
            active &= (parts > 1) & (rounds > rnd)
            nodes = np.flatnonzero(active[inst])
            if not nodes.size:
                break
            if metrics is not None:
                metrics.decode_rounds += 1
            if rnd:
                roots = np.fromiter(
                    map(uf.find, nodes.tolist()), np.int64, nodes.size
                )
                _, first, label = np.unique(
                    roots, return_index=True, return_inverse=True
                )
                smallest[nodes] = nodes[first[label]]
            # Components as a flat layout: ``order`` lists nodes grouped
            # by component (components by smallest node, nodes
            # ascending), ``sizes`` the component lengths.
            order = nodes[np.argsort(smallest[nodes], kind="stable")]
            sizes = np.bincount(smallest[nodes])
            sizes = sizes[sizes > 0]
            ends = np.cumsum(sizes)
            at, local = inst[order], member[order]
            owner = at[ends - sizes]  # component -> instance
            # The removed entries of running instances, by the component
            # holding their node: components are numbered by smallest
            # node, which ``order[ends - sizes]`` lists ascending.
            live = active[inst[drop_node]]
            comp = np.searchsorted(order[ends - sizes], smallest[drop_node[live]])
            ok, bad, index = _sample_round(
                hashes, slots, grids, rnd, owner, local, sizes,
                base[at] + rnd * members[at] + local, (members * rounds)[at],
                (comp, drop_index[live], drop_delta[live]),
            )
            failed[owner[bad]] = True
            coords, src = index[ok], owner[ok]
            vertices = scheme.edges_of(coords)
            rows = np.where(
                vertices >= 0,
                ptr[src][:, None] + luts[src[:, None], vertices], -1,
            )
            left = [uf.components]
            for row in rows.tolist():
                uf.union_many([v for v in row if v >= 0])
                left.append(uf.components)
            # An edge joins the forest iff it merged something.
            merged = np.bincount(src, -np.diff(left), members.size).astype(np.int64)
            kept = np.flatnonzero(np.diff(left))
            parts -= merged
            active &= merged > 0
            found.append((coords[kept], src[kept]))
    coords, src = (np.concatenate(col) for col in zip(*found))
    return coords, src, failed


def _sample_round(hashes, slots, grids, rnd, owner, members, sizes, w_slot,
                  plane, drop):
    """Sample one edge leaving each component of Borůvka round ``rnd``.

    The components are consecutive runs of ``sizes`` nodes: component
    ``c``'s run lists its members of ``grids[owner[c]]`` in ``members``
    and, position for position, their weight-sampler slots of group
    ``rnd`` in ``slots`` (``w_slot``, residue planes ``plane`` slots on).
    ``drop`` is a ``(component, index, delta)`` triple subtracted from
    the sums first.  Returns ``(ok, failed, index)`` per component.

    The one sampling path of :func:`decode_stack`, and the seam the
    scalar oracle (:func:`repro.sketch.reference.sample_round`)
    replaces in tests.
    """
    batch = SummedBatch(
        hashes, grids, hashes.first[owner] + rnd,
        *_sum_slots(slots, w_slot, plane, sizes),
    )
    batch.subtract(*drop)
    ok, bad, index, _weight = batch.drain_arrays()
    return ok, bad, index


class EdgeSpaceCache:
    """Process-wide cache of :class:`EdgeSpace` instances.

    Edge spaces are immutable and repeatedly needed with identical
    parameters (every sketch in a composite algorithm shares one); the
    cache keeps the binomial tables warm.
    """

    _cache: Dict[Tuple[int, int], "EdgeSpace"] = {}

    @classmethod
    def get(cls, n: int, r: int):
        from ..util.binomial import EdgeSpace

        key = (n, r)
        if key not in cls._cache:
            cls._cache[key] = EdgeSpace(n, r)
        return cls._cache[key]
