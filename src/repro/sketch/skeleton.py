"""k-skeleton sketches (paper Theorem 14).

A k-skeleton (Definition 11) preserves every cut up to size k:
``|δ_H'(S)| >= min(|δ_H(S)|, k)``.  The construction is the one the
paper inherits from Ahn et al.: ``F_1 ∪ ... ∪ F_k`` where ``F_i`` is a
spanning graph of ``G - F_1 - ... - F_{i-1}``.

The streaming subtlety — belaboured by the paper in Section 4.2 — is
that the k spanning-graph sketches **must be independent**: ``F_i`` is
a function of sketch randomness, so decoding ``F_{i+1}`` from the same
sketch that produced ``F_i`` would condition the randomness and void
the union bound.  Hence ``SkeletonSketch`` owns ``k`` independently
seeded :class:`SpanningForestSketch` instances and peels:

    A^i(G - F_1 - ... - F_{i-1}) = A^i(G) - Σ_j A^i(F_j)

using linearity (the decoder knows each F_j explicitly).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..errors import DomainError, IncompatibleSketchError
from ..graph.hypergraph import Hypergraph
from ..util.hashing import derive_seed
from ..util.rng import normalize_seed
from .spanning_forest import SpanningForestSketch


class SkeletonSketch:
    """Vertex-based sketch from which a k-skeleton can be decoded.

    Parameters mirror :class:`SpanningForestSketch`, plus ``k``: the
    number of peeling layers (so the decoded subgraph is a k-skeleton).
    Space is ``k`` times a spanning sketch — the O(k n polylog n) of
    Theorem 14.
    """

    def __init__(
        self,
        n: int,
        k: int,
        r: int = 2,
        seed: Optional[int] = None,
        vertices: Optional[Sequence[int]] = None,
        rounds: Optional[int] = None,
        rows: int = 2,
        buckets: int = 8,
        levels: Optional[int] = None,
    ):
        if k < 1:
            raise DomainError(f"skeleton needs k >= 1, got {k}")
        self.n = n
        self.k = k
        self.r = r
        self.seed = normalize_seed(seed)
        self.layers: List[SpanningForestSketch] = [
            SpanningForestSketch(
                n,
                r=r,
                seed=derive_seed(self.seed, 0x5CE1, i),
                vertices=vertices,
                rounds=rounds,
                rows=rows,
                buckets=buckets,
                levels=levels,
            )
            for i in range(k)
        ]

    # -- streaming ------------------------------------------------------

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Insert (+1) or delete (-1) a hyperedge in every layer sketch."""
        for layer in self.layers:
            layer.update(edge, sign)

    def update_batch(self, updates) -> int:
        """Apply a batch of signed hyperedge updates to every layer.

        The incidence-row expansion is computed once by the first
        layer's :meth:`SpanningForestSketch.incidence` (all layers share
        the same edge space and active-vertex mapping, and a rank-2
        batch takes its vectorised pair expansion) and folded into
        each layer's grid through the vectorised kernel.  Bit-identical
        to per-event :meth:`update`.  Returns the number of
        incidence-row updates applied per layer.
        """
        return self._fold_incidence(*self.layers[0].incidence(updates))

    def update_batch_pairs(self, us, vs, signs) -> int:
        """Array-form rank-2 batch update of every layer.

        Mirrors :meth:`SpanningForestSketch.update_batch_pairs`: the
        vectorised incidence expansion runs once and folds into each
        layer's grid.  Returns the incidence-row updates per layer.
        """
        from ..engine.batch import expand_pair_batch

        first = self.layers[0]
        return self._fold_incidence(*expand_pair_batch(
            first.scheme, first._member_lut(), us, vs, signs
        ))

    def _fold_incidence(self, members, indices, deltas) -> int:
        """Fold one incidence-row triple into every layer's grid."""
        applied = 0
        for layer in self.layers:
            applied = layer.grid.update_batch(members, indices, deltas)
        return applied

    def attach_hash_cache(self) -> int:
        """Precompute placement tables for every layer grid; returns
        the total table footprint in bytes (0: none attached)."""
        return sum(layer.attach_hash_cache() for layer in self.layers)

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion."""
        self.update(edge, 1)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion."""
        self.update(edge, -1)

    # -- linearity --------------------------------------------------------

    def __iadd__(self, other: "SkeletonSketch") -> "SkeletonSketch":
        if self.k != other.k or self.seed != other.seed:
            raise IncompatibleSketchError("skeleton sketches incompatible")
        for mine, theirs in zip(self.layers, other.layers):
            mine += theirs
        return self

    def __isub__(self, other: "SkeletonSketch") -> "SkeletonSketch":
        if self.k != other.k or self.seed != other.seed:
            raise IncompatibleSketchError("skeleton sketches incompatible")
        for mine, theirs in zip(self.layers, other.layers):
            mine -= theirs
        return self

    def copy(self) -> "SkeletonSketch":
        """An independent deep copy (shares only immutable structure)."""
        out = SkeletonSketch.__new__(SkeletonSketch)
        out.__dict__.update(self.__dict__)
        out.layers = [layer.copy() for layer in self.layers]
        return out

    # -- decoding -----------------------------------------------------------

    def decode_layers(
        self, strict: bool = False, skip: Sequence[int] = (),
        minus: Iterable[Sequence[int]] = (),
    ) -> List[Hypergraph]:
        """The peeled spanning graphs ``F_1, ..., F_k`` of ``G − minus``.

        A read: layer ``i`` decodes with ``minus`` and the forests
        recovered before it passed as its decode's ``minus=``, so the
        counters are never written.
        ``strict`` propagates to each layer's
        :meth:`~repro.sketch.spanning_forest.SpanningForestSketch.
        decode`, so detectable per-layer decode failures raise instead
        of silently thinning the skeleton.  ``skip`` lists layer
        indices to leave undecoded (their slot in the result is an
        empty graph) — the route for layers an integrity audit flagged
        as corrupted; the remaining layers still peel correctly because
        the peel only ever subtracts forests that *were* decoded.
        """
        skipped = set(skip)
        forests: List[Hypergraph] = []
        recovered: List[Sequence[int]] = list(minus)
        peeled = set()
        for i, layer in enumerate(self.layers):
            if i in skipped:
                forests.append(Hypergraph(self.n, self.r))
                continue
            forest = layer.decode(strict=strict, minus=recovered)
            forests.append(forest)
            # A layer decodes G minus what came before, so it cannot
            # return an earlier edge; a faulty one that does is still
            # peeled once (``decode`` refuses an edge twice in
            # ``minus``), and ``certify_skeleton`` reports the repeat.
            fresh = [e for e in forest.edges() if e not in peeled]
            peeled.update(fresh)
            recovered.extend(fresh)
        return forests

    def decode(
        self, strict: bool = False, skip: Sequence[int] = (),
        minus: Iterable[Sequence[int]] = (),
    ) -> Hypergraph:
        """The k-skeleton ``F_1 ∪ ... ∪ F_k`` of ``G − minus``.

        With ``skip`` (corrupted-layer exclusion) the result is only a
        (k - len(skip))-skeleton — still a subgraph preserving cuts up
        to the reduced threshold.
        """
        skeleton = Hypergraph(self.n, self.r)
        for forest in self.decode_layers(strict=strict, skip=skip, minus=minus):
            for e in forest.edges():
                skeleton.add_edge(e)
        return skeleton

    def decode_connectivity_only(
        self, strict: bool = False, skip: Sequence[int] = ()
    ) -> Hypergraph:
        """Degraded fallback: a spanning graph from one layer only.

        Preserves connectivity/component structure but none of the
        higher cut sizes — the weaker-but-available answer when the
        full k-layer peel fails to decode (see
        :mod:`repro.core.degraded`).  Uses the first layer not in
        ``skip`` (so a corrupted layer 0 doesn't take the fallback
        down with it).
        """
        skipped = set(skip)
        for i, layer in enumerate(self.layers):
            if i not in skipped:
                return layer.decode(strict=strict)
        raise IncompatibleSketchError(
            "every skeleton layer is excluded; nothing left to decode"
        )

    # -- accounting -----------------------------------------------------------

    def space_counters(self) -> int:
        """Machine words of state (k independent spanning sketches)."""
        return sum(layer.space_counters() for layer in self.layers)

    def space_bytes(self) -> int:
        """Bytes of counter state."""
        return sum(layer.space_bytes() for layer in self.layers)
