"""Dynamic hypergraph sparsification (paper Section 5, Theorem 20).

The first dynamic-stream (insert + delete) hypergraph sparsifier, and
— specialised to rank 2 — the paper's "significantly simpler" approach
to dynamic graph sparsification.

Algorithm (verbatim from the paper, Section 5):

1. Maintain subsampled hypergraphs ``G_0 ⊇ G_1 ⊇ G_2 ⊇ ...`` where
   ``G_i`` keeps each hyperedge of ``G_{i-1}`` independently with
   probability 1/2 (implemented with a shared hash: edge ``e`` survives
   to level ``i`` iff its hash has >= i trailing zero bits, so all
   parties agree on membership).
2. For each level maintain a light-edge recovery sketch
   (:class:`~repro.core.light_edges.LightEdgeRecoverySketch`) with
   strength threshold ``k = O(ε⁻²(log n + r))``.
3. Decode: ``F_i = light_k(H_i)`` where
   ``H_i = G_i \\ (F_0 ∪ ... ∪ F_{i-1})``; the output is
   ``Σ_i 2^i · F_i``.

Why it works (Lemma 18 / Theorem 19): removing light edges leaves
components whose min cut exceeds ``k``, where Karger-style sampling at
rate 1/2 preserves all cuts within ``(1 ± ε)`` — the hypergraph cut
counting bound of Kogan–Krauthgamer replaces Karger's in the union
bound.  Chaining the ℓ levels gives a ``(1+ε)^ℓ`` sparsifier; the
paper re-parameterises ``ε ← ε/(2ℓ)`` for a clean ``(1+ε)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DomainError
from ..graph.hypergraph import Hyperedge, Hypergraph, WeightedHypergraph
from ..sketch.spanning_forest import EdgeSpaceCache
from ..util.hashing import HashFamily, derive_seed, trailing_zeros64
from ..util.rng import normalize_seed
from .light_edges import LightEdgeRecoverySketch
from .params import DEFAULT_PARAMS, Params


class HypergraphSparsifierSketch:
    """Linear sketch from which a (1+ε)-cut sparsifier is decoded.

    Parameters
    ----------
    n, r:
        Vertex count and hyperedge rank bound.
    epsilon:
        Target cut-approximation quality.
    seed:
        Randomness seed.
    params:
        Constant-factor profile.
    k:
        Override for the light-edge strength threshold (defaults to
        the profile's ``ceil(c · ε⁻² · (ln n + r))``).
    levels:
        Override for the number ℓ of subsampling levels (defaults to
        the profile's ``ceil(c · log2 n)``; pass ``~log2 m + 2`` when
        an edge-count bound is known — deeper levels are empty).
    reparameterize:
        Apply the paper's ``ε ← ε/(2ℓ)`` so the end-to-end guarantee
        is (1+ε) rather than (1+ε)^ℓ.  Off by default because it
        inflates k quadratically in ℓ; the benchmarks measure realised
        quality either way.
    rounds:
        Borůvka-round override forwarded to the spanning sketches.
    """

    def __init__(
        self,
        n: int,
        r: int,
        epsilon: float = 0.5,
        seed: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
        k: Optional[int] = None,
        levels: Optional[int] = None,
        reparameterize: bool = False,
        rounds: Optional[int] = None,
    ):
        if epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {epsilon}")
        self.n = n
        self.r = r
        self.epsilon = epsilon
        self.params = params
        self.levels = levels if levels is not None else params.sparsifier_levels(n)
        eps_eff = epsilon / (2 * self.levels) if reparameterize else epsilon
        self.k = k if k is not None else params.strength_threshold(n, r, eps_eff)
        self.seed = normalize_seed(seed)
        self._space = EdgeSpaceCache.get(n, r)
        self._filter = HashFamily(derive_seed(self.seed, 0xF117))
        self._sketches: List[LightEdgeRecoverySketch] = [
            LightEdgeRecoverySketch(
                n,
                k=self.k,
                r=r,
                seed=derive_seed(self.seed, 0x5BA5, i),
                params=params,
                rounds=rounds,
            )
            for i in range(self.levels + 1)
        ]
        self._updates = 0

    # -- subsampling ------------------------------------------------------

    def edge_depth(self, edge: Sequence[int]) -> int:
        """Deepest level the hyperedge survives to (inclusive).

        Level membership is a function of the edge identity and the
        shared seed, so insertions and deletions of the same edge
        always route to the same levels and cancel exactly.
        """
        index = self._space.index_of(edge)
        return min(trailing_zeros64(self._filter.value(index)), self.levels)

    # -- streaming ----------------------------------------------------------

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update, routed to levels 0..depth(edge)."""
        depth = self.edge_depth(edge)
        for i in range(depth + 1):
            self._sketches[i].update(edge, sign)
        self._updates += 1

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of a hyperedge."""
        self.update(edge, 1)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of a hyperedge."""
        self.update(edge, -1)

    # -- decoding -------------------------------------------------------------

    def decode(self) -> Tuple[WeightedHypergraph, bool]:
        """Decode the sparsifier ``Σ 2^i · F_i``.

        Returns ``(sparsifier, complete)``.  ``complete`` is True when
        the final level's sketch certifies that its residual graph was
        fully consumed (``H_ℓ = F_ℓ``), which implies every deeper
        subsample is empty and the output covers the whole input.
        """
        sparsifier = WeightedHypergraph(self.n, self.r)
        assigned: List[Tuple[Hyperedge, int]] = []  # (edge, depth)
        complete = False
        for i, sketch in enumerate(self._sketches):
            surviving = [e for e, d in assigned if d >= i]
            layers, exhausted = sketch.recover_layers(minus=surviving)
            f_i = [e for layer in layers for e in layer]
            for e in f_i:
                sparsifier.add_weighted_edge(e, float(2 ** i))
                assigned.append((e, self.edge_depth(e)))
            if i == self.levels:
                complete = exhausted
        return sparsifier, complete

    def sparsifier(self) -> WeightedHypergraph:
        """The decoded sparsifier (ignoring the completeness flag)."""
        return self.decode()[0]

    # -- accounting -------------------------------------------------------------

    def space_counters(self) -> int:
        """Machine words across all level sketches."""
        return sum(s.space_counters() for s in self._sketches)

    def space_bytes(self) -> int:
        """Bytes across all level sketches."""
        return sum(s.space_bytes() for s in self._sketches)

    @property
    def update_count(self) -> int:
        """Number of stream updates applied."""
        return self._updates


def max_cut_error(
    original: Hypergraph, sparsifier: WeightedHypergraph, sides: Sequence[Sequence[int]]
) -> float:
    """Worst relative cut error of a sparsifier over the given cuts.

    For each side S: ``|w(δ_H(S)) - |δ_G(S)|| / |δ_G(S)|`` (cuts of
    size zero are skipped).  Benchmarks feed either all cuts (small n)
    or a structured + random sample.
    """
    worst = 0.0
    for side in sides:
        true = original.cut_size(side)
        if true == 0:
            continue
        approx = sparsifier.cut_weight(side)
        worst = max(worst, abs(approx - true) / true)
    return worst
