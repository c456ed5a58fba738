"""Sketch-based light-edge recovery and cut-degenerate reconstruction
(paper Section 4.2, Theorem 15).

Given a ``(k+1)``-skeleton sketch ``B`` and the *fixed* (input-defined,
randomness-free) peeling sequence

    E_i = {e : λ_e(G - E_1 - ... - E_{i-1}) <= k},

the decoder recovers every layer:  it decodes a ``(k+1)``-skeleton
``S_i`` of the current graph, uses Lemma 12 — λ_e on the skeleton
agrees with λ_e on the graph up to threshold k — to read off
``E_i = {e ∈ S_i : λ_e(S_i) <= k}`` (every edge with λ_e <= k is
*forced* into any (k+1)-skeleton, so S_i contains all of E_i), then
subtracts E_i from the sketch via linearity and repeats.  Because the
sets E_i depend only on the input graph, the union bound over the at
most n nonempty layers is valid — this is precisely the subtle point
Section 4.2 belabours, in contrast to the invalid reuse of a single
spanning sketch.

``light_k(G) = ∪ E_i``.  If G is k-cut-degenerate this is *all* of G:
the sketch reconstructs the graph exactly (generalising Becker et al.
from d-degenerate to d-cut-degenerate inputs, with O(k polylog n)
space per vertex).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import DomainError
from ..graph.degeneracy import light_layers
from ..graph.hypergraph import Hyperedge, Hypergraph
from ..graph.edge_connectivity import local_edge_connectivity
from ..graph.graph import Graph
from ..graph.hypergraph_cuts import hypergraph_lambda_e
from ..sketch.skeleton import SkeletonSketch
from ..util.rng import normalize_seed
from .params import DEFAULT_PARAMS, Params


def _light_subset(skeleton: Hypergraph, k: int) -> List[Hyperedge]:
    """Edges of the skeleton with λ_e(skeleton) <= k (Lemma 12 test).

    Uses the graph fast path (one shared Graph, one flow per edge with
    early termination at k+1) when every edge is rank 2.
    """
    edges = skeleton.edges()
    if all(len(e) == 2 for e in edges):
        g = Graph(skeleton.n, edges)
        if len(edges) > 2 * skeleton.n:
            from ..graph.gomory_hu import all_edge_lambdas

            lambdas = all_edge_lambdas(g)
            return [e for e in edges if lambdas[e] <= k]
        return [
            e
            for e in edges
            if local_edge_connectivity(g, e[0], e[1], limit=k + 1) <= k
        ]
    return [e for e in edges if hypergraph_lambda_e(skeleton, e, limit=k + 1) <= k]


class LightEdgeRecoverySketch:
    """Vertex-based sketch from which ``light_k(G)`` is reconstructed.

    Internally a ``(k+1)``-layer :class:`SkeletonSketch`; space is
    O(k n polylog n) as in Theorem 15.

    Parameters
    ----------
    n, k, r, seed:
        As elsewhere; ``k`` is the lightness threshold.
    max_iterations:
        Safety cap on peeling iterations (the paper shows at most n
        nonempty layers exist).
    """

    def __init__(
        self,
        n: int,
        k: int,
        r: int = 2,
        seed: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
        rounds: Optional[int] = None,
        max_iterations: Optional[int] = None,
    ):
        if k < 1:
            raise DomainError(f"light-edge recovery needs k >= 1, got {k}")
        self.n = n
        self.k = k
        self.r = r
        self.params = params
        self.max_iterations = max_iterations if max_iterations is not None else n
        self._skeleton = SkeletonSketch(
            n,
            k=k + 1,
            r=r,
            seed=normalize_seed(seed),
            rounds=rounds,
            rows=params.rows,
            buckets=params.buckets,
        )

    # -- streaming ------------------------------------------------------

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of a (hyper)edge."""
        self._skeleton.insert(edge)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of a (hyper)edge."""
        self._skeleton.delete(edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        self._skeleton.update(edge, sign)

    # -- decoding -----------------------------------------------------------

    def recover_layers(
        self, minus: Iterable[Sequence[int]] = ()
    ) -> Tuple[List[List[Hyperedge]], bool]:
        """Recover the peeling layers E_1, E_2, ... of ``light_k(G − minus)``.

        Returns ``(layers, exhausted)``.  ``exhausted`` is True when,
        after subtracting every recovered layer, the sketch state is
        identically zero — certifying (up to fingerprint collisions)
        that the recovered edges are the *entire* graph, i.e. the
        input was k-cut-degenerate and has been exactly reconstructed.

        A read: every decode and the zero test subtract ``minus`` and
        the recovered layers from gathered sums, never from the sketch.
        """
        layers: List[List[Hyperedge]] = []
        removed: List[Sequence[int]] = list(minus)
        for _ in range(self.max_iterations):
            skeleton = self._skeleton.decode(minus=removed)
            if skeleton.num_edges == 0:
                break
            layer = _light_subset(skeleton, self.k)
            if not layer:
                break
            layers.append(layer)
            removed.extend(layer)
        exhausted = all(
            sk.appears_zero(minus=removed) for sk in self._skeleton.layers
        )
        return layers, exhausted

    def recover_light_edges(self) -> List[Hyperedge]:
        """``light_k(G)`` as a flat edge list."""
        layers, _ = self.recover_layers()
        return sorted(e for layer in layers for e in layer)

    def reconstruct(self) -> Optional[Hypergraph]:
        """Exact reconstruction for k-cut-degenerate inputs.

        Returns the reconstructed hypergraph, or ``None`` when the
        sketch certifies that edges remain beyond ``light_k`` (the
        graph is not k-cut-degenerate, or decoding fell short).
        """
        layers, exhausted = self.recover_layers()
        if not exhausted:
            return None
        out = Hypergraph(self.n, self.r)
        for layer in layers:
            for e in layer:
                out.add_edge(e)
        return out

    # -- accounting -----------------------------------------------------------

    def space_counters(self) -> int:
        """Machine words of sketch state ((k+1) spanning sketches)."""
        return self._skeleton.space_counters()

    def space_bytes(self) -> int:
        """Bytes of sketch state."""
        return self._skeleton.space_bytes()


def reconstruct_cut_degenerate(
    stream: Sequence[Tuple[Sequence[int], int]],
    n: int,
    d: int,
    r: int = 2,
    seed: Optional[int] = None,
    params: Params = DEFAULT_PARAMS,
) -> Optional[Hypergraph]:
    """One-shot helper: sketch a signed edge stream, reconstruct the graph.

    ``stream`` is a sequence of ``(edge, sign)`` updates.  Returns the
    reconstruction if the final graph is d-cut-degenerate (w.h.p.),
    else ``None``.
    """
    sketch = LightEdgeRecoverySketch(n, k=d, r=r, seed=seed, params=params)
    for edge, sign in stream:
        sketch.update(edge, sign)
    return sketch.reconstruct()
