"""Dynamic hypergraph connectivity (the Theorem 13 application).

The paper's Section 4.1 generalises the AGM spanning-graph sketch to
hypergraphs via the ``(|e|-1, -1, ..., -1)`` incidence scheme, and
notes this yields "the first dynamic graph algorithm for determining
hypergraph connectivity".  This module packages that application:

* :class:`HypergraphConnectivitySketch` — is the hypergraph connected?
  how many components?  plus a spanning-graph extraction;
* :class:`HypergraphVertexConnectivityQuerySketch` — the Section 3
  vertex-connectivity query structure instantiated over hypergraph
  spanning sketches ("the resulting algorithms for vertex connectivity
  go through for hypergraphs unchanged").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..graph.hypergraph import Hypergraph
from ..sketch.spanning_forest import SpanningForestSketch
from ..util.rng import normalize_seed
from .connectivity_query import VertexConnectivityQuerySketch
from .params import DEFAULT_PARAMS, Params


class HypergraphConnectivitySketch:
    """O(n polylog n)-space dynamic hypergraph connectivity.

    Parameters
    ----------
    n, r:
        Vertex count and hyperedge rank bound.
    seed, params:
        Randomness and geometry knobs.
    """

    def __init__(
        self,
        n: int,
        r: int,
        seed: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
    ):
        self.n = n
        self.r = r
        self._sketch = SpanningForestSketch(
            n,
            r=r,
            seed=normalize_seed(seed),
            rows=params.rows,
            buckets=params.buckets,
        )

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of a hyperedge."""
        self._sketch.insert(edge)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of a hyperedge."""
        self._sketch.delete(edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        self._sketch.update(edge, sign)

    def spanning_graph(self) -> Hypergraph:
        """A spanning graph of the current hypergraph (w.h.p.)."""
        return self._sketch.decode()

    def components(self) -> List[List[int]]:
        """Connected components of the current hypergraph (w.h.p.)."""
        return self._sketch.components_of_decode()

    def is_connected(self) -> bool:
        """Whether the current hypergraph is connected (w.h.p.)."""
        return len(self.components()) == 1

    def space_counters(self) -> int:
        """Machine words of sketch state."""
        return self._sketch.space_counters()

    def space_bytes(self) -> int:
        """Bytes of sketch state."""
        return self._sketch.space_bytes()


class HypergraphKVertexConnectivityTester:
    """Theorem 8's tester instantiated over hypergraph spanning sketches.

    Section 4.1: substituting Theorem 13 makes the vertex-connectivity
    algorithms "go through for hypergraphs unchanged" — for the
    *sketching*.  The exact-κ post-processing has no known polynomial
    algorithm under strong vertex deletion (see
    :mod:`repro.graph.hypergraph_vertex_connectivity` for the
    reproduction note), so this class is honest about its cost: the
    final predicate enumerates removal sets of size < k on the small
    certificate, i.e. O(n^k) connectivity checks — fine in the paper's
    constant-k regime.
    """

    def __init__(
        self,
        n: int,
        k: int,
        r: int,
        epsilon: float = 1.0,
        seed: Optional[int] = None,
        repetitions: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
    ):
        from ._sampled import SampledForestUnion
        from ..util.rng import normalize_seed

        self.n = n
        self.k = k
        self.r = r
        self.epsilon = epsilon
        reps = (
            repetitions
            if repetitions is not None
            else params.tester_repetitions(n, k, epsilon)
        )
        self._union = SampledForestUnion(
            n, k=k, repetitions=reps, r=r, seed=normalize_seed(seed), params=params
        )

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of a hyperedge."""
        self._union.insert(edge)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of a hyperedge."""
        self._union.delete(edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        self._union.update(edge, sign)

    def update_batch(self, updates) -> int:
        """Apply a batch of signed updates (``EdgeUpdate`` or
        ``(edge, sign)``) through the union's one kernel; see
        :meth:`SampledForestUnion.update_batch`."""
        return self._union.update_batch(updates)

    def certificate(self) -> Hypergraph:
        """The union certificate H (a sub-hypergraph of G)."""
        return self._union.decode_union()

    def accepts(self) -> bool:
        """True iff the certificate is k-vertex-connected.

        Acceptance certifies κ(G) >= k (H ⊆ G, and removing a vertex
        set disconnects H only if it leaves H's survivors — a subgraph
        of G's — disconnected... the implication runs through H ⊆ G as
        in Corollary 7); rejection means κ(G) < (1+ε)k w.h.p.
        """
        from ..graph.hypergraph_vertex_connectivity import (
            is_k_vertex_connected_hypergraph,
        )

        return is_k_vertex_connected_hypergraph(self.certificate(), self.k)

    def space_counters(self) -> int:
        """Machine words of sketch state."""
        return self._union.space_counters()

    def space_bytes(self) -> int:
        """Bytes of sketch state."""
        return self._union.space_bytes()


class HypergraphVertexConnectivityQuerySketch(VertexConnectivityQuerySketch):
    """Vertex-connectivity queries on hypergraphs (Sections 3 + 4.1).

    Identical to :class:`VertexConnectivityQuerySketch` with the
    hypergraph spanning sketch substituted; removing a vertex removes
    every hyperedge containing it.
    """

    def __init__(
        self,
        n: int,
        k: int,
        r: int,
        seed: Optional[int] = None,
        repetitions: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
    ):
        super().__init__(
            n, k, r=r, seed=seed, repetitions=repetitions, params=params
        )
