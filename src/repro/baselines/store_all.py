"""Store-everything exact baseline.

The trivial dynamic algorithm: keep the entire live graph and answer
every query exactly.  Its space is Θ(m) = Ω(n²) in the worst case —
the regime the paper's O(kn polylog n) sketches beat ([28]-style exact
dynamic algorithms also use Ω(n²) space).  Used by the experiments
both as ground truth and as the space comparator.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..graph.hypergraph import Hypergraph
from ..graph.traversal import hypergraph_is_connected_excluding
from ..graph.vertex_connectivity import vertex_connectivity


class StoreEverything:
    """Exact dynamic (hyper)graph with the sketches' query interface."""

    def __init__(self, n: int, r: int = 2):
        self.graph = Hypergraph(n, r)

    def insert(self, edge: Sequence[int]) -> None:
        """Exact insertion."""
        self.graph.add_edge(edge)

    def delete(self, edge: Sequence[int]) -> None:
        """Exact deletion."""
        self.graph.remove_edge(edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        if sign > 0:
            self.insert(edge)
        else:
            self.delete(edge)

    # -- queries ------------------------------------------------------------

    def disconnects(self, removed: Iterable[int]) -> bool:
        """Exact vertex-removal query."""
        return not hypergraph_is_connected_excluding(self.graph, set(removed))

    def is_connected(self) -> bool:
        """Exact connectivity."""
        return self.graph.is_connected()

    def vertex_connectivity(self) -> int:
        """Exact κ (rank-2 graphs only)."""
        return vertex_connectivity(self.graph.to_graph())

    # -- accounting -----------------------------------------------------------

    def space_counters(self) -> int:
        """Words to store the live edge list."""
        return sum(len(e) for e in self.graph.edge_set())
