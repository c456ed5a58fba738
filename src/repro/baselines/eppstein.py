"""The insert-only certificate of Eppstein et al. ([13] in the paper).

The algorithm the paper's Section 3 positions against: maintain a
subgraph ``C`` ("the certificate"); when edge {u, v} is inserted, drop
it iff ``C`` already contains ``k`` vertex-disjoint u-v paths.  With
insert-only streams, ``C`` uses O(kn) edges and preserves every
vertex-connectivity fact up to ``k``.

The paper's point — reproduced by experiment E9 — is that **this
breaks under deletions**: "some of the vertex disjoint paths that
existed when an edge was ignored need not exist if edges are
subsequently deleted."  The class below implements the honest
insert-only algorithm plus the only deletion handling available to it
(delete the edge if it was kept, do nothing if it was dropped) and
exposes the query interface the sketches also implement so the two can
be compared head-to-head.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import DomainError
from ..graph.graph import Graph
from ..graph.traversal import is_connected_excluding
from ..graph.vertex_connectivity import max_vertex_disjoint_paths


class EppsteinCertificate:
    """Insert-only k-certificate for vertex connectivity.

    Parameters
    ----------
    n:
        Number of vertices.
    k:
        Connectivity parameter: an inserted edge is kept unless k
        vertex-disjoint paths between its endpoints already exist in
        the certificate.
    """

    def __init__(self, n: int, k: int):
        if k < 1:
            raise DomainError(f"certificate needs k >= 1, got {k}")
        self.n = n
        self.k = k
        self.certificate = Graph(n)
        self._dropped = 0

    # -- streaming ------------------------------------------------------

    def insert(self, edge: Sequence[int]) -> bool:
        """Process an insertion; returns True if the edge was kept."""
        u, v = edge
        if self.certificate.has_edge(u, v):
            raise DomainError(f"edge {tuple(edge)} already in certificate")
        if max_vertex_disjoint_paths(self.certificate, u, v, limit=self.k) >= self.k:
            self._dropped += 1
            return False
        self.certificate.add_edge(u, v)
        return True

    def delete(self, edge: Sequence[int]) -> None:
        """Best-effort deletion — the documented failure mode.

        If the edge was kept, it is removed from the certificate; if it
        was dropped at insertion time, there is nothing to remove and
        the certificate silently loses its guarantee (the disjoint
        paths that justified dropping may themselves be deleted later).
        """
        u, v = edge
        self.certificate.remove_edge(u, v)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        if sign > 0:
            self.insert(edge)
        else:
            self.delete(edge)

    # -- queries ------------------------------------------------------------

    def disconnects(self, removed: Iterable[int]) -> bool:
        """Does deleting the vertex set disconnect the (believed) graph?"""
        S = set(removed)
        if len(S) >= self.k:
            raise DomainError(
                f"certificate supports vertex sets of size < k = {self.k}"
            )
        return not is_connected_excluding(self.certificate, S)

    # -- accounting -----------------------------------------------------------

    @property
    def stored_edges(self) -> int:
        """Edges currently stored (O(kn) under insert-only streams)."""
        return self.certificate.num_edges

    @property
    def dropped_edges(self) -> int:
        """Insertions discarded because k disjoint paths existed."""
        return self._dropped

    def space_counters(self) -> int:
        """Stored edges, in words (two endpoints per edge)."""
        return 2 * self.certificate.num_edges
