"""The paper's signed incidence-vector scheme (Section 4.1).

For every vertex ``v``, define the vector ``a^v`` over the hyperedge
coordinate space:

* ``a^v_e = |e| - 1``  if ``v = min(e)`` and ``e`` is present,
* ``a^v_e = -1``       if ``v ∈ e \\ {min(e)}`` and ``e`` is present,
* ``0`` otherwise.

The defining property (quoted from the paper): for any vertex subset
``S``, the nonzero coordinates of ``Σ_{v∈S} a^v`` are exactly
``δ(S)`` — the multiset ``{|e|-1, -1, ..., -1}`` has no zero-summing
subsets other than the empty and full ones, so a coordinate survives
the sum iff the hyperedge is present and properly crosses the cut.
For ordinary graphs this degenerates to the familiar ±1 scheme of Ahn,
Guha and McGregor.

This module packages the scheme plus the coordinate encoding so the
sketches never deal with hyperedges directly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..graph.hypergraph import Hypergraph
from ..util.binomial import EdgeSpace

Hyperedge = Tuple[int, ...]


class IncidenceScheme:
    """Coefficient assignment + coordinate encoding for one edge space."""

    __slots__ = ("space",)

    def __init__(self, space: EdgeSpace):
        self.space = space

    @classmethod
    def for_graph(cls, n: int) -> "IncidenceScheme":
        """The rank-2 (ordinary graph) scheme."""
        return cls(EdgeSpace(n, 2))

    @classmethod
    def for_hypergraph(cls, n: int, r: int) -> "IncidenceScheme":
        """The rank-r scheme."""
        return cls(EdgeSpace(n, r))

    def coefficients(self, edge: Sequence[int]) -> List[Tuple[int, int]]:
        """``(vertex, coefficient)`` pairs for one present hyperedge.

        The minimum-id vertex receives ``|e| - 1``, every other
        endpoint ``-1``; the coefficients sum to zero, which is what
        makes internal edges cancel in component sums.
        """
        e = self.space.canonical(edge)
        head = e[0]
        coeff_head = len(e) - 1
        return [(head, coeff_head)] + [(v, -1) for v in e[1:]]

    def index_of(self, edge: Sequence[int]) -> int:
        """Coordinate of a hyperedge in ``[0, dimension)``."""
        return self.space.index_of(edge)

    def edge_of(self, index: int) -> Hyperedge:
        """Hyperedge encoded by a coordinate."""
        return self.space.edge_of(index)

    def edges_of(self, indices):
        """Hyperedges of a whole coordinate array, as ``(m, r)`` rows
        (see :meth:`repro.util.binomial.EdgeSpace.edges_of`)."""
        return self.space.edges_of(indices)

    def hypergraph_of(self, indices) -> Hypergraph:
        """The hypergraph whose hyperedges are the given coordinates."""
        return Hypergraph(self.n, self.r, (
            tuple(v for v in row if v >= 0)
            for row in self.edges_of(indices).tolist()
        ))

    @property
    def dimension(self) -> int:
        """Size of the coordinate domain."""
        return self.space.dimension

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.space.n

    @property
    def r(self) -> int:
        """Maximum hyperedge cardinality."""
        return self.space.r
