"""Simple undirected graph on integer vertices ``0 .. n-1``.

This is the reference (non-streaming) representation: the streaming
algorithms sketch graphs, and the exact algorithms in this package run
on :class:`Graph` instances — both as decoding subroutines (e.g. local
edge connectivity on a recovered skeleton) and as test oracles.

The class intentionally stores *simple* graphs (no parallel edges, no
self-loops) because the paper's dynamic stream model defines the graph
as the set of currently-inserted edges.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from ..errors import DomainError
from .union_find import UnionFind

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    if u == v:
        raise DomainError(f"self-loop ({u},{v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class Graph:
    """Mutable simple undirected graph.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are always ``0 .. n-1``; graphs
        may have isolated vertices.
    edges:
        Optional initial edge iterable of ``(u, v)`` pairs.
    """

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):  # noqa: D107
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        self._edges: Set[Edge] = set()
        for u, v in edges:
            self.add_edge(u, v)

    # -- mutation -----------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge {u, v}; returns False if it was already present."""
        self._check_vertex(u)
        self._check_vertex(v)
        e = normalize_edge(u, v)
        if e in self._edges:
            return False
        self._edges.add(e)
        self._adj[u].add(v)
        self._adj[v].add(u)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge {u, v}; returns False if it was absent."""
        e = normalize_edge(u, v)
        if e not in self._edges:
            return False
        self._edges.discard(e)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        return True

    # -- queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge {u, v} is present."""
        return normalize_edge(u, v) in self._edges

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> Set[int]:
        """A copy of the neighbour set of ``v``."""
        self._check_vertex(v)
        return set(self._adj[v])

    def edges(self) -> List[Edge]:
        """All edges in canonical, sorted order."""
        return sorted(self._edges)

    def edge_set(self) -> FrozenSet[Edge]:
        """The edge set as a frozen set (no ordering guarantee)."""
        return frozenset(self._edges)

    @property
    def num_edges(self) -> int:
        """Number of edges currently present."""
        return len(self._edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self._edges))

    def __contains__(self, edge: Sequence[int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash is a trap
        raise TypeError("Graph is mutable and unhashable; compare with ==")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.num_edges})"

    # -- derived graphs -----------------------------------------------

    def copy(self) -> "Graph":
        """Deep copy."""
        return Graph(self.n, self._edges)

    def subgraph_without_vertices(self, removed: Iterable[int]) -> "Graph":
        """The induced graph after deleting ``removed`` (vertex set unchanged).

        Removed vertices stay in the vertex range but become isolated;
        connectivity questions on the survivor set use
        :func:`repro.graph.traversal.is_connected_excluding`.
        """
        gone = set(removed)
        g = Graph(self.n)
        for u, v in self._edges:
            if u not in gone and v not in gone:
                g.add_edge(u, v)
        return g

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The induced subgraph on ``vertices`` (vertex ids preserved)."""
        keep = set(vertices)
        g = Graph(self.n)
        for u, v in self._edges:
            if u in keep and v in keep:
                g.add_edge(u, v)
        return g

    def union(self, other: "Graph") -> "Graph":
        """Edge union of two graphs on the same vertex set."""
        if other.n != self.n:
            raise DomainError("union requires graphs on the same vertex set")
        g = self.copy()
        for u, v in other._edges:
            g.add_edge(u, v)
        return g

    def difference(self, other: "Graph") -> "Graph":
        """Edges of ``self`` not present in ``other``."""
        if other.n != self.n:
            raise DomainError("difference requires graphs on the same vertex set")
        g = Graph(self.n)
        for u, v in self._edges:
            if (u, v) not in other._edges:
                g.add_edge(u, v)
        return g

    # -- connectivity helpers ------------------------------------------

    def components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists."""
        uf = UnionFind(self.n)
        for u, v in self._edges:
            uf.union(u, v)
        return uf.groups()

    def is_connected(self) -> bool:
        """True if the graph is connected (vacuously true for n <= 1)."""
        if self.n <= 1:
            return True
        uf = UnionFind(self.n)
        for u, v in self._edges:
            uf.union(u, v)
        return uf.components == 1

    def cut_size(self, side: Iterable[int]) -> int:
        """Number of edges crossing the cut (side, V \\ side)."""
        s = set(side)
        return sum(1 for u, v in self._edges if (u in s) != (v in s))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} outside [0, {self.n})")
