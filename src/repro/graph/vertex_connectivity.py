"""Exact vertex connectivity.

The sketches in Section 3 reduce vertex-connectivity questions to
connectivity questions on a small certificate ``H``; the final answer
is computed by running *any* exact vertex-connectivity algorithm on
``H`` "in postprocessing" (Theorem 8).  This module is that exact
algorithm: the classical maximum-flow approach on the split-vertex
digraph (Even–Tarjan), with the minimum-degree pair-selection rule so
that only ``O(deg_min^2 + n)`` flow computations are needed.

Conventions (standard):

* ``kappa(K_n) = n - 1``; ``kappa`` of a disconnected graph is 0;
* for ``n <= 1`` the connectivity is 0.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence, Set, Tuple

from ..errors import DomainError
from .graph import Graph
from .maxflow import INF, FlowNetwork


def _split_network(g: Graph, s: int, t: int) -> Tuple[FlowNetwork, int, int]:
    """Build the split-vertex network for internally-disjoint s-t paths.

    Vertex ``w`` becomes ``w_in = 2w`` and ``w_out = 2w + 1`` joined by
    a unit-capacity arc (infinite for the terminals); each undirected
    edge {u, v} becomes arcs ``u_out -> v_in`` and ``v_out -> u_in`` of
    infinite capacity.  Max flow from ``s_out`` to ``t_in`` equals the
    maximum number of internally-vertex-disjoint s-t paths.
    """
    net = FlowNetwork(2 * g.n)
    for w in range(g.n):
        cap = INF if w in (s, t) else 1.0
        net.add_edge(2 * w, 2 * w + 1, cap)
    for u, v in g.edges():
        net.add_edge(2 * u + 1, 2 * v, INF)
        net.add_edge(2 * v + 1, 2 * u, INF)
    return net, 2 * s + 1, 2 * t


def local_vertex_connectivity(g: Graph, s: int, t: int, limit: float = INF) -> int:
    """κ(s, t): minimum vertex cut separating non-adjacent ``s`` and ``t``.

    Defined only for distinct non-adjacent vertices (for adjacent pairs
    no vertex set can separate them; use
    :func:`max_vertex_disjoint_paths` instead).
    """
    if s == t:
        raise DomainError("local vertex connectivity needs distinct endpoints")
    if g.has_edge(s, t):
        raise DomainError(
            f"vertices {s} and {t} are adjacent; no vertex cut separates them"
        )
    net, src, snk = _split_network(g, s, t)
    return int(net.max_flow(src, snk, limit=limit))


def max_vertex_disjoint_paths(g: Graph, s: int, t: int, limit: float = INF) -> int:
    """Maximum number of internally-vertex-disjoint s-t paths.

    Adjacent pairs count the edge {s, t} itself as one path (this is
    the quantity the Eppstein et al. insert-only certificate tests).
    """
    if s == t:
        raise DomainError("need distinct endpoints")
    direct = 1 if g.has_edge(s, t) else 0
    if direct:
        work = g.copy()
        work.remove_edge(s, t)
        inner_limit = limit - direct if limit is not INF else INF
        if inner_limit <= 0:
            return direct
        net, src, snk = _split_network(work, s, t)
        return direct + int(net.max_flow(src, snk, limit=inner_limit))
    net, src, snk = _split_network(g, s, t)
    return int(net.max_flow(src, snk, limit=limit))


def min_vertex_cut(g: Graph, s: int, t: int) -> Set[int]:
    """A minimum vertex set separating non-adjacent ``s`` from ``t``."""
    if g.has_edge(s, t) or s == t:
        raise DomainError("min_vertex_cut needs distinct non-adjacent endpoints")
    net, src, snk = _split_network(g, s, t)
    net.max_flow(src, snk)
    source_side = net.min_cut_source_side(src)
    cut = set()
    for w in range(g.n):
        if 2 * w in source_side and 2 * w + 1 not in source_side:
            cut.add(w)
    return cut


def _is_complete(g: Graph) -> bool:
    return g.num_edges == g.n * (g.n - 1) // 2


def vertex_connectivity(g: Graph) -> int:
    """κ(G): minimum number of vertex deletions that disconnect G.

    Uses the minimum-degree vertex ``v`` rule: a minimum cut ``C``
    either avoids ``v`` (then some vertex in another component of
    ``G - C`` is non-adjacent to ``v`` and the pair flow finds ``|C|``)
    or contains ``v`` (then, because every vertex of a *minimum* cut
    has neighbours in every component, two of ``v``'s neighbours lie in
    different components and their pair flow finds ``|C|``).
    """
    if g.n <= 1:
        return 0
    if not g.is_connected():
        return 0
    if _is_complete(g):
        return g.n - 1
    v = min(range(g.n), key=g.degree)
    best = g.degree(v)  # deleting N(v) isolates v
    neighbours = sorted(g.neighbors(v))
    for t in range(g.n):
        if t == v or g.has_edge(v, t):
            continue
        best = min(best, local_vertex_connectivity(g, v, t, limit=best))
        if best == 0:
            return 0
    for x, y in combinations(neighbours, 2):
        if g.has_edge(x, y):
            continue
        best = min(best, local_vertex_connectivity(g, x, y, limit=best))
        if best == 0:
            return 0
    return best


def is_k_vertex_connected(g: Graph, k: int) -> bool:
    """True if κ(G) >= k (with κ(K_n) = n - 1)."""
    if k <= 0:
        return True
    if g.n < k + 1:
        # k-vertex-connectivity requires at least k + 1 vertices.
        return False
    return vertex_connectivity(g) >= k
