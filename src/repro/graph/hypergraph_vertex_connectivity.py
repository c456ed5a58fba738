"""Exact vertex connectivity of hypergraphs (strong-deletion semantics).

Removing a vertex from a hypergraph removes every hyperedge containing
it — the semantics used throughout this library (and by the vertex-
sampling constructions of Section 3: a hyperedge lands in a sampled
graph only if *all* its endpoints were sampled).  κ(H) is the minimum
number of removals that disconnects the survivors; κ = n - 1 when no
smaller removal can.

**A reproduction finding worth recording.**  For ordinary graphs the
post-processing step of Theorem 8 ("run any vertex connectivity
algorithm on H") is classical max-flow.  Under strong deletion the
hypergraph analogue has no obvious Menger dual: a single removed
vertex destroys *every* incident hyperedge, including hyperedges on
chains that never pass through that vertex as a connector, so
"max internally-disjoint chains" and "min separating set" can differ
and the natural split-vertex flow constructions over-count
connectivity (a hyperedge {s, w, t} would carry infinite s→t flow even
though removing w separates s from t).  Section 4.1's remark that the
vertex-connectivity results "go through for hypergraphs unchanged" is
accurate for the *sketching* (and for the query structure, which only
needs connectivity-after-removal —
:class:`~repro.core.connectivity_query.VertexConnectivityQuerySketch`
built with ``r > 2``); the exact-κ post-processing that
:class:`~repro.core.connectivity_estimate.KVertexConnectivityTester`
runs at ``r > 2`` is the part without a known polynomial algorithm
here.  This module
therefore provides:

* rank-2 fast path (delegates to the graph algorithm),
* exact computation by bounded search (the certificate graphs the
  sketches produce are small),
* cheap upper/lower bounds used to prune the search.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Set, Tuple

from ..errors import DomainError
from .hypergraph import Hypergraph
from .traversal import hypergraph_is_connected_excluding
from .vertex_connectivity import vertex_connectivity as graph_vertex_connectivity


def vertex_degree_bound(h: Hypergraph) -> int:
    """An upper bound on κ(H): isolate a vertex by removing the other
    endpoints of all its hyperedges."""
    best = h.n - 1
    for v in range(h.n):
        others: Set[int] = set()
        for e in h.incident_edges(v):
            others.update(u for u in e if u != v)
        if h.n - len(others) - 1 >= 1:  # some other survivor remains
            best = min(best, len(others))
    return best


def disconnects(h: Hypergraph, removed: Iterable[int]) -> bool:
    """Does removing exactly this vertex set disconnect the survivors?"""
    return not hypergraph_is_connected_excluding(h, set(removed))


def hypergraph_vertex_connectivity(
    h: Hypergraph, max_interesting: Optional[int] = None
) -> int:
    """κ(H) by increasing-size search, with pruning.

    Parameters
    ----------
    h:
        The hypergraph.
    max_interesting:
        Optional cap: stop searching above this value and return it —
        the testers only ever ask "is κ >= k?", so ``max_interesting=k``
        turns the worst case from C(n, κ) into C(n, k).

    Search space: candidate removal sets are restricted to unions of
    "neighbour frames" — for each vertex v, the other endpoints of v's
    hyperedges form a disconnecting superset, and every minimal
    disconnecting set is contained in the frame of some vertex it
    isolates from; enumeration over subsets of frames (plus the global
    fallback for small n) keeps the search exact while pruning hard.
    """
    if h.n <= 1:
        return 0
    if not h.is_connected():
        return 0
    if all(len(e) == 2 for e in h.edge_set()):
        kappa = graph_vertex_connectivity(h.to_graph())
        return kappa if max_interesting is None else min(kappa, max_interesting)
    upper = vertex_degree_bound(h)
    cap = upper if max_interesting is None else min(upper, max_interesting)
    for size in range(1, cap):
        if _exists_disconnecting_set(h, size):
            return size
    return cap


def _exists_disconnecting_set(h: Hypergraph, size: int) -> bool:
    """Is there a removal set of exactly ``size`` that disconnects?

    Exact enumeration with a candidate-pool restriction: a removal set
    S disconnects iff the surviving hyperedges split the survivors, and
    any *minimal* S consists of vertices that are each incident to a
    surviving component's boundary — every vertex of a minimal S
    shares a hyperedge with a survivor.  Vertices sharing no hyperedge
    at all (isolated) can never help, so the pool is the non-isolated
    vertices; beyond that the enumeration is exhaustive and hence
    exact.
    """
    pool = [v for v in range(h.n) if h.degree(v) > 0]
    if len(pool) < size:
        return False
    for S in combinations(pool, size):
        if disconnects(h, S):
            return True
    return False


def hypergraph_vertex_connectivity_bruteforce(h: Hypergraph) -> int:
    """Plain exhaustive oracle (n <= 12) for testing the search."""
    if h.n > 12:
        raise DomainError("brute force limited to n <= 12")
    if h.n <= 1 or not h.is_connected():
        return 0
    for size in range(1, h.n - 1):
        for removed in combinations(range(h.n), size):
            if disconnects(h, removed):
                return size
    return h.n - 1


def is_k_vertex_connected_hypergraph(h: Hypergraph, k: int) -> bool:
    """True iff H has > k vertices and no removal of < k vertices
    disconnects it (the tester's post-processing predicate)."""
    if k <= 0:
        return True
    if h.n < k + 1:
        return False
    return hypergraph_vertex_connectivity(h, max_interesting=k) >= k
