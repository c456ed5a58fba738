"""Graph and hypergraph families used by tests, examples, and benchmarks.

Every generator takes an explicit ``seed`` (when randomized) and
returns plain :class:`~repro.graph.graph.Graph` /
:class:`~repro.graph.hypergraph.Hypergraph` objects.  The structured
families exist because the paper's theorems are about *specific*
regimes: Harary graphs pin the vertex connectivity exactly (Theorem 8's
(1+ε)k vs k gap), planted-separator graphs give known disconnecting
sets (Theorem 4 queries), and community hypergraphs have a small cut a
sparsifier must preserve (Theorem 20).
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from ..errors import DomainError
from ..util.rng import rng_from
from .graph import Graph
from .hypergraph import Hypergraph


# -- deterministic graph families ---------------------------------------


def complete_graph(n: int) -> Graph:
    """K_n."""
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    """C_n (needs n >= 3)."""
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    """P_n."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star with centre 0 and n - 1 leaves."""
    return Graph(n, ((0, i) for i in range(1, n)))


def harary_graph(k: int, n: int) -> Graph:
    """The Harary graph H_{k,n}: exactly k-vertex-connected.

    For even k = 2t it is the circulant with offsets 1..t; for odd k it
    additionally links antipodal vertices.  κ(H_{k,n}) = k, which makes
    the family the canonical workload for the Theorem 8 tester: H_{k,n}
    versus H_{(1+ε)k, n}.
    """
    if k < 1 or n <= k:
        raise DomainError(f"Harary graph needs 1 <= k < n, got k={k}, n={n}")
    if k == 1:
        return path_graph(n)
    g = Graph(n)
    t = k // 2
    for offset in range(1, t + 1):
        for i in range(n):
            g.add_edge(i, (i + offset) % n)
    if k % 2 == 1:
        if n % 2 == 0:
            for i in range(n // 2):
                g.add_edge(i, i + n // 2)
        else:
            # Odd n: the standard construction adds n/2-ish chords.
            half = n // 2
            for i in range(half + 1):
                g.add_edge(i, (i + half) % n)
    return g


def barbell_graph(clique: int, bridge: int = 1) -> Graph:
    """Two K_clique blobs joined by a path of ``bridge`` edges.

    Vertex connectivity is 1 (any internal path vertex, or a clique
    endpoint of the path, separates the blobs).
    """
    if clique < 2:
        raise DomainError("barbell needs cliques of size >= 2")
    n = 2 * clique + max(bridge - 1, 0)
    g = Graph(n)
    for i, j in combinations(range(clique), 2):
        g.add_edge(i, j)
        g.add_edge(clique + i, clique + j)
    # Path from vertex 0 of blob A to vertex `clique` of blob B.
    chain = [0] + list(range(2 * clique, n)) + [clique]
    for a, b in zip(chain, chain[1:]):
        g.add_edge(a, b)
    return g


def planted_separator_graph(
    side: int, cut_size: int, seed: Optional[int] = None
) -> Tuple[Graph, List[int]]:
    """Two cliques of size ``side`` joined only through ``cut_size``
    separator vertices.

    Returns ``(graph, separator)``; removing the separator disconnects
    the graph, and (for ``cut_size < side``) no smaller set does, so
    κ(G) = cut_size.  Vertices: blob A = [0, side), separator =
    [side, side + cut_size), blob B = [side + cut_size, n).
    """
    if cut_size < 1 or side < 2:
        raise DomainError("need side >= 2 and cut_size >= 1")
    n = 2 * side + cut_size
    g = Graph(n)
    blob_a = list(range(side))
    sep = list(range(side, side + cut_size))
    blob_b = list(range(side + cut_size, n))
    for group in (blob_a, blob_b):
        for i, j in combinations(group, 2):
            g.add_edge(i, j)
    for s in sep:
        for v in blob_a:
            g.add_edge(s, v)
        for v in blob_b:
            g.add_edge(s, v)
    return g, sep


# -- randomized graph families -------------------------------------------


def gnp_graph(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """Erdős–Rényi G(n, p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    rng = rng_from(seed, 0x6E70)
    g = Graph(n)
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(i, j)
    return g


def random_tree(n: int, seed: Optional[int] = None) -> Graph:
    """Uniform-ish random recursive tree on n vertices."""
    rng = rng_from(seed, 0x7EE)
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, int(rng.integers(0, v)))
    return g


def random_connected_graph(
    n: int, extra_edges: int, seed: Optional[int] = None
) -> Graph:
    """A random tree plus ``extra_edges`` random chords (connected)."""
    rng = rng_from(seed, 0xC0FE)
    g = random_tree(n, seed)
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 50 * (extra_edges + 1):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        attempts += 1
        if u != v and g.add_edge(u, v):
            added += 1
    return g


# -- hypergraph families ---------------------------------------------------


def random_hypergraph(
    n: int, m: int, r: int, seed: Optional[int] = None, exact_rank: bool = False
) -> Hypergraph:
    """``m`` distinct random hyperedges with cardinality in [2, r].

    With ``exact_rank`` every hyperedge has cardinality exactly ``r``.
    """
    rng = rng_from(seed, 0x47C4)
    h = Hypergraph(n, r)
    attempts = 0
    while h.num_edges < m and attempts < 200 * (m + 1):
        attempts += 1
        size = r if exact_rank else int(rng.integers(2, r + 1))
        if size > n:
            continue
        verts = tuple(int(x) for x in rng.choice(n, size=size, replace=False))
        h.add_edge(verts)
    return h


def random_connected_hypergraph(
    n: int, m: int, r: int, seed: Optional[int] = None
) -> Hypergraph:
    """Random hypergraph guaranteed connected (spanning tree backbone)."""
    h = Hypergraph(n, r)
    tree = random_tree(n, seed)
    for u, v in tree.edges():
        h.add_edge((u, v))
    extra = random_hypergraph(n, m, r, seed=None if seed is None else seed + 1)
    for e in extra.edges():
        if h.num_edges >= m + n - 1:
            break
        h.add_edge(e)
    return h


def hyper_cycle(n: int, r: int) -> Hypergraph:
    """Overlapping windows of ``r`` consecutive vertices around a cycle.

    Every cut is crossed by at least 2 hyperedges (for n > r), giving a
    deterministic connected family for skeleton tests.
    """
    if r < 2 or n <= r:
        raise DomainError("hyper_cycle needs 2 <= r < n")
    h = Hypergraph(n, r)
    for i in range(n):
        h.add_edge(tuple((i + j) % n for j in range(r)))
    return h


def community_hypergraph(
    communities: Sequence[int],
    intra_edges: int,
    inter_edges: int,
    r: int,
    seed: Optional[int] = None,
) -> Tuple[Hypergraph, List[List[int]]]:
    """Dense communities with a few crossing hyperedges.

    Returns ``(hypergraph, blocks)``.  The small inter-community cuts
    are exactly what a (1 + ε)-sparsifier must preserve best, which
    makes this the stress workload for Theorem 20.
    """
    rng = rng_from(seed, 0xC077)
    n = sum(communities)
    h = Hypergraph(n, r)
    blocks: List[List[int]] = []
    start = 0
    for size in communities:
        blocks.append(list(range(start, start + size)))
        start += size
    for block in blocks:
        # Connectivity backbone inside the community.
        for a, b in zip(block, block[1:]):
            h.add_edge((a, b))
        added = 0
        while added < intra_edges:
            size = int(rng.integers(2, min(r, len(block)) + 1))
            verts = tuple(
                int(block[i]) for i in rng.choice(len(block), size=size, replace=False)
            )
            if h.add_edge(verts):
                added += 1
    added = 0
    attempts = 0
    while added < inter_edges and attempts < 100 * (inter_edges + 1):
        attempts += 1
        b1, b2 = rng.choice(len(blocks), size=2, replace=False)
        v1 = int(rng.choice(blocks[int(b1)]))
        v2 = int(rng.choice(blocks[int(b2)]))
        if h.add_edge((v1, v2)):
            added += 1
    return h, blocks
