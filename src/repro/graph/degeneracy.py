"""Degeneracy, cut-degeneracy, light edges, and edge strength.

Implements the exact (non-streaming) versions of the Section 4
quantities; the sketch-based recovery in :mod:`repro.core.light_edges`
must reproduce these exactly, which is what the tests check.

* *d-degeneracy*: every induced subgraph has a vertex of degree <= d
  (classical; computed by min-degree peeling).
* *d-cut-degeneracy* (Definition 9): every induced subgraph (on >= 2
  vertices) has a cut of size <= d.  Equivalently — via Lemma 16 — no
  vertex-induced subgraph is (d+1)-edge-connected, i.e.
  ``light_d(G) = E``.
* ``light_k(G)`` (Section 4.2.1): the union of the recursively defined
  layers ``E_i = {e : λ_e(G - E_1 - ... - E_{i-1}) <= k}``.
* *edge strength* ``k_e`` (Benczúr–Karger strong connectivity,
  Section 4.2.2): the maximum k such that some vertex-induced subgraph
  containing e is k-edge-connected.  Lemma 16 proves
  ``k_e = min{k : e in light_k(G)}``; we compute strengths by that
  characterisation and *test* the lemma against a brute-force
  enumeration of induced subgraphs on small graphs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import DomainError
from .edge_connectivity import edge_connectivity, local_edge_connectivity
from .graph import Edge, Graph
from .hypergraph import Hyperedge, Hypergraph
from .hypergraph_cuts import hypergraph_lambda_e


# -- degeneracy --------------------------------------------------------


def degeneracy(h: Hypergraph) -> int:
    """Classical degeneracy: max over the peeling order of the min degree.

    A hypergraph is d-degenerate iff ``degeneracy(h) <= d``.  Peeling a
    vertex removes all hyperedges incident to it.
    """
    work = h.copy()
    alive = set(range(h.n))
    best = 0
    while alive:
        v = min(alive, key=lambda x: (work.degree(x), x))
        best = max(best, work.degree(v))
        for e in work.incident_edges(v):
            work.remove_edge(e)
        alive.discard(v)
    return best


def is_degenerate(h: Hypergraph, d: int) -> bool:
    """True iff the hypergraph is d-degenerate."""
    return degeneracy(h) <= d


# -- light edges (Section 4.2.1) ---------------------------------------


def _as_graph(h: Hypergraph) -> Graph:
    # Cheap conversion used only on rank-2 hypergraphs inside the
    # peeling loop; rebuilt per call because the loop mutates ``h``.
    return Graph(h.n, (e for e in h.edge_set() if len(e) == 2))


def light_layers(h: Hypergraph, k: int) -> List[List[Hyperedge]]:
    """The nonempty layers E_1, E_2, ... of light_k(G), in order.

    Layer ``E_i`` contains the hyperedges whose λ_e in the graph with
    previous layers removed is at most ``k``.  The process stops when a
    layer is empty; the paper observes at most n layers are nonempty.
    """
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    work = h.copy()
    layers: List[List[Hyperedge]] = []
    while True:
        is_rank2 = all(len(e) == 2 for e in work.edge_set())
        layer: List[Hyperedge] = []
        if is_rank2:
            graph_view = _as_graph(work)
            if work.num_edges > 2 * work.n:
                # Dense: one Gomory–Hu tree answers every λ_e with
                # n - 1 flows instead of m.
                from .gomory_hu import all_edge_lambdas

                lambdas = all_edge_lambdas(graph_view)
                layer = [e for e in work.edges() if lambdas[e] <= k]
            else:
                layer = [
                    e
                    for e in work.edges()
                    if local_edge_connectivity(graph_view, e[0], e[1], limit=k + 1)
                    <= k
                ]
        else:
            layer = [
                e
                for e in work.edges()
                if hypergraph_lambda_e(work, e, limit=k + 1) <= k
            ]
        if not layer:
            break
        layers.append(layer)
        for e in layer:
            work.remove_edge(e)
    return layers


def light_edges_exact(h: Hypergraph, k: int) -> Set[Hyperedge]:
    """light_k(G): union of the recursive layers (exact computation)."""
    out: Set[Hyperedge] = set()
    for layer in light_layers(h, k):
        out.update(layer)
    return out


def cut_degeneracy(h: Hypergraph) -> int:
    """The smallest d such that the hypergraph is d-cut-degenerate.

    Computed as the smallest d with ``light_d(G) = E`` (see Lemma 16
    and the module docstring); an edgeless hypergraph has
    cut-degeneracy 0.
    """
    if h.num_edges == 0:
        return 0
    total = h.num_edges
    d = 1
    while True:
        if len(light_edges_exact(h, d)) == total:
            return d
        d += 1


def is_cut_degenerate(h: Hypergraph, d: int) -> bool:
    """Definition 9: every induced subgraph has a cut of size <= d."""
    if h.num_edges == 0:
        return True
    return len(light_edges_exact(h, d)) == h.num_edges


def is_cut_degenerate_bruteforce(h: Hypergraph, d: int) -> bool:
    """Definition 9 checked literally over all induced subgraphs.

    Exponential in n; the oracle used by tests to validate the
    peeling-based characterisation.  An induced subgraph on >= 2
    vertices must have *some* cut (S', rest) of size <= d.
    """
    if h.n > 14:
        raise DomainError("brute-force cut-degeneracy is limited to n <= 14")
    for size in range(2, h.n + 1):
        for verts in combinations(range(h.n), size):
            sub = h.induced_subgraph(verts)
            vlist = list(verts)
            ok = False
            # Enumerate cuts of the induced subgraph (mask = 0 is the
            # singleton cut {vlist[0]}).
            for mask in range(0, 1 << (size - 1)):
                side = {vlist[0]}
                for i in range(1, size):
                    if mask & (1 << (i - 1)):
                        side.add(vlist[i])
                if len(side) == size:
                    continue
                if sub.cut_size(side) <= d:
                    ok = True
                    break
            # mask enumeration above fixes vlist[0] inside `side`;
            # every bipartition is covered because cuts are symmetric.
            if not ok:
                return False
    return True


# -- edge strength (Section 4.2.2) --------------------------------------


def edge_strengths(g: Graph) -> Dict[Edge, int]:
    """Exact strength k_e for every edge of a graph.

    Uses Lemma 16: ``k_e = min{k : e in light_k(G)}``, and the
    monotonicity ``light_k ⊆ light_{k+1}`` it implies.  Strengths are
    found by increasing k and recording when each edge first becomes
    light.
    """
    strengths: Dict[Edge, int] = {}
    remaining = Hypergraph.from_graph(g)
    k = 1
    while remaining.num_edges:
        light = light_edges_exact(remaining, k)
        for e in light:
            strengths[(e[0], e[1])] = k
            remaining.remove_edge(e)
        k += 1
    return strengths


def edge_strength_bruteforce(g: Graph, edge: Sequence[int]) -> int:
    """Brute-force k_e: max over induced subgraphs containing e of their
    edge connectivity (test oracle, exponential in n)."""
    if g.n > 12:
        raise DomainError("brute-force strength is limited to n <= 12")
    u, v = sorted(edge)
    if not g.has_edge(u, v):
        raise DomainError(f"edge {tuple(edge)} not in graph")
    best = 1  # the subgraph induced on {u, v} is 1-edge-connected
    others = [w for w in range(g.n) if w not in (u, v)]
    for size in range(0, len(others) + 1):
        for extra in combinations(others, size):
            verts = {u, v, *extra}
            sub_edges = [
                (a, b) for a, b in g.edges() if a in verts and b in verts
            ]
            # Relabel to a compact graph for the connectivity routine.
            idx = {w: i for i, w in enumerate(sorted(verts))}
            sub = Graph(len(verts), ((idx[a], idx[b]) for a, b in sub_edges))
            if not sub.is_connected():
                continue
            best = max(best, edge_connectivity(sub))
    return best


def lemma10_witness() -> Graph:
    """The paper's Lemma 10 example: 2-cut-degenerate but not 2-degenerate.

    Eight vertices v1..v4, u1..u4 (here 0..3 and 4..7) with all pairs
    {v_i, v_j} and {u_i, u_j} present except (i, j) = (1, 4), plus the
    bridges {v1, u1} and {v4, u4}.  Minimum degree is 3, so the graph
    is not 2-degenerate, while every induced subgraph has a cut of
    size <= 2.
    """
    g = Graph(8)
    for i in range(4):
        for j in range(i + 1, 4):
            if (i, j) == (0, 3):
                continue
            g.add_edge(i, j)          # v_{i+1} v_{j+1}
            g.add_edge(4 + i, 4 + j)  # u_{i+1} u_{j+1}
    g.add_edge(0, 4)  # v1 u1
    g.add_edge(3, 7)  # v4 u4
    return g
