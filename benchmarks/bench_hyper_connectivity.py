"""E12 — Section 4.1: the first dynamic hypergraph connectivity algorithm.

Paper claim: substituting the hypergraph spanning-graph sketch
(Theorem 13) yields dynamic hypergraph connectivity in O(n polylog n)
space, and the vertex-connectivity constructions carry over unchanged.

Measured: connectivity tracking through a multi-phase dynamic history
(grow connected → delete down to fragments → regrow), rank sweep, and
hypergraph vertex-removal queries vs exact answers.
"""

import pytest

from _report import record

from repro.core.connectivity_query import VertexConnectivityQuerySketch
from repro.core.params import Params
from repro.graph.generators import random_connected_hypergraph
from repro.graph.hypergraph import Hypergraph
from repro.graph.traversal import hypergraph_is_connected_excluding
from repro.sketch.spanning_forest import SpanningForestSketch


def bench_e12_phases(benchmark):
    """Connectivity answers across grow/shrink/regrow phases."""
    rows = []
    for r in (2, 3, 4):
        h = random_connected_hypergraph(16, 18, r=r, seed=r)
        sk = SpanningForestSketch(16, r=r, seed=10 + r)
        live = Hypergraph(16, r)
        checks = ok = 0

        def check():
            nonlocal checks, ok
            checks += 1
            ok += sk.is_connected() == live.is_connected()

        edges = h.edges()
        for e in edges:
            sk.insert(e)
            live.add_edge(e)
        check()
        for e in edges[: len(edges) // 2]:
            sk.delete(e)
            live.remove_edge(e)
        check()
        for e in edges[: len(edges) // 2]:
            sk.insert(e)
            live.add_edge(e)
        check()
        rows.append((r, h.num_edges, f"{ok}/{checks}", sk.space_counters()))
    record(
        "E12a",
        "dynamic hypergraph connectivity across phases",
        ["rank r", "m", "phase answers correct", "counters"],
        rows,
    )

    h = random_connected_hypergraph(16, 18, r=3, seed=5)

    def run():
        sk = SpanningForestSketch(16, r=3, seed=6)
        for e in h.edges():
            sk.insert(e)
        return sk.is_connected()

    benchmark(run)


def bench_e12_vertex_queries(benchmark):
    """Hypergraph vertex-connectivity queries vs exact, per Section 4.1."""
    rows = []
    for seed in (1, 2):
        h = random_connected_hypergraph(10, 12, r=3, seed=seed)
        sk = VertexConnectivityQuerySketch(
            10, k=1, r=3, seed=20 + seed, params=Params.practical()
        )
        for e in h.edges():
            sk.insert(e)
        agree = sum(
            sk.disconnects([v])
            == (not hypergraph_is_connected_excluding(h, [v]))
            for v in range(10)
        )
        rows.append((seed, h.num_edges, f"{agree}/10"))
    record(
        "E12b",
        "hypergraph vertex-removal queries (k = 1) vs exact",
        ["workload seed", "m", "agreement"],
        rows,
        notes="'The resulting algorithms for vertex connectivity go "
        "through for hypergraphs unchanged' (Section 4.1).",
    )

    h = random_connected_hypergraph(10, 12, r=3, seed=3)

    def run():
        sk = VertexConnectivityQuerySketch(
            10, k=1, r=3, seed=9, params=Params.fast()
        )
        for e in h.edges():
            sk.insert(e)
        return sk.disconnects([0])

    benchmark.pedantic(run, rounds=1, iterations=2)
