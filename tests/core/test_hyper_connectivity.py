"""Tests for dynamic hypergraph connectivity (the Theorem 13 application).

Section 4.1: with the hypergraph spanning sketch the graph structures
"go through for hypergraphs unchanged", so these drive the rank-general
classes at r > 2.
"""

from repro.core.connectivity_estimate import KVertexConnectivityTester
from repro.core.connectivity_query import VertexConnectivityQuerySketch
from repro.core.params import Params
from repro.graph.generators import (
    hyper_cycle,
    random_connected_hypergraph,
    random_hypergraph,
)
from repro.graph.hypergraph import Hypergraph
from repro.graph.hypergraph_cuts import is_spanning_subgraph
from repro.graph.hypergraph_vertex_connectivity import (
    hypergraph_vertex_connectivity,
)
from repro.graph.traversal import hypergraph_is_connected_excluding
from repro.sketch.spanning_forest import SpanningForestSketch


class TestConnectivity:
    def test_connected_hypergraph(self):
        h = random_connected_hypergraph(14, 12, r=3, seed=1)
        sk = SpanningForestSketch(14, r=3, seed=2)
        for e in h.edges():
            sk.insert(e)
        assert sk.is_connected()

    def test_disconnected_components_match(self):
        h = random_hypergraph(14, 6, r=3, seed=3)
        sk = SpanningForestSketch(14, r=3, seed=4)
        for e in h.edges():
            sk.insert(e)
        assert {tuple(c) for c in sk.components_of_decode()} == {
            tuple(c) for c in h.components()
        }

    def test_spanning_graph_property(self):
        h = hyper_cycle(10, 3)
        sk = SpanningForestSketch(10, r=3, seed=5)
        for e in h.edges():
            sk.insert(e)
        assert is_spanning_subgraph(h, sk.decode())

    def test_dynamic_disconnect_reconnect(self):
        h = hyper_cycle(8, 3)
        sk = SpanningForestSketch(8, r=3, seed=6)
        for e in h.edges():
            sk.insert(e)
        assert sk.is_connected()
        # Delete all hyperedges covering the boundary between 0 and 7.
        for e in h.edges():
            sk.delete(e)
        assert not sk.is_connected()
        sk.insert((0, 1, 2))
        comps = sk.components_of_decode()
        assert [0, 1, 2] in comps

    def test_space_accounting(self):
        sk = SpanningForestSketch(10, r=3, seed=7)
        assert sk.space_counters() > 0


class TestHypergraphVertexConnectivityQueries:
    def test_hyperedge_vertex_removal(self):
        # A "bowtie" hypergraph: two triangles sharing vertex 2, plus
        # the edge (1, 2) so removing a leaf like 0 leaves the rest
        # connected while removing the shared vertex 2 disconnects.
        h = Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4), (1, 2)])
        sk = VertexConnectivityQuerySketch(
            5, k=1, r=3, seed=8, params=Params.practical()
        )
        for e in h.edges():
            sk.insert(e)
        assert sk.disconnects([2]) is True
        assert sk.disconnects([0]) is False

    def test_agreement_with_exact(self):
        h = random_connected_hypergraph(9, 10, r=3, seed=9)
        sk = VertexConnectivityQuerySketch(
            9, k=1, r=3, seed=10, params=Params.practical()
        )
        for e in h.edges():
            sk.insert(e)
        agree = 0
        for v in range(9):
            expected = not hypergraph_is_connected_excluding(h, [v])
            if sk.disconnects([v]) == expected:
                agree += 1
        assert agree >= 8


class TestHypergraphTester:
    def test_accepts_well_connected_hypercycle(self):
        h = hyper_cycle(12, 4)
        kappa = hypergraph_vertex_connectivity(h)
        assert kappa >= 2
        tester = KVertexConnectivityTester(
            12, k=1, r=4, epsilon=1.0, seed=31, params=Params.practical()
        )
        for e in h.edges():
            tester.insert(e)
        assert tester.accepts()

    def test_rejects_bowtie(self):
        h = Hypergraph(7, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 1), (5, 6)])
        tester = KVertexConnectivityTester(
            7, k=2, r=3, epsilon=1.0, seed=32, params=Params.practical()
        )
        for e in h.edges():
            tester.insert(e)
        # kappa = 1 < k = 2: soundness demands rejection.
        assert not tester.accepts()

    def test_deletions_flip_verdict(self):
        h = hyper_cycle(10, 3)
        tester = KVertexConnectivityTester(
            10, k=1, r=3, epsilon=1.0, seed=33, params=Params.practical()
        )
        for e in h.edges():
            tester.insert(e)
        assert tester.accepts()
        for e in h.edges():
            tester.delete(e)
        assert not tester.accepts()

    def test_certificate_connectivity_uses_strong_deletion(self):
        h = hyper_cycle(10, 3)
        tester = KVertexConnectivityTester(
            10, k=1, r=3, epsilon=1.0, seed=34, params=Params.practical()
        )
        for e in h.edges():
            tester.insert(e)
        cert = tester.certificate()
        assert any(len(e) == 3 for e in cert.edges())
        kappa = tester.certificate_connectivity()
        assert kappa == hypergraph_vertex_connectivity(cert)
        assert 1 <= kappa <= hypergraph_vertex_connectivity(h)
