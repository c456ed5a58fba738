"""Result certification: honest witnesses, honest rejections.

The point of a :class:`~repro.audit.certify.CertifiedResult` is that
its ``verified`` flag is earned by checks *independent* of the decode
path — so the tests here probe both directions: true answers certify
cleanly (with a reference graph and without), and manufactured lies
(foreign witness edges, under-merged component claims, cross-layer
duplicates) are caught by the specific check built to catch them.
"""

import pytest

from repro.audit.certify import (
    CertifiedResult,
    certify_connectivity,
    certify_edge_connectivity,
    certify_skeleton,
    certify_spanning_forest,
    _active_components,
    _boundary_failures,
)
from repro.core.edge_connectivity_sketch import EdgeConnectivitySketch
from repro.core.params import Params
from repro.graph.generators import cycle_graph, random_connected_graph
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch


def feed(sketch, graph):
    for e in graph.edges():
        sketch.insert(e)
    return sketch


def forest_for(graph, seed=9):
    return feed(
        SpanningForestSketch(graph.n, seed=seed, rounds=6, rows=2, buckets=8),
        graph,
    )


class TestSpanningForestCertification:
    def test_connected_graph_certifies(self):
        g = random_connected_graph(14, 10, seed=3)
        cert = certify_spanning_forest(forest_for(g))
        assert cert.verified
        assert cert.value == [sorted(range(14))]
        assert cert.checks > 0
        assert len(cert.witness) == 13  # a spanning tree

    def test_reference_edges_accepted(self):
        g = random_connected_graph(12, 8, seed=5)
        cert = certify_spanning_forest(forest_for(g), reference_edges=g.edges())
        assert cert.verified
        assert all(tuple(e) in {tuple(sorted(x)) for x in g.edges()}
                   for e in cert.witness)

    def test_disconnected_graph_certifies_components(self):
        # Two disjoint cycles: 0..5 and 6..11.
        sketch = SpanningForestSketch(12, seed=4, rounds=6, rows=2, buckets=8)
        for i in range(6):
            sketch.insert((i, (i + 1) % 6))
            sketch.insert((6 + i, 6 + (i + 1) % 6))
        cert = certify_spanning_forest(sketch)
        assert cert.verified
        assert cert.value == [list(range(6)), list(range(6, 12))]
        connected = certify_connectivity(sketch)
        assert connected.value is False
        assert connected.verified

    def test_foreign_reference_rejects(self):
        g = cycle_graph(10)
        # Lie to the certifier: claim the true graph has only even-edge
        # pairs, so roughly half the witness edges fail membership.
        cert = certify_spanning_forest(
            forest_for(g), reference_edges=[(0, 2), (4, 6)]
        )
        assert not cert.verified
        assert any("reference" in f for f in cert.failures)

    def test_under_merged_claim_fails_boundary_check(self):
        g = cycle_graph(8)
        sketch = forest_for(g)
        # A split of a genuinely connected graph: each half has a
        # nonzero boundary, so completeness must reject in every group.
        failures, checks = _boundary_failures(
            sketch, [list(range(4)), list(range(4, 8))]
        )
        assert failures
        assert checks >= 2
        assert all("nonzero boundary" in f for f in failures)

    def test_active_components_ignore_inactive_vertices(self):
        g = cycle_graph(6)
        sketch = forest_for(g)
        comps = _active_components(sketch, [(0, 1), (2, 3)])
        assert [0, 1] in comps and [2, 3] in comps

    def test_certified_result_refuses_truthiness(self):
        cert = CertifiedResult(value=True, witness=(), verified=True, checks=1)
        with pytest.raises(TypeError):
            bool(cert)
        assert "VERIFIED" in cert.summary()


class TestSkeletonCertification:
    def make(self, n=10, k=3, seed=5):
        g = cycle_graph(n)
        sketch = SkeletonSketch(n, k=k, seed=seed, rounds=6, rows=2, buckets=8)
        return g, feed(sketch, g)

    def test_skeleton_certifies_with_reference(self):
        g, sketch = self.make()
        cert = certify_skeleton(sketch, reference_edges=g.edges())
        assert cert.verified
        assert cert.method == "k-skeleton"
        # A cycle has only n edges; a 3-skeleton recovers all of them.
        assert sorted(set(cert.witness)) == sorted(
            tuple(sorted(e)) for e in g.edges()
        )

    def test_certification_is_non_destructive(self):
        from repro.sketch.serialization import dump_sketch

        _, sketch = self.make()
        before = dump_sketch(sketch)
        first = certify_skeleton(sketch)
        second = certify_skeleton(sketch)
        assert dump_sketch(sketch) == before
        assert first.witness == second.witness
        assert first.verified and second.verified

    def test_duplicate_across_layers_detected(self):
        _, sketch = self.make()
        forests = sketch.decode_layers()
        dup = next(iter(forests[0].edges()))
        # Monkeypatch the second layer's decode to return a forest that
        # replays a layer-0 edge: the edge-disjointness check must fire.
        real_decode = sketch.layers[1].decode

        def lying_decode(strict=False, minus=()):
            forest = real_decode(strict=strict, minus=minus)
            forest.add_edge(dup)
            return forest

        sketch.layers[1].decode = lying_decode
        cert = certify_skeleton(sketch)
        assert not cert.verified
        assert any("edge-disjoint" in f for f in cert.failures)


class TestEdgeConnectivityCertification:
    def test_cycle_estimate_certifies(self):
        n = 10
        sketch = EdgeConnectivitySketch(n, k_max=4, seed=5,
                                        params=Params.practical())
        for e in cycle_graph(n).edges():
            sketch.insert(e)
        cert = certify_edge_connectivity(sketch)
        assert cert.verified
        assert cert.method == "edge-connectivity"
        assert cert.value == 2  # a cycle is exactly 2-edge-connected
