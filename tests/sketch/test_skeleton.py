"""Tests for k-skeleton sketches (Theorem 14)."""

import pytest

from repro.errors import DomainError, IncompatibleSketchError
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    hyper_cycle,
    random_connected_graph,
    random_connected_hypergraph,
)
from repro.graph.hypergraph import Hypergraph
from repro.graph.hypergraph_cuts import is_k_skeleton, is_spanning_subgraph
from repro.sketch.serialization import dump_sketch
from repro.sketch.skeleton import SkeletonSketch


def skeleton_of(graphlike, n, k, r=2, seed=1) -> SkeletonSketch:
    sk = SkeletonSketch(n, k=k, r=r, seed=seed)
    for e in graphlike.edges():
        sk.insert(e)
    return sk


class TestGraphSkeletons:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_skeleton_property_cycle(self, k):
        g = cycle_graph(9)
        skel = skeleton_of(g, 9, k).decode()
        assert is_k_skeleton(Hypergraph.from_graph(g), skel, k)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_skeleton_property_random(self, seed):
        g = gnp_graph(10, 0.4, seed=seed)
        skel = skeleton_of(g, 10, 2, seed=seed).decode()
        assert is_k_skeleton(Hypergraph.from_graph(g), skel, 2)

    def test_skeleton_of_complete_graph_is_sparse(self):
        g = complete_graph(12)
        skel = skeleton_of(g, 12, 2).decode()
        # At most k spanning forests' worth of edges.
        assert skel.num_edges <= 2 * 11
        assert is_k_skeleton(Hypergraph.from_graph(g), skel, 2)

    def test_layers_are_nested_spanning_graphs(self):
        g = random_connected_graph(10, 15, seed=4)
        sk = skeleton_of(g, 10, 3)
        layers = sk.decode_layers()
        assert len(layers) == 3
        remaining = Hypergraph.from_graph(g)
        for forest in layers:
            assert is_spanning_subgraph(remaining, forest)
            for e in forest.edges():
                remaining.remove_edge(e)

    def test_decode_is_nondestructive(self):
        g = cycle_graph(8)
        sk = skeleton_of(g, 8, 2)
        first = sk.decode()
        second = sk.decode()
        assert first == second

    def test_deletions(self):
        g = complete_graph(8)
        sk = skeleton_of(g, 8, 2)
        for v in range(2, 8):
            sk.delete((0, v))  # isolate 0 except edge to 1
        sk.delete((0, 1))
        skel = sk.decode()
        assert all(0 not in e for e in skel.edges())


class TestHypergraphSkeletons:
    def test_hyper_cycle_skeleton(self):
        h = hyper_cycle(8, 3)
        sk = SkeletonSketch(8, k=2, r=3, seed=2)
        for e in h.edges():
            sk.insert(e)
        skel = sk.decode()
        assert is_k_skeleton(h, skel, 2)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_random_hypergraph_skeleton(self, seed):
        h = random_connected_hypergraph(10, 12, r=3, seed=seed)
        sk = SkeletonSketch(10, k=2, r=3, seed=seed)
        for e in h.edges():
            sk.insert(e)
        assert is_k_skeleton(h, sk.decode(), 2)


class TestValidation:
    def test_k_positive(self):
        with pytest.raises(DomainError):
            SkeletonSketch(5, k=0)

    def test_linearity(self):
        a = SkeletonSketch(6, k=2, seed=3)
        b = SkeletonSketch(6, k=2, seed=3)
        g = cycle_graph(6)
        for e in g.edges():
            a.insert(e)
            b.insert(e)
        a -= b
        assert all(layer.grid.appears_zero() for layer in a.layers)

    def test_incompatible(self):
        with pytest.raises(IncompatibleSketchError):
            SkeletonSketch(5, k=2, seed=1).__iadd__(SkeletonSketch(5, k=2, seed=2))

    def test_space_scales_with_k(self):
        s1 = SkeletonSketch(8, k=1, seed=1).space_counters()
        s3 = SkeletonSketch(8, k=3, seed=1).space_counters()
        assert s3 == 3 * s1


class TestBatchPath:
    def test_rank2_batch_takes_the_pair_expansion(self, monkeypatch):
        """A rank-2 skeleton batch expands through the vectorised pair
        path, never the per-event one, and equals per-event updates."""
        from repro.engine import batch

        edges = list(cycle_graph(9).edges()) + [(0, 4), (2, 7)]
        updates = [(e, 1) for e in edges] + [((0, 4), -1)]
        scalar = SkeletonSketch(9, k=2, seed=4)
        for e, sign in updates:
            scalar.update(e, sign)

        def per_event(*args):
            raise AssertionError("rank-2 batch took the per-event expansion")

        monkeypatch.setattr(batch, "expand_edges", per_event)
        batched = SkeletonSketch(9, k=2, seed=4)
        assert batched.update_batch(iter(updates)) == 2 * len(updates)
        assert dump_sketch(batched) == dump_sketch(scalar)
