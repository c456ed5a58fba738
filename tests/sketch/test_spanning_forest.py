"""Tests for the AGM spanning-forest sketch (Theorems 2 and 13)."""

import numpy as np
import pytest

from repro.errors import DomainError, IncompatibleSketchError
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    hyper_cycle,
    random_connected_graph,
    random_connected_hypergraph,
    random_hypergraph,
)
from repro.graph.hypergraph import Hypergraph
from repro.graph.hypergraph_cuts import is_spanning_subgraph
from repro.sketch.spanning_forest import SpanningForestSketch, default_rounds


def sketch_of(graphlike, n, r=2, seed=1, **kw) -> SpanningForestSketch:
    sk = SpanningForestSketch(n, r=r, seed=seed, **kw)
    for e in graphlike.edges():
        sk.insert(e)
    return sk


class TestGraphSpanning:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_spans_connected_graph(self, seed):
        g = random_connected_graph(24, 20, seed=seed)
        forest = sketch_of(g, 24, seed=seed + 100).decode()
        h = Hypergraph.from_graph(g)
        assert is_spanning_subgraph(h, forest)

    def test_edges_are_genuine(self):
        g = gnp_graph(20, 0.2, seed=6)
        forest = sketch_of(g, 20).decode()
        assert all(g.has_edge(*e) for e in forest.edges())

    def test_component_structure_preserved(self):
        g = gnp_graph(20, 0.08, seed=7)  # likely disconnected
        sk = sketch_of(g, 20)
        forest_comps = {tuple(c) for c in sk.components_of_decode()}
        true_comps = {tuple(c) for c in g.components()}
        assert forest_comps == true_comps

    def test_empty_graph(self):
        sk = SpanningForestSketch(8, seed=1)
        assert sk.decode().num_edges == 0
        assert len(sk.components_of_decode()) == 8

    def test_dense_graph(self):
        g = complete_graph(16)
        sk = sketch_of(g, 16)
        assert sk.is_connected()

    def test_deletions_respected(self):
        g = cycle_graph(10)
        sk = sketch_of(g, 10)
        # Delete two edges, splitting the cycle into two paths.
        sk.delete((0, 1))
        sk.delete((5, 6))
        comps = sk.components_of_decode()
        assert len(comps) == 2

    def test_delete_everything(self):
        g = cycle_graph(6)
        sk = sketch_of(g, 6)
        for e in g.edges():
            sk.delete(e)
        assert sk.grid.appears_zero()
        assert len(sk.components_of_decode()) == 6


class TestHypergraphSpanning:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spans_connected_hypergraph(self, seed):
        h = random_connected_hypergraph(15, 14, r=3, seed=seed)
        sk = SpanningForestSketch(15, r=3, seed=seed)
        for e in h.edges():
            sk.insert(e)
        spanning = sk.decode()
        assert is_spanning_subgraph(h, spanning)

    def test_hyper_cycle(self):
        h = hyper_cycle(12, 4)
        sk = SpanningForestSketch(12, r=4, seed=3)
        for e in h.edges():
            sk.insert(e)
        assert sk.is_connected()

    def test_hypergraph_components(self):
        h = random_hypergraph(14, 6, r=3, seed=9)
        sk = SpanningForestSketch(14, r=3, seed=9)
        for e in h.edges():
            sk.insert(e)
        assert {tuple(c) for c in sk.components_of_decode()} == {
            tuple(c) for c in h.components()
        }

    def test_hyperedge_deletion(self):
        h = hyper_cycle(8, 3)
        sk = SpanningForestSketch(8, r=3, seed=5)
        for e in h.edges():
            sk.insert(e)
        for e in h.edges():
            sk.delete(e)
        assert sk.grid.appears_zero()


class TestActiveSubsets:
    def test_restricted_vertex_set(self):
        g = cycle_graph(10)
        active = [0, 1, 2, 3, 4]
        sk = SpanningForestSketch(10, vertices=active, seed=2)
        for e in g.edges():
            if sk.contains_vertexwise(e):
                sk.insert(e)
        comps = sk.components_of_decode()
        # Induced graph on 0..4 is the path 0-1-2-3-4.
        assert comps == [[0, 1, 2, 3, 4]]

    def test_inactive_vertex_rejected(self):
        sk = SpanningForestSketch(6, vertices=[0, 1, 2], seed=2)
        with pytest.raises(DomainError):
            sk.insert((0, 5))

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(DomainError):
            SpanningForestSketch(5, vertices=[])


class TestLinearityAndValidation:
    def test_merge_distributed_streams(self):
        g = random_connected_graph(12, 8, seed=10)
        a = SpanningForestSketch(12, seed=42)
        b = SpanningForestSketch(12, seed=42)
        edges = g.edges()
        for e in edges[: len(edges) // 2]:
            a.insert(e)
        for e in edges[len(edges) // 2:]:
            b.insert(e)
        a += b
        assert is_spanning_subgraph(Hypergraph.from_graph(g), a.decode())

    def test_subtract_edge_set(self):
        g = cycle_graph(8)
        a = SpanningForestSketch(8, seed=7)
        b = SpanningForestSketch(8, seed=7)
        for e in g.edges():
            a.insert(e)
        b.insert((0, 1))
        a -= b
        comps = a.components_of_decode()
        assert len(comps) == 1  # path is still connected

    def test_incompatible_seeds(self):
        with pytest.raises(IncompatibleSketchError):
            SpanningForestSketch(5, seed=1).__iadd__(SpanningForestSketch(5, seed=2))

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            SpanningForestSketch(5, seed=1).update((0, 1), 2)

    @pytest.mark.parametrize("edge, sign, exc", [
        ((0, 1.5), 1, DomainError),
        ((0, "1"), 1, TypeError),
        ((0, 1), 1.5, DomainError),
    ])
    def test_batch_rejects_non_integers_like_update(self, edge, sign, exc):
        """The rank-2 batch path must not cast a float or string to an
        integer vertex or sign: it raises what ``update`` raises."""
        scalar = SpanningForestSketch(8, seed=1)
        with pytest.raises(exc):
            scalar.update(edge, sign)
        sk = SpanningForestSketch(8, seed=1)
        with pytest.raises(exc):
            sk.update_batch([((2, 3), 1), (edge, sign)])
        assert not sk.grid._block.any()

    @pytest.mark.parametrize("twice", [[(0, 1), (0, 1)], [(0, 1), (1, 0)]])
    def test_minus_naming_an_edge_twice_is_rejected(self, twice):
        """Subtracting (0, 1) twice leaves it at multiplicity -1, and the
        decode used to return it as a forest edge of G − F."""
        sk = SpanningForestSketch(8, seed=1)
        for e in ((0, 1), (1, 2), (3, 4)):
            sk.insert(e)
        before = sk.grid._block.copy()
        with pytest.raises(DomainError, match="more than once"):
            sk.decode(minus=twice)
        with pytest.raises(DomainError, match="more than once"):
            sk.appears_zero(minus=twice)
        assert np.array_equal(sk.grid._block, before)
        assert sorted(sk.decode(minus=twice[:1]).edges()) == [(1, 2), (3, 4)]

    def test_minus_twice_is_rejected_for_hyperedges(self):
        sk = SpanningForestSketch(8, r=3, seed=1)
        sk.insert((0, 1, 2))
        with pytest.raises(DomainError, match="more than once"):
            sk.decode(minus=[(0, 1, 2), (2, 0, 1)])
        # A hyperedge and its sub-pair are different coordinates.
        assert sk.decode(minus=[(0, 1, 2)]).num_edges == 0

    def test_default_rounds_grows_logarithmically(self):
        assert default_rounds(2) < default_rounds(1024) <= 16

    def test_space_accounting(self):
        sk = SpanningForestSketch(10, seed=1)
        assert sk.space_counters() > 0
        assert sk.space_bytes() == 8 * sk.space_counters()
