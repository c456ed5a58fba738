"""Cut audits of small hypergraphs: a sparsifier's worst cut error
(``max_cut_error``) and the k-skeleton predicate (``is_k_skeleton``),
both checked against every cut."""

import pytest

from repro.core.sparsifier import max_cut_error
from repro.graph.generators import cycle_graph, random_connected_hypergraph
from repro.graph.hypergraph import Hypergraph, WeightedHypergraph
from repro.graph.hypergraph_cuts import all_cuts, is_k_skeleton


def weighted_copy(h, factor=1.0):
    w = WeightedHypergraph(h.n, h.r)
    for e in h.edges():
        w.add_weighted_edge(e, factor)
    return w


class TestSparsifierAudit:
    def test_perfect_copy_zero_error(self):
        h = random_connected_hypergraph(8, 10, r=3, seed=1)
        assert max_cut_error(h, weighted_copy(h), list(all_cuts(h.n))) == 0.0

    def test_scaled_copy_known_error(self):
        h = Hypergraph.from_graph(cycle_graph(8))
        err = max_cut_error(h, weighted_copy(h, factor=1.5), list(all_cuts(h.n)))
        assert err == pytest.approx(0.5)


class TestSkeletonAudit:
    def test_non_subgraph_rejected(self):
        h = Hypergraph.from_graph(cycle_graph(5))
        fake = Hypergraph(5, 2, [(0, 2)])
        assert not is_k_skeleton(h, fake, k=1)
