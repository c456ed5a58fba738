"""Tests for the dynamic hypergraph sparsifier (Theorem 20)."""

import pytest

from repro.core.sparsifier import HypergraphSparsifierSketch, max_cut_error
from repro.core.params import Params
from repro.errors import DomainError
from repro.graph.generators import (
    community_hypergraph,
    cycle_graph,
    gnp_graph,
    hyper_cycle,
    random_connected_hypergraph,
)
from repro.graph.hypergraph import Hypergraph
from repro.graph.hypergraph_cuts import all_cuts
from repro.stream.generators import insert_delete_reinsert


def loaded(h, epsilon=0.5, k=5, levels=6, seed=1):
    sk = HypergraphSparsifierSketch(
        h.n, r=h.r, epsilon=epsilon, seed=seed, k=k, levels=levels
    )
    for e in h.edges():
        sk.insert(e)
    return sk


class TestBasicProperties:
    def test_output_edges_are_genuine(self):
        h = random_connected_hypergraph(12, 20, r=3, seed=1)
        sp, _ = loaded(h, seed=2).decode()
        assert all(h.has_edge(e) for e in sp.edges())

    def test_weights_are_powers_of_two(self):
        import math

        h = random_connected_hypergraph(12, 20, r=3, seed=3)
        sp, _ = loaded(h, seed=4).decode()
        assert sp.num_edges > 0
        for w in sp.weights.values():
            assert w >= 1.0
            assert abs(math.log2(w) - round(math.log2(w))) < 1e-9

    def test_small_graph_fully_light_is_exact(self):
        """When every edge is light at level 0 the sparsifier is the
        graph itself with weight 1 — zero error."""
        h = Hypergraph.from_graph(cycle_graph(8))
        sp, complete = loaded(h, k=3, seed=5).decode()
        assert complete
        assert sp.edge_set() == h.edge_set()
        assert all(w == 1.0 for w in sp.weights.values())

    def test_completeness_flag(self):
        h = random_connected_hypergraph(10, 15, r=3, seed=6)
        _, complete = loaded(h, seed=7).decode()
        assert complete is True


class TestCutQuality:
    def test_exhaustive_cut_error_small_graph(self):
        h, blocks = community_hypergraph([6, 6], 12, 2, r=3, seed=8)
        sp, complete = loaded(h, k=8, seed=9).decode()
        assert complete
        err = max_cut_error(h, sp, list(all_cuts(h.n)))
        assert err <= 0.75  # coarse bound at this tiny k

    def test_small_cuts_preserved_exactly(self):
        """Cuts below the lightness threshold consist of light edges
        kept at weight 1, so they are preserved exactly."""
        h, blocks = community_hypergraph([7, 7], 14, 2, r=3, seed=10)
        sp, _ = loaded(h, k=8, seed=11).decode()
        inter = h.cut_size(blocks[0])
        assert sp.cut_weight(blocks[0]) == pytest.approx(inter)

    def test_error_shrinks_with_k(self):
        h = random_connected_hypergraph(12, 40, r=3, seed=12)
        cuts = list(all_cuts(12))[:400]
        errs = []
        for k in (2, 12):
            sp, _ = loaded(h, k=k, seed=13).decode()
            errs.append(max_cut_error(h, sp, cuts))
        assert errs[1] <= errs[0] + 1e-9


class TestDynamic:
    def test_insert_delete_reinsert(self):
        h = Hypergraph.from_graph(cycle_graph(8))
        sk = HypergraphSparsifierSketch(8, r=2, epsilon=0.5, seed=14, k=3, levels=5)
        for u in insert_delete_reinsert(h.to_graph(), shuffle_seed=2):
            sk.update(u.edge, u.sign)
        sp, complete = sk.decode()
        assert complete
        assert sp.edge_set() == h.edge_set()

    def test_deleted_edges_absent(self):
        h = hyper_cycle(8, 3)
        sk = HypergraphSparsifierSketch(8, r=3, epsilon=0.5, seed=15, k=4, levels=5)
        for e in h.edges():
            sk.insert(e)
        victim = h.edges()[0]
        sk.delete(victim)
        sp, _ = sk.decode()
        assert victim not in sp.edge_set()


class TestSubsampling:
    def test_edge_depth_deterministic(self):
        sk = HypergraphSparsifierSketch(10, r=3, epsilon=0.5, k=2, levels=6, seed=16)
        assert sk.edge_depth((0, 1, 2)) == sk.edge_depth((2, 1, 0))

    def test_edge_depth_distribution(self):
        sk = HypergraphSparsifierSketch(40, r=2, epsilon=0.5, k=2, levels=8, seed=17)
        depths = [
            sk.edge_depth((i, j)) for i in range(40) for j in range(i + 1, 40)
        ]
        frac0 = sum(1 for d in depths if d == 0) / len(depths)
        assert abs(frac0 - 0.5) < 0.06  # half the edges stop at level 0


class TestConfiguration:
    def test_epsilon_positive(self):
        with pytest.raises(DomainError):
            HypergraphSparsifierSketch(8, r=2, epsilon=0)

    def test_defaults_follow_params(self):
        p = Params.fast()
        sk = HypergraphSparsifierSketch(16, r=3, epsilon=0.5, params=p)
        assert sk.k == p.strength_threshold(16, 3, 0.5)
        assert sk.levels == p.sparsifier_levels(16)

    def test_reparameterize_inflates_k(self):
        a = HypergraphSparsifierSketch(16, r=2, epsilon=0.5, levels=4, params=Params.fast())
        b = HypergraphSparsifierSketch(
            16, r=2, epsilon=0.5, levels=4, reparameterize=True, params=Params.fast()
        )
        assert b.k > a.k

    def test_graph_specialisation(self):
        sk = HypergraphSparsifierSketch(10, r=2, epsilon=0.5, k=3, levels=4, seed=18)
        assert sk.r == 2
        g = cycle_graph(10)
        for e in g.edges():
            sk.insert(e)
        sp, complete = sk.decode()
        assert complete
        assert sp.edge_set() == set(g.edge_set())

    def test_space_accounting(self):
        sk = HypergraphSparsifierSketch(8, r=2, epsilon=0.5, k=2, levels=3, seed=19)
        assert sk.space_counters() > 0
        assert sk.space_bytes() == 8 * sk.space_counters()
