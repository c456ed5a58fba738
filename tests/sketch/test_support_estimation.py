"""Tests for dynamic support-size (F0) estimation from L0 levels."""

import pytest

from repro.graph.generators import complete_graph, cycle_graph, star_graph
from repro.sketch import reference
from repro.sketch.bank import SamplerGrid
from repro.sketch.spanning_forest import SpanningForestSketch


def grid(seed=1, **kw):
    return SamplerGrid(groups=3, members=1, domain=100_000, seed=seed, **kw)


class TestEstimateSupportSize:
    def test_zero_vector(self):
        assert reference.member_sketch(grid(), 0, 0).estimate_support_size() == 0

    def test_exact_for_sparse(self):
        g = grid()
        for i in range(4):
            g.update(0, 17 * i + 1, 1)
        assert reference.member_sketch(g, 0, 0).estimate_support_size() == 4

    def test_deletions_respected(self):
        g = grid()
        for i in range(6):
            g.update(0, i, 1)
        for i in range(4):
            g.update(0, i, -1)
        assert reference.member_sketch(g, 0, 0).estimate_support_size() == 2

    @pytest.mark.parametrize("support", [50, 200, 1000])
    def test_dense_estimates_within_factor(self, support):
        estimates = []
        for seed in range(8):
            g = grid(seed=seed, buckets=8, rows=2)
            for i in range(support):
                g.update(0, 13 * i, 1)
            est = reference.member_sketch(g, 0, 0).estimate_support_size()
            if est is not None:
                estimates.append(est)
        assert estimates, "at least some seeds must certify a level"
        mean = sum(estimates) / len(estimates)
        assert support / 3 <= mean <= 3 * support

    def test_insert_only_kmv_would_break_this(self):
        """The definitive dynamic-stream property: heavy churn that
        cancels to a small support is measured correctly."""
        g = grid()
        for i in range(500):
            g.update(0, i, 1)
        for i in range(497):
            g.update(0, i, -1)
        assert reference.member_sketch(g, 0, 0).estimate_support_size() == 3


class TestDegreeEstimation:
    def test_star_degrees(self):
        g = star_graph(10)
        sk = SpanningForestSketch(10, seed=2)
        for e in g.edges():
            sk.insert(e)
        assert sk.estimate_degree(0) == 9
        assert sk.estimate_degree(3) == 1

    def test_cycle_degrees(self):
        g = cycle_graph(8)
        sk = SpanningForestSketch(8, seed=3)
        for e in g.edges():
            sk.insert(e)
        assert all(sk.estimate_degree(v) == 2 for v in range(8))

    def test_degree_tracks_deletions(self):
        g = complete_graph(6)
        sk = SpanningForestSketch(6, seed=4)
        for e in g.edges():
            sk.insert(e)
        for v in (1, 2, 3):
            sk.delete((0, v))
        assert sk.estimate_degree(0) == 2

    def test_inactive_vertex_rejected(self):
        from repro.errors import DomainError

        sk = SpanningForestSketch(6, vertices=[0, 1, 2], seed=5)
        with pytest.raises(DomainError):
            sk.estimate_degree(5)

    @pytest.mark.parametrize("group", [-1, "rounds"])
    def test_group_outside_the_rounds_rejected(self, group):
        from repro.errors import DomainError

        sk = SpanningForestSketch(6, seed=5)
        for e in complete_graph(4).edges():
            sk.insert(e)
        group = sk.rounds if group == "rounds" else group
        with pytest.raises(DomainError):
            sk.estimate_degree(0, group=group)

    def test_every_group_matches_the_reference(self):
        """The batch estimate equals the scalar oracle's
        ``estimate_support_size`` of the vertex's own sampler, in every
        group, including the deep-level estimates of a dense star."""
        sk = SpanningForestSketch(200, seed=6, rows=1, buckets=4)
        for v in range(1, 200):
            sk.insert((0, v))
        for v in range(2, 40):
            sk.insert((1, v))
        sk.delete((0, 7))
        estimates = set()
        for group in range(sk.rounds):
            for v in (0, 1, 2, 7):
                want = reference.member_sketch(
                    sk.grid, group, v
                ).estimate_support_size()
                got = sk.estimate_degree(v, group=group)
                assert got == want and type(got) is type(want)
                estimates.add(want)
        # Uncertified groups and deep-level (scaled) estimates both occur.
        assert None in estimates and max(e or 0 for e in estimates) > 199
