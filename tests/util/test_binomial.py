"""Tests for combinatorial ranking and the hyperedge coordinate space."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.errors import DomainError, RankError
from repro.util.binomial import EdgeSpace, binom, colex_rank, colex_unrank


class TestBinom:
    def test_matches_math_comb(self):
        for n in range(0, 15):
            for k in range(0, n + 1):
                assert binom(n, k) == comb(n, k)

    def test_out_of_range_is_zero(self):
        assert binom(3, 5) == 0
        assert binom(3, -1) == 0
        assert binom(-2, 1) == 0


class TestColex:
    def test_rank_unrank_roundtrip_pairs(self):
        for i, subset in enumerate(
            sorted(combinations(range(8), 2), key=lambda s: tuple(reversed(s)))
        ):
            assert colex_rank(subset) == i
            assert colex_unrank(i, 2) == subset

    def test_rank_unrank_roundtrip_triples(self):
        seen = set()
        for subset in combinations(range(7), 3):
            r = colex_rank(subset)
            assert colex_unrank(r, 3) == subset
            seen.add(r)
        assert seen == set(range(comb(7, 3)))

    def test_rank_is_dense_from_zero(self):
        ranks = sorted(colex_rank(s) for s in combinations(range(6), 2))
        assert ranks == list(range(comb(6, 2)))


class TestEdgeSpace:
    def test_dimension_graph(self):
        assert EdgeSpace(10, 2).dimension == comb(10, 2)

    def test_dimension_hypergraph(self):
        es = EdgeSpace(9, 4)
        assert es.dimension == comb(9, 2) + comb(9, 3) + comb(9, 4)

    def test_bijection_graph(self):
        es = EdgeSpace(7, 2)
        indices = set()
        for e in combinations(range(7), 2):
            idx = es.index_of(e)
            assert es.edge_of(idx) == e
            indices.add(idx)
        assert indices == set(range(es.dimension))

    def test_bijection_rank3(self):
        es = EdgeSpace(6, 3)
        indices = set()
        for size in (2, 3):
            for e in combinations(range(6), size):
                idx = es.index_of(e)
                assert es.edge_of(idx) == e
                indices.add(idx)
        assert indices == set(range(es.dimension))

    def test_unsorted_input_canonicalised(self):
        es = EdgeSpace(6, 3)
        assert es.index_of((4, 1, 2)) == es.index_of((1, 2, 4))

    def test_rejects_singleton(self):
        with pytest.raises(RankError):
            EdgeSpace(5, 2).index_of((3,))

    def test_rejects_oversized(self):
        with pytest.raises(RankError):
            EdgeSpace(5, 2).index_of((1, 2, 3))

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            EdgeSpace(5, 2).index_of((2, 2))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(DomainError):
            EdgeSpace(5, 2).index_of((1, 5))

    def test_rejects_out_of_range_index(self):
        es = EdgeSpace(5, 2)
        with pytest.raises(DomainError):
            es.edge_of(es.dimension)
        with pytest.raises(DomainError):
            es.edge_of(-1)

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            EdgeSpace(1, 2)
        with pytest.raises(RankError):
            EdgeSpace(5, 1)
        with pytest.raises(RankError):
            EdgeSpace(5, 6)

    def test_equality_and_hash(self):
        assert EdgeSpace(5, 2) == EdgeSpace(5, 2)
        assert EdgeSpace(5, 2) != EdgeSpace(5, 3)
        assert hash(EdgeSpace(5, 2)) == hash(EdgeSpace(5, 2))

    def test_blocks_are_contiguous_by_size(self):
        es = EdgeSpace(6, 3)
        pair_indices = [es.index_of(e) for e in combinations(range(6), 2)]
        triple_indices = [es.index_of(e) for e in combinations(range(6), 3)]
        assert max(pair_indices) < min(triple_indices)


def _rows_to_edges(rows):
    return [tuple(v for v in row if v >= 0) for row in rows.tolist()]


def _colex_blocks(n, r):
    """Every hyperedge of rank <= r in coordinate order, by brute force."""
    out = []
    for k in range(2, r + 1):
        out += sorted(combinations(range(n), k), key=lambda e: e[::-1])
    return out


class TestExactUnranking:
    """``edge_of`` / ``edges_of`` against brute-force enumeration, and at
    the ranks where a float square root is off by one."""

    def test_exhaustive_roundtrip_largest_space(self):
        # Colex ranks do not depend on n, so n = 48 exercises every
        # rank any n <= 48 can produce (213 004 coordinates at r = 4).
        es = EdgeSpace(48, 4)
        expected = _colex_blocks(48, 4)
        assert len(expected) == es.dimension
        assert _rows_to_edges(es.edges_of(np.arange(es.dimension))) == expected
        assert [es.index_of(e) for e in expected] == list(range(es.dimension))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_roundtrip_every_n_up_to_48(self, r):
        # Block offsets do depend on n: exhaustive while the space is
        # small, block boundaries plus a stride beyond that.
        for n in range(r, 49):
            es = EdgeSpace(n, r)
            if es.dimension <= 4000:
                idx = np.arange(es.dimension)
            else:
                edges = [binom(n, 2), binom(n, 2) + binom(n, 3)]
                near = [e + d for e in edges for d in (-2, -1, 0, 1)]
                idx = np.unique(np.r_[
                    np.arange(0, es.dimension, 97), near, es.dimension - 1
                ])
                idx = idx[idx < es.dimension]
            scalar = [es.edge_of(int(i)) for i in idx]
            assert _rows_to_edges(es.edges_of(idx)) == scalar
            assert [es.index_of(e) for e in scalar] == idx.tolist()
            assert all(len(set(e)) == len(e) and e[-1] < n for e in scalar)

    def test_pairs_at_triangular_boundaries_beyond_float_precision(self):
        # 8 * rank + 1 exceeds 2^53 from c ~ 2^25: a bare float sqrt
        # lands on the wrong side of C(c, 2) there.
        cs = [c + d for k in range(2, 31) for c in [1 << k] for d in (-1, 0, 1)]
        cs += [3, 5, 6, 7, 94906266, 94906267, (1 << 30) + 12345]
        es = EdgeSpace((1 << 30) + 2 ** 15, 2)
        ranks = []
        for c in cs:
            tri = c * (c - 1) // 2
            for rank in (tri - 1, tri, tri + 1):
                ranks.append(rank)
                expect = (rank - tri, c) if rank >= tri else (c - 2, c - 1)
                assert colex_unrank(rank, 2) == expect, (c, rank)
                assert colex_rank(colex_unrank(rank, 2)) == rank
        got = es.edges_of(np.array(ranks, dtype=np.int64))
        assert [tuple(e) for e in got.tolist()] == [es.edge_of(i) for i in ranks]
        bare = ((1 + np.sqrt(8.0 * np.array(ranks) + 1)) / 2).astype(np.int64)
        assert (bare != got[:, 1]).any(), "fix-up is exercised"

    def test_edges_of_matches_scalar_on_random_int64(self):
        rng = np.random.default_rng(11)
        for n, r in [(4096, 2), (1 << 20, 2), (300, 3), (64, 4)]:
            es = EdgeSpace(n, r)
            idx = rng.integers(0, es.dimension, size=500, dtype=np.int64)
            got = es.edges_of(idx)
            assert got.dtype == np.int64 and got.shape == (500, r)
            assert _rows_to_edges(got) == [es.edge_of(int(i)) for i in idx]

    def test_edges_of_shape_and_empty(self):
        es = EdgeSpace(10, 2)
        got = es.edges_of([0, 44, 7])
        assert got.shape == (3, 2) and got.dtype == np.int64
        assert got.tolist() == [[0, 1], [8, 9], [1, 4]]
        assert es.edges_of([]).shape == (0, 2)
        assert EdgeSpace(10, 3).edges_of([0]).tolist() == [[0, 1, -1]]

    def test_edges_of_rejects_out_of_range(self):
        es = EdgeSpace(5, 2)
        for bad in ([0, es.dimension], [-1, 3]):
            with pytest.raises(DomainError) as batch_err:
                es.edges_of(bad)
            culprit = [i for i in bad if not 0 <= i < es.dimension][0]
            with pytest.raises(DomainError) as scalar_err:
                es.edge_of(culprit)
            assert str(batch_err.value) == str(scalar_err.value)

    def test_edge_of_makes_constant_binom_calls(self):
        # The old unrank scanned c = 1, 2, ... with one binom call per
        # step: ~n calls for a high pair.  Pairs now use none.
        es = EdgeSpace(4096, 2)
        before = binom.cache_info()
        for index in (0, 1, es.dimension // 2, es.dimension - 1):
            assert es.index_of(es.edge_of(index)) == index
        after = binom.cache_info()
        calls = (after.hits + after.misses) - (before.hits + before.misses)
        # index_of ranks through binom (2 calls per pair); edge_of adds none.
        assert calls <= 4 * 2

    def test_unrank_triples_uses_logarithmic_binom_calls(self):
        rank = colex_rank((1000, 2000, 3000))
        before = binom.cache_info()
        assert colex_unrank(rank, 3) == (1000, 2000, 3000)
        after = binom.cache_info()
        calls = (after.hits + after.misses) - (before.hits + before.misses)
        assert calls <= 64  # doubling + bisection, not ~3000 scan steps
