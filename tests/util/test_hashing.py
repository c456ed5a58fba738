"""Tests for the seeded hashing primitives."""

import numpy as np
import pytest

from repro.util import hashing as H


class TestSplitmix:
    def test_deterministic(self):
        assert H.splitmix64(42) == H.splitmix64(42)

    def test_distinct_inputs_distinct_outputs(self):
        outs = {H.splitmix64(i) for i in range(2000)}
        assert len(outs) == 2000

    def test_range(self):
        for i in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= H.splitmix64(i) < 2**64

    def test_numpy_matches_scalar(self):
        xs = np.array([0, 1, 7, 2**40, 2**63, 2**64 - 1], dtype=np.uint64)
        words = np.random.default_rng(5).integers(
            0, 2**64, size=2000, dtype=np.uint64
        )
        for batch in (xs, words):
            before = batch.copy()
            out = H.splitmix64_np(batch)
            assert np.array_equal(batch, before)  # input untouched
            for x, o in zip(batch.tolist(), out.tolist()):
                assert H.splitmix64(int(x)) == int(o)

    def test_numpy_on_a_strided_view(self):
        """The shared shift buffer follows the input's shape, not its
        memory: a strided 2-D view hashes element for element, and
        neither the view nor its base moves."""
        base = np.random.default_rng(6).integers(
            0, 2**64, size=(40, 30), dtype=np.uint64
        )
        base[0, :4] = [0, 1, 2**63, 2**64 - 1]
        view = base[::2, ::3]
        before = base.copy()
        out = H.splitmix64_np(view)
        assert np.array_equal(base, before)
        assert out.shape == view.shape and not np.shares_memory(out, base)
        for x, o in zip(view.ravel().tolist(), out.ravel().tolist()):
            assert H.splitmix64(x) == o


class TestHash64:
    def test_seed_sensitivity(self):
        assert H.hash64(1, 99) != H.hash64(2, 99)

    def test_value_sensitivity(self):
        assert H.hash64(1, 99) != H.hash64(1, 100)

    def test_vectorised_matches_scalar(self):
        seeds = np.array([3, 5, 2**60], dtype=np.uint64)
        out = H.hash64_np(seeds, 12345)
        for s, o in zip(seeds.tolist(), out.tolist()):
            assert H.hash64(int(s), 12345) == int(o)

    def test_premixed_seeds_by_values_matches_scalar(self):
        """The seeds x values sibling: every broadcast position equals
        the scalar ``hash64(seed, value)``."""
        seeds = np.array([[3, 5], [2**60, 2**64 - 1], [0, 7]], dtype=np.uint64)
        values = np.array([0, 12345, 2**61 - 2], dtype=np.int64)
        out = H.hash64_premixed(seeds, H.premix64_np(values)[:, None])
        for i, v in enumerate(values.tolist()):
            for j in range(seeds.shape[1]):
                assert H.hash64(int(seeds[i, j]), v) == int(out[i, j])
        # ...and one value under many seeds is hash64_np.
        many = H.hash64_premixed(seeds[:, 0], H.premix64_np(values[1:2]))
        assert many.tolist() == H.hash64_np(seeds[:, 0], 12345).tolist()

    def test_field_residue_matches_field_value(self):
        p = 2**61 - 1
        values = np.array([0, 1, 99, 2**40 + 3], dtype=np.int64)
        for seed in (1, 2**63 + 5):
            fam = H.HashFamily(seed)
            seeds = np.array([seed, seed ^ H._FIELD_TWEAK], dtype=np.uint64)
            h = H.hash64_premixed(seeds, H.premix64_np(values)[:, None])
            got = H.field_residue_np(h[:, 0], h[:, 1], p)
            assert got.tolist() == [fam.field_value(v, p) for v in values.tolist()]


class TestTrailingZeros:
    def test_scalar_cases(self):
        assert H.trailing_zeros64(1) == 0
        assert H.trailing_zeros64(8) == 3
        assert H.trailing_zeros64(0) == 64
        assert H.trailing_zeros64(2**63) == 63

    def test_vector_matches_scalar(self):
        xs = np.array(
            [0, 1, 2, 12, 2**35, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64
        )
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=4000, dtype=np.uint64)
        # ...and every trailing-zero count 0..63, with random high bits.
        shifted = (words[:64] | np.uint64(1)) << np.arange(64, dtype=np.uint64)
        for batch in (xs, words, shifted):
            out = H.trailing_zeros64_np(batch)
            assert out.dtype == np.int64
            for x, o in zip(batch.tolist(), out.tolist()):
                assert H.trailing_zeros64(int(x)) == int(o)

    @pytest.mark.parametrize("levels", [1, 2, 21, 32, 33, 64, 65])
    def test_level_counts_match_the_capped_scalar_depth(self, levels):
        """Each side of the 32-bit and the 64-bit cut, against the
        scalar ``min(tz, levels - 1) + 1`` of ``SamplerGrid.update``."""
        rng = np.random.default_rng(levels)
        words = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
        shifted = (words[:64] | np.uint64(1)) << np.arange(64, dtype=np.uint64)
        batch = np.concatenate([words, shifted, np.zeros(1, np.uint64)])
        out = H.level_counts_np(batch, levels)
        assert out.dtype == np.int64
        assert out.tolist() == [
            min(H.trailing_zeros64(int(x)), levels - 1) + 1
            for x in batch.tolist()
        ]

    def test_geometric_distribution(self):
        # Hash outputs should have ~half zero trailing bits, ~quarter one...
        tz = [H.trailing_zeros64(H.hash64(11, i)) for i in range(4000)]
        frac0 = sum(1 for t in tz if t == 0) / len(tz)
        frac1 = sum(1 for t in tz if t == 1) / len(tz)
        assert abs(frac0 - 0.5) < 0.05
        assert abs(frac1 - 0.25) < 0.05


class TestDeriveSeed:
    def test_path_sensitivity(self):
        assert H.derive_seed(1, 2, 3) != H.derive_seed(1, 3, 2)
        assert H.derive_seed(1, 2) != H.derive_seed(1, 2, 0)

    def test_deterministic(self):
        assert H.derive_seed(9, 1, 2, 3) == H.derive_seed(9, 1, 2, 3)


class TestHashFamily:
    def test_subfamily_independence(self):
        """Families on sibling derived seeds share no hash values."""
        a = H.HashFamily(H.derive_seed(5, 0))
        b = H.HashFamily(H.derive_seed(5, 1))
        collisions = sum(1 for i in range(500) if a.value(i) == b.value(i))
        assert collisions == 0

    def test_bucket_range_and_balance(self):
        """``value(x) % buckets``, the grid's bucket placement, is
        balanced."""
        fam = H.HashFamily(6)
        counts = [0] * 8
        for i in range(8000):
            b = fam.value(i) % 8
            assert 0 <= b < 8
            counts[b] += 1
        assert min(counts) > 800  # roughly balanced

    def test_field_value_range(self):
        fam = H.HashFamily(7)
        p = (1 << 61) - 1
        vals = [fam.field_value(i, p) for i in range(200)]
        assert all(0 <= v < p for v in vals)
        assert len(set(vals)) == 200

    def test_coin_probability(self):
        """A coordinate reaches subsampling level 2 with probability
        1/4: two trailing zero bits of its hash."""
        fam = H.HashFamily(8)
        hits = sum(
            1 for i in range(8000) if H.trailing_zeros64(fam.value(i)) >= 2
        )
        assert abs(hits / 8000 - 0.25) < 0.04

    def test_same_seed_same_family(self):
        assert H.HashFamily(3).value(10) == H.HashFamily(3).value(10)
