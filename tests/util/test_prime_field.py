"""Tests for GF(2^61 - 1) arithmetic helpers.

The vectorised helpers are checked against plain Python-int
arithmetic, which is exact at any size.
"""

import numpy as np
import pytest

from repro.sketch.bank import _fold_segments_mod, _inv_mod_cached
from repro.util import prime_field as pf

P = pf.MERSENNE_61


def vec(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestScalarOps:
    def test_modulus_is_prime_mersenne(self):
        p = pf.MERSENNE_61
        assert p == 2**61 - 1
        # Fermat-style spot checks that p behaves like a prime.
        for a in (2, 3, 5, 7, 1234567891011):
            assert pow(a, p - 1, p) == 1

    def test_mod_p_range(self):
        """Every helper returns canonical residues, in [0, p)."""
        edge = vec(0, 1, P - 2, P - 1)
        for out in (
            pf.add_vec_mod(edge, edge[::-1]),
            pf.mul_vec_mod(edge, edge[::-1]),
            pf.shl32_vec_mod(edge.astype(np.uint64)),
        ):
            assert ((0 <= out) & (out < P)).all()

    def test_add_sub_roundtrip(self):
        a, b = 12345678901234567, P - 5
        s = int(pf.add_vec_mod(vec(a), vec(b))[0])
        assert (s - b) % P == a
        assert (s - a) % P == b

    def test_add_wraps(self):
        assert pf.add_vec_mod(vec(P - 1), vec(1)).tolist() == [0]

    def test_mul_matches_python(self):
        a, b = 987654321987654321 % P, 55555
        assert pf.mul_vec_mod(vec(a), vec(b)).tolist() == [(a * b) % P]

    def test_inverse(self):
        for a in (1, 2, 7, 10**18 % P):
            assert pf.mul_vec_mod(vec(a), vec(pow(a, P - 2, P))).tolist() == [1]

    def test_inverse_of_zero_raises(self):
        """Fermat inversion of 0 is 0, never a false inverse: a cell
        decode must reject a zero weight before it divides."""
        assert _inv_mod_cached(0) == 0
        assert _inv_mod_cached(P - 1) * (P - 1) % P == 1

    def test_sum_mod(self):
        """The segment fold sums residues mod p without overflow."""
        vals = vec(P - 1, 1, 5, P - 1, P - 1)
        out = _fold_segments_mod(vals, np.array([0, 3]))
        assert out.tolist() == [5, (2 * (P - 1)) % P]


class TestVectorOps:
    def test_add_vec_mod_wraps(self):
        a = np.array([pf.MERSENNE_61 - 1, 3], dtype=np.int64)
        b = np.array([2, 4], dtype=np.int64)
        out = pf.add_vec_mod(a, b)
        assert out.tolist() == [1, 7]

    def test_scale_small_scalar(self):
        a = vec(5, P - 1)
        out = pf.mul_vec_mod(a, vec(3))
        assert out.tolist() == [15, (3 * (P - 1)) % P]

    def test_scale_large_scalar_object_path(self):
        big = 10**17
        out = pf.mul_vec_mod(vec(123456789, 1), vec(big))
        assert out.tolist() == [(123456789 * big) % P, big % P]

    def test_scale_zero(self):
        assert pf.mul_vec_mod(vec(1, 2, 3), vec(0)).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("k", [29, 32])
    def test_rotl_vec_mod(self, k):
        """A rotation on canonical residues; congruent and near range on
        every other int64."""
        p = pf.MERSENNE_61
        canonical = np.array([0, 1, 2**32 - 1, 2**32, p - 1], dtype=np.int64)
        out = pf.rotl_vec_mod(canonical, k)
        assert out.tolist() == [(x << k) % p for x in canonical.tolist()]
        rng = np.random.default_rng(k)
        words = np.concatenate([
            rng.integers(-(2**63), 2**63 - 1, size=500, dtype=np.int64),
            np.array([-(2**63), 2**63 - 1, -1], dtype=np.int64),
        ])
        out = pf.rotl_vec_mod(words, k)
        for x, y in zip(words.tolist(), out.tolist()):
            assert y % p == (x << k) % p
            assert -(2 ** (k + 2)) <= y < 2**61 + 2 ** (k + 2)

    def test_vector_ops_preserve_shape(self):
        a = np.arange(6, dtype=np.int64).reshape(2, 3)
        assert pf.add_vec_mod(a, a).shape == (2, 3)
        assert pf.mul_vec_mod(a, np.full_like(a, 10**16)).shape == (2, 3)
