"""Property tests for field arithmetic, hashing and coordinate encoding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import hashing as H
from repro.util import prime_field as pf
from repro.util.binomial import EdgeSpace, colex_rank, colex_unrank

residues = st.integers(min_value=0, max_value=pf.MERSENNE_61 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)


def add(a: int, b: int) -> int:
    return int(pf.add_vec_mod(np.array([a]), np.array([b]))[0])


def mul(a: int, b: int) -> int:
    return int(pf.mul_vec_mod(np.array([a]), np.array([b]))[0])


class TestFieldProperties:
    """The vectorised field helpers against Python-int arithmetic."""

    @given(residues, residues)
    def test_add_commutes(self, a, b):
        assert add(a, b) == add(b, a) == (a + b) % pf.MERSENNE_61

    @given(residues, residues, residues)
    def test_add_associates(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(residues, residues)
    def test_sub_inverts_add(self, a, b):
        assert (add(a, b) - b) % pf.MERSENNE_61 == a

    @given(residues)
    def test_mul_inverse(self, a):
        if a != 0:
            assert mul(a, pow(a, -1, pf.MERSENNE_61)) == 1

    @given(residues, residues, residues)
    def test_distributivity(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, b) == (a * b) % pf.MERSENNE_61

    @given(residues, residues)
    def test_mod_p_range(self, a, b):
        assert 0 <= add(a, b) < pf.MERSENNE_61
        assert 0 <= mul(a, b) < pf.MERSENNE_61


class TestHashingProperties:
    @given(u64)
    def test_splitmix_in_range(self, x):
        assert 0 <= H.splitmix64(x) < 2**64

    @given(u64, u64)
    def test_hash_deterministic(self, seed, v):
        assert H.hash64(seed, v) == H.hash64(seed, v)

    @given(u64)
    def test_vector_scalar_agree(self, v):
        seeds = np.array([1, 99, 2**50], dtype=np.uint64)
        out = H.hash64_np(seeds, v)
        for s, o in zip(seeds.tolist(), out.tolist()):
            assert H.hash64(int(s), v) == int(o)

    @given(u64)
    def test_trailing_zeros_consistent(self, x):
        tz = H.trailing_zeros64(x)
        if x == 0:
            assert tz == 64
        else:
            assert (x >> tz) & 1 == 1
            assert x % (1 << tz) == 0


class TestColexProperties:
    @given(st.sets(st.integers(min_value=0, max_value=40), min_size=2, max_size=5))
    def test_rank_unrank_roundtrip(self, s):
        subset = tuple(sorted(s))
        assert colex_unrank(colex_rank(subset), len(subset)) == subset

    @given(
        st.integers(min_value=4, max_value=12),
        st.data(),
    )
    def test_edge_space_roundtrip(self, n, data):
        r = data.draw(st.integers(min_value=2, max_value=min(4, n)))
        space = EdgeSpace(n, r)
        size = data.draw(st.integers(min_value=2, max_value=r))
        edge = tuple(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n - 1),
                        min_size=size,
                        max_size=size,
                    )
                )
            )
        )
        idx = space.index_of(edge)
        assert 0 <= idx < space.dimension
        assert space.edge_of(idx) == edge
