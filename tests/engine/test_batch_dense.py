"""Bit-identity of the cached kernel on heavily colliding batches.

A big batch into a small grid lands dozens of contributions on every
counter cell; a tiny batch into a large grid lands about one.  On both
sides the placement-table path (the fused kernel, and
:func:`_grid_update_batch_cached` under a digest) must leave the grid — and any attached digest — bit-identical to the
plain hashing kernel and to the scalar update loop, including large
and negative deltas and heavy duplicate cancellation.  The fold
primitive itself is checked entry by entry in
``tests/properties/test_prop_fold.py``.
"""

import numpy as np
import pytest

from repro.audit.digest import attach_digest
from repro.sketch.bank import SamplerGrid
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import random_dynamic_stream


def grids_equal(a: SamplerGrid, b: SamplerGrid) -> bool:
    return (
        np.array_equal(a._w, b._w)
        and np.array_equal(a._s, b._s)
        and np.array_equal(a._f, b._f)
        and a.update_count == b.update_count
    )


def random_updates(rng, count, members, domain, magnitude):
    m = rng.integers(0, members, size=count)
    i = rng.integers(0, domain, size=count)
    d = rng.integers(-magnitude, magnitude + 1, size=count)
    return m, i, d


class TestDensePathEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_dense_fold_matches_hashing_kernel(self, seed):
        """A big batch into a small grid (~30 contributions per cell)
        must equal the uncached hashing kernel bit for bit."""
        rng = np.random.default_rng(seed)
        plain = SamplerGrid(groups=2, members=4, domain=64, seed=seed)
        cached = SamplerGrid(groups=2, members=4, domain=64, seed=seed)
        cached.attach_hash_cache()
        m, i, d = random_updates(rng, 3000, 4, 64, 1 << 40)
        plain.update_batch(m, i, d)
        cached.update_batch(m, i, d)
        assert grids_equal(plain, cached)

    def test_dense_fold_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        scalar = SamplerGrid(groups=2, members=3, domain=48, seed=11)
        cached = SamplerGrid(groups=2, members=3, domain=48, seed=11)
        cached.attach_hash_cache()
        m, i, d = random_updates(rng, 2000, 3, 48, 1 << 40)
        for mm, ii, dd in zip(m, i, d):
            if dd != 0:
                scalar.update(int(mm), int(ii), int(dd))
        cached.update_batch(m, i, d)
        assert grids_equal(scalar, cached)

    def test_sparse_batch_matches(self):
        """A tiny batch into a large grid (one contribution per cell)
        matches too."""
        plain = SamplerGrid(groups=2, members=8, domain=5000, seed=3)
        cached = SamplerGrid(groups=2, members=8, domain=5000, seed=3)
        cached.attach_hash_cache()
        m = np.array([0, 3, 7], dtype=np.int64)
        i = np.array([10, 4999, 10], dtype=np.int64)
        d = np.array([5, -2, 1 << 40], dtype=np.int64)
        plain.update_batch(m, i, d)
        cached.update_batch(m, i, d)
        assert grids_equal(plain, cached)

    def test_mixed_gate_sides_equal_one_shot(self):
        """Dense batch + sparse trickle == one uncached shot."""
        rng = np.random.default_rng(42)
        plain = SamplerGrid(groups=2, members=4, domain=64, seed=42)
        cached = SamplerGrid(groups=2, members=4, domain=64, seed=42)
        cached.attach_hash_cache()
        m, i, d = random_updates(rng, 1500, 4, 64, 1 << 30)
        plain.update_batch(m, i, d)
        cached.update_batch(m[:1490], i[:1490], d[:1490])  # dense
        cached.update_batch(m[1490:], i[1490:], d[1490:])  # sparse
        assert grids_equal(plain, cached)

    def test_cancellation_through_dense_fold(self):
        cached = SamplerGrid(groups=2, members=4, domain=64, seed=5)
        cached.attach_hash_cache()
        rng = np.random.default_rng(5)
        m, i, d = random_updates(rng, 2000, 4, 64, 1 << 40)
        cached.update_batch(m, i, d)
        cached.update_batch(m, i, -d)
        assert not cached._w.any()
        assert not cached._s.any()
        assert not cached._f.any()

    def test_digest_maintained_identically(self):
        """The cached kernel feeds the digest the same deltas as the
        hashing kernel — attached digests stay in lockstep."""
        rng = np.random.default_rng(17)
        plain = SamplerGrid(groups=2, members=4, domain=64, seed=17)
        cached = SamplerGrid(groups=2, members=4, domain=64, seed=17)
        cached.attach_hash_cache()
        attach_digest(plain)
        attach_digest(cached)
        m, i, d = random_updates(rng, 2500, 4, 64, 1 << 40)
        plain.update_batch(m, i, d)
        cached.update_batch(m, i, d)
        assert np.array_equal(plain._digest.w, cached._digest.w)
        assert np.array_equal(plain._digest.sf, cached._digest.sf)

    def test_forest_stream_through_cached_sketch(self):
        """End-to-end: a cached spanning-forest sketch fed a dynamic
        edge stream equals the plain sketch and decodes the same."""
        stream, _ = random_dynamic_stream(24, 400, seed=9)
        plain = SpanningForestSketch(24, seed=9)
        cached = SpanningForestSketch(24, seed=9)
        cached.attach_hash_cache()
        plain.update_batch(stream)
        cached.update_batch(stream)
        assert grids_equal(plain.grid, cached.grid)
        assert sorted(plain.decode().edges()) == sorted(cached.decode().edges())

