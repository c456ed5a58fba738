"""Bit-identity of the batch kernel on every placement-table tier.

There is one batch kernel, and the placement-table tier it runs on
(full tables, depth-only tables, or none — every placement hashed per
batch) is only a memory/speed trade.  Each test here runs the same
batches on all three tiers, each grid with an audit digest attached,
and checks them against each other or the scalar update loop: a big
batch into a small grid (dozens of contributions on every cell), a
tiny batch into a large grid (about one), large and negative deltas,
heavy duplicate cancellation.  After every batch each maintained
digest must equal :meth:`GridDigest.compute` of the counters.  The
fold primitive itself is checked entry by entry in
``tests/properties/test_prop_fold.py``.
"""

import numpy as np
import pytest

from repro.audit.digest import GridDigest, attach_digest
from repro.sketch.bank import (
    SamplerGrid,
    _depth_table_bytes,
    clear_hash_cache_pool,
)
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


def on_tier(grid: SamplerGrid, tier: str) -> SamplerGrid:
    clear_hash_cache_pool()  # a pooled full table would upgrade "depth"
    if tier == "full":
        grid.attach_hash_cache()
        assert grid._hash_cache.off is not None
    elif tier == "depth":
        grid.attach_hash_cache(max_bytes=_depth_table_bytes(grid))
        assert grid._hash_cache.off is None
    else:
        grid.detach_hash_cache()
    clear_hash_cache_pool()
    return grid


def tiered(make, audit=True):
    """``make()`` on each tier — full, depth-only, detached (the hashing
    kernel, last) — with a digest attached unless ``audit`` is off."""
    grids = [on_tier(make(), tier) for tier in ("full", "depth", "detached")]
    if audit:
        for grid in grids:
            attach_digest(grid)
    return grids


def assert_all_match(reference: SamplerGrid, grids) -> None:
    for grid in grids:
        assert grids_equal(reference, grid)
        assert grid._digest == GridDigest.compute(grid)


class TestDensePathEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_dense_fold_matches_hashing_kernel(self, seed):
        """A big batch into a small grid (~30 contributions per cell)
        leaves the table tiers equal to the detached hashing kernel."""
        rng = np.random.default_rng(seed)
        grids = tiered(lambda: SamplerGrid(2, 4, 64, seed=seed))
        m, i, d = random_updates(rng, 3000, 4, 64, 1 << 40)
        for grid in grids:
            grid.update_batch(m, i, d)
        assert_all_match(grids[-1], grids)

    def test_dense_fold_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        scalar = SamplerGrid(groups=2, members=3, domain=48, seed=11)
        attach_digest(scalar)
        grids = tiered(lambda: SamplerGrid(2, 3, 48, seed=11))
        m, i, d = random_updates(rng, 2000, 3, 48, 1 << 40)
        for mm, ii, dd in zip(m, i, d):
            if dd != 0:
                scalar.update(int(mm), int(ii), int(dd))
        for grid in grids:
            grid.update_batch(m, i, d)
        assert_all_match(scalar, grids)
        assert scalar._digest == GridDigest.compute(scalar)

    def test_sparse_batch_matches(self):
        """A tiny batch into a large grid (one contribution per cell)
        matches too."""
        grids = tiered(lambda: SamplerGrid(2, 8, 5000, seed=3))
        m = np.array([0, 3, 7], dtype=np.int64)
        i = np.array([10, 4999, 10], dtype=np.int64)
        d = np.array([5, -2, 1 << 40], dtype=np.int64)
        for grid in grids:
            grid.update_batch(m, i, d)
        assert_all_match(grids[-1], grids)

    def test_mixed_gate_sides_equal_one_shot(self):
        """Dense batch + sparse trickle == one hashing-kernel shot."""
        rng = np.random.default_rng(42)
        one_shot = on_tier(SamplerGrid(2, 4, 64, seed=42), "detached")
        grids = tiered(lambda: SamplerGrid(2, 4, 64, seed=42))
        m, i, d = random_updates(rng, 1500, 4, 64, 1 << 30)
        one_shot.update_batch(m, i, d)
        for grid in grids:
            grid.update_batch(m[:1490], i[:1490], d[:1490])  # dense
            grid.update_batch(m[1490:], i[1490:], d[1490:])  # sparse
        assert_all_match(one_shot, grids)

    def test_cancellation_through_dense_fold(self):
        rng = np.random.default_rng(5)
        grids = tiered(lambda: SamplerGrid(2, 4, 64, seed=5))
        m, i, d = random_updates(rng, 2000, 4, 64, 1 << 40)
        for grid in grids:
            grid.update_batch(m, i, d)
            grid.update_batch(m, i, -d)
            assert not grid._block.any()
            assert grid._digest == GridDigest.compute(grid)
            assert not grid._digest.w.any() and not grid._digest.sf.any()

    def test_digest_maintained_identically(self):
        """A digest attached after a first batch (the state baselined
        from the counters) stays equal to a recomputed one, on every
        tier, through a second colliding batch."""
        rng = np.random.default_rng(17)
        grids = tiered(lambda: SamplerGrid(2, 4, 64, seed=17), audit=False)
        first = random_updates(rng, 2500, 4, 64, 1 << 40)
        second = random_updates(rng, 2500, 4, 64, 1 << 40)
        for grid in grids:
            grid.update_batch(*first)
            attach_digest(grid)
            grid.update_batch(*second)
        assert_all_match(grids[-1], grids)
        assert all(g._digest == grids[0]._digest for g in grids)

    def test_forest_stream_through_cached_sketch(self):
        """End-to-end: an audited spanning-forest sketch fed a dynamic
        edge stream on each tier equals the plain sketch and decodes
        the same."""
        stream, _ = random_dynamic_stream(24, 400, seed=9)
        plain = SpanningForestSketch(24, seed=9)
        plain.update_batch(stream)
        sketches = []
        for tier in ("full", "depth", "detached"):
            sketch = SpanningForestSketch(24, seed=9)
            on_tier(sketch.grid, tier)
            attach_digest(sketch.grid)
            sketch.update_batch(stream)
            sketches.append(sketch)
        assert_all_match(plain.grid, [s.grid for s in sketches])
        for sketch in sketches:
            assert sorted(plain.decode().edges()) == sorted(
                sketch.decode().edges()
            )
