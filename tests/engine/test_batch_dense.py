"""Bit-identity of the batch kernel with and without placement tables.

There is one batch kernel, and whether it gathers placements from
tables or hashes every placement per batch is only a memory/speed
trade.  Each test here runs the same batches both ways and checks
them against each other or the scalar update loop: a big batch into a
small grid (dozens of contributions on every cell), a tiny batch into
a large grid (about one), large and negative deltas, heavy duplicate
cancellation.  Every grid must also pass the audit's row check.  The
fold primitive itself is checked entry by entry in
``tests/properties/test_prop_fold.py``.
"""

import numpy as np
import pytest

from repro.audit.integrity import audit_sketch
from repro.sketch.bank import (
    SamplerGrid,
    clear_hash_cache_pool,
    hash_cache_pool_bytes,
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
    """``full``: tables attached; ``none``: the fresh grid as built."""
    if tier == "full":
        assert grid.attach_hash_cache() > 0
        clear_hash_cache_pool()
    assert (grid.table_bytes > 0) == (tier == "full")
    return grid


def tiered(make):
    """``make()`` with tables and without (the hashing kernel, last)."""
    return [on_tier(make(), tier) for tier in ("full", "none")]


def assert_all_match(reference: SamplerGrid, grids) -> None:
    for grid in grids:
        assert grids_equal(reference, grid)
        assert audit_sketch(grid).ok


class TestDensePathEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_dense_fold_matches_hashing_kernel(self, seed):
        """A big batch into a small grid (~30 contributions per cell)
        leaves the table path equal to the hashing kernel."""
        rng = np.random.default_rng(seed)
        grids = tiered(lambda: SamplerGrid(2, 4, 64, seed=seed))
        m, i, d = random_updates(rng, 3000, 4, 64, 1 << 40)
        for grid in grids:
            grid.update_batch(m, i, d)
        assert_all_match(grids[-1], grids)

    def test_dense_fold_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        scalar = SamplerGrid(groups=2, members=3, domain=48, seed=11)
        grids = tiered(lambda: SamplerGrid(2, 3, 48, seed=11))
        m, i, d = random_updates(rng, 2000, 3, 48, 1 << 40)
        for mm, ii, dd in zip(m, i, d):
            if dd != 0:
                scalar.update(int(mm), int(ii), int(dd))
        for grid in grids:
            grid.update_batch(m, i, d)
        assert_all_match(scalar, grids)

    def test_odd_bucket_count_matches_scalar_loop(self):
        """A bucket count that is not a power of two takes the
        hashing kernel's division, not its mask."""
        rng = np.random.default_rng(13)
        scalar = SamplerGrid(groups=2, members=3, domain=48, seed=13,
                             buckets=5)
        grids = tiered(lambda: SamplerGrid(2, 3, 48, seed=13, buckets=5))
        m, i, d = random_updates(rng, 600, 3, 48, 1 << 40)
        for mm, ii, dd in zip(m, i, d):
            if dd != 0:
                scalar.update(int(mm), int(ii), int(dd))
        for grid in grids:
            grid.update_batch(m, i, d)
        assert_all_match(scalar, grids)

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
        one_shot = SamplerGrid(2, 4, 64, seed=42)
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

    def test_forest_stream_through_cached_sketch(self):
        """End-to-end: a spanning-forest sketch fed a dynamic
        edge stream with and without tables equals the plain sketch and
        decodes the same."""
        stream, _ = random_dynamic_stream(24, 400, seed=9)
        plain = SpanningForestSketch(24, seed=9)
        plain.update_batch(stream)
        sketches = []
        for tier in ("full", "none"):
            sketch = SpanningForestSketch(24, seed=9)
            on_tier(sketch.grid, tier)
            sketch.update_batch(stream)
            sketches.append(sketch)
        assert_all_match(plain.grid, [s.grid for s in sketches])
        for sketch in sketches:
            assert sorted(plain.decode().edges()) == sorted(
                sketch.decode().edges()
            )


class TestTableAttach:
    """Tables come only from ``attach_hash_cache()``, and whether a grid
    gets them is decided by its geometry alone."""

    @staticmethod
    def oversized():
        # A 2^30 domain: its tables would need ~266 GiB, its counters
        # take 50 KB.
        return SamplerGrid(2, 2, 1 << 30, seed=1)

    def test_fresh_grid_has_no_tables_after_update_batch(self):
        grid = SamplerGrid(2, 4, 64, seed=3)
        grid.update_batch([0, 1, 2], [5, 6, 7], [1, -1, 2])
        assert grid._hash_cache is None and grid.table_bytes == 0
        sketch = SpanningForestSketch(16, seed=3)
        sketch.update_batch([((0, 1), 1), ((1, 2), 1)])
        assert sketch.grid.table_bytes == 0

    def test_oversized_attach_returns_zero_without_raising(self):
        clear_hash_cache_pool()
        grid = self.oversized()
        assert grid.attach_hash_cache() == 0
        assert grid._hash_cache is None
        assert hash_cache_pool_bytes() == 0  # nothing was built

    def test_tier_does_not_depend_on_pool_or_attach_order(self):
        """Empty pool, a pool holding other tables, and a pool already
        holding this geometry's tables all give the same attach, in
        either order of small and oversized grids."""
        def small():
            return SamplerGrid(2, 4, 64, seed=9)

        outcomes = []
        for warm in (None, SamplerGrid(2, 4, 48, seed=1), small()):
            for order in ((small, self.oversized), (self.oversized, small)):
                clear_hash_cache_pool()
                if warm is not None:
                    warm.attach_hash_cache()
                outcomes.append(
                    [make().attach_hash_cache() for make in order]
                )
        clear_hash_cache_pool()
        fits = small().attach_hash_cache()
        clear_hash_cache_pool()
        assert fits > 0
        assert outcomes == [[fits, 0], [0, fits]] * 3
