"""Property tests for :func:`~repro.engine.batch.fold_cells`, the one
counter write behind every batch kernel.

The fold adds each entry straight into its cell — no sort, no grouping
— so its result must equal applying the entries one at a time in
Python integers: the weight plane wrapping mod 2^64 like ``int64``
addition, the index-sum and fingerprint planes mod ``p = 2^61 - 1``.
The entries are built to break the naive versions: every cell takes at
least eight of them (a plain ``uint64`` sum of residues would
overflow), and ``|d|`` and the modular values range up to ``2^62`` and
the ``int64`` extremes, so the exact index-sum path and the two-limb
rotation both run.  Both layouts are covered: three separate planes,
and instance blocks packed in one arena addressed by ``plane_shift``.

Then the kernels built on it: the fused grid kernel on each placement-
table tier (full, depth-only, none) against the scalar update loop, and
a digest-attached grid whose incrementally maintained digest must equal
:meth:`GridDigest.compute` of the counters after the batch.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit.digest import GridDigest, attach_digest
from repro.engine.batch import fold_cells, index_sums
from repro.sketch.bank import (
    SamplerGrid,
    _depth_table_bytes,
    _hash_cache_bytes,
    clear_hash_cache_pool,
)
from repro.sketch.serialization import dump_grid

P = 2**61 - 1
I64_MIN, I64_MAX = -(2**63), 2**63 - 1
SEEDS = st.integers(min_value=0, max_value=2**32)


def wrap64(x: int) -> int:
    return (x + 2**63) % 2**64 - 2**63


def entrywise(planes, offsets, flat, d, cs, cf):
    """One entry at a time in Python integers: the reference fold.

    ``offsets[k][e]`` is entry ``e``'s distance from its weight cell to
    its cell in plane ``k``.
    """
    w, s, f = (list(map(int, plane)) for plane in planes)
    for e, c in enumerate(flat.tolist()):
        w[c] = wrap64(w[c] + int(d[e]))
        at = c + int(offsets[1][e])
        s[at] = (s[at] + int(cs[e])) % P
        at = c + int(offsets[2][e])
        f[at] = (f[at] + int(cf[e])) % P
    return w, s, f


def colliding_cells(rng, cells, extra):
    """Every one of ``cells`` cells hit at least eight times, shuffled."""
    flat = np.concatenate([
        np.repeat(np.arange(cells), 8), rng.integers(0, cells, size=extra)
    ])
    return rng.permutation(flat).astype(np.int64)


def values(rng, size, bits, extremes):
    """Signed int64 values of magnitude below ``2^bits``, optionally
    salted with the int64 extremes."""
    out = rng.integers(-(2**bits) + 1, 2**bits, size=size, dtype=np.int64)
    if extremes:
        out[rng.integers(0, size, size=2)] = [I64_MIN, I64_MAX]
    return out


class TestFoldPrimitive:
    """Fixed cases of the fold against the entry-at-a-time reference."""

    @staticmethod
    def fold_separate(ncells, flat, d, cs, cf):
        planes = tuple(np.zeros(ncells, dtype=np.int64) for _ in range(3))
        zero = np.zeros(flat.size, dtype=np.int64)
        want = entrywise(planes, (zero,) * 3, flat, d, cs, cf)
        fold_cells(planes, flat, d, cs, cf)
        return planes, want

    @pytest.mark.parametrize("seed", [0, 1, 2, 99])
    def test_matches_entrywise_reference(self, seed):
        rng = np.random.default_rng(seed)
        ncells, count = 200, 5000  # heavy collisions: ~25 entries per cell
        flat = rng.integers(0, ncells, size=count)
        d = rng.integers(-(1 << 45), 1 << 45, size=count)
        cs = rng.integers(0, P, size=count)
        cf = rng.integers(0, P, size=count)
        planes, want = self.fold_separate(ncells, flat, d, cs, cf)
        for got, exp in zip(planes, want):
            assert got.tolist() == exp

    def test_exact_cancellation(self):
        """A weight that sums to zero leaves the modular sums standing."""
        flat = np.array([7, 7], dtype=np.int64)
        d = np.array([1 << 40, -(1 << 40)], dtype=np.int64)
        cs = np.array([5, 11], dtype=np.int64)
        cf = np.array([3, 3], dtype=np.int64)
        planes, _ = self.fold_separate(16, flat, d, cs, cf)
        assert (planes[0][7], planes[1][7], planes[2][7]) == (0, 16, 6)

    def test_int64_wraparound(self):
        """Weight sums past 2^63 wrap mod 2^64 exactly like int64."""
        flat = np.zeros(4, dtype=np.int64)
        d = np.array([(1 << 62) - 3] * 3 + [17], dtype=np.int64)
        zeros = np.zeros(4, dtype=np.int64)
        planes, want = self.fold_separate(4, flat, d, zeros, zeros)
        assert planes[0][0] == want[0][0] == wrap64(3 * ((1 << 62) - 3) + 17)

    @pytest.mark.parametrize("magnitude, size", [
        ((1 << 60) - 1, 4),   # 4 · (2^60 - 1) < 2^62: added exactly
        (1 << 60, 4),         # exactly 2^62: the two-limb rotation
        (1 << 62, 1),
    ])
    def test_index_sum_bound_edges(self, magnitude, size):
        """Both sides of the exact-path bound, from a near-full cell."""
        flat = np.zeros(size, dtype=np.int64)
        for sign in (1, -1):
            cs = np.full(size, sign * magnitude, dtype=np.int64)
            s = np.full(1, P - 1, dtype=np.int64)
            fold_cells(
                (np.zeros(1, dtype=np.int64), s, np.zeros(1, dtype=np.int64)),
                flat, np.zeros(size, dtype=np.int64), cs,
                np.zeros(size, dtype=np.int64),
            )
            assert s[0] == (P - 1 + size * sign * magnitude) % P

    def test_int64_min_is_not_small(self):
        """``np.abs(INT64_MIN)`` is negative; the bound must not be
        fooled into adding it exactly."""
        flat = np.zeros(3, dtype=np.int64)
        cs = np.array([I64_MIN, I64_MIN, 5], dtype=np.int64)
        s = np.array([P - 2], dtype=np.int64)
        zeros = np.zeros(3, dtype=np.int64)
        fold_cells((np.zeros(1, dtype=np.int64), s, s.copy()), flat,
                   zeros, cs, zeros)
        assert s[0] == (P - 2 + 2 * I64_MIN + 5) % P


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    cells=st.integers(min_value=1, max_value=12),
    extra=st.integers(min_value=0, max_value=60),
    d_bits=st.integers(min_value=1, max_value=62),
    s_bits=st.integers(min_value=1, max_value=62),
    extremes=st.booleans(),
)
def test_fold_separate_planes_matches_entrywise(
    seed, cells, extra, d_bits, s_bits, extremes
):
    rng = np.random.default_rng(seed)
    flat = colliding_cells(rng, cells, extra)
    n = flat.size
    d = values(rng, n, d_bits, extremes)
    cs = values(rng, n, s_bits, extremes)
    cf = rng.integers(0, P, size=n, dtype=np.int64)
    planes = (
        rng.integers(I64_MIN, I64_MAX, size=cells, dtype=np.int64),
        rng.integers(0, P, size=cells, dtype=np.int64),
        rng.integers(0, P, size=cells, dtype=np.int64),
    )
    zero = np.zeros(n, dtype=np.int64)
    want = entrywise(planes, (zero,) * 3, flat, d, cs, cf)
    fold_cells(planes, flat, d, cs, cf)
    for got, exp in zip(planes, want):
        assert got.tolist() == exp


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                   max_size=4),
    extra=st.integers(min_value=0, max_value=60),
    d_bits=st.integers(min_value=1, max_value=62),
    domain=st.integers(min_value=2, max_value=2**40),
)
def test_fold_packed_arena_matches_entrywise(seed, sizes, extra, d_bits,
                                             domain):
    """Blocks of different plane sizes packed back to back in one
    arena (the union's layout), index sums from :func:`index_sums`."""
    rng = np.random.default_rng(seed)
    plane = np.array(sizes, dtype=np.int64)
    base = 3 * (np.cumsum(plane) - plane)
    arena = np.zeros(3 * int(plane.sum()), dtype=np.int64)
    for b, size in zip(base.tolist(), sizes):
        arena[b:b + size] = rng.integers(I64_MIN, I64_MAX, size=size)
        arena[b + size:b + 3 * size] = rng.integers(0, P, size=2 * size)
    slots = colliding_cells(rng, int(plane.sum()), extra)
    block = np.searchsorted(np.cumsum(plane), slots, side="right")
    flat = base[block] + slots - (np.cumsum(plane) - plane)[block]
    shift = plane[block]
    n = flat.size
    d = values(rng, n, d_bits, extremes=False)
    cs = index_sums(d, rng.integers(0, domain, size=n), domain)
    cf = rng.integers(0, P, size=n, dtype=np.int64)
    want = entrywise([arena] * 3, (0 * shift, shift, 2 * shift),
                     flat, d, cs, cf)
    # The reference wrote three copies of one arena: merge them by plane.
    merged = list(want[0])
    for b, size in zip(base.tolist(), sizes):
        merged[b + size:b + 2 * size] = want[1][b + size:b + 2 * size]
        merged[b + 2 * size:b + 3 * size] = want[2][b + 2 * size:b + 3 * size]
    fold_cells((arena,) * 3, flat, d, cs, cf, plane_shift=shift)
    assert arena.tolist() == merged


# -- the kernels on top of the fold ---------------------------------------

GROUPS, MEMBERS, DOMAIN = 3, 4, 40

updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MEMBERS - 1),
        st.integers(min_value=0, max_value=DOMAIN - 1),
        st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-(2**62), max_value=2**62),
        ).filter(lambda d: d != 0),
    ),
    min_size=1,
    max_size=80,
)


def make_grid(seed: int) -> SamplerGrid:
    return SamplerGrid(GROUPS, MEMBERS, DOMAIN, seed=seed, rows=2, buckets=4)


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
    return grid


def test_tier_footprints_are_predicted():
    """Tier selection budgets with the same byte counts the tables
    take: one byte of depth per (group, coordinate)."""
    grid = on_tier(make_grid(1), "full")
    assert grid._hash_cache.depth.dtype == np.uint8
    assert grid._hash_cache.nbytes == _hash_cache_bytes(grid)
    grid = on_tier(make_grid(1), "depth")
    assert grid._hash_cache.nbytes == _depth_table_bytes(grid)
    assert _depth_table_bytes(grid) == GROUPS * DOMAIN
    clear_hash_cache_pool()


def batch_of(stream):
    return tuple(np.array(col, dtype=np.int64) for col in zip(*stream))


@pytest.mark.parametrize("tier", ["full", "depth", "none"])
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, stream=updates)
@example(seed=0, stream=[(1, 0, 2**62), (1, 0, 2**62)])  # net overflows int64
def test_fused_kernel_matches_scalar_on_every_tier(tier, seed, stream):
    scalar = make_grid(seed)
    with np.errstate(over="ignore"):
        for m, i, d in stream:
            scalar.update(m, i, d)
    grid = on_tier(make_grid(seed), tier)
    grid.update_batch(*batch_of(stream))
    clear_hash_cache_pool()
    assert dump_grid(grid) == dump_grid(scalar)


@pytest.mark.parametrize("tier", ["full", "depth", "none"])
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, stream=updates)
def test_digest_after_batch_equals_recomputed(tier, seed, stream):
    """The digest observes the kernel's per-entry folds; by linearity
    it must still equal a from-scratch digest of the counters."""
    grid = on_tier(make_grid(seed), tier)
    attach_digest(grid)
    grid.update_batch(*batch_of(stream))
    clear_hash_cache_pool()
    fresh = GridDigest.compute(grid)
    assert np.array_equal(grid._digest.w, fresh.w)
    assert np.array_equal(grid._digest.sf, fresh.sf)
