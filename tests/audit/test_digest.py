"""The computed grid digest: linearity and detection power.

Verified merges and anti-entropy rest on one property: the digest is
linear in the counters, so ``D(a + b) = D(a) + D(b)`` whatever path
produced each operand (scalar updates, batched kernel folds, merges,
subtractions, resets).  These tests pin that property across those
paths, then the detection side: any single flipped bit anywhere in any
counter bank changes the digest of exactly its (group, row).
"""

import numpy as np
import pytest

from repro.audit.digest import GridDigest
from repro.sketch.bank import SamplerGrid
from repro.util.hashing import hash64


def make_grid(seed=7, **kw):
    params = dict(groups=2, members=5, domain=64, rows=2, buckets=4, levels=3)
    params.update(kw)
    return SamplerGrid(seed=seed, **params)


def random_updates(count, seed, members=5, domain=64):
    for i in range(count):
        m = hash64(seed, 2 * i) % members
        idx = hash64(seed, 2 * i + 1) % domain
        delta = (hash64(seed, 3 * i + 2) % 9) - 4
        yield int(m), int(idx), int(delta)


def batch(updates):
    return [np.array(x, dtype=np.int64) for x in zip(*updates)]


def zero_digest(grid):
    return GridDigest.compute(make_grid(seed=grid.seed))


class TestMaintenanceParity:
    """Digests of differently built grids combine by :meth:`absorb`."""

    def test_scalar_updates_match_recompute(self):
        """The digest of a scalar-fed grid is the sum of its updates'
        digests, one single-update grid each."""
        grid = make_grid()
        total = zero_digest(grid)
        for m, idx, d in random_updates(40, seed=3):
            if d:
                grid.update(m, idx, d)
                one = make_grid()
                one.update(m, idx, d)
                total.absorb(GridDigest.compute(one))
        assert total == GridDigest.compute(grid)

    def test_batched_updates_match_recompute(self):
        """Split a batch in two: the two halves' digests sum to the
        whole batch's."""
        ups = [u for u in random_updates(300, seed=5) if u[2]]
        whole, first, second = make_grid(), make_grid(), make_grid()
        whole.update_batch(*batch(ups))
        first.update_batch(*batch(ups[:100]))
        second.update_batch(*batch(ups[100:]))
        total = GridDigest.compute(first)
        total.absorb(GridDigest.compute(second))
        assert total == GridDigest.compute(whole)

    def test_scalar_and_batched_agree(self):
        a, b = make_grid(), make_grid()
        ups = [u for u in random_updates(150, seed=9) if u[2]]
        for m, idx, d in ups:
            a.update(m, idx, d)
        b.update_batch(*batch(ups))
        assert GridDigest.compute(a) == GridDigest.compute(b)

    def test_merge_absorbs_algebraically(self):
        a, b = make_grid(), make_grid()
        for m, idx, d in random_updates(100, seed=11):
            if d:
                a.update(m, idx, d)
        for m, idx, d in random_updates(100, seed=13):
            if d:
                b.update(m, idx, d)
        before, of_b = GridDigest.compute(a), GridDigest.compute(b)
        a += b
        before.absorb(of_b)
        assert before == GridDigest.compute(a)
        a -= b
        after = GridDigest.compute(a)
        after.absorb(of_b)
        assert after == before

    def test_reset_and_copy(self):
        grid = make_grid()
        for m, idx, d in random_updates(60, seed=19):
            if d:
                grid.update(m, idx, d)
        digest = GridDigest.compute(grid)
        clone = grid.copy()
        assert GridDigest.compute(clone) == digest
        # Independent counters: mutating the clone leaves the original.
        clone.update(0, 1, 3)
        assert GridDigest.compute(clone) != digest
        assert GridDigest.compute(grid) == digest
        grid.reset()
        assert GridDigest.compute(grid) == zero_digest(grid)
        assert not zero_digest(grid).w.any()
        assert not zero_digest(grid).sf.any()


class TestDetection:
    @pytest.mark.parametrize("array", ["_w", "_s", "_f"])
    @pytest.mark.parametrize("bit", [0, 17, 40, 60, 63])
    def test_single_bit_flip_detected_and_localized(self, array, bit):
        grid = make_grid()
        for m, idx, d in random_updates(120, seed=23):
            if d:
                grid.update(m, idx, d)
        clean = GridDigest.compute(grid)
        arr = getattr(grid, array)
        flat = arr.reshape(-1)
        pos = hash64(bit, 99) % flat.size
        flip = (1 << bit) if bit < 63 else -(1 << 63)
        flat[pos] ^= flip
        mism = clean.mismatches(GridDigest.compute(grid))
        assert len(mism) == 1
        g, row, kind = mism[0]
        cells_per_group = arr.size // grid.groups
        assert g == pos // cells_per_group
        assert row == ((pos % cells_per_group) // grid.buckets) % grid.rows
        assert kind == ("w" if array == "_w" else "s/f")

    def test_no_false_positives_across_seeds(self):
        """Equal counters always digest equally, however they were
        reached: a scalar-fed grid against its dump-and-load twin."""
        from repro.sketch.serialization import dump_grid, load_grid

        for seed in range(5):
            grid = make_grid(seed=100 + seed)
            for m, idx, d in random_updates(80, seed=seed):
                if d:
                    grid.update(m, idx, d)
            twin = load_grid(make_grid(seed=100 + seed), dump_grid(grid))
            digest = GridDigest.compute(grid)
            assert digest.mismatches(GridDigest.compute(twin)) == []

    def test_digest_survives_pickle(self):
        import pickle

        grid = make_grid()
        for m, idx, d in random_updates(50, seed=29):
            if d:
                grid.update(m, idx, d)
        digest = GridDigest.compute(grid)
        restored = pickle.loads(pickle.dumps(digest))
        assert restored == digest
        assert restored == GridDigest.compute(grid)
