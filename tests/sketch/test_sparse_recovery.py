"""The sparse-recovery contract of one subsampling level of the grid.

A one-level ``SamplerGrid`` hashes every coordinate into one bucket
per row, each bucket a 1-sparse cell; peeling recovers the support
when it is sparse enough.  ``recover_support`` (the scalar oracle's
level-0 peel) must return the exact support or ``None``, never a wrong
one; the production batch decode (``summed_many(...).sample_many()``)
must return a genuine coordinate or FAILED.
"""

import pytest

from repro.errors import IncompatibleSketchError
from repro.sketch import reference
from repro.sketch.bank import SamplerGrid, SummedBatch


def srs(domain=10_000, seed=1, rows=2, buckets=8) -> SamplerGrid:
    return SamplerGrid(1, 1, domain, seed, rows=rows, buckets=buckets, levels=1)


def feed(g: SamplerGrid, vec) -> None:
    for i, w in vec.items():
        g.update(0, i, w)


def recover_all(g: SamplerGrid):
    return reference.member_sketch(g, 0, 0).recover_support()


def recover_any(g: SamplerGrid):
    """A verified ``(index, weight)`` from the batch decode, or None."""
    return g.summed_many(0, [[0]]).sample_many()[0][1]


class TestRecoverAll:
    def test_empty(self):
        s = srs()
        assert s.appears_zero()
        assert recover_all(s) == {}

    def test_single(self):
        s = srs()
        s.update(0, 77, 3)
        assert recover_all(s) == {77: 3}

    def test_sparse_support(self):
        s = srs()
        truth = {5: 1, 900: -2, 4321: 7}
        feed(s, truth)
        assert recover_all(s) == truth

    def test_dense_vector_returns_none_not_wrong(self):
        s = srs(buckets=4)
        feed(s, {i: 1 for i in range(200)})
        # Certified-complete recovery is impossible at this density.
        assert recover_all(s) is None
        status, got = s.summed_many(0, [[0]]).sample_many()[0]
        assert status == SummedBatch.FAILED or (got[0] < 200 and got[1] == 1)

    def test_cancellation(self):
        s = srs()
        for i in range(30):
            s.update(0, i, 1)
        for i in range(29):
            s.update(0, i, -1)
        assert recover_all(s) == {29: 1}

    def test_recovery_respects_weights(self):
        s = srs()
        s.update(0, 11, 4)
        s.update(0, 11, -1)
        assert recover_all(s) == {11: 3}

    @pytest.mark.parametrize("seed", range(6))
    def test_capacity_half_buckets(self, seed):
        """Supports of size ~buckets/2 recover exactly or report None;
        the success rate is the aggregate test below."""
        s = srs(seed=seed, rows=2, buckets=12)
        truth = {13 * i + seed: i + 1 for i in range(5)}
        feed(s, truth)
        out = recover_all(s)
        assert out is None or out == truth


def test_recovery_success_rate():
    successes = 0
    for seed in range(30):
        s = srs(seed=seed, rows=2, buckets=12)
        truth = {97 * i + seed: 1 for i in range(5)}
        feed(s, truth)
        if recover_all(s) == truth:
            successes += 1
    assert successes >= 25


class TestRecoverAny:
    def test_returns_genuine_coordinate(self):
        s = srs()
        truth = {3: 1, 999: 2}
        feed(s, truth)
        got = recover_any(s)
        assert got is not None
        idx, w = got
        assert truth.get(idx) == w

    def test_none_on_empty(self):
        assert recover_any(srs()) is None


class TestLinearity:
    def test_difference_decodes_residual(self):
        a, b = srs(seed=5), srs(seed=5)
        for i in range(4):
            a.update(0, i, 1)
        for i in range(3):
            b.update(0, i, 1)
        a -= b
        assert recover_all(a) == {3: 1}

    def test_add_merges_streams(self):
        a, b = srs(seed=6), srs(seed=6)
        a.update(0, 1, 1)
        b.update(0, 2, 1)
        a += b
        assert recover_all(a) == {1: 1, 2: 1}

    def test_incompatible_geometry(self):
        a = srs(buckets=8)
        b = srs(buckets=16)
        with pytest.raises(IncompatibleSketchError):
            a += b

    def test_copy_independent(self):
        a = srs()
        a.update(0, 1, 1)
        c = a.copy()
        c.update(0, 2, 1)
        assert recover_all(a) == {1: 1}

    def test_space_counters(self):
        assert srs(rows=3, buckets=4).space_counters() == 3 * 3 * 4
