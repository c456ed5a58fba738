"""The 1-sparse cell contract of the grid's counters.

A ``SamplerGrid`` with one group, one member, one level, one row and
one bucket is exactly one cell: three counters (weight, index sum mod
p, fingerprint mod p).  Every decode below runs through the production
batch decoder (``summed_many(...).sample_many()``) and is checked
against the scalar oracle (``reference.member_sketch(...)``).
"""

import pytest

from repro.errors import IncompatibleSketchError, NotOneSparseError
from repro.sketch import reference
from repro.sketch.bank import SamplerGrid, SummedBatch

OK, ZERO, FAILED = SummedBatch.OK, SummedBatch.ZERO, SummedBatch.FAILED


def cell(domain=1000, seed=1) -> SamplerGrid:
    return SamplerGrid(1, 1, domain, seed, rows=1, buckets=1, levels=1)


def decode(c: SamplerGrid):
    """``(status, (index, weight) or None)`` of the cell; the oracle
    must return the same pair, or None where the batch does."""
    status, got = c.summed_many(0, [[0]]).sample_many()[0]
    assert reference.member_sketch(c, 0, 0).sample_or_none() == got
    return status, got


class TestDecode:
    def test_zero_vector(self):
        c = cell()
        assert c.appears_zero()
        assert decode(c) == (ZERO, None)

    def test_single_insert(self):
        c = cell()
        c.update(0, 42, 1)
        assert decode(c) == (OK, (42, 1))

    def test_weighted_coordinate(self):
        c = cell()
        c.update(0, 7, 5)
        assert decode(c) == (OK, (7, 5))

    def test_negative_weight(self):
        c = cell()
        c.update(0, 7, -3)
        assert decode(c) == (OK, (7, -3))

    def test_insert_then_delete_cancels(self):
        c = cell()
        c.update(0, 10, 1)
        c.update(0, 10, -1)
        assert c.appears_zero()
        assert decode(c) == (ZERO, None)

    def test_two_coordinates_detected(self):
        c = cell()
        c.update(0, 1, 1)
        c.update(0, 2, 1)
        assert decode(c) == (FAILED, None)

    def test_zero_weight_nonzero_vector_detected(self):
        c = cell()
        c.update(0, 1, 1)
        c.update(0, 2, -1)
        assert decode(c) == (FAILED, None)

    def test_many_coordinates_detected(self):
        c = cell()
        for i in range(20):
            c.update(0, i, 1)
        assert decode(c) == (FAILED, None)

    def test_decode_or_none_swallows(self):
        c = cell()
        c.update(0, 1, 1)
        c.update(0, 2, 1)
        assert reference.member_sketch(c, 0, 0).sample_or_none() is None

    def test_reduction_to_one_sparse_recovers(self):
        c = cell()
        for i in range(5):
            c.update(0, i, 1)
        for i in range(4):
            c.update(0, i, -1)
        assert decode(c) == (OK, (4, 1))

    def test_domain_boundaries(self):
        c = cell(domain=10)
        c.update(0, 9, 1)
        assert decode(c) == (OK, (9, 1))
        with pytest.raises(NotOneSparseError):
            c.update(0, 10, 1)

    def test_large_coordinate_values(self):
        big = 10**17
        c = cell(domain=big + 1)
        c.update(0, big, 2)
        assert decode(c) == (OK, (big, 2))


class TestLinearity:
    def test_add(self):
        a, b = cell(seed=3), cell(seed=3)
        a.update(0, 5, 1)
        b.update(0, 5, 2)
        a += b
        assert decode(a) == (OK, (5, 3))

    def test_sub_recovers_difference(self):
        a, b = cell(seed=3), cell(seed=3)
        a.update(0, 5, 1)
        a.update(0, 6, 1)
        b.update(0, 5, 1)
        a -= b
        assert decode(a) == (OK, (6, 1))

    def test_incompatible_seed_rejected(self):
        a, b = cell(seed=1), cell(seed=2)
        with pytest.raises(IncompatibleSketchError):
            a += b

    def test_incompatible_domain_rejected(self):
        a, b = cell(domain=10), cell(domain=20)
        with pytest.raises(IncompatibleSketchError):
            a -= b

    def test_copy_is_independent(self):
        a = cell()
        a.update(0, 3, 1)
        b = a.copy()
        b.update(0, 4, 1)
        assert decode(a) == (OK, (3, 1))

    def test_space_counters(self):
        assert cell().space_counters() == 3
