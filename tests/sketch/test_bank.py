"""Tests for the vectorised SamplerGrid and the scalar reference decoder."""

import numpy as np
import pytest

from repro.errors import (
    IncompatibleSketchError,
    NotOneSparseError,
    SamplerEmptyError,
)
from repro.sketch import reference
from repro.sketch.bank import SamplerGrid


def grid(groups=6, members=5, domain=10_000, seed=1, **kw) -> SamplerGrid:
    return SamplerGrid(groups, members, domain, seed, **kw)


class TestUpdateValidation:
    def test_rejects_bad_member(self):
        with pytest.raises(IncompatibleSketchError):
            grid().update(9, 1, 1)

    def test_rejects_bad_index(self):
        with pytest.raises(NotOneSparseError):
            grid().update(0, 10_000, 1)

    def test_zero_delta_noop(self):
        g = grid()
        g.update(0, 5, 0)
        assert g.appears_zero()

    def test_rejects_bad_shape(self):
        with pytest.raises(IncompatibleSketchError):
            SamplerGrid(0, 1, 10, 1)


class TestSingleMemberDecoding:
    def test_sample_single_coordinate(self):
        g = grid()
        g.update(2, 777, 3)
        for group in range(g.groups):
            assert reference.member_sketch(g, group, 2).sample() == (777, 3)

    def test_other_members_empty(self):
        g = grid()
        g.update(2, 777, 3)
        assert reference.member_sketch(g, 0, 1).sample_or_none() is None

    def test_cancellation(self):
        g = grid()
        g.update(1, 10, 2)
        g.update(1, 10, -2)
        assert g.appears_zero()

    def test_sample_from_moderate_support(self):
        g = grid()
        for i in range(40):
            g.update(0, 11 * i, 1)
        got = reference.member_sketch(g, 0, 0).sample()
        assert got[1] == 1 and got[0] % 11 == 0


class TestSummedDecoding:
    def test_sum_cancels_shared_coordinates(self):
        """The linchpin: summing members cancels 'internal' coordinates."""
        g = grid()
        # Members 0 and 1 share coordinate 500 with opposite signs.
        g.update(0, 500, 1)
        g.update(1, 500, -1)
        g.update(0, 600, 1)
        summed = reference.summed(g, 0, [0, 1])
        assert summed.sample() == (600, 1)

    def test_summed_includes_both_members(self):
        g = grid()
        g.update(0, 100, 1)
        g.update(1, 200, 1)
        summed = reference.summed(g, 2, [0, 1])
        support = summed.recover_support()
        assert support == {100: 1, 200: 1}

    def test_summed_needs_members(self):
        with pytest.raises(IncompatibleSketchError):
            reference.summed(grid(), 0, [])

    def test_subtract_peels(self):
        g = grid()
        g.update(0, 100, 1)
        g.update(0, 200, 1)
        summed = reference.summed(g, 0, [0])
        summed.subtract(100, 1)
        assert summed.sample() == (200, 1)

    def test_subtract_to_zero(self):
        g = grid()
        g.update(0, 100, 5)
        summed = reference.summed(g, 0, [0])
        summed.subtract(100, 5)
        assert summed.appears_zero()

    def test_many_member_sum_no_overflow(self):
        g = grid(members=40)
        for m in range(40):
            g.update(m, 3 * m, 1)
        summed = reference.summed(g, 0, list(range(40)))
        idx, w = summed.sample()
        assert w == 1 and idx % 3 == 0


class TestLinearity:
    def test_iadd_isub_roundtrip(self):
        a, b = grid(seed=9), grid(seed=9)
        a.update(0, 5, 1)
        b.update(0, 6, 1)
        a += b
        assert reference.member_sketch(a, 0, 0).recover_support() == {5: 1, 6: 1}
        a -= b
        assert reference.member_sketch(a, 0, 0).recover_support() == {5: 1}

    def test_incompatible_seed(self):
        with pytest.raises(IncompatibleSketchError):
            grid(seed=1).__iadd__(grid(seed=2))

    def test_incompatible_shape(self):
        with pytest.raises(IncompatibleSketchError):
            grid(members=5).__iadd__(grid(members=6))

    def test_copy_independent(self):
        a = grid()
        a.update(0, 5, 1)
        c = a.copy()
        c.update(0, 5, -1)
        assert not a.appears_zero()
        assert c.appears_zero()


class TestMemberStatePlumbing:
    def test_extract_and_add_roundtrip(self):
        """The communication-model path: player columns merge correctly."""
        direct = grid(seed=11)
        direct.update(0, 10, 1)
        direct.update(3, 20, -2)

        player0 = grid(seed=11)
        player0.update(0, 10, 1)
        player3 = grid(seed=11)
        player3.update(3, 20, -2)

        referee = grid(seed=11)
        referee.add_member_state(0, player0.extract_member(0))
        referee.add_member_state(3, player3.extract_member(3))

        assert np.array_equal(referee._w, direct._w)
        assert np.array_equal(referee._s, direct._s)
        assert np.array_equal(referee._f, direct._f)

    def test_extract_member_is_copy(self):
        g = grid()
        state = g.extract_member(0)
        state["w"][:] = 99
        assert g.appears_zero()


class TestAccounting:
    def test_space_counters_formula(self):
        g = grid(groups=2, members=3, rows=2, buckets=4, levels=5)
        assert g.space_counters() == 3 * 2 * 3 * 5 * 2 * 4

    def test_space_bytes_positive(self):
        assert grid().space_bytes() > 0

    def test_update_count(self):
        g = grid()
        g.update(0, 1, 1)
        g.update(0, 2, 1)
        assert g.update_count == 2
