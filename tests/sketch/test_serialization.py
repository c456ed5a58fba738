"""Tests for sketch serialization."""

import numpy as np
import pytest

from repro.errors import IncompatibleSketchError
from repro.sketch import reference
from repro.sketch.bank import SamplerGrid
from repro.sketch.serialization import (
    dump_grid,
    dump_member_state,
    load_grid,
    load_member_state,
    message_bytes,
)


def grid(seed=1, **kw):
    return SamplerGrid(groups=4, members=3, domain=5000, seed=seed, **kw)


def same_state(a, b):
    return (
        np.array_equal(a._w, b._w)
        and np.array_equal(a._s, b._s)
        and np.array_equal(a._f, b._f)
    )


class TestGridRoundtrip:
    def test_roundtrip(self):
        a = grid()
        a.update(0, 17, 1)
        a.update(2, 99, -3)
        blob = dump_grid(a)
        b = load_grid(grid(), blob)
        assert same_state(a, b)
        assert reference.member_sketch(b, 0, 0).sample() == (17, 1)

    def test_empty_roundtrip(self):
        blob = dump_grid(grid())
        b = load_grid(grid(), blob)
        assert b.appears_zero()

    def test_accumulate_merges(self):
        a, b = grid(), grid()
        a.update(0, 10, 1)
        b.update(0, 20, 1)
        merged = load_grid(b, dump_grid(a), accumulate=True)
        assert reference.member_sketch(merged, 0, 0).recover_support() == {10: 1, 20: 1}

    def test_wrong_seed_rejected(self):
        blob = dump_grid(grid(seed=1))
        with pytest.raises(IncompatibleSketchError):
            load_grid(grid(seed=2), blob)

    def test_wrong_shape_rejected(self):
        blob = dump_grid(grid())
        target = SamplerGrid(groups=5, members=3, domain=5000, seed=1)
        with pytest.raises(IncompatibleSketchError):
            load_grid(target, blob)

    def test_garbage_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            load_grid(grid(), b"not a sketch")

    def test_truncated_rejected(self):
        blob = dump_grid(grid())
        with pytest.raises(Exception):
            load_grid(grid(), blob[:-10])

    def test_trailing_bytes_rejected(self):
        blob = dump_grid(grid())
        with pytest.raises(IncompatibleSketchError):
            load_grid(grid(), blob + b"x")


class TestMemberMessages:
    def test_player_message_roundtrip(self):
        player = grid()
        player.update(1, 42, 2)
        referee = grid()
        member = load_member_state(referee, dump_member_state(player, 1))
        assert member == 1
        assert reference.member_sketch(referee, 0, 1).sample() == (42, 2)

    def test_messages_accumulate(self):
        referee = grid()
        for member in range(3):
            player = grid()
            player.update(member, 100 + member, 1)
            load_member_state(referee, dump_member_state(player, member))
        summed = reference.summed(referee, 0, [0, 1, 2])
        assert summed.recover_support() == {100: 1, 101: 1, 102: 1}

    def test_grid_blob_is_not_a_message(self):
        with pytest.raises(IncompatibleSketchError):
            load_member_state(grid(), dump_grid(grid()))

    def test_message_bytes_fixed_size(self):
        a = grid()
        size_empty = message_bytes(a, 0)
        a.update(0, 1, 1)
        a.update(0, 2, 1)
        assert message_bytes(a, 0) == size_empty  # data-independent

    def test_wrong_seed_message_rejected(self):
        player = grid(seed=5)
        with pytest.raises(IncompatibleSketchError):
            load_member_state(grid(seed=6), dump_member_state(player, 0))
