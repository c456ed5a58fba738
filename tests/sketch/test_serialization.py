"""Tests for sketch serialization."""

import json
import struct

import numpy as np
import pytest

from repro.engine.checkpoint import CheckpointManager
from repro.errors import IncompatibleSketchError, PayloadCorruptionError
from repro.sketch import reference
from repro.sketch.bank import SamplerGrid
from repro.sketch.serialization import (
    dump_grid,
    dump_member_state,
    dump_sketch,
    load_grid,
    load_member_state,
    load_sketch,
    message_bytes,
    peek_member,
    read_member_state,
    replace_member_state,
    verify_sketch_blob,
)
from repro.sketch.spanning_forest import SpanningForestSketch

from ..engine.faults import rewrite_blob_member
from ..engine.test_checkpoint import V1_FIXTURE


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

    @pytest.mark.parametrize("member", [-1, 3, 1.0, True, "1", None])
    def test_out_of_range_member_rejected(self, member):
        """The header's member index is untrusted: every member-state
        parser range-checks it before touching a column."""
        player = grid()
        player.update(0, 42, 1)
        blob = rewrite_blob_member(dump_member_state(player, 0), member)
        referee = grid()
        before = dump_grid(referee)
        for parse in (
            lambda: peek_member(blob),
            lambda: load_member_state(referee, blob),
            lambda: replace_member_state(referee, blob),
        ):
            with pytest.raises(IncompatibleSketchError):
                parse()
        assert dump_grid(referee) == before


def edit_header(blob: bytes, edit) -> bytes:
    """Re-pack a frame's JSON header through ``edit`` without resealing
    the CRC (the header length is kept consistent)."""
    (head_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:4] + struct.pack("<I", len(head)) + head + blob[8 + head_len:]


def flip_last_payload_byte(blob: bytes, trailer: int) -> bytes:
    data = bytearray(blob)
    data[-1 - trailer] ^= 0x01
    return bytes(data)


def rename_crc(header):
    header["crx"] = header.pop("crc", "00000000")


class TestHeaderUnderCRC:
    """Regression: the header sat outside the CRC and a missing ``crc``
    key was accepted, so renaming the key and flipping a payload byte
    loaded a sketch whose dump differed from the source."""

    def forest(self):
        sk = SpanningForestSketch(6, seed=4)
        for edge in [(0, 1), (1, 2), (3, 4)]:
            sk.insert(edge)
        return sk

    def sketch_parsers(self, blob):
        yield lambda: verify_sketch_blob(blob)
        yield lambda: load_sketch(SpanningForestSketch(6, seed=4), blob)

    def mutants(self, blob):
        yield flip_last_payload_byte(edit_header(blob, rename_crc), trailer=4)

        def bump_seed(header):
            for geometry in header.get("grids", [header]):
                geometry["seed"] += 1

        yield edit_header(blob, bump_seed)

    def test_sketch_blob(self):
        for mutant in self.mutants(dump_sketch(self.forest())):
            for parse in self.sketch_parsers(mutant):
                with pytest.raises(PayloadCorruptionError):
                    parse()

    def test_member_blob(self):
        blob = dump_member_state(self.forest().grid, 1)
        mutants = list(self.mutants(blob))
        mutants.append(edit_header(blob, lambda h: h.update(member=2)))
        target = SpanningForestSketch(6, seed=4).grid
        for mutant in mutants:
            with pytest.raises(PayloadCorruptionError):
                read_member_state(target, mutant)

    def test_version1_blob_without_crc_key(self):
        """The read-only version-1 path treats a missing ``crc`` key as
        corruption."""
        ck = CheckpointManager(str(V1_FIXTURE.parent)).load(str(V1_FIXTURE))
        blob = ck.shard_blobs[0].replace(b'"crc"', b'"crx"', 1)
        mutant = flip_last_payload_byte(blob, trailer=0)
        target = SpanningForestSketch(4, seed=1, rounds=1, levels=2)
        for parse in (lambda: verify_sketch_blob(mutant),
                      lambda: load_sketch(target, mutant)):
            with pytest.raises(PayloadCorruptionError):
                parse()
