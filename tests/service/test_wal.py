"""WAL property tests: framing, crash artifacts, rotation, dedup.

These exercise :mod:`repro.service.wal` directly (no server): record
round-trips, the torn-tail vs interior-corruption distinction that the
recovery path relies on, segment rotation with checkpoint-driven
truncation bounding disk, and the exactly-once dedup window's FIFO
eviction and checkpoint persistence.
"""

import os
import struct

import pytest

from repro.errors import WALCorruptionError, WALError
from repro.service.wal import (
    KIND_CREATE,
    KIND_PAIRS,
    KIND_UPDATES,
    DedupWindow,
    WriteAheadLog,
    encode_record,
    wipe_wal,
)


def open_wal(tmp_path, **kwargs):
    return WriteAheadLog(str(tmp_path / "wal"), **kwargs)


def fill(wal, count, start=1, payload=b"x" * 64):
    for seq in range(start, start + count):
        wal.append(seq, KIND_PAIRS, {"request": seq}, payload)


class TestFraming:
    def test_record_round_trip(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append(1, KIND_CREATE, {"n": 8, "seed": 3})
        wal.append(2, KIND_PAIRS, {"client": "c", "request": 1}, b"\x01\x02")
        wal.append(3, KIND_UPDATES, {"client": "c", "request": 2},
                   b'[[1, [0, 1]]]')
        records = list(wal.replay())
        assert [(r.seq, r.kind) for r in records] == [
            (1, KIND_CREATE), (2, KIND_PAIRS), (3, KIND_UPDATES)
        ]
        assert records[0].meta == {"n": 8, "seed": 3}
        assert records[1].payload == b"\x01\x02"
        assert records[2].payload == b'[[1, [0, 1]]]'
        # Replay resumes mid-stream by sequence number.
        assert [r.seq for r in wal.replay(after_seq=2)] == [3]

    def test_append_enforces_monotonic_seq(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append(1, KIND_CREATE, {})
        with pytest.raises(WALError, match="non-monotonic"):
            wal.append(3, KIND_PAIRS, {})
        with pytest.raises(WALError, match="non-monotonic"):
            wal.append(1, KIND_PAIRS, {})

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(WALError, match="fsync policy"):
            open_wal(tmp_path, fsync="sometimes")

    def test_reopen_continues_sequence(self, tmp_path):
        wal = open_wal(tmp_path)
        fill(wal, 3)
        wal.close()
        # Stray names beside the segments are not segments.
        for name in ("wal-x.rpwl", "wal-000000000009.rpwl.tmp"):
            with open(os.path.join(wal.directory, name), "wb") as fh:
                fh.write(b"junk")
        again = open_wal(tmp_path)
        assert len(again._segments()) == 1
        assert again.last_seq == 3
        again.append(4, KIND_PAIRS, {}, b"tail")
        assert [r.seq for r in again.replay()] == [1, 2, 3, 4]


class TestCrashArtifacts:
    def segment_paths(self, wal):
        return [p for _first, p in wal._segments()]

    def test_torn_final_record_truncated_on_recovery(self, tmp_path):
        """An interrupted append (half a record at the tail) is the
        crash artifact of an *unacknowledged* batch: recovery must
        drop it and keep serving the intact prefix."""
        wal = open_wal(tmp_path)
        fill(wal, 3)
        wal.close()
        (path,) = self.segment_paths(wal)
        intact = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(encode_record(4, KIND_PAIRS, {}, b"never-acked")[:-5])
        again = open_wal(tmp_path)
        assert again.last_seq == 3
        assert os.path.getsize(path) == intact  # physically truncated
        assert [r.seq for r in again.replay()] == [1, 2, 3]
        # The truncated log accepts the re-sent batch at the same seq.
        again.append(4, KIND_PAIRS, {}, b"retried")
        assert [r.payload for r in again.replay(after_seq=3)] == [b"retried"]

    def test_torn_prelude_truncated(self, tmp_path):
        wal = open_wal(tmp_path)
        fill(wal, 2)
        wal.close()
        (path,) = self.segment_paths(wal)
        with open(path, "ab") as fh:
            fh.write(b"\x03")  # 1 byte of a 8-byte record prelude
        assert open_wal(tmp_path).last_seq == 2

    def test_crc_bad_interior_record_raises(self, tmp_path):
        """Damage *under* acknowledged history is not recoverable by
        truncation — replay must refuse rather than silently skip."""
        wal = open_wal(tmp_path)
        fill(wal, 3)
        wal.close()
        (path,) = self.segment_paths(wal)
        data = bytearray(open(path, "rb").read())
        # Flip one payload byte of the *first* record: its CRC breaks
        # while later records stay intact.
        first_body = 5 + struct.calcsize("<II")
        data[first_body + struct.calcsize("<QBI") + 20] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(WALCorruptionError, match="CRC mismatch"):
            open_wal(tmp_path)

    def test_bad_magic_raises(self, tmp_path):
        wal = open_wal(tmp_path)
        fill(wal, 1)
        wal.close()
        (path,) = self.segment_paths(wal)
        with open(path, "r+b") as fh:
            fh.write(b"JUNK")
        with pytest.raises(WALCorruptionError, match="bad magic"):
            open_wal(tmp_path)

    def test_torn_interior_segment_raises(self, tmp_path):
        """A short *non-final* segment means acknowledged records exist
        after the damage — that is corruption, not a torn tail."""
        wal = open_wal(tmp_path, segment_bytes=1 << 12)
        fill(wal, 40, payload=b"y" * 256)
        wal.close()
        paths = self.segment_paths(wal)
        assert len(paths) >= 2
        with open(paths[0], "r+b") as fh:
            fh.truncate(os.path.getsize(paths[0]) - 3)
        with pytest.raises(WALCorruptionError, match="non-final"):
            open_wal(tmp_path)


class TestRotationAndTruncation:
    def test_rotation_splits_segments(self, tmp_path):
        wal = open_wal(tmp_path, segment_bytes=1 << 12)
        fill(wal, 60, payload=b"z" * 200)
        stats = wal.stats()
        assert stats["segments"] > 1
        assert stats["last_seq"] == 60
        # Rotation never loses a record.
        assert [r.seq for r in wal.replay()] == list(range(1, 61))

    def test_truncate_through_bounds_disk(self, tmp_path):
        """Checkpoint-driven truncation keeps disk use at the
        un-checkpointed tail plus one live segment."""
        wal = open_wal(tmp_path, segment_bytes=1 << 12)
        fill(wal, 60, payload=b"z" * 200)
        before = wal.stats()
        removed = wal.truncate_through(40)
        assert removed > 0
        after = wal.stats()
        assert after["segments"] < before["segments"]
        assert after["bytes"] < before["bytes"]
        # Everything after the covered seq survives.
        replayed = [r.seq for r in wal.replay(after_seq=40)]
        assert replayed == list(range(41, 61))
        # Covering nothing new removes nothing more.
        assert wal.truncate_through(40) == 0

    def test_truncate_never_removes_final_segment(self, tmp_path):
        wal = open_wal(tmp_path, segment_bytes=1 << 12)
        fill(wal, 60, payload=b"z" * 200)
        wal.truncate_through(60)
        assert wal.stats()["segments"] >= 1
        wal.append(61, KIND_PAIRS, {}, b"alive")
        assert [r.seq for r in wal.replay(after_seq=60)] == [61]

    def test_fsync_policies_all_replay_identically(self, tmp_path):
        replays = []
        for policy in ("always", "os", "none"):
            wal = WriteAheadLog(str(tmp_path / policy), fsync=policy)
            fill(wal, 10)
            wal.close()
            replays.append(
                [(r.seq, r.kind, r.payload) for r in wal.replay()]
            )
        assert replays[0] == replays[1] == replays[2]

    def test_wipe_wal_clears_stale_lineage(self, tmp_path):
        wal = open_wal(tmp_path)
        fill(wal, 5)
        wal.close()
        wipe_wal(wal.directory)
        assert WriteAheadLog(wal.directory).last_seq == 0


class TestDedupWindow:
    def test_hit_returns_original_ack(self):
        window = DedupWindow(capacity=8)
        assert window.check("c", 1) is None
        window.add("c", 1, count=40, events=40)
        assert window.check("c", 1) == {"count": 40, "events": 40}
        assert window.hits == 1
        # Unstamped requests never dedup.
        assert window.check(None, None) is None
        assert window.check("c", None) is None

    def test_fifo_eviction_bounds_memory(self):
        window = DedupWindow(capacity=4)
        for i in range(10):
            window.add("c", i, count=1, events=i + 1)
        assert len(window) == 4
        assert window.occupancy == 1.0
        assert window.check("c", 0) is None  # evicted
        assert window.check("c", 9) is not None

    def test_round_trips_through_checkpoint_meta(self):
        window = DedupWindow(capacity=8)
        window.add("a", 1, count=3, events=3)
        window.add("b", 7, count=2, events=5)
        restored = DedupWindow.from_list(window.to_list(), capacity=8)
        assert restored.check("a", 1) == {"count": 3, "events": 3}
        assert restored.check("b", 7) == {"count": 2, "events": 5}
        assert restored.to_list() == window.to_list()
