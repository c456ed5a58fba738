"""Checkpoint round-trips, corruption rejection, and crash recovery.

The acceptance bar: a truncated or bit-flipped checkpoint must raise a
clear :class:`CheckpointError` — never deserialize silently — and a
worker killed mid-stream must be recoverable from the latest checkpoint
with *bit-identical* final answers.
"""

import os
from pathlib import Path

import pytest

from repro.engine.checkpoint import (
    Checkpoint,
    CheckpointManager,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.engine.shard import ShardedIngestEngine
from repro.errors import CheckpointError
from repro.sketch.serialization import dump_sketch, load_sketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import random_dynamic_stream


#: A checkpoint written by the version-1 sketch format (nested per-grid
#: blobs whose CRC covered only the payloads): offset 3, one shard of
#: ``SpanningForestSketch(4, seed=1, rounds=1, levels=2)`` after
#: inserting :data:`V1_EDGES`.
V1_FIXTURE = Path(__file__).parent / "data" / "ckpt-v1.rpck"
V1_EDGES = [(0, 1), (1, 2), (2, 3)]


def sample_checkpoint() -> Checkpoint:
    sk = SpanningForestSketch(8, seed=1)
    sk.insert((0, 1))
    return Checkpoint(
        offset=37,
        shard_blobs=[dump_sketch(sk), dump_sketch(zeroed(sk))],
        meta={"shards": 2, "partition_seed": 0, "sketch": "SpanningForestSketch"},
    )


def zeroed(sk):
    from repro.engine.shard import zero_clone

    return zero_clone(sk)


class TestEncodeDecode:
    def test_round_trip(self):
        ck = sample_checkpoint()
        back = decode_checkpoint(encode_checkpoint(ck))
        assert back.offset == ck.offset
        assert back.shard_blobs == ck.shard_blobs
        assert back.meta == ck.meta

    def test_bad_magic(self):
        data = bytearray(encode_checkpoint(sample_checkpoint()))
        data[:4] = b"NOPE"
        with pytest.raises(CheckpointError, match="magic"):
            decode_checkpoint(bytes(data))

    def test_truncation_rejected(self):
        data = encode_checkpoint(sample_checkpoint())
        for cut in (len(data) // 3, len(data) - 1, 10):
            with pytest.raises(CheckpointError):
                decode_checkpoint(data[:cut])

    def test_every_bit_flip_region_rejected(self):
        data = encode_checkpoint(sample_checkpoint())
        for pos in (6, len(data) // 2, len(data) - 6):
            flipped = bytearray(data)
            flipped[pos] ^= 0x40
            with pytest.raises(CheckpointError):
                decode_checkpoint(bytes(flipped))

    def test_empty_file_rejected(self):
        with pytest.raises(CheckpointError):
            decode_checkpoint(b"")


class TestVersion1Fixture:
    def test_v1_checkpoint_loads_as_fresh_v2_state(self):
        ck = CheckpointManager(str(V1_FIXTURE.parent)).load(str(V1_FIXTURE))
        assert (ck.offset, ck.shards) == (3, 1)
        assert ck.shard_blobs[0][16:20] == b"RPRS"  # the v1 nested layout

        def fresh():
            return SpanningForestSketch(4, seed=1, rounds=1, levels=2)

        restored = load_sketch(fresh(), ck.shard_blobs[0])
        expected = fresh()
        for edge in V1_EDGES:
            expected.insert(edge)
        assert dump_sketch(restored) == dump_sketch(expected)


class TestManager:
    def test_save_load_latest(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ck"), interval=10)
        ck = sample_checkpoint()
        path = mgr.save(ck)
        assert os.path.exists(path)
        assert path.endswith(".rpck")
        loaded = mgr.load_latest()
        assert loaded.offset == ck.offset
        assert loaded.shard_blobs == ck.shard_blobs

    def test_empty_directory_gives_none(self, tmp_path):
        assert CheckpointManager(str(tmp_path / "none")).load_latest() is None

    def test_prune_keeps_newest(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=10, keep=2)
        strays = ["ckpt-x.rpck", "ckpt-000000000040.rpck.tmp", "notes.txt"]
        for name in strays:
            (tmp_path / name).write_bytes(b"not a checkpoint")
        for offset in (10, 20, 30):
            ck = sample_checkpoint()
            ck.offset = offset
            mgr.save(ck)
        names = sorted(set(os.listdir(tmp_path)) - set(strays))
        assert len(names) == 2
        assert mgr.load_latest().offset == 30
        # Names that are not ckpt-<int>.rpck are neither listed nor pruned.
        assert [offset for offset, _ in mgr._existing()] == [20, 30]
        assert all((tmp_path / name).exists() for name in strays)

    def test_corrupted_latest_raises_not_falls_back(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=10)
        path = mgr.save(sample_checkpoint())
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(CheckpointError):
            mgr.load_latest()

    def test_truncated_file_on_disk_rejected(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=10)
        path = mgr.save(sample_checkpoint())
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            mgr.load_latest()

    def test_no_tmp_droppings(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=10)
        mgr.save(sample_checkpoint())
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_bad_interval(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(str(tmp_path), interval=0)

    def test_save_fsyncs_directory_after_rename(self, tmp_path, monkeypatch):
        """Rename durability: the directory entry must be fsynced.

        On ext4/xfs an ``os.replace`` only becomes crash-durable once
        the containing directory is fsynced; ``save`` must therefore
        fsync (1) the tmp file's data and (2) the directory fd, in that
        order, after the rename.
        """
        mgr = CheckpointManager(str(tmp_path / "ck"), interval=10)
        synced = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        path = mgr.save(sample_checkpoint())
        assert len(synced) == 2
        file_ino, dir_ino = synced
        assert file_ino == os.stat(path).st_ino
        assert dir_ino == os.stat(os.path.dirname(path)).st_ino


class TestGenerationFallback:
    """A damaged newest checkpoint falls back to the previous generation."""

    def _save_two(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=10, keep=2)
        older = sample_checkpoint()
        older.offset = 10
        mgr.save(older)
        newer = sample_checkpoint()
        newer.offset = 20
        newest_path = mgr.save(newer)
        return mgr, newest_path

    def test_bit_flip_in_newest_falls_back(self, tmp_path):
        mgr, newest = self._save_two(tmp_path)
        data = bytearray(open(newest, "rb").read())
        data[len(data) // 2] ^= 0x01
        with open(newest, "wb") as fh:
            fh.write(data)
        with pytest.warns(UserWarning, match="falling back"):
            loaded = mgr.load_latest()
        assert loaded.offset == 10
        assert len(mgr.last_fallback) == 1
        bad_path, message = mgr.last_fallback[0]
        assert bad_path == newest
        assert "checksum" in message

    def test_truncated_newest_falls_back(self, tmp_path):
        mgr, newest = self._save_two(tmp_path)
        data = open(newest, "rb").read()
        with open(newest, "wb") as fh:
            fh.write(data[: len(data) // 3])
        with pytest.warns(UserWarning):
            assert mgr.load_latest().offset == 10

    def test_strict_mode_raises_immediately(self, tmp_path):
        mgr, newest = self._save_two(tmp_path)
        with open(newest, "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(CheckpointError):
            mgr.load_latest(strict=True)

    def test_all_generations_damaged_raises_with_detail(self, tmp_path):
        mgr, newest = self._save_two(tmp_path)
        for name in os.listdir(tmp_path):
            with open(os.path.join(tmp_path, name), "wb") as fh:
                fh.write(b"not a checkpoint")
        with pytest.warns(UserWarning):
            with pytest.raises(CheckpointError, match="every retained"):
                mgr.load_latest()
        assert len(mgr.last_fallback) == 2

    def test_healthy_newest_means_no_fallback(self, tmp_path):
        mgr, _ = self._save_two(tmp_path)
        assert mgr.load_latest().offset == 20
        assert mgr.last_fallback == []

    def test_engine_resume_survives_corrupt_newest(self, tmp_path):
        """Acceptance: bit-flip the newest checkpoint, resume anyway."""
        stream, _ = random_dynamic_stream(14, 160, seed=11)
        proto = SpanningForestSketch(14, seed=11)
        want = None

        clean = ShardedIngestEngine(proto, shards=2, batch_size=16)
        want = dump_sketch(clean.ingest(stream).sketch)

        mgr = CheckpointManager(str(tmp_path / "ck"), interval=40, keep=2)
        engine = ShardedIngestEngine(proto, shards=2, batch_size=16,
                                     checkpoint=mgr)
        engine.ingest(stream)
        newest = mgr.latest_path()
        data = bytearray(open(newest, "rb").read())
        data[-6] ^= 0xFF
        with open(newest, "wb") as fh:
            fh.write(data)

        resumed = ShardedIngestEngine(proto, shards=2, batch_size=16,
                                      checkpoint=mgr)
        with pytest.warns(UserWarning, match="falling back"):
            result = resumed.ingest(stream, resume=True)
        assert result.resumed_from is not None
        assert result.resumed_from < len(stream)
        assert dump_sketch(result.sketch) == want


class TestCrashRecovery:
    """Kill the ingest mid-stream, restore, and demand identical answers."""

    def _reference(self, stream, seed):
        sk = SpanningForestSketch(20, seed=seed)
        for u in stream:
            sk.update(u.edge, u.sign)
        return dump_sketch(sk)

    def test_fault_injection_resume_bit_identical(self, tmp_path):
        seed = 13
        stream, _ = random_dynamic_stream(20, 300, seed=seed)
        expected = self._reference(stream, seed)
        mgr = CheckpointManager(str(tmp_path / "ck"), interval=60)

        calls = {"n": 0}

        def die_eventually(shard, batch_index):
            calls["n"] += 1
            if calls["n"] > 12:
                raise RuntimeError("simulated crash")

        crashing = ShardedIngestEngine(
            SpanningForestSketch(20, seed=seed),
            shards=3,
            batch_size=8,
            checkpoint=mgr,
            fault_hook=die_eventually,
        )
        with pytest.raises(RuntimeError):
            crashing.ingest(stream)
        assert mgr.latest_path() is not None  # something was saved pre-crash

        fresh = ShardedIngestEngine(
            SpanningForestSketch(20, seed=seed),
            shards=3,
            batch_size=8,
            checkpoint=mgr,
        )
        result = fresh.ingest(stream, resume=True)
        assert result.resumed_from is not None
        assert result.resumed_from > 0
        assert dump_sketch(result.sketch) == expected

    def test_resume_skips_consumed_prefix(self, tmp_path):
        seed = 4
        stream, _ = random_dynamic_stream(16, 200, seed=seed)
        mgr = CheckpointManager(str(tmp_path), interval=50)
        first = ShardedIngestEngine(
            SpanningForestSketch(16, seed=seed), shards=2, batch_size=8,
            checkpoint=mgr,
        )
        full = first.ingest(stream)
        assert full.metrics.checkpoint.saves > 0
        resumed = ShardedIngestEngine(
            SpanningForestSketch(16, seed=seed), shards=2, batch_size=8,
            checkpoint=mgr,
        ).ingest(stream, resume=True)
        assert resumed.resumed_from == mgr.load_latest().offset
        assert resumed.metrics.events == len(stream) - resumed.resumed_from
        assert dump_sketch(resumed.sketch) == dump_sketch(full.sketch)

    def test_incompatible_config_rejected(self, tmp_path):
        seed = 6
        stream, _ = random_dynamic_stream(12, 120, seed=seed)
        mgr = CheckpointManager(str(tmp_path), interval=40)
        ShardedIngestEngine(
            SpanningForestSketch(12, seed=seed), shards=2, checkpoint=mgr,
            batch_size=8,
        ).ingest(stream)
        wrong_shards = ShardedIngestEngine(
            SpanningForestSketch(12, seed=seed), shards=3, checkpoint=mgr,
            batch_size=8,
        )
        with pytest.raises(CheckpointError, match="incompatible"):
            wrong_shards.ingest(stream, resume=True)
        wrong_seed = ShardedIngestEngine(
            SpanningForestSketch(12, seed=seed), shards=2, checkpoint=mgr,
            batch_size=8, partition_seed=99,
        )
        with pytest.raises(CheckpointError, match="incompatible"):
            wrong_seed.ingest(stream, resume=True)

    def test_offset_beyond_stream_rejected(self, tmp_path):
        seed = 8
        stream, _ = random_dynamic_stream(12, 150, seed=seed)
        mgr = CheckpointManager(str(tmp_path), interval=50)
        ShardedIngestEngine(
            SpanningForestSketch(12, seed=seed), shards=2, checkpoint=mgr,
            batch_size=8,
        ).ingest(stream)
        short = stream[:10]
        with pytest.raises(CheckpointError, match="beyond"):
            ShardedIngestEngine(
                SpanningForestSketch(12, seed=seed), shards=2, checkpoint=mgr,
                batch_size=8,
            ).ingest(short, resume=True)
