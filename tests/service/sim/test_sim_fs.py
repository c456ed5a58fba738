"""The simulated disk: durability tiers, torn tails, full and lost disks.

The three watermarks (written / flushed / synced) are what make the
WAL durability tests honest — a process crash must lose exactly the
un-flushed suffix, a power cut exactly the un-fsynced one, and a full
disk must tear the final record the way a real ``ENOSPC`` does.
"""

import random

import pytest

from repro.service.sim import SimFilesystem


@pytest.fixture
def fs():
    f = SimFilesystem()
    f.makedirs("/d", exist_ok=True)
    return f


class TestDurabilityTiers:
    def test_written_is_readable_live(self, fs):
        with fs.open("/d/f", "wb") as fh:
            fh.write(b"hello")
        with fs.open("/d/f", "rb") as fh:
            assert fh.read() == b"hello"
        assert fs.getsize("/d/f") == 5

    def test_process_crash_keeps_only_flushed_prefix(self, fs):
        fh = fs.open("/d/f", "wb")
        fh.write(b"durable")
        fh.flush()
        fh.write(b" gone")
        fs.process_crash(rng=None)  # no torn-tail dice: exact prefix
        with fs.open("/d/f", "rb") as fh2:
            assert fh2.read() == b"durable"

    def test_process_crash_may_tear_the_buffered_tail(self, fs):
        # With an rng, a crash can keep a *partial* unflushed suffix —
        # the torn-final-record case WAL recovery must truncate away.
        lengths = set()
        for seed in range(40):
            f = SimFilesystem()
            f.makedirs("/d", exist_ok=True)
            fh = f.open("/d/f", "wb")
            fh.write(b"AAAA")
            fh.flush()
            fh.write(b"BBBBBBBB")
            f.process_crash(random.Random(seed))
            lengths.add(f.getsize("/d/f"))
        assert min(lengths) == 4          # never below the flush line
        assert any(4 < n < 12 for n in lengths)  # sometimes torn

    def test_power_loss_keeps_only_synced_and_linked(self, fs):
        fh = fs.open("/d/keep", "wb")
        fh.write(b"synced")
        fs.fsync(fh)
        fh.write(b" cached")
        fh.flush()
        fs.fsync_dir("/d")
        with fs.open("/d/lost", "wb") as fh2:
            fh2.write(b"never fsynced, dir entry never synced")
        fs.power_loss()
        with fs.open("/d/keep", "rb") as fh3:
            assert fh3.read() == b"synced"
        assert not fs.exists("/d/lost")

    def test_rename_is_not_durable_until_dir_fsync(self, fs):
        with fs.open("/d/tmp", "wb") as fh:
            fh.write(b"ckpt")
            fs.fsync(fh)
        fs.replace("/d/tmp", "/d/final")
        fs.power_loss()  # no fsync_dir: the rename evaporates
        assert not fs.exists("/d/final")

    def test_dead_handles_cannot_touch_the_disk(self, fs):
        fh = fs.open("/d/f", "wb")
        fh.write(b"before")
        fh.flush()
        fs.process_crash(rng=None)
        # The dying process's finally blocks run close()/flush(): the
        # simulated disk must not hear them.
        fh.write(b"zombie")
        fh.flush()
        fh.close()
        with fs.open("/d/f", "rb") as fh2:
            assert fh2.read() == b"before"


class TestFullDisk:
    def test_enospc_is_a_partial_write_then_oserror(self, fs):
        with fs.open("/d/f", "wb") as fh:
            fh.write(b"X" * 10)
        fs.set_capacity(14)
        fh = fs.open("/d/f", "ab")
        with pytest.raises(OSError) as err:
            fh.write(b"YYYYYYYY")  # only 4 bytes fit
        import errno

        assert err.value.errno == errno.ENOSPC
        assert fs.getsize("/d/f") == 14  # torn: the prefix landed
        assert fs.enospc_errors == 1

    def test_truncate_frees_space_for_retry(self, fs):
        fs.set_capacity(8)
        fh = fs.open("/d/f", "ab")
        fh.write(b"AAAA")
        with pytest.raises(OSError):
            fh.write(b"BBBBBBBB")
        fh.truncate(4)  # the repair path: cut the torn tail
        assert fs.getsize("/d/f") == 4
        fs.set_capacity(None)
        fh.write(b"CCCC")
        assert fs.getsize("/d/f") == 8


class TestNamespace:
    def test_listdir_and_exists(self, fs):
        fs.makedirs("/d/sub", exist_ok=True)
        with fs.open("/d/a", "wb") as fh:
            fh.write(b"1")
        assert fs.listdir("/d") == ["a", "sub"]
        assert fs.isdir("/d/sub") and not fs.isdir("/d/a")
        fs.remove("/d/a")
        assert not fs.exists("/d/a")

    def test_open_missing_file_raises(self, fs):
        with pytest.raises(FileNotFoundError):
            fs.open("/d/none", "rb")
        with pytest.raises(FileNotFoundError):
            fs.open("/nodir/f", "wb")

    def test_wipe_loses_the_tree_and_nothing_beside_it(self, fs):
        fs.makedirs("/d/data/wal", exist_ok=True)
        fs.makedirs("/d/data2", exist_ok=True)
        for path in ("/d/data/ckpt", "/d/data/wal/seg", "/d/data2/f"):
            with fs.open(path, "wb") as fh:
                fh.write(b"x")
        fs.wipe("/d/data")
        assert not fs.exists("/d/data") and not fs.exists("/d/data/wal/seg")
        assert fs.listdir("/d") == ["data2"]
        assert fs.getsize("/d/data2/f") == 1
