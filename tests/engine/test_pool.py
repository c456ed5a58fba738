"""Worker-pool backends: serial vs shm parity and crash detection."""

import pytest

from repro.engine.pool import SerialPool, SharedMemoryPool, make_pool
from repro.engine.shard import ShardedIngestEngine, zero_clone
from repro.errors import EngineError, WorkerCrashError
from repro.sketch.serialization import dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import random_dynamic_stream
from repro.stream.updates import EdgeUpdate


def factory(seed=7, n=12):
    proto = SpanningForestSketch(n, seed=seed)
    return lambda: zero_clone(proto)


class TestMakePool:
    def test_dispatch(self):
        assert isinstance(make_pool("serial", factory(), 2), SerialPool)
        pool = make_pool("shm", factory(), 1)
        assert isinstance(pool, SharedMemoryPool)
        pool.close(force=True)

    def test_unknown_backend(self):
        for backend in ("threads", "process"):
            with pytest.raises(EngineError):
                make_pool(backend, factory(), 2)


class TestSerialPool:
    def test_submit_and_finish(self):
        pool = SerialPool(factory(), 2)
        seconds = pool.submit(0, [EdgeUpdate.insert((0, 1))])
        assert seconds >= 0
        states = pool.finish()
        assert len(states) == 2
        sketch, _, events = states[0]
        assert events == 1
        assert sketch.grid._w.any()
        assert pool.queue_depth(0) == 0

    def test_dump_and_load_round_trip(self):
        pool = SerialPool(factory(), 1)
        pool.submit(0, [EdgeUpdate.insert((2, 5))])
        blob = pool.dump_all()[0]
        other = SerialPool(factory(), 1)
        other.load(0, blob)
        assert other.dump_all()[0] == blob

    def test_use_after_close_raises(self):
        pool = SerialPool(factory(), 1)
        pool.close()
        for op in (
            lambda: pool.submit(0, [EdgeUpdate.insert((0, 1))]),
            lambda: pool.load(0, b""),
            pool.dump_all,
            pool.finish,
        ):
            with pytest.raises(EngineError, match="use-after-close"):
                op()

    def test_use_after_finish_raises(self):
        pool = SerialPool(factory(), 1)
        pool.finish()
        with pytest.raises(EngineError, match="use-after-close"):
            pool.submit(0, [EdgeUpdate.insert((0, 1))])

class TestSharedMemoryPool:
    def test_bit_identical_to_serial(self):
        stream, _ = random_dynamic_stream(12, 100, seed=7)
        serial = ShardedIngestEngine(
            SpanningForestSketch(12, seed=7), shards=2, batch_size=16,
            backend="serial",
        ).ingest(stream)
        shm = ShardedIngestEngine(
            SpanningForestSketch(12, seed=7), shards=2, batch_size=16,
            backend="shm",
        ).ingest(stream)
        assert dump_sketch(shm.sketch) == dump_sketch(serial.sketch)

    def test_worker_reports_fold_time(self):
        stream, _ = random_dynamic_stream(12, 80, seed=3)
        result = ShardedIngestEngine(
            SpanningForestSketch(12, seed=3), shards=2, batch_size=8,
            backend="shm",
        ).ingest(stream)
        busy = [s for s in result.metrics.per_shard if s.events > 0]
        assert busy and all(s.seconds > 0 for s in busy)

    def test_crashed_worker_detected(self):
        pool = SharedMemoryPool(factory(), 2)
        try:
            pool.inject_crash(0)
            with pytest.raises(WorkerCrashError) as info:
                pool.dump_all()
            assert info.value.shard == 0
        finally:
            pool.close(force=True)

    def test_close_idempotent(self):
        pool = SharedMemoryPool(factory(), 1)
        pool.close()
        pool.close(force=True)

    def test_use_after_close_raises(self):
        pool = SharedMemoryPool(factory(), 1)
        pool.close()
        with pytest.raises(EngineError, match="use-after-close"):
            pool.submit(0, [EdgeUpdate.insert((0, 1))])
        with pytest.raises(EngineError, match="use-after-close"):
            pool.dump_all()

    @pytest.mark.faults
    def test_hung_worker_detected_with_timeout(self):
        pool = SharedMemoryPool(factory(), 1, sync_timeout=0.3)
        try:
            pool.inject_hang(0, 30.0)
            with pytest.raises(WorkerCrashError, match="did not respond") as info:
                pool.dump_all()
            assert info.value.shard == 0
        finally:
            pool.close(force=True)
