"""Sharded ingestion: partition determinism and merge correctness.

The engine's core claim is that hash-partitioning a stream across k
zero-clone sketches and merging by ``+=`` is bit-identical to one
sketch eating the whole stream — linearity made operational.  These
tests check that claim for the engine proper (the hypothesis version
lives in ``tests/properties/test_prop_engine.py``).
"""

import numpy as np
import pytest

from repro.engine.shard import (
    IngestResult,
    ShardedIngestEngine,
    shard_of_edge,
    zero_clone,
)
from repro.errors import CheckpointError, DomainError, EngineError
from repro.sketch.serialization import dump_sketch
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import random_dynamic_stream


def reference_state(stream, make_sketch) -> bytes:
    sketch = make_sketch()
    for u in stream:
        sketch.update(u.edge, u.sign)
    return dump_sketch(sketch)


class TestPartition:
    def test_deterministic(self):
        for edge in [(0, 1), (3, 9), (2, 4, 7)]:
            assert shard_of_edge(edge, 42, 5) == shard_of_edge(edge, 42, 5)

    def test_in_range(self):
        for v in range(50):
            assert 0 <= shard_of_edge((v, v + 1), 0, 7) < 7

    def test_seed_changes_partition(self):
        edges = [(i, i + 1) for i in range(64)]
        a = [shard_of_edge(e, 0, 4) for e in edges]
        b = [shard_of_edge(e, 1, 4) for e in edges]
        assert a != b

    def test_roughly_balanced(self):
        counts = [0] * 4
        for i in range(400):
            counts[shard_of_edge((i, i + 400), 7, 4)] += 1
        assert min(counts) > 50  # no shard starves


class TestZeroClone:
    def test_clone_is_empty_and_compatible(self):
        sk = SpanningForestSketch(10, seed=3)
        sk.insert((0, 1))
        clone = zero_clone(sk)
        assert not clone.grid._w.any()
        assert clone.grid.update_count == 0
        assert sk.grid._w.any()  # original untouched
        clone += sk  # compatible seeds: merge works
        assert np.array_equal(clone.grid._w, sk.grid._w)

    def test_uncloneable_rejected(self):
        with pytest.raises(EngineError):
            zero_clone(object())


class TestEngineMerge:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_forest_bit_identical(self, shards, seed):
        stream, _ = random_dynamic_stream(20, 160, seed=seed)
        expected = reference_state(
            stream, lambda: SpanningForestSketch(20, seed=seed)
        )
        engine = ShardedIngestEngine(
            SpanningForestSketch(20, seed=seed), shards=shards, batch_size=16
        )
        result = engine.ingest(stream)
        assert isinstance(result, IngestResult)
        assert dump_sketch(result.sketch) == expected
        assert result.events == len(stream)

    def test_more_shards_than_events_leaves_empty_shards(self):
        stream, _ = random_dynamic_stream(8, 3, seed=2)
        expected = reference_state(stream, lambda: SpanningForestSketch(8, seed=2))
        engine = ShardedIngestEngine(
            SpanningForestSketch(8, seed=2), shards=16, batch_size=4
        )
        result = engine.ingest(stream)
        assert dump_sketch(result.sketch) == expected
        assert sum(1 for s in result.metrics.per_shard if s.events == 0) > 0

    def test_empty_stream(self):
        engine = ShardedIngestEngine(SpanningForestSketch(6, seed=1), shards=3)
        result = engine.ingest([])
        assert result.events == 0
        assert not result.sketch.grid._w.any()

    def test_skeleton_sketch(self):
        stream, _ = random_dynamic_stream(12, 80, seed=5)
        expected = reference_state(stream, lambda: SkeletonSketch(12, k=2, seed=5))
        engine = ShardedIngestEngine(
            SkeletonSketch(12, k=2, seed=5), shards=3, batch_size=8
        )
        assert dump_sketch(engine.ingest(stream).sketch) == expected

    def test_prototype_never_mutated(self):
        stream, _ = random_dynamic_stream(10, 50, seed=9)
        proto = SpanningForestSketch(10, seed=9)
        ShardedIngestEngine(proto, shards=2).ingest(stream)
        assert not proto.grid._w.any()

    def test_batch_size_one(self):
        stream, _ = random_dynamic_stream(10, 40, seed=4)
        expected = reference_state(stream, lambda: SpanningForestSketch(10, seed=4))
        engine = ShardedIngestEngine(
            SpanningForestSketch(10, seed=4), shards=2, batch_size=1
        )
        assert dump_sketch(engine.ingest(stream).sketch) == expected

    def test_metrics_totals(self):
        stream, _ = random_dynamic_stream(16, 100, seed=3)
        result = ShardedIngestEngine(
            SpanningForestSketch(16, seed=3), shards=4, batch_size=8
        ).ingest(stream)
        m = result.metrics
        assert m.events == len(stream)
        assert sum(s.events for s in m.per_shard) == len(stream)
        assert m.batches == sum(s.batches for s in m.per_shard)
        assert sum(m.batch_size_hist.values()) == m.batches
        assert m.wall_seconds > 0

    def test_config_validation(self):
        proto = SpanningForestSketch(6, seed=0)
        with pytest.raises(EngineError):
            ShardedIngestEngine(proto, shards=0)
        with pytest.raises(DomainError):
            ShardedIngestEngine(proto, batch_size=0)
        with pytest.raises(EngineError):
            ShardedIngestEngine(object())  # no update_batch
        for backend in ("bogus", "process"):
            with pytest.raises(EngineError, match="unknown ingest backend"):
                ShardedIngestEngine(proto, backend=backend)

    def test_resume_without_manager_rejected(self):
        engine = ShardedIngestEngine(SpanningForestSketch(6, seed=0))
        with pytest.raises(CheckpointError):
            engine.ingest([], resume=True)
