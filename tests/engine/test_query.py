"""Unit tests for the decode/query engine (repro.engine.query)."""

import json

import pytest

from repro.audit.amplify import run_amplified
from repro.engine.query import (
    QueryExecutor,
    QueryMetrics,
    SummedCache,
    batch_decode,
    collect_query_metrics,
    make_executor,
    scalar_decode,
)
from repro.errors import EngineError
from repro.sketch.bank import batch_decode_default
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import insert_only
from repro.graph.generators import gnp_graph


def _ingested(n=24, p=0.2, seed=3):
    sk = SpanningForestSketch(n, seed=seed)
    sk.update_batch(insert_only(gnp_graph(n, p, seed=seed)))
    return sk


class TestQueryMetrics:
    def test_counters_by_path(self):
        sk = _ingested()
        with collect_query_metrics() as qm:
            with batch_decode():
                sk.decode()
        assert qm.batch_queries > 0
        assert qm.scalar_queries == 0
        assert qm.cells_decoded > 0
        assert qm.kernel_seconds > 0
        with collect_query_metrics() as qm2:
            with scalar_decode():
                sk.decode()
        assert qm2.batch_queries == 0
        assert qm2.scalar_queries > 0
        assert qm2.scalar_seconds > 0

    def test_sink_removed_after_block(self):
        sk = _ingested()
        with collect_query_metrics() as qm:
            sk.decode()
        before = qm.batch_queries + qm.scalar_queries
        sk.decode()  # outside the block: not recorded
        assert qm.batch_queries + qm.scalar_queries == before

    def test_merge_and_serialization(self):
        a = QueryMetrics(batch_queries=2, cache_hits=3, cache_misses=1)
        b = QueryMetrics(batch_queries=1, scalar_queries=4, cache_hits=1)
        a.merge(b)
        assert a.batch_queries == 3
        assert a.scalar_queries == 4
        assert a.cache_hits == 4
        d = json.loads(a.to_json())
        assert d["batch_queries"] == 3
        assert d["cache_hit_rate"] == pytest.approx(4 / 5)
        assert "decodes: 3 batch / 4 scalar" in a.summary()

    def test_decode_explanation_fields_merge_and_serialize(self):
        a = QueryMetrics(batch_queries=5, decode_rounds=2, sample_ok=3,
                         sample_zero=1, sample_failed=1, fallback_scans=2,
                         peel_sweeps=7)
        b = QueryMetrics(batch_queries=1, decode_rounds=1, sample_ok=1,
                         peel_sweeps=2)
        a.merge(b)
        d = json.loads(a.to_json())
        assert (d["decode_rounds"], d["sample_ok"], d["sample_zero"],
                d["sample_failed"], d["fallback_scans"], d["peel_sweeps"]) == (
            3, 4, 1, 1, 2, 9)
        text = a.summary()
        assert "rounds: 3 Bor" in text
        assert "samples: 4 ok / 1 zero / 1 failed (2 via fallback scan)" in text
        # A scalar-only session has rounds but no batch sample taxonomy.
        scalar = QueryMetrics(scalar_queries=4, decode_rounds=2).summary()
        assert "rounds: 2" in scalar and "samples:" not in scalar
        assert "union:" not in scalar

    def test_instances_decoded_merges_serializes_and_prints(self):
        a = QueryMetrics(instances_decoded=79, decode_rounds=8)
        a.merge(QueryMetrics(instances_decoded=3, decode_rounds=4))
        assert json.loads(a.to_json())["instances_decoded"] == 82
        assert "union: 82 sampled instances re-decoded" in a.summary()

    def test_union_decode_counts_kernel_passes_not_instances(self):
        """One loop for all dirty instances: ``decode_rounds`` is a
        handful of kernel passes where the per-instance loop counts
        every instance's rounds; the component counters agree."""
        from repro.core._sampled import SampledForestUnion

        union = SampledForestUnion(24, k=2, repetitions=40, seed=3)
        twin = SampledForestUnion(24, k=2, repetitions=40, seed=3)
        for target in (union, twin):
            target.update_batch([(e, 1) for e in gnp_graph(24, 0.3, seed=5).edges()])
        with collect_query_metrics() as stacked:
            union.decode_union()
        with collect_query_metrics() as looped:
            for sketch in twin.sketches.values():
                sketch.decode()
        assert stacked.instances_decoded == union.live_instances > 20
        assert looped.instances_decoded == 0
        assert stacked.decode_rounds < 10 < looped.decode_rounds
        assert stacked.peel_sweeps < looped.peel_sweeps
        assert stacked.batch_queries == looped.batch_queries
        assert stacked.cells_decoded == looped.cells_decoded
        assert stacked.sample_ok == looped.sample_ok

    def test_empty_hit_rate(self):
        assert QueryMetrics().cache_hit_rate == 0.0


class TestDecodePathSwitch:
    def test_context_managers_restore_default(self):
        default = batch_decode_default()
        with scalar_decode():
            assert not batch_decode_default()
            with batch_decode():
                assert batch_decode_default()
            assert not batch_decode_default()
        assert batch_decode_default() == default


class TestSummedCache:
    def test_capacity_validated(self):
        with pytest.raises(EngineError):
            SummedCache(capacity=0)

    def test_lru_eviction(self):
        cache = SummedCache(capacity=2)
        cache.put((0, b"a"), ("wa",))
        cache.put((0, b"b"), ("wb",))
        assert cache.get((0, b"a")) == ("wa",)  # freshen a
        cache.put((0, b"c"), ("wc",))  # evicts b (LRU)
        assert cache.get((0, b"b")) is None
        assert cache.get((0, b"a")) is not None
        assert cache.evictions == 1
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["capacity"] == 2

    def test_discard_and_clear(self):
        cache = SummedCache()
        cache.put((1, b"x"), ("v",))
        cache.discard((1, b"x"))
        cache.discard((1, b"missing"))  # no-op
        assert len(cache) == 0
        cache.put((1, b"y"), ("v",))
        cache.clear()
        assert len(cache) == 0

    def test_repeat_decode_hits_and_update_invalidates(self):
        sk = _ingested()
        cache = SummedCache(capacity=1024)
        sk.grid.attach_summed_cache(cache)
        try:
            first = sorted(sk.decode().edges())
            assert cache.misses > 0
            hits_before = cache.hits
            assert sorted(sk.decode().edges()) == first
            assert cache.hits > hits_before
            # An update touching members expires their sums: the next
            # decode recomputes (misses grow) yet answers identically.
            sk.update((0, 1), 1)
            sk.update((0, 1), -1)
            misses_before = cache.misses
            assert sorted(sk.decode().edges()) == first
            assert cache.misses > misses_before
        finally:
            sk.grid.detach_summed_cache()

    def test_cached_and_uncached_agree(self):
        plain = _ingested(seed=9)
        cached = _ingested(seed=9)
        cache = SummedCache()
        cached.grid.attach_summed_cache(cache)
        try:
            for _ in range(3):
                assert sorted(cached.decode().edges()) == sorted(
                    plain.decode().edges()
                )
        finally:
            cached.grid.detach_summed_cache()

    def test_copy_starts_uncached(self):
        sk = _ingested()
        cache = SummedCache()
        sk.grid.attach_summed_cache(cache)
        try:
            reference = sorted(sk.decode().edges())
            dup = sk.copy()
            assert dup.grid._summed_cache is None
            # The copy diverges; neither sketch's answer may bleed into
            # the other's through the original's cache.
            dup.update((2, 3), -1)
            dup.update((2, 3), 1)
            assert sorted(dup.decode().edges()) == reference
            assert sorted(sk.decode().edges()) == reference
        finally:
            sk.grid.detach_summed_cache()

    def test_merge_invalidates(self):
        a = _ingested(seed=11)
        b = _ingested(seed=11)
        cache = SummedCache()
        a.grid.attach_summed_cache(cache)
        try:
            a.decode()
            misses_before = cache.misses
            a += b  # doubles every counter: all sums stale
            a -= b  # and back; epochs bumped both times
            a.decode()
            assert cache.misses > misses_before
        finally:
            a.grid.detach_summed_cache()


class TestQueryExecutor:
    def test_serial_map_preserves_order(self):
        with make_executor("serial") as ex:
            assert ex.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_process_map_preserves_order(self):
        with make_executor("process", workers=2) as ex:
            assert ex.map(_square, list(range(8))) == [
                i * i for i in range(8)
            ]

    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError):
            QueryExecutor(backend="threads")

    def test_use_after_close_rejected(self):
        ex = make_executor("serial")
        ex.close()
        with pytest.raises(EngineError):
            ex.map(_square, [1])

    def test_errors_propagate(self):
        with make_executor("serial") as ex:
            with pytest.raises(ValueError):
                ex.map(_raise_on_two, [1, 2, 3])

    def test_executor_metrics_recorded(self):
        with collect_query_metrics() as qm:
            with make_executor("serial") as ex:
                ex.map(_square, [1, 2, 3])
        assert qm.executor_tasks == 3
        assert qm.executor_seconds >= 0

    def test_amplified_votes_identical_across_backends(self):
        stream = list(insert_only(gnp_graph(12, 0.3, seed=4)))
        plain = run_amplified(
            _make_forest, stream, _decode_edges, repetitions=3, base_seed=7
        )
        with make_executor("process", workers=2) as ex:
            fanned = run_amplified(
                _make_forest,
                stream,
                _decode_edges,
                repetitions=3,
                base_seed=7,
                executor=ex,
            )
        assert plain.votes == fanned.votes
        assert plain.value == fanned.value
        assert plain.failed == fanned.failed


# Module-level (picklable) helpers for the process backend.
def _square(x):
    return x * x


def _raise_on_two(x):
    if x == 2:
        raise ValueError("two")
    return x


def _make_forest(seed):
    return SpanningForestSketch(12, seed=seed)


def _decode_edges(sketch):
    return sorted(sketch.decode().edges())
