"""Unit tests for the decode/query engine (repro.engine.query)."""

import json

import pytest

from repro.engine.query import QueryMetrics, collect_query_metrics
from repro.sketch import reference
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
            sk.decode()
        assert qm.batch_queries > 0
        assert qm.cells_decoded > 0
        assert qm.kernel_seconds > 0
        # The reference oracle runs the same Borůvka loop without the
        # batch kernels: rounds are counted, kernel work is not.
        with collect_query_metrics() as qm2:
            with reference.oracle():
                sk.decode()
        assert qm2.decode_rounds == qm.decode_rounds > 0
        assert qm2.batch_queries == qm2.cells_decoded == 0
        assert qm2.kernel_seconds == 0

    def test_sink_removed_after_block(self):
        sk = _ingested()
        with collect_query_metrics() as qm:
            sk.decode()
        before = qm.batch_queries
        sk.decode()  # outside the block: not recorded
        assert qm.batch_queries == before

    def test_merge_and_serialization(self):
        a = QueryMetrics(batch_queries=2, cache_hits=3, cache_misses=1)
        b = QueryMetrics(batch_queries=1, cache_hits=1)
        a.merge(b)
        assert a.batch_queries == 3
        assert a.cache_hits == 4
        d = json.loads(a.to_json())
        assert d["batch_queries"] == 3
        assert "scalar_queries" not in d
        assert d["cache_hit_rate"] == pytest.approx(4 / 5)
        assert "decodes: 3 components" in a.summary()
        assert "scalar" not in a.summary()

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
        # A session without kernel samples (the reference oracle's) has
        # rounds but no sample taxonomy.
        scalar = QueryMetrics(decode_rounds=2).summary()
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
