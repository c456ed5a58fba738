"""Degraded-mode decoding: weaker answers, honestly labelled."""

import pytest

from repro.core.degraded import (
    REASON_DECODE_FAILED,
    REASON_PARTIAL_CERTIFICATE,
    DegradedResult,
    decode_with_degradation,
)
from repro.core.connectivity_query import VertexConnectivityQuerySketch
from repro.core.edge_connectivity_sketch import EdgeConnectivitySketch
from repro.core.params import Params
from repro.engine.query import QueryMetrics
from repro.errors import SamplerFailedError, SketchDecodeError
from repro.graph.generators import cycle_graph, harary_graph


def feed(sketch, graph):
    for e in graph.edges():
        sketch.insert(e)


def break_instance(union, victim):
    """Make ``victim``'s strict decode fail for real: overwrite member
    0's group-0 sampler, in the arena, with residues no cell decodes
    (weight 1, index 5, a fingerprint that is not rho(5)), so round 0
    reports that component FAILED.  An arena write is invisible to the
    decode cache (that is the auditor's business), so an edge of the
    victim is flapped through its scalar ``update`` to make it dirty.
    """
    lo, plane = int(union._base[victim]), int(union._plane[victim])
    for k, residue in enumerate((1, 5, 12345)):
        at = lo + k * plane  # group 0, member 0 of plane k (w, s, f)
        union._arena[at:at + union._member_stride] = residue
    sketch = union.sketches[victim]
    edge = sketch.vertices[:2]
    sketch.update(edge, 1)
    sketch.update(edge, -1)


class TestHelper:
    def test_primary_success_is_full_strength(self):
        result = decode_with_degradation(lambda: 42)
        assert result.value == 42
        assert not result.degraded
        assert result.mode == "full"
        assert result.reason is None
        assert result.attempts == 1

    def test_fallback_used_and_labelled(self):
        metrics = QueryMetrics()

        def primary():
            raise SamplerFailedError("unlucky randomness")

        result = decode_with_degradation(
            primary, [("weaker", lambda: "weak-answer")], metrics=metrics
        )
        assert result.value == "weak-answer"
        assert result.degraded
        assert result.mode == "weaker"
        assert result.reason == REASON_DECODE_FAILED
        assert "unlucky randomness" in result.detail
        assert result.attempts == 2
        assert metrics.degraded_queries == 1

    def test_ladder_walks_until_success(self):
        def fail():
            raise SamplerFailedError("nope")

        result = decode_with_degradation(
            fail, [("first", fail), ("second", lambda: 7)]
        )
        assert result.value == 7
        assert result.mode == "second"
        assert result.attempts == 3

    def test_all_rungs_fail_reraises_primary(self):
        def fail_primary():
            raise SamplerFailedError("primary failure")

        def fail_fallback():
            raise SketchDecodeError("fallback failure")

        with pytest.raises(SamplerFailedError, match="primary failure"):
            decode_with_degradation(fail_primary, [("f", fail_fallback)])

    def test_no_silent_truthiness(self):
        result = decode_with_degradation(lambda: True)
        with pytest.raises(TypeError, match="no truth value"):
            bool(result)
        assert result.value is True


class TestEdgeConnectivityDegraded:
    def test_healthy_sketch_matches_plain_estimate(self):
        g = harary_graph(3, 10)
        sketch = EdgeConnectivitySketch(10, k_max=4, seed=5,
                                        params=Params.practical())
        feed(sketch, g)
        result = sketch.estimate_degraded()
        assert not result.degraded
        assert result.value == sketch.estimate() == 3

    def test_broken_layer_falls_back_to_connectivity_only(self):
        g = cycle_graph(9)
        sketch = EdgeConnectivitySketch(9, k_max=3, seed=2,
                                        params=Params.practical())
        feed(sketch, g)

        # Break a non-zero layer: the full strict peel now fails, the
        # layer-0 connectivity-only fallback still decodes.
        def broken(strict=False, minus=()):
            raise SamplerFailedError("injected layer failure")

        sketch._skeleton.layers[1].decode = broken
        metrics = QueryMetrics()
        result = sketch.estimate_degraded(metrics=metrics)
        assert result.degraded
        assert result.mode == "connectivity-only"
        assert result.reason == REASON_DECODE_FAILED
        assert result.value == 1  # connected, but cut sizes unknown
        assert metrics.degraded_queries == 1

    def test_everything_broken_raises(self):
        g = cycle_graph(8)
        sketch = EdgeConnectivitySketch(8, k_max=2, seed=3,
                                        params=Params.practical())
        feed(sketch, g)

        def broken(strict=False, minus=()):
            raise SamplerFailedError("hopeless")

        for layer in sketch._skeleton.layers:
            layer.decode = broken
        with pytest.raises(SamplerFailedError):
            sketch.estimate_degraded()


class TestQueryDegraded:
    def build(self, seed=9):
        g = harary_graph(3, 12)
        sketch = VertexConnectivityQuerySketch(12, k=2, seed=seed,
                                               params=Params.practical())
        feed(sketch, g)
        return g, sketch

    def test_healthy_full_strength_matches_plain_query(self):
        _, sketch = self.build()
        result = sketch.disconnects_degraded([0, 1])
        assert not result.degraded
        assert result.mode == "full"
        assert result.value == sketch.disconnects([0, 1])

    def test_failed_instances_reported_as_partial_certificate(self):
        _, sketch = self.build()

        # Break a few sampled instances' strict decodes.
        broken_ids = list(sketch._union.sketches)[:2]
        for i in broken_ids:
            break_instance(sketch._union, i)
        metrics = QueryMetrics()
        result = sketch.disconnects_degraded([0, 1], metrics=metrics)
        assert result.degraded
        assert result.mode == "partial-certificate"
        assert result.reason == REASON_PARTIAL_CERTIFICATE
        assert f"{len(broken_ids)} of {sketch.repetitions}" in result.detail
        assert isinstance(result.value, bool)
        assert metrics.degraded_queries == 1

    def test_query_validation_still_applies(self):
        from repro.errors import DomainError

        _, sketch = self.build()
        with pytest.raises(DomainError):
            sketch.disconnects_degraded([0, 1, 2, 3, 4])
        with pytest.raises(DomainError):
            sketch.disconnects_degraded([99])


class TestAccountedUnion:
    def test_accounted_union_flags_exactly_the_broken_instances(self):
        g = harary_graph(3, 12)
        sketch = VertexConnectivityQuerySketch(12, k=2, seed=4,
                                               params=Params.practical())
        feed(sketch, g)
        union, failed = sketch._union.decode_union_accounted()
        assert failed == []
        assert union.num_edges > 0

        victim = list(sketch._union.sketches)[0]
        break_instance(sketch._union, victim)
        partial, failed = sketch._union.decode_union_accounted()
        assert failed == [victim]
        with pytest.raises(SamplerFailedError):
            sketch._union.sketches[victim].decode(strict=True)
        # The plain certificate still takes the victim's lenient forest.
        assert partial.edge_set() <= sketch._union.decode_union().edge_set()
        # Excluded instances are reported and never read.
        _, failed = sketch._union.decode_union_accounted(exclude=[victim])
        assert failed == [victim]
