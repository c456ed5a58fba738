"""Tests for the stream runner."""

import numpy as np
import pytest

from repro.graph.generators import cycle_graph
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import insert_only, random_dynamic_stream
from repro.stream.runner import StreamRunner
from repro.stream.updates import EdgeUpdate


class TestRunner:
    def test_feeds_sketch(self):
        g = cycle_graph(8)
        runner = StreamRunner(8)
        runner.register("forest", SpanningForestSketch(8, seed=1))
        report = runner.run(insert_only(g))
        assert report.events == 8
        assert report.inserts == 8
        assert report.deletes == 0
        assert runner["forest"].is_connected()

    def test_space_report(self):
        runner = StreamRunner(6)
        runner.register("forest", SpanningForestSketch(6, seed=1))
        report = runner.run(insert_only(cycle_graph(6)))
        assert report.space["forest"]["counters"] > 0
        assert report.space["forest"]["bytes"] > 0

    def test_validates_stream(self):
        from repro.errors import StreamError

        runner = StreamRunner(4)
        bad = [EdgeUpdate.insert((0, 1)), EdgeUpdate.insert((0, 1))]
        with pytest.raises(StreamError):
            runner.run(bad)

    def test_validation_off(self):
        runner = StreamRunner(4, validate=False)
        runner.run([EdgeUpdate.insert((0, 1)), EdgeUpdate.insert((0, 1))])
        assert runner.live_graph is None

    def test_duplicate_name_rejected(self):
        runner = StreamRunner(4)
        runner.register("a", SpanningForestSketch(4, seed=1))
        with pytest.raises(KeyError):
            runner.register("a", SpanningForestSketch(4, seed=2))

    def test_final_edges_and_deletes(self):
        runner = StreamRunner(4)
        stream = [
            EdgeUpdate.insert((0, 1)),
            EdgeUpdate.insert((1, 2)),
            EdgeUpdate.delete((0, 1)),
        ]
        report = runner.run(stream)
        assert report.deletes == 1
        assert report.final_edges == 1


class TestTimingReport:
    def test_wall_and_sketch_seconds_separate(self):
        runner = StreamRunner(8)
        runner.register("forest", SpanningForestSketch(8, seed=1))
        report = runner.run(insert_only(cycle_graph(8)))
        assert report.wall_seconds > 0
        assert "forest" in report.sketch_seconds
        assert 0 < report.sketch_seconds["forest"] <= report.wall_seconds

    def test_per_sketch_times_for_multiple_sketches(self):
        runner = StreamRunner(8)
        runner.register("a", SpanningForestSketch(8, seed=1))
        runner.register("b", SpanningForestSketch(8, seed=2))
        report = runner.run(insert_only(cycle_graph(8)))
        assert set(report.sketch_seconds) == {"a", "b"}
        assert all(t > 0 for t in report.sketch_seconds.values())


class TestEngineDispatch:
    def _states(self, runner, stream):
        runner.register("forest", SpanningForestSketch(10, seed=7))
        runner.run(stream)
        return runner["forest"].grid

    def test_batched_equals_scalar(self):
        stream, _ = random_dynamic_stream(10, 80, seed=3)
        scalar = self._states(StreamRunner(10), stream)
        batched = self._states(StreamRunner(10, batch_size=16), stream)
        assert np.array_equal(scalar._w, batched._w)
        assert np.array_equal(scalar._s, batched._s)
        assert np.array_equal(scalar._f, batched._f)

    def test_batched_falls_back_without_update_batch(self):
        class ScalarOnly:
            def __init__(self):
                self.count = 0

            def update(self, edge, sign):
                self.count += 1

        runner = StreamRunner(6, batch_size=4)
        sk = runner.register("plain", ScalarOnly())
        runner.run(insert_only(cycle_graph(6)))
        assert sk.count == 6
