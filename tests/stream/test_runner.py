"""Tests for the offline replay loop: a ``StreamValidator`` in front of
per-sketch updates, as ``examples/connectivity_dashboard.py`` runs it."""

import io

import pytest

from repro.errors import StreamError
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.file_io import read_stream
from repro.stream.updates import EdgeUpdate, StreamValidator


class TestRunner:
    def test_validates_stream(self):
        validator = StreamValidator(4)
        sketch = SpanningForestSketch(4, seed=1)
        bad = [EdgeUpdate.insert((0, 1)), EdgeUpdate.insert((0, 1))]
        applied = []
        with pytest.raises(StreamError, match="double insertion"):
            for event in bad:
                validator.apply(event)
                sketch.update(event.edge, event.sign)
                applied.append(event)
        # The sketch saw only the event before the violation.
        assert applied == bad[:1]
        # The reader refuses the same stream with the line number.
        with pytest.raises(StreamError, match="line 3: double insertion"):
            read_stream(io.StringIO("n 4\n+ 0 1\n+ 0 1\n"))
