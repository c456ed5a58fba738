"""Failure-injection tests: corrupted sketch state must fail loudly.

The reliability story of the whole library rests on verified decoding:
a cell only reports a coordinate after the fingerprint, index-range and
placement checks pass.  These tests corrupt counters directly and
assert the decoders degrade by *omission* (missing edges, decode
failures) — never by fabricating edges that were not in the stream.
"""

import numpy as np
import pytest

from repro.errors import NotOneSparseError, SamplerEmptyError
from repro.graph.generators import cycle_graph, random_connected_graph
from repro.sketch import reference
from repro.sketch.bank import SamplerGrid
from repro.sketch.spanning_forest import SpanningForestSketch


class TestCorruptedCells:
    def test_corrupt_weight_detected(self):
        g = SamplerGrid(groups=2, members=1, domain=1000, seed=1)
        g.update(0, 42, 1)
        g._w[g._w != 0] += 1  # tamper with every nonzero weight
        view = reference.member_sketch(g, 0, 0)
        with pytest.raises((NotOneSparseError, SamplerEmptyError)):
            # Either the cells fail verification (NotOneSparse swallowed
            # into SamplerEmpty by sample()) or nothing decodes.
            view.sample()

    def test_corrupt_fingerprint_detected(self):
        g = SamplerGrid(groups=2, members=1, domain=1000, seed=2)
        g.update(0, 42, 1)
        g._f[g._f != 0] = (g._f[g._f != 0] + 12345) % ((1 << 61) - 1)
        with pytest.raises(SamplerEmptyError):
            reference.member_sketch(g, 0, 0).sample()

    def test_corrupt_index_sum_detected(self):
        g = SamplerGrid(groups=2, members=1, domain=1000, seed=3)
        g.update(0, 42, 1)
        g._s[g._s != 0] = (g._s[g._s != 0] + 999) % ((1 << 61) - 1)
        with pytest.raises(SamplerEmptyError):
            reference.member_sketch(g, 0, 0).sample()

    def test_partial_corruption_still_never_wrong(self):
        """Corrupt one group; decodes from other groups stay genuine."""
        g = SamplerGrid(groups=4, members=1, domain=1000, seed=4)
        truth = {7: 1, 100: 2, 555: -1}
        for i, w in truth.items():
            g.update(0, i, w)
        g._f[0] = (g._f[0] + 1) % ((1 << 61) - 1)  # wreck group 0 only
        for group in range(1, 4):
            got = reference.member_sketch(g, group, 0).sample_or_none()
            if got is not None:
                idx, w = got
                assert truth.get(idx) == w


class TestCorruptedForestSketch:
    def test_decode_never_fabricates_edges(self):
        graph = random_connected_graph(12, 8, seed=5)
        sk = SpanningForestSketch(12, seed=6)
        for e in graph.edges():
            sk.insert(e)
        # Flip a swath of fingerprints: decoding must drop edges, not
        # invent them.
        rng = np.random.default_rng(7)
        mask = rng.random(sk.grid._f.shape) < 0.3
        sk.grid._f[mask] = (sk.grid._f[mask] + 31337) % ((1 << 61) - 1)
        forest = sk.decode()
        assert all(graph.has_edge(*e) for e in forest.edges())

    def test_zeroed_state_decodes_empty(self):
        g = cycle_graph(8)
        sk = SpanningForestSketch(8, seed=8)
        for e in g.edges():
            sk.insert(e)
        sk.grid._w[:] = 0
        sk.grid._s[:] = 0
        sk.grid._f[:] = 0
        assert sk.decode().num_edges == 0


class TestStreamMisuse:
    def test_phantom_deletion_is_detected_or_harmless(self):
        """Deleting a never-inserted edge corrupts the vector with a -1
        coordinate; decoders must report it only as itself (weight -1),
        which downstream Borůvka treats as a genuine crossing edge of
        the *signed* graph — the stream validator exists to reject such
        histories up front."""
        from repro.errors import StreamError
        from repro.stream.updates import EdgeUpdate, StreamValidator

        with pytest.raises(StreamError):
            StreamValidator(6).apply(EdgeUpdate.delete((0, 1)))
