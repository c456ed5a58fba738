"""Tests for the simultaneous (referee) communication protocol."""

import numpy as np
import pytest

from repro.comm.simultaneous import SpanningForestProtocol
from repro.errors import CommError, IncompatibleSketchError, PayloadCorruptionError
from repro.graph.generators import (
    cycle_graph,
    random_connected_hypergraph,
    random_hypergraph,
)
from repro.graph.hypergraph import Hypergraph
from repro.graph.hypergraph_cuts import is_spanning_subgraph
from repro.sketch.serialization import dump_grid, load_member_state, peek_member

from ..engine.faults import flip_blob_byte, rewrite_blob_member


def messages(proto, h, skip=()):
    return [
        proto.player_message(v, sorted(h.incident_edges(v)))
        for v in range(h.n)
        if v not in skip
    ]


class TestProtocol:
    def test_connectivity_decided_from_messages(self):
        h = random_connected_hypergraph(12, 10, r=3, seed=1)
        result = SpanningForestProtocol(12, r=3, seed=2).run(h)
        assert result.is_connected is True

    def test_disconnected_detected(self):
        h = random_hypergraph(12, 4, r=3, seed=3)
        result = SpanningForestProtocol(12, r=3, seed=4).run(h)
        assert result.is_connected == h.is_connected()
        assert {tuple(c) for c in result.components} == {
            tuple(c) for c in h.components()
        }

    def test_spanning_graph_valid(self):
        h = Hypergraph.from_graph(cycle_graph(9))
        result = SpanningForestProtocol(9, seed=5).run(h)
        assert is_spanning_subgraph(h, result.spanning_graph)

    def test_protocol_matches_centralised_sketch(self):
        """Messages must combine to exactly the centralised sketch:
        the referee's answer is then identical by construction."""
        from repro.sketch.spanning_forest import SpanningForestSketch

        h = Hypergraph.from_graph(cycle_graph(7))
        proto = SpanningForestProtocol(7, seed=6)
        central = SpanningForestSketch(7, r=2, seed=proto.seed)
        for e in h.edges():
            central.insert(e)
        result = proto.run(h)
        assert dump_grid(result.sketch.grid) == dump_grid(central.grid)
        assert result.spanning_graph == central.decode()

    def test_message_accounting(self):
        h = Hypergraph.from_graph(cycle_graph(6))
        result = SpanningForestProtocol(6, seed=7).run(h)
        assert result.players == 6
        assert result.message_bits == 64 * result.message_words
        assert result.total_bits == 6 * result.message_bits

    def test_message_size_independent_of_edges(self):
        """Messages are fixed-size linear sketches: a player with many
        edges sends the same number of bits as one with none."""
        sparse = Hypergraph(8, 2, [(0, 1)])
        dense = Hypergraph.from_graph(cycle_graph(8))
        proto = SpanningForestProtocol(8, seed=8)
        r1 = proto.run(sparse)
        r2 = proto.run(dense)
        assert r1.message_bits == r2.message_bits

    def test_player_message_local_only(self):
        """A player only needs its own incident edges."""
        proto = SpanningForestProtocol(5, seed=9)
        busy = proto.referee_decode([proto.player_message(0, [(0, 1), (0, 4)])])
        assert np.any(busy.sketch.grid._w)
        idle = proto.referee_decode([proto.player_message(2, [])])
        assert not np.any(idle.sketch.grid._w)


class TestSerializedProtocol:
    def test_wire_bytes_fixed_per_player(self):
        h1 = Hypergraph(6, 2, [(0, 1)])
        proto = SpanningForestProtocol(6, seed=13)
        assert len({len(blob) for blob in messages(proto, h1)}) == 1

    def test_wrong_seed_message_rejected(self):
        sender = SpanningForestProtocol(6, seed=14)
        receiver = SpanningForestProtocol(6, seed=15)
        blob = sender.player_message(0, [(0, 1)])
        with pytest.raises(IncompatibleSketchError):
            receiver.referee_decode([blob])

    def test_corrupt_message_rejected(self):
        proto = SpanningForestProtocol(6, seed=16)
        blob = flip_blob_byte(proto.player_message(0, [(0, 1)]), seed=3)
        with pytest.raises(PayloadCorruptionError):
            proto.referee_decode([blob])


class TestPartialMessages:
    """Regressions: short reads must be surfaced, not decoded silently."""

    def test_complete_run_reports_no_missing_players(self):
        h = random_connected_hypergraph(10, 14, r=3, seed=21)
        result = SpanningForestProtocol(10, r=3, seed=22).run(h)
        assert result.missing_players == ()
        assert result.complete

    def test_partial_bytes_surfaces_missing_players(self):
        h = random_connected_hypergraph(10, 14, r=3, seed=25)
        proto = SpanningForestProtocol(10, r=3, seed=26)
        survivors = messages(proto, h, skip=(3, 7))
        result = proto.referee_decode(survivors)
        assert result.missing_players == (3, 7)
        assert not result.complete
        assert result.players == 8
        # The referee holds exactly the survivors' columns.
        reference = proto._fresh_sketch()
        for blob in survivors:
            load_member_state(reference.grid, blob)
        assert dump_grid(result.sketch.grid) == dump_grid(reference.grid)

    def test_empty_messages_raise_comm_error(self):
        proto = SpanningForestProtocol(8, seed=27)
        with pytest.raises(CommError):
            proto.referee_decode([])

    def test_out_of_range_player_rejected(self):
        proto = SpanningForestProtocol(4, seed=28)
        blob = rewrite_blob_member(proto.player_message(0, [(0, 1)]), 9)
        with pytest.raises(IncompatibleSketchError):
            proto.referee_decode([blob])

    @pytest.mark.parametrize("member", [-1, 8])
    def test_rewritten_member_index_rejected(self, member):
        """A CRC-valid blob whose header names player -1 (or n) must
        not fold player 0's counters into column n-1."""
        h = random_connected_hypergraph(8, 12, r=3, seed=29)
        proto = SpanningForestProtocol(8, r=3, seed=30)
        blobs = messages(proto, h)
        blobs[0] = rewrite_blob_member(blobs[0], member)
        with pytest.raises(IncompatibleSketchError, match="member index"):
            proto.referee_decode(blobs)


class TestDuplicateBlobs:
    """Regression: a duplicated blob must be folded exactly once —
    the old decoder deduped the player *count* but still folded the
    state twice, silently corrupting the sketch."""

    def test_duplicate_blob_state_identical_to_single_fold(self):
        h = random_connected_hypergraph(9, 12, r=3, seed=31)
        proto = SpanningForestProtocol(9, r=3, seed=32)
        blobs = messages(proto, h)
        reference = proto._fresh_sketch()
        for blob in blobs:
            load_member_state(reference.grid, blob)

        result = proto.referee_decode(blobs + [blobs[0], blobs[4], blobs[4]])
        assert dump_grid(result.sketch.grid) == dump_grid(reference.grid)
        assert result.players == 9
        assert result.missing_players == ()
        assert result.is_connected == h.is_connected()

    def test_duplicate_blob_verdict_matches_clean_run(self):
        h = random_connected_hypergraph(12, 18, r=3, seed=33)
        proto = SpanningForestProtocol(12, r=3, seed=34)
        blobs = messages(proto, h)
        clean = proto.referee_decode(blobs)
        noisy = proto.referee_decode(blobs * 3)
        assert noisy.is_connected == clean.is_connected
        assert noisy.components == clean.components
        assert noisy.spanning_graph == clean.spanning_graph
        assert noisy.players == clean.players
        # The duplicates did cross the wire: accounting reflects them.
        assert noisy.total_bits == 3 * clean.total_bits

    def test_peek_member_reads_header_only(self):
        proto = SpanningForestProtocol(5, seed=35)
        blob = proto.player_message(3, [(2, 3)])
        assert peek_member(blob) == 3
        with pytest.raises(IncompatibleSketchError):
            peek_member(dump_grid(proto._fresh_sketch().grid))
