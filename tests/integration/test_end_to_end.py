"""End-to-end integration tests: full streams through the public API.

A stream is replayed the plain way: a
:class:`~repro.stream.updates.StreamValidator` checks each event, then
every sketch gets it through ``update``.
"""

import pytest

from repro import (
    HypergraphSparsifierSketch,
    LightEdgeRecoverySketch,
    Params,
    SpanningForestSketch,
    VertexConnectivityQuerySketch,
)
from repro.baselines import StoreEverything
from repro.core.sparsifier import max_cut_error
from repro.graph.generators import (
    community_hypergraph,
    planted_separator_graph,
    random_connected_hypergraph,
)
from repro.graph.hypergraph import Hypergraph
from repro.graph.hypergraph_cuts import all_cuts
from repro.stream.generators import insert_only, with_churn
from repro.stream.updates import StreamValidator


def replay(n, stream, sketches, r=2):
    """Validate each event, feed it to every sketch; returns the live graph."""
    validator = StreamValidator(n, r)
    for event in stream:
        validator.apply(event)
        for sketch in sketches:
            sketch.update(event.edge, event.sign)
    return validator.graph


class TestQueryPipeline:
    def test_runner_drives_query_sketch_and_baseline(self):
        g, sep = planted_separator_graph(6, 2, seed=1)
        sketch = VertexConnectivityQuerySketch(
            g.n, k=2, seed=2, params=Params.practical()
        )
        exact = StoreEverything(g.n)
        decoys = [(0, g.n - 1), (1, g.n - 2)]
        live = replay(g.n, with_churn(g, decoys, shuffle_seed=3), [sketch, exact])
        assert live.num_edges == g.num_edges
        assert sketch.disconnects(sep) == exact.disconnects(sep)
        assert sketch.disconnects([0]) == exact.disconnects([0])

    def test_space_comparison_sketch_vs_exact(self):
        """On dense graphs the store-all baseline scales with m = Θ(n²)
        while the sketch stays Õ(kn) — here we just confirm both report
        and that the sketch is history-independent of decoys."""
        g, _ = planted_separator_graph(8, 2, seed=4)
        exact = StoreEverything(g.n)
        replay(g.n, insert_only(g), [exact])
        assert exact.space_counters() == 2 * g.num_edges


class TestSparsifierPipeline:
    def test_sparsify_then_query_cuts(self):
        h, blocks = community_hypergraph([7, 7], 16, 3, r=3, seed=5)
        sk = HypergraphSparsifierSketch(
            h.n, r=3, epsilon=0.5, seed=6, k=8, levels=6
        )
        for e in h.edges():
            sk.insert(e)
        sp, complete = sk.decode()
        assert complete
        err = max_cut_error(h, sp, list(all_cuts(h.n))[:2000])
        assert err <= 0.8
        # The planted small cut is preserved well.
        assert sp.cut_weight(blocks[0]) == pytest.approx(
            h.cut_size(blocks[0]), rel=0.5
        )

    def test_sparsifier_feeds_connectivity_questions(self):
        """A sparsifier is itself a hypergraph: connectivity answers on
        it agree with the original (cut values are preserved, so zero
        cuts stay zero)."""
        h = random_connected_hypergraph(12, 18, r=3, seed=7)
        sk = HypergraphSparsifierSketch(12, r=3, epsilon=0.5, seed=8, k=6, levels=6)
        for e in h.edges():
            sk.insert(e)
        sp, _ = sk.decode()
        assert sp.is_connected() == h.is_connected()


class TestReconstructionPipeline:
    def test_reconstruct_then_answer_everything_offline(self):
        """Theorem 15's promise: for cut-degenerate graphs the sketch IS
        the graph — all downstream questions become exact."""
        from repro.graph.degeneracy import lemma10_witness
        from repro.graph.vertex_connectivity import vertex_connectivity

        g = lemma10_witness()
        sk = LightEdgeRecoverySketch(g.n, k=2, seed=9)
        for e in g.edges():
            sk.insert(e)
        rec = sk.reconstruct()
        assert rec is not None
        assert vertex_connectivity(rec.to_graph()) == vertex_connectivity(g)


class TestMixedWorkload:
    def test_three_sketches_one_stream(self):
        h = random_connected_hypergraph(10, 12, r=3, seed=10)
        conn = SpanningForestSketch(10, r=3, seed=11)
        light = LightEdgeRecoverySketch(10, k=1, r=3, seed=12)
        stream = insert_only(h)
        replay(10, stream, [conn, light], r=3)
        assert len(stream) == h.num_edges
        assert conn.is_connected()
        from repro.graph.degeneracy import light_edges_exact

        assert set(light.recover_light_edges()) == light_edges_exact(h, 1)
