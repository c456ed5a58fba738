"""E10 — Section 2: vertex-based sketches as one-round referee protocols.

Paper claim: a vertex-based sketch yields a simultaneous protocol in
the Becker et al. model — every linear measurement is local to one
player, so each player sends its share and the referee decodes.  The
model's cost is the maximum message length, which for the spanning-
graph sketch is O(polylog n) words per player (O(n polylog n) total).

Measured: protocol correctness (connectivity decided from messages
only), per-player message bits vs n (polylog shape), and the fact that
message size is data-independent.
"""

import pytest

from _report import record

from repro.comm.simultaneous import SpanningForestProtocol
from repro.graph.generators import random_connected_hypergraph, random_hypergraph


def bench_e10_protocol_correctness(benchmark):
    rows = []
    for n in (8, 16, 32):
        correct = 0
        trials = 4
        for seed in range(trials):
            connected = seed % 2 == 0
            if connected:
                h = random_connected_hypergraph(n, n, r=3, seed=seed)
            else:
                h = random_hypergraph(n, max(2, n // 4), r=3, seed=seed)
            result = SpanningForestProtocol(n, r=3, seed=100 + seed).run(h)
            if result.is_connected == h.is_connected():
                correct += 1
        rows.append((n, f"{correct}/{trials}"))
    record(
        "E10a",
        "one-round referee protocol: connectivity from n messages",
        ["n", "referee correct"],
        rows,
    )
    h = random_connected_hypergraph(16, 16, r=3, seed=1)
    proto = SpanningForestProtocol(16, r=3, seed=2)
    benchmark.pedantic(lambda: proto.run(h).is_connected, rounds=1, iterations=2)


def bench_e10_message_length(benchmark):
    """Per-player message bits: grows polylogarithmically in n."""
    rows = []
    prev = None
    for n in (16, 32, 64, 128, 256):
        proto = SpanningForestProtocol(n, r=2, seed=3)
        words = proto.referee_decode([proto.player_message(0, [(0, 1)])]).message_words
        growth = "-" if prev is None else f"x{words/prev:.2f}"
        prev = words
        rows.append((n, words, 64 * words, growth))
    record(
        "E10b",
        "per-player message size vs n",
        ["n", "words", "bits", "growth"],
        rows,
        notes="Doubling n grows messages by a polylog factor (more "
        "Borůvka rounds + deeper L0 levels), not linearly — total "
        "communication is n · polylog(n).",
    )
    proto = SpanningForestProtocol(64, r=2, seed=4)
    benchmark(lambda: proto.player_message(0, [(0, 1), (0, 5)]))
