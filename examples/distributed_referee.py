#!/usr/bin/env python3
"""Scenario: deciding connectivity from one message per machine.

n machines each know only their own adjacency (e.g. each host knows
its peers in an overlay).  A coordinator must decide whether the
overlay is connected with the smallest possible per-machine message.

Because the paper's sketches are *vertex-based* (every linear
measurement is local to one vertex, Definition 1), each machine can
evaluate exactly its own share of the sketch and ship it; the
coordinator adds the shares and decodes a spanning graph.  Per-machine
communication is polylog(n) words, versus shipping Θ(degree) adjacency
lists.

Two acts:

1. The textbook one-round exchange: every machine sends its share
   once and the coordinator decodes.
2. A messy delivery: some machines' shares never arrive and one
   arrives twice.  The coordinator folds each share exactly once
   and names the missing machines, so a short read is never mistaken
   for a verdict about the whole overlay.

Run:  python examples/distributed_referee.py
"""

from repro.comm.simultaneous import SpanningForestProtocol
from repro.graph.generators import random_connected_hypergraph, random_hypergraph


def run_case(label, h, seed):
    proto = SpanningForestProtocol(h.n, r=h.r, seed=seed)
    # Each "machine" computes its message from purely local input.
    result = proto.referee_decode([
        proto.player_message(v, sorted(h.incident_edges(v)))
        for v in range(h.n)
    ])
    truth = h.is_connected()
    naive_bits = max(
        64 * sum(len(e) for e in h.incident_edges(v)) for v in range(h.n)
    )
    print(f"\n== {label} (n={h.n}, m={h.num_edges}, rank<= {h.r}) ==")
    print(f"  referee verdict: connected={result.is_connected} "
          f"(truth: {truth}) components={len(result.components)}")
    print(f"  per-machine message: {result.message_bits} bits "
          f"(vs worst-case adjacency shipping {naive_bits} bits)")
    print(f"  total communication: {result.total_bits} bits")
    return result.is_connected == truth


def run_messy_delivery(h, seed, lost, repeated):
    proto = SpanningForestProtocol(h.n, r=h.r, seed=seed)
    shares = {
        v: proto.player_message(v, sorted(h.incident_edges(v)))
        for v in range(h.n)
    }
    arrived = [shares[v] for v in range(h.n) if v not in lost]
    arrived.append(shares[repeated])
    result = proto.referee_decode(arrived)
    print(f"\n== same overlay: machines {list(lost)} lost, "
          f"machine {repeated} delivered twice ==")
    print(f"  {len(arrived)} messages received from "
          f"{result.players} distinct machines")
    print(f"  missing machines: {list(result.missing_players)}")
    print(f"  verdict on the survivors: connected={result.is_connected} "
          f"components={len(result.components)}")
    return result


def main() -> None:
    print("--- Act 1: one simultaneous round ---")
    ok = 0
    cases = [
        ("connected overlay", random_connected_hypergraph(24, 40, r=3, seed=5), 1),
        ("fragmented overlay", random_hypergraph(24, 7, r=3, seed=6), 2),
        ("dense group overlay", random_connected_hypergraph(16, 80, r=4, seed=7), 3),
    ]
    for label, h, seed in cases:
        ok += run_case(label, h, seed)
    print(f"\ncorrect verdicts: {ok}/{len(cases)}")
    assert ok == len(cases)
    print("note: message size is fixed by (n, r) — a machine with 100 "
          "peers sends exactly as many bits as one with 1.")

    print("\n--- Act 2: partial and duplicated delivery ---")
    h = random_connected_hypergraph(24, 40, r=3, seed=5)
    lost = (4, 17)
    res = run_messy_delivery(h, 1, lost, repeated=9)
    assert res.missing_players == lost and not res.complete
    assert res.players == h.n - len(lost)
    print("  -> the duplicate is folded once and the shortfall is flagged "
          "with the exact set of missing machines.")


if __name__ == "__main__":
    main()
