#!/usr/bin/env python3
"""Quickstart: sketching a dynamic graph stream.

Builds a graph with a planted 2-vertex separator as a stream of edge
insertions and deletions, maintains the paper's three main sketches in
one pass, and answers questions at the end:

* Theorem 4  — does removing a queried vertex set disconnect the graph?
* Theorem 8  — is the graph k-vertex-connected?
* Theorem 20 — a (1+ε) cut sparsifier of the final graph.

Run:  python examples/quickstart.py
"""

from repro import (
    HypergraphSparsifierSketch,
    KVertexConnectivityTester,
    Params,
    VertexConnectivityQuerySketch,
)
from repro.graph.generators import planted_separator_graph
from repro.stream.generators import with_churn


def main() -> None:
    # A graph the sketches never see in full: two 8-cliques joined
    # through a 2-vertex separator (so κ = 2), streamed with decoy
    # edges that are inserted and later deleted.
    g, separator = planted_separator_graph(side=8, cut_size=2, seed=7)
    decoys = [(0, g.n - 1), (1, g.n - 2), (2, g.n - 3)]
    stream = with_churn(g, decoys, shuffle_seed=1)
    print(f"graph: n={g.n}, m={g.num_edges}, planted separator={separator}")
    print(f"stream: {len(stream)} updates (including decoy insert+delete pairs)")

    params = Params.practical()
    query = VertexConnectivityQuerySketch(g.n, k=2, seed=11, params=params)
    tester = KVertexConnectivityTester(g.n, k=2, epsilon=1.0, seed=12, params=params)
    sparsifier = HypergraphSparsifierSketch(
        g.n, r=2, epsilon=0.5, seed=13, k=6, levels=6
    )

    for update in stream:
        query.update(update.edge, update.sign)
        tester.update(update.edge, update.sign)
        sparsifier.update(update.edge, update.sign)

    print("\n-- Theorem 4: vertex-removal queries --")
    print(f"  does removing {separator} disconnect?  {query.disconnects(separator)}")
    print(f"  does removing {{0, 1}} disconnect?      {query.disconnects([0, 1])}")
    print(f"  sketch size: {query.space_counters()} counters "
          f"({query.space_bytes() / 1e6:.1f} MB), R={query.repetitions} samples")

    print("\n-- Theorem 8: k-connectivity test --")
    print(f"  is the graph 2-vertex-connected?      {tester.accepts()}")
    print(f"  certificate connectivity (<= κ):      {tester.certificate_connectivity()}")

    print("\n-- Theorem 20: cut sparsifier --")
    sp, complete = sparsifier.decode()
    print(f"  kept {sp.num_edges}/{g.num_edges} edges, complete={complete}")
    side = list(range(8))  # one clique
    print(f"  cut(clique A) true={g.cut_size(side)} "
          f"sparsified={sp.cut_weight(side):.1f}")


if __name__ == "__main__":
    main()
