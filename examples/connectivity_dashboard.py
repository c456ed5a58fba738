#!/usr/bin/env python3
"""Scenario: a one-pass "connectivity dashboard" over a churning graph.

A single pass over a dynamic edge stream feeds four sketches at once:
a StreamValidator checks each event against the paper's dynamic model,
then every sketch gets it.  At each checkpoint the dashboard reports

* connected? / number of components        (spanning-forest sketch)
* edge connectivity λ (capped)             (k-skeleton sketch, E15)
* vertex connectivity estimate κ̂          (Theorem 8 ladder)
* a weakest vertex set, if κ(G) <= 2       (Theorem 4 extractor)

against the exact values computed from the live graph — the kind of
monitoring panel the paper's sketches make possible in Õ(n) space.

Run:  python examples/connectivity_dashboard.py
"""

from repro import (
    EdgeConnectivitySketch,
    Params,
    VertexConnectivityEstimator,
    VertexConnectivityQuerySketch,
)
from repro.baselines.store_all import StoreEverything
from repro.graph.edge_connectivity import edge_connectivity
from repro.graph.generators import harary_graph
from repro.graph.vertex_connectivity import vertex_connectivity
from repro.stream.updates import EdgeUpdate, StreamValidator


def feed(validator, sketches, events):
    """Validate each event, then apply it to every sketch."""
    for event in events:
        validator.apply(event)
        for sketch in sketches.values():
            sketch.update(event.edge, event.sign)


def checkpoint(label, validator, sketches):
    live = validator.graph.to_graph()
    est = sketches["kappa"].estimate()
    lam = sketches["lambda"].estimate()
    weak = sketches["query"].find_disconnecting_set(max_size=2)
    true_kappa = vertex_connectivity(live)
    true_lambda = edge_connectivity(live)
    print(f"\n== {label} (m={live.num_edges}) ==")
    print(f"  λ̂ = {lam:<2} (true λ = {true_lambda})")
    print(f"  κ̂ = {est:<2} (true κ = {true_kappa})")
    if weak is not None:
        print(f"  weakest vertex set found: {sorted(weak)}")
    else:
        print("  no disconnecting set of size <= 2 found")


def main() -> None:
    n = 16
    params = Params.practical()
    validator = StreamValidator(n)
    sketches = {
        "lambda": EdgeConnectivitySketch(n, k_max=5, seed=1, params=params),
        "kappa": VertexConnectivityEstimator(
            n, k_max=4, epsilon=1.0, seed=2, params=params
        ),
        "query": VertexConnectivityQuerySketch(n, k=2, seed=3, params=params),
        "exact": StoreEverything(n),
    }

    design = harary_graph(4, n)  # 4-connected target design
    # Phase 1: ring only (every other chord missing yet).
    ring = [e for e in design.edges() if (e[1] - e[0]) % n in (1, n - 1)]
    chords = [e for e in design.edges() if e not in ring]
    feed(validator, sketches, [EdgeUpdate.insert(e) for e in ring])
    checkpoint("phase 1: bare ring", validator, sketches)

    # Phase 2: all chords online — full 4-connected design.
    feed(validator, sketches, [EdgeUpdate.insert(e) for e in chords])
    checkpoint("phase 2: full design", validator, sketches)

    # Phase 3: incident failure — vertex 0's links drop.
    drops = [EdgeUpdate.delete((0, v)) for v in sorted(design.neighbors(0))]
    feed(validator, sketches, drops)
    checkpoint("phase 3: vertex 0 dark", validator, sketches)

    print("\n(one pass, four sketches, no stored edge list — the exact "
          "column is a replayed baseline for comparison)")


if __name__ == "__main__":
    main()
