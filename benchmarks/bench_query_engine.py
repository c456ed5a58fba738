"""E23 — query engine: vectorised batch decode vs the scalar reference.

Engine claim (repro.sketch.bank + repro.sketch.spanning_forest): decoding a
spanning forest through the batched one-sparse kernels — one
``summed_many`` segment-sum per Borůvka round plus one vectorised
verify/peel sweep over every (component, level, row, bucket) cell — is
at least 5x faster than the scalar per-component reference
(:mod:`repro.sketch.reference`, swapped in at the per-round sampling
seam by ``reference.oracle()``) at n >= 256, and *bit-identical*: the same forest, recovered through the same decode
decisions, because every kernel reproduces the scalar arithmetic
exactly (same Mersenne-61 residues, same first-hit scan order, same
tie-breaks).

Measured: decode wall time of the scalar path vs the batch path on the
same post-ingest sketch (spanning forest and k-skeleton).  ``decode_comparison``
is the reusable core: the smoke test in
``tests/engine/test_bench_smoke.py`` runs it at small ``n``.
"""

import time

import pytest
from _report import record, record_bench

from repro.graph.generators import gnp_graph
from repro.sketch import reference
from repro.sketch.serialization import dump_sketch
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import with_churn

pytestmark = pytest.mark.decodebench


def churn_stream(n: int, p: float, seed: int):
    """Insert a G(n,p) target interleaved with G(n,p) decoy churn."""
    target = gnp_graph(n, p, seed=seed)
    decoys = gnp_graph(n, p, seed=seed + 1).edges()
    return with_churn(target, decoys, shuffle_seed=seed)


def _ingested_forest(n: int, p: float, seed: int) -> SpanningForestSketch:
    sketch = SpanningForestSketch(n, seed=seed)
    sketch.update_batch(churn_stream(n, p, seed))
    return sketch


def _time_decodes(decode, repeats: int):
    """(best wall-seconds, last result) over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = decode()
        best = min(best, time.perf_counter() - start)
    return best, result


def decode_comparison(
    n: int, p: float = 0.05, seed: int = 0, repeats: int = 5
) -> dict:
    """Scalar vs batched spanning-forest decode of one ingested sketch.

    Returns decode times, the speedup, and the bit-identity verdicts
    the acceptance tests assert on: identical forests AND an untouched
    sketch state (decode is non-destructive on both paths).
    """
    sketch = _ingested_forest(n, p, seed)
    state_before = dump_sketch(sketch)
    with reference.oracle():
        scalar_secs, scalar_forest = _time_decodes(sketch.decode, repeats)
    batch_secs, batch_forest = _time_decodes(sketch.decode, repeats)
    return {
        "n": n,
        "edges": scalar_forest.num_edges,
        "scalar_secs": scalar_secs,
        "batch_secs": batch_secs,
        "speedup": scalar_secs / batch_secs,
        "identical": sorted(scalar_forest.edges())
        == sorted(batch_forest.edges()),
        "state_untouched": dump_sketch(sketch) == state_before,
    }


def skeleton_comparison(
    n: int, k: int = 3, p: float = 0.05, seed: int = 0, repeats: int = 3
) -> dict:
    """Scalar vs batched k-skeleton layer decode (peel included)."""
    sketch = SkeletonSketch(n, k=k, seed=seed)
    sketch.update_batch(churn_stream(n, p, seed))
    with reference.oracle():
        scalar_secs, scalar_layers = _time_decodes(
            sketch.decode_layers, repeats
        )
    batch_secs, batch_layers = _time_decodes(sketch.decode_layers, repeats)
    return {
        "n": n,
        "k": k,
        "scalar_secs": scalar_secs,
        "batch_secs": batch_secs,
        "speedup": scalar_secs / batch_secs,
        "identical": [sorted(f.edges()) for f in scalar_layers]
        == [sorted(f.edges()) for f in batch_layers],
    }


def bench_e23_batch_decode_speedup(benchmark):
    """Acceptance: batched forest decode >= 5x scalar at n >= 256,
    bit-identical on every size."""
    rows = []
    for n in (64, 128, 256):
        r = decode_comparison(n, p=0.05, seed=3)
        assert r["identical"], f"batch decode diverged from scalar at n={n}"
        assert r["state_untouched"], f"decode mutated the sketch at n={n}"
        rows.append(
            (
                n,
                r["edges"],
                f"{r['scalar_secs'] * 1e3:.1f}ms",
                f"{r['batch_secs'] * 1e3:.1f}ms",
                f"{r['speedup']:.1f}x",
            )
        )
        if n >= 256:
            assert r["speedup"] >= 5.0, (
                f"batch decode speedup {r['speedup']:.2f}x below the 5x bar"
            )
    record(
        "E23a",
        "query engine: scalar vs batched spanning-forest decode",
        ["n", "forest edges", "scalar", "batched", "speedup"],
        rows,
        notes="Engine bar: batched >= 5x scalar at n >= 256; identical "
        "forests and untouched sketch state on both paths.",
    )
    record_bench(
        "query",
        {
            "n": r["n"],
            "forest_edges": r["edges"],
            "scalar_ms": round(r["scalar_secs"] * 1e3, 2),
            "batch_ms": round(r["batch_secs"] * 1e3, 2),
            "speedup": round(r["speedup"], 2),
        },
        notes="E23a headline row (largest n)",
    )

    sketch = _ingested_forest(256, 0.05, seed=3)
    forest = benchmark(sketch.decode)
    assert forest.num_edges > 0


def bench_e23_skeleton(benchmark):
    """Skeleton layers decode identically on both paths."""
    rows = []
    for n in (64, 128):
        r = skeleton_comparison(n, k=3, p=0.05, seed=5)
        assert r["identical"], f"skeleton batch decode diverged at n={n}"
        rows.append(
            (
                "skeleton",
                n,
                f"{r['scalar_secs'] * 1e3:.1f}ms",
                f"{r['batch_secs'] * 1e3:.1f}ms",
                f"{r['speedup']:.1f}x",
            )
        )
    record(
        "E23b",
        "query engine: skeleton peel",
        ["path", "n", "baseline", "fast", "speedup"],
        rows,
        notes="Skeleton layers bit-identical under the batch peel.",
    )

    sketch = SkeletonSketch(128, k=3, seed=5)
    sketch.update_batch(churn_stream(128, 0.05, 5))
    layers = benchmark(sketch.decode_layers)
    assert len(layers) == 3
