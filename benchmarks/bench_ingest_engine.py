"""E19 — ingestion engine: batched/sharded throughput vs the scalar loop.

Engine claim (repro.engine): folding a dynamic G(n,p) churn stream
through the fused batch kernel (precomputed placement tables + single
group-major fold) is at least 5x faster than the scalar per-event loop
at n >= 256 and at least 30x at n = 1024, and every path — including
the sharded engine — leaves the sketch in *bit-identical* state:
linearity means the speedup is free of any accuracy trade-off.

Measured: updates/sec of the scalar loop vs ``update_batch`` vs the
sharded engine (serial and shm backends), plus state equality.
``churn_comparison`` is the reusable core: the smoke test in
``tests/engine/test_bench_smoke.py`` runs it at small ``n``, and
``scripts/ingest_bench_smoke.sh`` wraps the ``ingestbench``-marked
subset as a CI gate.

Every run appends one row per size to ``BENCH_ingest.json`` (via
``record_bench``), so the throughput trajectory across PRs is a
one-line diff per size rather than a single overwritten headline.
"""

import time

import pytest
from _report import record, record_bench

from repro.engine.shard import ShardedIngestEngine
from repro.graph.generators import gnp_graph
from repro.sketch.serialization import dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import with_churn

pytestmark = pytest.mark.ingestbench


def churn_stream(n: int, p: float, seed: int):
    """Insert a G(n,p) target interleaved with G(n,p) decoy churn."""
    target = gnp_graph(n, p, seed=seed)
    decoys = gnp_graph(n, p, seed=seed + 1).edges()
    return with_churn(target, decoys, shuffle_seed=seed)


def engine_run(stream, n, seed, shards, batch_size, backend, reference):
    """One sharded-engine ingest; returns (updates/sec, identical?)."""
    engine = ShardedIngestEngine(
        SpanningForestSketch(n, seed=seed),
        shards=shards,
        batch_size=batch_size,
        backend=backend,
    )
    result = engine.ingest(stream)
    identical = dump_sketch(result.sketch) == reference
    return len(stream) / result.metrics.wall_seconds, identical


def churn_comparison(
    n: int,
    p: float = 0.05,
    seed: int = 0,
    shards: int = 4,
    batch_size: int = 1024,
    backend: str = "serial",
) -> dict:
    """Scalar vs batched vs sharded ingest of one churn stream.

    Returns throughputs (updates/sec) and the bit-identity verdicts the
    acceptance tests assert on.
    """
    stream = churn_stream(n, p, seed)

    scalar = SpanningForestSketch(n, seed=seed)
    start = time.perf_counter()
    for u in stream:
        scalar.update(u.edge, u.sign)
    scalar_secs = time.perf_counter() - start
    reference = dump_sketch(scalar)

    # Warm the pooled placement tables (a one-time per-geometry cost
    # shared through the module pool) so the timed run measures
    # steady-state batched ingest rather than first-touch table builds.
    SpanningForestSketch(n, seed=seed).update_batch(stream[:64])

    batched = SpanningForestSketch(n, seed=seed)
    start = time.perf_counter()
    batched.update_batch(stream)
    batched_secs = time.perf_counter() - start

    sharded_ups, sharded_identical = engine_run(
        stream, n, seed, shards, batch_size, backend, reference
    )

    events = len(stream)
    return {
        "n": n,
        "events": events,
        "scalar_ups": events / scalar_secs,
        "batched_ups": events / batched_secs,
        "sharded_ups": sharded_ups,
        "speedup_batched": scalar_secs / batched_secs,
        "speedup_sharded": scalar_secs * sharded_ups / events,
        "batched_identical": dump_sketch(batched) == reference,
        "sharded_identical": sharded_identical,
    }


def bench_e19_batched_speedup(benchmark):
    """Acceptance: >= 5x updates/sec over scalar on G(n,p) churn, n >= 256."""
    rows = []
    for n in (64, 128, 256):
        r = churn_comparison(n, p=0.05, seed=3)
        assert r["batched_identical"] and r["sharded_identical"]
        rows.append(
            (
                n,
                r["events"],
                f"{r['scalar_ups']:,.0f}",
                f"{r['batched_ups']:,.0f}",
                f"{r['sharded_ups']:,.0f}",
                f"{r['speedup_batched']:.1f}x",
            )
        )
        if n >= 256:
            assert r["speedup_batched"] >= 5.0, (
                f"batched speedup {r['speedup_batched']:.2f}x below the 5x bar"
            )
        record_bench(
            "ingest",
            {
                "n": r["n"],
                "events": r["events"],
                "scalar_ups": round(r["scalar_ups"]),
                "batched_ups": round(r["batched_ups"]),
                "sharded_ups": round(r["sharded_ups"]),
                "speedup_batched": round(r["speedup_batched"], 2),
            },
            notes=f"E19a trajectory row (n={r['n']})",
        )
    record(
        "E19a",
        "ingest engine: scalar vs batched vs sharded (G(n,p) churn)",
        ["n", "events", "scalar ups", "batched ups", "sharded ups", "speedup"],
        rows,
        notes="Engine bar: batched >= 5x scalar at n >= 256; all paths "
        "bit-identical to the scalar loop.",
    )

    stream = churn_stream(256, 0.05, seed=3)

    def run():
        sk = SpanningForestSketch(256, seed=3)
        sk.update_batch(stream)
        return sk

    sk = benchmark(run)
    assert sk.grid.update_count > 0


def bench_e19_shard_scaling(benchmark):
    """Throughput across shard counts and backends at fixed n."""
    n, seed = 256, 5
    stream = churn_stream(n, 0.05, seed)
    reference = None
    rows = []
    for backend in ("serial", "shm"):
        for shards in (1, 2, 4):
            engine = ShardedIngestEngine(
                SpanningForestSketch(n, seed=seed),
                shards=shards,
                batch_size=1024,
                backend=backend,
            )
            result = engine.ingest(stream)
            state = dump_sketch(result.sketch)
            if reference is None:
                reference = state
            assert state == reference
            m = result.metrics
            rows.append(
                (
                    backend,
                    shards,
                    m.events,
                    f"{m.updates_per_second:,.0f}",
                    f"{m.merge_seconds * 1e3:.1f}ms",
                )
            )
    record(
        "E19b",
        "ingest engine: shard/backend scaling (bit-identical merges)",
        ["backend", "shards", "events", "updates/sec", "merge"],
        rows,
        notes="Every (backend, shards) combination reproduces the same "
        "sketch state byte-for-byte; shm shards merge without pickling.",
    )

    def run():
        engine = ShardedIngestEngine(
            SpanningForestSketch(n, seed=seed), shards=4, batch_size=1024
        )
        return engine.ingest(stream)

    result = benchmark(run)
    assert result.events == len(stream)


def bench_e19_scale_headline(benchmark):
    """E19c — the n=1024 headline: batched >= 30x scalar.

    With placement tables attached by default and the fused single-pass
    kernel, the batched path clears 30x the scalar per-event loop at
    n = 1024.  Shared-memory shard workers are measured alongside and
    must stay bit-identical to the scalar reference.
    """
    n, seed, shards = 1024, 7, 4
    stream = churn_stream(n, 0.02, seed)
    events = len(stream)

    scalar = SpanningForestSketch(n, seed=seed)
    start = time.perf_counter()
    for u in stream:
        scalar.update(u.edge, u.sign)
    scalar_secs = time.perf_counter() - start
    reference = dump_sketch(scalar)

    # Warm the pooled placement tables first: they are a one-time
    # per-geometry cost shared by every same-shape grid through the
    # module pool, so the timed run below measures steady-state ingest.
    SpanningForestSketch(n, seed=seed).update_batch(stream[:64])

    batched = SpanningForestSketch(n, seed=seed)
    start = time.perf_counter()
    batched.update_batch(stream)
    batched_secs = time.perf_counter() - start
    speedup = scalar_secs / batched_secs
    assert dump_sketch(batched) == reference
    assert speedup >= 30.0, (
        f"batched speedup {speedup:.1f}x below the 30x bar at n={n}"
    )

    shm_ups, shm_ok = engine_run(
        stream, n, seed, shards, 4096, "shm", reference
    )
    assert shm_ok

    record(
        "E19c",
        "ingest engine: n=1024 headline (30x bar, shm shards)",
        ["n", "events", "scalar ups", "batched ups", "speedup", "shm ups"],
        [(
            n,
            events,
            f"{events / scalar_secs:,.0f}",
            f"{events / batched_secs:,.0f}",
            f"{speedup:.1f}x",
            f"{shm_ups:,.0f}",
        )],
        notes="Bar: batched >= 30x scalar; every path bit-identical to "
        "the scalar loop.",
    )
    record_bench(
        "ingest",
        {
            "n": n,
            "events": events,
            "scalar_ups": round(events / scalar_secs),
            "batched_ups": round(events / batched_secs),
            "speedup_batched": round(speedup, 2),
            "shm_sharded_ups": round(shm_ups),
            "shards": shards,
        },
        notes="E19c n=1024 headline: 30x bar + shm shards",
    )

    def run():
        sk = SpanningForestSketch(n, seed=seed)
        sk.update_batch(stream)
        return sk

    sk = benchmark(run)
    assert sk.grid.update_count > 0
