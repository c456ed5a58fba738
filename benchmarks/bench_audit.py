"""E21 — integrity auditing: detection power and runtime overhead.

Audit claims (repro.audit): every hash row of a sampler grid holds the
same bucket totals at each (group, member, level), so the *first*
:func:`~repro.audit.integrity.audit_sketch` detects a single flipped
bit in any live counter bank with probability 1 (the flip moves one
row's total by ``±2^b``, nonzero mod 2^64 and mod p) and localizes it
to the (instance, group, member, level) it landed in; and because the
audit keeps no state, ingest costs the same audited or not, and a
periodic audit every ``interval`` ingested events costs <= 10% of
*unaudited* ingest wall time.

Measured: detection/localization rates over seeded single-bit flips
across the three sketch shapes, and the audit-to-ingest time ratio
across cadences, with an audited and an unaudited twin ingesting the
same stream.  ``detection_sweep`` and ``audit_overhead_run`` are the
reusable cores: the smoke test in ``tests/engine/test_bench_smoke.py``
runs both at small scale, and draws its ingest and decode streams from
``churn_stream``.
"""

import time

import numpy as np
from _report import record

from repro.audit.integrity import audit_sketch, named_grids
from repro.core.connectivity_query import VertexConnectivityQuerySketch
from repro.core.params import Params
from repro.graph.generators import cycle_graph, gnp_graph
from repro.sketch.serialization import dump_sketch
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import with_churn
from repro.stream.updates import EdgeUpdate
from repro.util.hashing import hash64


def churn_stream(n: int, p: float, seed: int):
    """Insert a G(n,p) target interleaved with G(n,p) decoy churn."""
    target = gnp_graph(n, p, seed=seed)
    decoys = gnp_graph(n, p, seed=seed + 1).edges()
    return with_churn(target, decoys, shuffle_seed=seed)


def _flip_one_bit(sketch, seed: int) -> dict:
    """Deterministically flip one bit of one live bank; return where."""
    refs = list(named_grids(sketch, "sketch"))
    ref = refs[hash64(seed, 0xB17) % len(refs)]
    grid = ref.grid
    name = ("_w", "_s", "_f")[hash64(seed, 0xA44) % 3]
    arr = getattr(grid, name)
    flat = hash64(seed, 0xCE11) % arr.size
    bit = hash64(seed, 0xF11B) % 64
    arr.reshape(-1)[flat] ^= (1 << bit) - (1 << 64 if bit == 63 else 0)
    group, member, level, _row, _bucket = (
        int(i) for i in np.unravel_index(flat, arr.shape)
    )
    return {
        "instance": ref.instance if ref.instance is not None else group,
        "group": group,
        "member": member,
        "level": level,
    }


def _make_sketch(kind: str, n: int, seed: int):
    if kind == "forest":
        return SpanningForestSketch(n, seed=seed, rounds=6, rows=2, buckets=8)
    if kind == "skeleton":
        return SkeletonSketch(n, k=3, seed=seed, rounds=5, rows=2, buckets=8)
    return VertexConnectivityQuerySketch(
        n, k=1, seed=seed, params=Params.practical()
    )


def detection_sweep(kind: str, n: int = 24, flips: int = 50, seed: int = 0) -> dict:
    """Inject ``flips`` independent single-bit faults; audit each once.

    Every trial starts from a fresh clean sketch, flips one bit and
    runs the first and only audit of that sketch (one flip per trial,
    matching the fault model the row check is designed for).  Returns
    detection and localization rates — the acceptance bar is 1.0 for
    both; a finding localizes when it names the flip's (instance,
    group, member, level).
    """
    detected = localized = 0
    for trial in range(flips):
        sketch = _make_sketch(kind, n, seed)
        for e in cycle_graph(n).edges():
            sketch.update(tuple(e), +1)
        where = _flip_one_bit(sketch, seed=hash64(seed, trial))
        report = audit_sketch(sketch, kind)
        if not report.ok:
            detected += 1
            if any(
                (f.instance, f.group, f.member, f.level)
                == (where["instance"], where["group"], where["member"],
                    where["level"])
                for f in report.findings
            ):
                localized += 1
    return {
        "kind": kind,
        "flips": flips,
        "detection_rate": detected / flips,
        "localization_rate": localized / flips,
    }


def audit_overhead_run(
    n: int,
    cycles: int = 4,
    interval: int = 32768,
    batch_size: int = 1024,
    seed: int = 3,
) -> dict:
    """Time periodic audits against the unaudited ingest they ride on.

    The workload repeats a churn stream and its inverse ``cycles``
    times (a long, balance-valid stream).  Two twin sketches ingest it
    batch by batch, alternating which goes first; one is audited every
    ``interval`` events plus once at end of stream.  Returns the
    audit time over the *unaudited* twin's ingest time, and both
    twins' ingest times (the audit keeps no state, so they should
    agree within noise).  The twins must end byte-identical.
    """
    base = churn_stream(n, 0.05, seed=seed)
    inverse = [EdgeUpdate(u.edge, -u.sign) for u in reversed(base)]
    stream = []
    for _ in range(cycles):
        stream += base + inverse

    plain = SpanningForestSketch(n, seed=seed)
    audited = SpanningForestSketch(n, seed=seed)
    ingest_secs = audited_ingest_secs = audit_secs = 0.0
    passes = dispatched = last = 0

    def timed(sketch, chunk) -> float:
        start = time.perf_counter()
        sketch.update_batch(chunk)
        return time.perf_counter() - start

    def audit() -> float:
        start = time.perf_counter()
        report = audit_sketch(audited, "forest")
        elapsed = time.perf_counter() - start
        assert report.ok
        return elapsed

    for b, i in enumerate(range(0, len(stream), batch_size)):
        chunk = stream[i:i + batch_size]
        if b % 2:
            audited_ingest_secs += timed(audited, chunk)
            ingest_secs += timed(plain, chunk)
        else:
            ingest_secs += timed(plain, chunk)
            audited_ingest_secs += timed(audited, chunk)
        dispatched += len(chunk)
        if dispatched - last >= interval:
            audit_secs += audit()
            passes += 1
            last = dispatched
    audit_secs += audit()
    passes += 1
    assert dump_sketch(audited) == dump_sketch(plain)
    return {
        "n": n,
        "events": len(stream),
        "interval": interval,
        "passes": passes,
        "ingest_secs": ingest_secs,
        "audited_ingest_secs": audited_ingest_secs,
        "audit_secs": audit_secs,
        "overhead": audit_secs / ingest_secs,
    }


def bench_e21_detection(benchmark):
    """Acceptance: every injected single-bit flip detected AND localized."""
    rows = []
    for kind in ("forest", "skeleton", "vertex-query"):
        r = detection_sweep(kind, n=24, flips=50, seed=7)
        rows.append(
            (
                kind,
                r["flips"],
                f"{r['detection_rate']:.2f}",
                f"{r['localization_rate']:.2f}",
            )
        )
        assert r["detection_rate"] == 1.0, (
            f"{kind}: missed flips (rate {r['detection_rate']:.2f})"
        )
        assert r["localization_rate"] == 1.0, (
            f"{kind}: mislocalized flips (rate {r['localization_rate']:.2f})"
        )
    record(
        "E21a",
        "integrity audit: single-bit-flip detection and localization",
        ["sketch", "flips", "detection", "localization"],
        rows,
        notes="Audit bar: rate 1.0 on both columns, on the first audit "
        "of each sketch — a single-bit flip moves one hash row's total "
        "by a nonzero amount mod 2^64 and mod p.",
    )

    def run():
        return detection_sweep("forest", n=24, flips=10, seed=11)

    r = benchmark(run)
    assert r["detection_rate"] == 1.0


def bench_e21_overhead(benchmark):
    """Acceptance: periodic-audit overhead <= 10% of unaudited ingest
    wall time."""
    rows = []
    for interval in (8192, 16384, 32768):
        r = audit_overhead_run(256, cycles=4, interval=interval)
        rows.append(
            (
                r["events"],
                interval,
                r["passes"],
                f"{r['ingest_secs']:.2f}s",
                f"{r['audited_ingest_secs']:.2f}s",
                f"{r['audit_secs']:.2f}s",
                f"{r['overhead'] * 100:.1f}%",
            )
        )
    assert r["overhead"] <= 0.10, (
        f"audit overhead {r['overhead']:.1%} above the 10% bar at "
        f"interval={interval}"
    )
    record(
        "E21b",
        "integrity audit: periodic-audit overhead vs unaudited ingest "
        "(n=256)",
        ["events", "interval", "passes", "ingest", "audited ingest",
         "audit", "overhead"],
        rows,
        notes="Audit bar: <= 10% of unaudited ingest wall time at the "
        "default cadence (one O(bank) row check per 32k events); the "
        "audited twin's ingest keeps no audit state.",
    )

    def run():
        return audit_overhead_run(64, cycles=1, interval=4096)

    r = benchmark(run)
    assert r["passes"] >= 1
