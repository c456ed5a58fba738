"""E27 — deterministic simulation sweep: the fleet under a virtual sky.

Robustness claim (repro.service.sim, PR 9): the whole 3-replica sketch
service — servers, WALs, checkpoints, quorum coordinator, clients —
runs in-process on a **simulated clock, network, and disk**, so a
seeded fault schedule (SIGKILLs, power losses, asymmetric stalls,
partitions, connection resets, full disks) replays byte-identically
every time.  Each schedule interleaves quorum-stamped writes with the
faults and then checks four invariants:

1. **Zero acked-write loss** — every quorum-acked batch is present in
   every replica after heal + anti-entropy.
2. **Exactly-once** — retried stamps (acks eaten by stalled links)
   fold exactly once; event counts equal ``acked x batch_size``.
3. **Serial-replay convergence** — all replicas are byte-identical to
   a referee server that serially replays the acked set through the
   same production code path.
4. **Liveness** — no sketch ends frozen or ``wal_broken``, and the
   virtual world never deadlocks.

Bars: >= 1000 schedules under 60s wall, 100% invariant pass, and a
failing schedule (when a regression is injected) shrinks via ddmin to
a minimal JSON reproducer.

Run via ``pytest benchmarks/bench_sim.py`` or
``python -m repro sim --schedules 1000``.
"""

import time
from collections import Counter

from _report import record

from repro.service.sim import run_many

#: Acceptance bars for the full sweep.
SWEEP_SCHEDULES = 1000
SWEEP_WALL_BUDGET = 60.0


def sim_sweep(schedules: int, seed: int = 0, progress=None, **world_kwargs):
    """Run ``schedules`` seeded fault schedules; return sweep stats.

    ``world_kwargs`` pass through to :class:`repro.service.sim.SimWorld`
    (replicas, horizon, batches, ...).  The returned dict carries
    everything the report and the smoke test assert on, plus the
    failing reports themselves so a caller can shrink them.
    """
    start = time.perf_counter()
    reports = run_many(
        range(seed, seed + schedules), progress=progress, **world_kwargs
    )
    wall = time.perf_counter() - start

    failures = [r for r in reports if not r.ok]
    fault_counts = Counter(
        e.kind for r in reports if r.schedule for e in r.schedule.events
    )
    return {
        "schedules": len(reports),
        "wall_seconds": wall,
        "schedules_per_sec": len(reports) / wall if wall > 0 else 0.0,
        "pass_rate": (len(reports) - len(failures)) / max(1, len(reports)),
        "failures": failures,
        "batches_sent": sum(r.batches_sent for r in reports),
        "batches_acked": sum(r.batches_acked for r in reports),
        "retries": sum(r.retries for r in reports),
        "virtual_seconds": sum(r.virtual_seconds for r in reports),
        "fault_counts": dict(fault_counts),
    }


def test_sim_sweep_headline():
    out = sim_sweep(SWEEP_SCHEDULES, seed=0)

    assert out["pass_rate"] == 1.0, [
        (r.seed, r.violations) for r in out["failures"]
    ]
    assert out["wall_seconds"] < SWEEP_WALL_BUDGET
    assert out["batches_acked"] == out["batches_sent"]

    faults = out["fault_counts"]
    record(
        "E27",
        "deterministic simulation: 3-replica fleet under seeded faults",
        [
            "schedules",
            "pass rate",
            "wall",
            "sched/sec",
            "virtual time",
            "speedup",
            "acked",
            "retries",
            "faults injected",
        ],
        [
            (
                out["schedules"],
                f"{out['pass_rate'] * 100:.1f}%",
                f"{out['wall_seconds']:.1f}s",
                f"{out['schedules_per_sec']:.1f}",
                f"{out['virtual_seconds']:,.0f}s",
                f"{out['virtual_seconds'] / out['wall_seconds']:.0f}x",
                out["batches_acked"],
                out["retries"],
                sum(faults.values()),
            )
        ],
        notes="Simulation bar: every schedule holds all four invariants "
        "(zero acked loss, exactly-once, byte-identical convergence to "
        "the referee's serial replay, no frozen/broken sketches); the "
        "virtual clock buys a large wall-time speedup over the "
        f"simulated span.  Fault mix: {dict(sorted(faults.items()))}.",
    )


if __name__ == "__main__":
    test_sim_sweep_headline()
