"""Deterministic simulation of the replicated sketch service.

FoundationDB-style testing for the fleet: the production servers,
clients, and coordinator run unmodified on a **virtual-time event
loop** with a **simulated network** and **simulated disks**, while a
seeded fault schedule injects crashes, power cuts, lost disks,
partitions, resets, and full disks.  Virtual time makes each
multi-second scenario run in milliseconds; seeding makes every run
exactly replayable; the shrinker turns any failure into a minimal
reproducer.

Quick start::

    from repro.service.sim import run_one, run_many, shrink_failure

    report = run_one(seed=7134)       # one schedule, full invariants
    reports = run_many(range(1000))   # a sweep
    bad = [r for r in reports if not r.ok]
    if bad:
        minimal = shrink_failure(bad[0])
        print(minimal.to_json())      # commit this as a regression

or from the command line::

    python -m repro sim --schedules 1000 --seed 0
"""

from .fs import SimFilesystem
from .loop import SimClock, SimDeadlockError, SimEventLoop
from .net import SimNetwork
from .schedule import (
    FaultEvent,
    FaultSchedule,
    generate_schedule,
    shrink,
)
from .world import SimReport, SimWorld, run_many, run_one, shrink_failure

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "SimClock",
    "SimDeadlockError",
    "SimEventLoop",
    "SimFilesystem",
    "SimNetwork",
    "SimReport",
    "SimWorld",
    "generate_schedule",
    "run_many",
    "run_one",
    "shrink",
    "shrink_failure",
]
