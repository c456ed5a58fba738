"""Seeded fault schedules and a delta-debugging shrinker.

A **schedule** is the entire plan of misfortune for one simulated run:
a list of :class:`FaultEvent` rows saying *when* (virtual seconds)
*what* (kill, power loss, lost disk, partition, full disk, connection
resets) happens to *which* replica, and for how long.  Schedules are
pure data derived from a seed — the same seed always generates the
same events, and :func:`FaultSchedule.to_json` /
:func:`FaultSchedule.from_json` round-trip them so a failure found in
a thousand-schedule sweep can be replayed (and committed as a
regression test) verbatim.

When a schedule fails an invariant, :func:`shrink` runs classic ddmin
over the event list: it re-executes the world with ever-smaller
subsets of the events (workload and seed held fixed) and returns the
minimal subset that still fails.  A ten-event pile-up usually shrinks
to the one or two events that actually matter, which is the difference
between "seed 7134 fails" and a bug report a human can read.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

__all__ = ["FaultEvent", "FaultSchedule", "generate_schedule", "shrink"]

#: Fault vocabulary.  ``kill`` is SIGKILL + restart after ``duration``;
#: ``power_loss`` additionally drops unsynced bytes; ``stall_in`` /
#: ``stall_out`` / ``stall_both`` blackhole one or both directions of a
#: replica's traffic for ``duration``; ``block`` refuses its port
#: entirely; ``reset_conns`` RSTs live connections once; ``wal_full``
#: caps the replica's disk for ``duration``; ``disk_loss`` is a kill
#: whose replica comes back on a blank disk, without its checkpoints
#: and WAL.
KINDS = (
    "kill",
    "power_loss",
    "disk_loss",
    "stall_in",
    "stall_out",
    "stall_both",
    "block",
    "reset_conns",
    "wal_full",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled misfortune: ``kind`` hits ``replica`` at ``at``."""

    at: float
    kind: str
    replica: int
    duration: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "at": round(self.at, 6),
            "kind": self.kind,
            "replica": self.replica,
            "duration": round(self.duration, 6),
        }


@dataclass
class FaultSchedule:
    """A seed's full misfortune plan plus the knobs that shaped it."""

    seed: int
    replicas: int
    events: List[FaultEvent] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "replicas": self.replicas,
            "events": [e.to_dict() for e in self.events],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        raw = json.loads(text)
        return cls(
            seed=int(raw["seed"]),
            replicas=int(raw["replicas"]),
            events=[
                FaultEvent(
                    at=float(e["at"]), kind=str(e["kind"]),
                    replica=int(e["replica"]),
                    duration=float(e.get("duration", 0.0)),
                )
                for e in raw["events"]
            ],
        )

    def replace_events(self, events: Sequence[FaultEvent]) -> "FaultSchedule":
        return FaultSchedule(self.seed, self.replicas, list(events))


def generate_schedule(
    seed: int,
    replicas: int = 3,
    horizon: float = 8.0,
    max_events: int = 4,
) -> FaultSchedule:
    """Derive a schedule from a seed: 1..max_events seeded misfortunes.

    Kills and stalls are weighted up — they are the faults the
    replication layer exists to survive; power loss and full disks are
    rarer, like life.  Events land in the first ~70% of the horizon so
    the tail of the run exercises recovery, not just injury.  A fleet
    may lose at most one disk: the write quorum keeps each acked batch
    on another replica.
    """
    rng = random.Random(seed * 2654435761 % (1 << 31))
    weights = {
        "kill": 5, "stall_out": 4, "stall_in": 3, "stall_both": 3,
        "block": 3, "reset_conns": 3, "wal_full": 2, "power_loss": 1,
    }
    kinds = [k for k, w in weights.items() for _ in range(w)]

    def draw(kind: str) -> FaultEvent:
        return FaultEvent(
            at=round(rng.uniform(0.2, horizon * 0.7), 3),
            kind=kind,
            replica=rng.randrange(replicas),
            duration=round(rng.uniform(0.5, horizon * 0.4), 3),
        )

    events = [draw(rng.choice(kinds)) for _ in range(rng.randint(1, max_events))]
    if replicas > 1 and rng.random() < 0.25:
        events.append(draw("disk_loss"))
    events.sort(key=lambda e: (e.at, e.replica, e.kind))
    return FaultSchedule(seed=seed, replicas=replicas, events=events)


def shrink(
    schedule: FaultSchedule,
    fails: Callable[[FaultSchedule], bool],
) -> FaultSchedule:
    """ddmin the event list to a minimal still-failing schedule.

    ``fails`` re-runs the world under the candidate schedule and
    returns True when the invariant violation reproduces.  The
    returned schedule is 1-minimal: removing any single remaining
    event makes the failure vanish.  Cost is O(n log n .. n^2) world
    re-runs, which virtual time makes affordable.
    """
    events = list(schedule.events)
    if not events:
        return schedule
    chunks = 2
    while len(events) >= 2:
        size = max(1, len(events) // chunks)
        reduced = False
        for start in range(0, len(events), size):
            candidate = events[:start] + events[start + size:]
            if not candidate:
                continue
            if fails(schedule.replace_events(candidate)):
                events = candidate
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if size <= 1:
                break
            chunks = min(len(events), chunks * 2)
    # Final 1-minimality pass: try dropping each survivor alone.
    for event in list(events):
        candidate = [e for e in events if e is not event]
        if candidate and fails(schedule.replace_events(candidate)):
            events = candidate
    return schedule.replace_events(events)
