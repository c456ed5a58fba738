"""The simulated world: a whole replica fleet on one virtual-time loop.

:class:`SimWorld` boots N real :class:`~repro.service.server.
SketchServer` instances — real registries, real WALs, real dedup
windows, real anti-entropy — with every seam swapped for its simulated
twin: :class:`~repro.service.sim.loop.SimClock` for time,
:class:`~repro.service.sim.net.SimNetwork` for bytes,
:class:`~repro.service.sim.fs.SimFilesystem` (one per node) for disks,
and an inline offload so nothing ever leaves the single thread.  A
seeded :class:`~repro.service.sim.schedule.FaultSchedule` then rains
kills, power cuts, lost disks, partitions, resets, and full disks on
the fleet while a coordinator drives stamped quorum writes through the
ordinary :class:`~repro.service.replication.ReplicaSet` path.

Because time is virtual, an eight-virtual-second run of three servers
plus crash-recovery completes in tens of milliseconds of wall clock —
thousands of distinct fault schedules per minute, each fully
deterministic from its seed.

After every schedule the world checks the paper's strongest promises:

* **No acked write is lost** — every batch the coordinator got a
  quorum ack for is present exactly once in the converged state.
* **Exactly-once** — retries, duplicated acks, and WAL replays never
  double-apply: total event count equals batches x batch size.
* **Byte-identical convergence** — after anti-entropy, every replica's
  serialized sketch equals a *referee* built by serially replaying the
  acked batches on an unfaulted server (linearity is the oracle).
* **No stuck state** — no sketch left frozen or wal-broken once the
  faults have healed.

A violation reports the seed; :func:`run_one` re-runs it, and
:func:`shrink_failure` delta-debugs the schedule to a minimal
reproducer suitable for a regression test.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...errors import ReproError
from ...util.retry import RetryPolicy
from ..registry import SketchRegistry
from ..replication import ReplicaSet
from ..server import SketchServer
from .fs import SimFilesystem
from .loop import SimClock, SimDeadlockError, SimEventLoop
from .schedule import FaultEvent, FaultSchedule, generate_schedule, shrink

__all__ = [
    "SimReport", "SimWorld", "run_one", "run_many", "shrink_failure",
]

_BASE_PORT = 9100
_SKETCH = "sim"


async def _inline(fn, *args, **kwargs):
    """The offload seam under simulation: run it right here, right now."""
    return fn(*args, **kwargs)


@dataclass
class SimReport:
    """What one simulated schedule did and whether the world held."""

    seed: int
    ok: bool
    violations: List[str] = field(default_factory=list)
    batches_acked: int = 0
    batches_sent: int = 0
    retries: int = 0
    events: int = 0
    schedule: Optional[FaultSchedule] = None
    virtual_seconds: float = 0.0
    #: What the final anti-entropy pass had to do: WAL records
    #: re-sent, replicas repaired by a copy, sketches restored.
    wal_resent: int = 0
    repaired: int = 0
    restored: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "batches_acked": self.batches_acked,
            "batches_sent": self.batches_sent,
            "retries": self.retries,
            "events": self.events,
            "virtual_seconds": round(self.virtual_seconds, 3),
            "wal_resent": self.wal_resent,
            "repaired": self.repaired,
            "restored": self.restored,
            "schedule": (
                [e.to_dict() for e in self.schedule.events]
                if self.schedule else []
            ),
        }


class _SimReplica:
    """One simulated node: its own disk, a restartable server on it."""

    def __init__(self, world: "SimWorld", index: int):
        self.world = world
        self.index = index
        self.port = _BASE_PORT + index
        self.fs = SimFilesystem()
        self.data_dir = f"/r{index}/data"  # checkpoints and WAL
        self.server: Optional[SketchServer] = None
        self.up = False
        self.restarts = 0

    def _registry(self) -> SketchRegistry:
        return SketchRegistry(
            checkpoint_dir=self.data_dir,
            wal=True,
            wal_fsync="always",
            fs=self.fs,
            clock=self.world.clock,
        )

    async def start(self, resume: bool) -> None:
        if self.up:
            return
        server = SketchServer(
            self._registry(),
            host="sim", port=self.port,
            checkpoint_interval=2.5,
            snapshot_interval=0.0,
            resume=resume,
            clock=self.world.clock,
            network=self.world.network,
            offload=_inline,
        )
        await server.start()
        self.server = server
        self.up = True

    async def kill(self, power: bool = False) -> None:
        """SIGKILL (optionally with the power cord): no goodbyes.

        The disk is crashed *first* so the dying process's cancelled
        tasks cannot flush anything from their ``finally`` blocks,
        then every task and connection belonging to the node is torn
        down.
        """
        if not self.up or self.server is None:
            return
        self.up = False
        self.restarts += 1
        server, self.server = self.server, None
        self.fs.process_crash(self.world.schedule_rng)
        if power:
            self.fs.power_loss()
        if server._server is not None:
            server._server.close()
        self.world.network.reset_port(self.port)
        doomed = list(server._cron_tasks) + list(server._sessions)
        for task in doomed:
            task.cancel()
        for task in doomed:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass


class SimWorld:
    """One deterministic run: fleet + coordinator + fault schedule."""

    def __init__(
        self,
        seed: int,
        replicas: int = 3,
        batches: int = 8,
        batch_edges: int = 48,
        n: int = 16,
        schedule: Optional[FaultSchedule] = None,
        horizon: float = 8.0,
    ):
        import random

        self.seed = seed
        self.horizon = horizon
        #: A given schedule names its own fleet size; ``replicas`` only
        #: shapes a generated one.
        self.schedule = schedule if schedule is not None else (
            generate_schedule(seed, replicas=replicas, horizon=horizon)
        )
        #: Workload randomness is per-seed but INDEPENDENT of the
        #: schedule events, so the shrinker can drop events while the
        #: traffic stays identical.
        self.workload_rng = random.Random(seed * 7919 + 17)
        self.schedule_rng = random.Random(seed * 104729 + 3)
        self.batches = batches
        self.batch_edges = batch_edges
        self.n = n
        self.replica_count = self.schedule.replicas
        self.report = SimReport(seed=seed, ok=True, schedule=self.schedule)
        # Bound late: these need a running (virtual) loop.
        self.clock: SimClock = None  # type: ignore[assignment]
        self.network = None
        self.replicas: List[_SimReplica] = []

    def _config(self) -> Dict[str, object]:
        """A deliberately compact sketch: the invariants compare bytes,
        not connectivity accuracy, and a small table keeps checkpoint /
        dump / repair traffic proportionate to a fast schedule."""
        return {
            "n": self.n, "seed": self.seed % 1000,
            "rows": 2, "buckets": 4, "rounds": 2, "levels": 3,
        }

    # -- fault application ----------------------------------------------

    async def _apply_event(self, event: FaultEvent) -> None:
        replica = self.replicas[event.replica % len(self.replicas)]
        port = replica.port
        if event.kind in ("kill", "power_loss", "disk_loss"):
            await replica.kill(power=event.kind == "power_loss")
            if event.kind == "disk_loss":
                replica.fs.wipe(replica.data_dir)
            await self.clock.sleep(max(0.2, event.duration))
            await replica.start(resume=True)
        elif event.kind == "stall_in":
            self.network.stall(port, "in")
            await self.clock.sleep(event.duration)
            self.network.heal(port)
        elif event.kind == "stall_out":
            self.network.stall(port, "out")
            await self.clock.sleep(event.duration)
            self.network.heal(port)
        elif event.kind == "stall_both":
            self.network.stall(port, "both")
            await self.clock.sleep(event.duration)
            self.network.heal(port)
        elif event.kind == "block":
            self.network.block(port)
            await self.clock.sleep(event.duration)
            self.network.heal(port)
        elif event.kind == "reset_conns":
            self.network.reset_port(port)
        elif event.kind == "wal_full":
            replica.fs.set_capacity(replica.fs.used_bytes() + 256)
            await self.clock.sleep(event.duration)
            replica.fs.set_capacity(None)
        else:  # pragma: no cover - schedule vocabulary is closed
            raise ReproError(f"unknown fault kind {event.kind!r}")

    async def _fault_task(self) -> None:
        started = self.clock.monotonic()
        pending = sorted(self.schedule.events, key=lambda e: e.at)
        tasks = []
        for event in pending:
            delay = started + event.at - self.clock.monotonic()
            if delay > 0:
                await self.clock.sleep(delay)
            tasks.append(asyncio.ensure_future(self._apply_event(event)))
        for task in tasks:
            try:
                await task
            except Exception as exc:  # pragma: no cover - harness bug
                self.report.violations.append(f"fault task crashed: {exc!r}")

    # -- workload --------------------------------------------------------

    def _batch(self):
        rng = self.workload_rng
        us, vs, signs = [], [], []
        for _ in range(self.batch_edges):
            u = rng.randrange(self.n)
            v = rng.randrange(self.n)
            if u == v:
                v = (v + 1) % self.n
            us.append(min(u, v))
            vs.append(max(u, v))
            signs.append(1)
        return us, vs, signs

    async def _drive(self, rs: ReplicaSet) -> List[tuple]:
        """Send stamped batches; retry each one until it is acked.

        Returns the acked batches in send order — the referee's replay
        script.  A batch that cannot be acked within the attempt bound
        is a violation (the fleet never healed enough for quorum).
        """
        acked = []
        gap = self.horizon / max(1, self.batches)
        for _ in range(self.batches):
            us, vs, signs = self._batch()
            stamp = rs.next_stamp()
            self.report.batches_sent += 1
            for attempt in range(60):
                try:
                    await rs.ingest_pairs(_SKETCH, us, vs, signs, stamp=stamp)
                    acked.append((us, vs, signs))
                    self.report.batches_acked += 1
                    break
                except (ReproError, OSError):
                    self.report.retries += 1
                    await self.clock.sleep(0.25)
            else:
                self.report.violations.append(
                    f"workload stuck: batch {stamp['request']} never acked"
                )
                return acked
            await self.clock.sleep(gap)
        return acked

    # -- invariants ------------------------------------------------------

    async def _check_invariants(self, rs: ReplicaSet, acked) -> None:
        report = self.report
        # The run is over: heal everything, resurrect the dead, and
        # give anti-entropy a healthy fleet to converge.
        for replica in self.replicas:
            self.network.heal(replica.port)
            replica.fs.set_capacity(None)
            if not replica.up:
                await replica.start(resume=True)
        try:
            repair = await rs.anti_entropy(_SKETCH, max_rounds=6)
        except ReproError as exc:
            report.violations.append(f"anti-entropy did not converge: {exc}")
            return
        report.wal_resent = repair["wal_resent"]
        report.repaired = repair["repaired"]
        report.restored = repair["restored"]

        dumps = []
        for i, client in enumerate(rs.clients):
            try:
                events, blob = await client.dump(_SKETCH)
            except (ReproError, OSError) as exc:
                report.violations.append(f"replica {i} dump failed: {exc}")
                return
            dumps.append((events, blob))
        for i, (events, blob) in enumerate(dumps[1:], start=1):
            if blob != dumps[0][1]:
                report.violations.append(
                    f"divergence after repair: replica {i} != replica 0"
                )
            if events != dumps[0][0]:
                report.violations.append(
                    f"event-count divergence: replica {i} has {events}, "
                    f"replica 0 has {dumps[0][0]}"
                )

        # Exactly-once: converged event count == acked batches x size.
        expected = len(acked) * self.batch_edges
        report.events = dumps[0][0]
        if dumps[0][0] != expected:
            report.violations.append(
                f"acked-write accounting broken: {dumps[0][0]} events "
                f"applied, {expected} acked (lost or double-applied)"
            )

        # The referee: an unfaulted server serially replaying the acked
        # batches.  Linearity says its bytes are THE correct answer.
        referee = _SimReplica(self, self.replica_count)
        await referee.start(resume=False)
        ref_rs = ReplicaSet(
            [("sim", referee.port)], timeout=5.0,
            retry=RetryPolicy(max_restarts=2, backoff_base=0.01,
                              backoff_max=0.05, jitter_seed=self.seed),
            client_id=f"sim-{self.seed}-referee",
            clock=self.clock, network=self.network,
        )
        try:
            await ref_rs.create(_SKETCH, **self._config())
            for us, vs, signs in acked:
                await ref_rs.ingest_pairs(_SKETCH, us, vs, signs)
            ref_events, ref_blob = await ref_rs.clients[0].dump(_SKETCH)
        finally:
            await ref_rs.close(drain_background=0.1)
        if ref_blob != dumps[0][1]:
            report.violations.append(
                "converged state differs from serial replay of acked "
                "batches (byte comparison)"
            )
        if ref_events != dumps[0][0]:
            report.violations.append(
                f"event count {dumps[0][0]} != serial replay {ref_events}"
            )

        # Nothing left frozen or broken now that the faults are healed.
        for replica in self.replicas:
            for record in replica.server.registry.records():
                if record.frozen:
                    report.violations.append(
                        f"replica {replica.index}: sketch "
                        f"{record.name!r} stuck frozen"
                    )
                if record.wal_broken:
                    report.violations.append(
                        f"replica {replica.index}: sketch "
                        f"{record.name!r} left wal-broken"
                    )

    # -- entry point -----------------------------------------------------

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        assert isinstance(loop, SimEventLoop), "SimWorld needs SimEventLoop"
        import random

        self.clock = SimClock(loop)
        from .net import SimNetwork

        self.network = SimNetwork(random.Random(self.seed * 31 + 7))
        self.replicas = [
            _SimReplica(self, i) for i in range(self.replica_count)
        ]
        for replica in self.replicas:
            await replica.start(resume=False)
        rs = ReplicaSet(
            [("sim", r.port) for r in self.replicas],
            timeout=1.0,
            retry=RetryPolicy(
                max_restarts=4, backoff_base=0.05, backoff_factor=2.0,
                backoff_max=0.4, jitter=0.25, jitter_seed=self.seed,
            ),
            client_id=f"sim-{self.seed}",
            clock=self.clock, network=self.network,
        )
        try:
            await rs.create(_SKETCH, **self._config())
            faults = asyncio.ensure_future(self._fault_task())
            acked = await self._drive(rs)
            await faults
            await self._check_invariants(rs, acked)
        finally:
            await rs.close(drain_background=0.1)
        self.report.ok = not self.report.violations

    def run(self) -> SimReport:
        """Execute the schedule on a fresh virtual-time loop."""
        loop = SimEventLoop()
        try:
            loop.run_until_complete(self._main())
        except SimDeadlockError as exc:
            self.report.violations.append(f"deadlock: {exc}")
            self.report.ok = False
        finally:
            self.report.virtual_seconds = loop.time()
            try:
                _cancel_all(loop)
            finally:
                loop.close()
        return self.report


def _cancel_all(loop: SimEventLoop) -> None:
    """Tear down stragglers (parked quorum tasks, crons) cleanly."""
    pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
    for task in pending:
        task.cancel()
    if pending:
        try:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        except (SimDeadlockError, RuntimeError):  # pragma: no cover
            pass


def run_one(
    seed: int,
    schedule: Optional[FaultSchedule] = None,
    **world_kwargs,
) -> SimReport:
    """One seed, one world, one report."""
    return SimWorld(seed, schedule=schedule, **world_kwargs).run()


def run_many(
    seeds, progress=None, **world_kwargs,
) -> List[SimReport]:
    """Sweep a seed range; ``progress(done, report)`` after each."""
    reports = []
    for done, seed in enumerate(seeds, start=1):
        report = run_one(seed, **world_kwargs)
        reports.append(report)
        if progress is not None:
            progress(done, report)
    return reports


def shrink_failure(report: SimReport, **world_kwargs) -> FaultSchedule:
    """ddmin a failing report's schedule to a minimal reproducer.

    Re-runs the world (same seed, same workload) under candidate
    sub-schedules; an event survives only if the failure needs it.
    """
    if report.ok or report.schedule is None:
        raise ValueError("can only shrink a failing report")

    def fails(candidate: FaultSchedule) -> bool:
        return not run_one(
            report.seed, schedule=candidate, **world_kwargs
        ).ok

    return shrink(report.schedule, fails)
