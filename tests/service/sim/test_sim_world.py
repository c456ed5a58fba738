"""Whole-fleet simulation: seeded schedules, invariants, shrinking.

The expensive sweeps live in ``python -m repro sim``; these tests pin
the harness's contract with a handful of schedules each:

* clean and faulty seeds hold every invariant,
* a seed replays to a byte-identical report (determinism),
* an explicit schedule (kill + lost-ack stall) is survived,
* the E25 and E26 fault shapes (repeated SIGKILLs of a lone node;
  primary kills plus link faults on a 3-replica fleet) land on live
  traffic and still converge to the serial replay,
* a given schedule boots the fleet size it names,
* a deliberately re-broken ENOSPC path is *caught* and the failing
  schedule *shrinks* to the one ``wal_full`` event that matters —
  the harness can find the bug class it was built for.
"""

import json

import pytest

from repro.errors import WALError
from repro.service import registry as registry_mod
from repro.service.sim import (
    FaultEvent,
    FaultSchedule,
    SimReport,
    SimWorld,
    generate_schedule,
    run_one,
    shrink_failure,
)
from repro.service.sim import world as world_mod

pytestmark = pytest.mark.simfaults


class TestSchedules:
    def test_seeded_schedules_round_trip_json(self):
        sched = generate_schedule(7134, replicas=3)
        again = FaultSchedule.from_json(sched.to_json())
        assert again == sched
        assert generate_schedule(7134, replicas=3) == sched

    def test_quiet_world_holds_invariants(self):
        report = run_one(seed=0, schedule=FaultSchedule(0, 3, []))
        assert report.ok, report.violations
        assert report.batches_acked == report.batches_sent == 8

    def test_seeded_faulty_worlds_hold_invariants(self):
        for seed in (1, 2, 3):
            report = run_one(seed=seed)
            assert report.ok, (seed, report.violations)
            assert report.batches_acked == report.batches_sent

    def test_seed_replay_is_deterministic(self):
        a = json.dumps(run_one(seed=42).to_dict(), sort_keys=True)
        b = json.dumps(run_one(seed=42).to_dict(), sort_keys=True)
        assert a == b

    def test_explicit_kill_plus_lost_acks_schedule(self):
        # One replica SIGKILLed mid-run, another has its acks eaten for
        # two virtual seconds: quorum + dedup + WAL replay must hold.
        schedule = FaultSchedule(99, 3, [
            FaultEvent(at=1.0, kind="stall_out", replica=1, duration=2.0),
            FaultEvent(at=2.0, kind="kill", replica=0, duration=1.5),
        ])
        report = run_one(seed=99, schedule=schedule)
        assert report.ok, report.violations
        assert report.events == report.batches_acked * 48

    def test_power_loss_with_always_fsync_loses_nothing_acked(self):
        schedule = FaultSchedule(123, 3, [
            FaultEvent(at=2.5, kind="power_loss", replica=2, duration=1.0),
        ])
        report = run_one(seed=123, schedule=schedule)
        assert report.ok, report.violations


class _WalOnlyRecoveryWorld(SimWorld):
    """Records, after every kill, whether the restarted node rebuilt
    its sketch without any checkpoint (create + WAL records alone)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recoveries = []

    async def _apply_event(self, event):
        await super()._apply_event(event)
        if event.kind == "kill":
            registry = self.replicas[event.replica].server.registry
            for record in registry.records():
                self.recoveries.append(
                    (record.last_checkpoint_events, record.replayed))


class TestServiceFaultShapes:
    """E25 and E26 as fault schedules.  Kills outlast the client's own
    retry budget, so the coordinator has to resend batches under their
    original stamps, and every resend must still fold exactly once."""

    SEEDS = range(12)

    @staticmethod
    def e25_schedule(seed):
        # A lone WAL-backed node SIGKILLed three times under traffic;
        # the first kill lands before the 2.5 s checkpoint cron.
        return FaultSchedule(seed, 1, [
            FaultEvent(at=0.5, kind="kill", replica=0, duration=2.0),
            FaultEvent(at=3.5, kind="kill", replica=0, duration=2.0),
            FaultEvent(at=6.5, kind="kill", replica=0, duration=2.0),
        ])

    @staticmethod
    def e26_schedule(seed):
        # Replica 0 is killed twice, each time while replica 2's link
        # is faulted, so quorum fails and the coordinator resends.
        return FaultSchedule(seed, 3, [
            FaultEvent(at=0.5, kind="kill", replica=0, duration=1.5),
            FaultEvent(at=0.5, kind="stall_out", replica=2, duration=6.0),
            FaultEvent(at=4.0, kind="reset_conns", replica=2),
            FaultEvent(at=7.5, kind="kill", replica=0, duration=1.5),
            FaultEvent(at=7.5, kind="stall_in", replica=2, duration=6.0),
        ])

    def test_e25_repeated_sigkill_of_one_node(self):
        reports = []
        for seed in self.SEEDS:
            world = _WalOnlyRecoveryWorld(
                seed, schedule=self.e25_schedule(seed))
            report = world.run()
            assert report.ok, (seed, report.violations)
            assert report.events == report.batches_acked * 48
            # The first restart found no checkpoint: WAL replay alone
            # rebuilt the acked prefix.
            last_checkpoint_events, replayed = world.recoveries[0]
            assert last_checkpoint_events == -1 and replayed >= 1
            reports.append(report)
        assert sum(r.retries for r in reports) > 0

    def test_e26_primary_kills_plus_link_faults(self):
        reports = [
            run_one(seed, schedule=self.e26_schedule(seed))
            for seed in self.SEEDS
        ]
        for report in reports:
            assert report.ok, (report.seed, report.violations)
            assert report.events == report.batches_acked * 48
        assert sum(r.retries for r in reports) > 0


class _CountingWorld(SimWorld):
    fleets = []

    def run(self):
        report = super().run()
        self.fleets.append(len(self.replicas))
        return report


class TestScheduleFleetSize:
    def test_replayed_schedule_boots_the_fleet_it_names(self, monkeypatch):
        monkeypatch.setattr(world_mod, "SimWorld", _CountingWorld)
        monkeypatch.setattr(_CountingWorld, "fleets", [])
        schedule = FaultSchedule.from_json(
            generate_schedule(5, replicas=1).to_json())
        assert schedule.replicas == 1
        assert run_one(5, schedule=schedule).ok
        # The shrinker re-runs sub-schedules of a failing report.
        two = schedule.replace_events([
            FaultEvent(at=1.0, kind="kill", replica=0, duration=0.5),
            FaultEvent(at=3.0, kind="kill", replica=0, duration=0.5),
        ])
        shrink_failure(SimReport(seed=5, ok=False, schedule=two))
        assert len(_CountingWorld.fleets) > 1
        assert set(_CountingWorld.fleets) == {1}


class _FlapWorld(SimWorld):
    """Every odd batch deletes exactly what the batch before inserted,
    so a replica that misses a whole pair misses traffic netting to
    zero: same counters as its peers, smaller event offset."""

    def _batch(self):
        if self.report.batches_sent % 2 == 0:
            self._inserted = super()._batch()
            return self._inserted
        us, vs, signs = self._inserted
        return us, vs, [-s for s in signs]


class TestOffsetOnlyDivergence:
    def test_replica_that_missed_net_zero_traffic_converges(self):
        # Replica 2 is unreachable for the whole run: the quorum of two
        # folds an insert batch and its delete, replica 2 folds nothing.
        # Fingerprints agree (all-zero counters), offsets are 96 vs 0:
        # anti-entropy must align the offset, not give up.
        schedule = FaultSchedule(5, 3, [
            FaultEvent(at=0.0, kind="block", replica=2, duration=8.0),
        ])
        report = _FlapWorld(seed=5, batches=2, schedule=schedule).run()
        assert report.ok, report.violations
        assert report.events == report.batches_acked * 48 == 96


class _BrokenWalCommit:
    """Re-break wal_commit the way it was before the ENOSPC fix:
    a full disk marks the sketch wal-broken forever (no rollback,
    no typed retryable error)."""

    def __enter__(self):
        self._saved = registry_mod.SketchRegistry.wal_commit

        def broken(reg, record, kind, payload, client, request, count):
            meta = {"client": client, "request": request,
                    "count": int(count)}
            if record.wal is not None:
                try:
                    record.wal.append(record.seq + 1, kind, meta, payload)
                except Exception as exc:
                    record.wal_broken = True
                    raise WALError(str(exc)) from exc
                record.seq += 1
            record.dedup.add(client, request, count, record.events)
            return record.seq

        registry_mod.SketchRegistry.wal_commit = broken
        return self

    def __exit__(self, *exc):
        registry_mod.SketchRegistry.wal_commit = self._saved


class TestRegressionCatching:
    #: A schedule (from the 1000-seed sweep) whose wal_full event
    #: lands while writes are still flowing.
    SCHEDULE = FaultSchedule(17, 3, [
        FaultEvent(at=1.5, kind="wal_full", replica=2, duration=1.3),
    ])

    def test_fixed_code_survives_the_full_disk(self):
        report = run_one(seed=17, schedule=self.SCHEDULE)
        assert report.ok, report.violations

    def test_reverted_enospc_fix_is_caught_and_shrunk(self):
        with _BrokenWalCommit():
            # Catch: the sweep-found seed fails its invariants.
            report = run_one(seed=17)
            assert not report.ok
            assert any("wal-broken" in v or "stuck" in v or
                       "divergence" in v or "differs" in v
                       for v in report.violations), report.violations
            # Shrink: ddmin pares the schedule down to a minimal
            # reproducer that still contains the disk-full event.
            minimal = shrink_failure(report)
            assert 1 <= len(minimal.events) <= len(report.schedule.events)
            assert any(e.kind == "wal_full" for e in minimal.events)
            # The minimal schedule is replayable stand-alone.
            replay = FaultSchedule.from_json(minimal.to_json())
            assert not run_one(seed=17, schedule=replay).ok
