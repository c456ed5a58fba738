"""Tests for the fault-tolerant multi-round referee session."""

import pytest

from repro.comm.metrics import CommMetrics
from repro.comm.referee import RefereeResult, RefereeSession
from repro.comm.simultaneous import SpanningForestProtocol
from repro.comm.transport import FaultProfile
from repro.util.retry import RetryPolicy
from repro.errors import CommError
from repro.graph.generators import random_connected_hypergraph, random_hypergraph
from repro.sketch.serialization import dump_grid, load_member_state


def make_case(n=14, edges=22, r=3, seed=5):
    h = random_connected_hypergraph(n, edges, r=r, seed=seed)
    proto = SpanningForestProtocol(n, r=r, seed=seed + 1)
    payloads = {
        v: proto.player_message_bytes(v, sorted(h.incident_edges(v)))
        for v in range(n)
    }
    return h, proto, payloads


def ideal_grid_state(proto, payloads) -> bytes:
    sketch = proto._fresh_sketch()
    for blob in payloads.values():
        load_member_state(sketch.grid, blob)
    return dump_grid(sketch.grid)


class TestCleanSession:
    def test_single_round_and_bit_identical_state(self):
        h, proto, payloads = make_case()
        session = RefereeSession(proto)
        res = session.exchange(dict(payloads))
        assert res.rounds == 1
        assert not res.degraded and res.confident
        assert res.missing_players == ()
        assert dump_grid(res.sketch.grid) == ideal_grid_state(proto, payloads)

    def test_verdict_identical_to_run_serialized(self):
        h, proto, payloads = make_case()
        ideal = proto.run_serialized(h)
        res = RefereeSession(proto).run(h)
        assert res.is_connected == ideal.is_connected
        assert res.components == ideal.components
        assert res.result.spanning_graph == ideal.spanning_graph

    def test_disconnected_graph_detected(self):
        h = random_hypergraph(12, 4, r=3, seed=9)
        proto = SpanningForestProtocol(12, r=3, seed=10)
        res = RefereeSession(proto).run(h)
        assert not res.degraded
        assert res.is_connected == h.is_connected()

    def test_no_retransmission_machinery_touched(self):
        _, proto, payloads = make_case()
        res = RefereeSession(proto).exchange(dict(payloads))
        m = res.metrics
        assert m.retransmits == 0
        assert m.retransmit_requests == 0
        assert m.corrupt_rejected == 0
        assert m.duplicates_ignored == 0
        assert m.degraded_answers == 0

    def test_empty_session_raises(self):
        _, proto, _ = make_case()
        with pytest.raises(CommError):
            RefereeSession(proto).exchange({})


@pytest.mark.faults
class TestLossySession:
    PROFILE = FaultProfile(loss=0.25, duplicate=0.15, reorder=0.2,
                           corrupt=0.1, delay=0.15)
    # Deep budget: these tests assert completion under heavy chaos
    # across a seed sweep, so starvation (tested separately in
    # TestDegradedSession) must be out of reach.
    DEEP = RetryPolicy(max_restarts=20, backoff_base=0.0, jitter=0.0)

    def test_recovers_exact_state_over_lossy_channel(self, chaos_seed):
        h, proto, payloads = make_case()
        ideal = ideal_grid_state(proto, payloads)
        for offset in range(5):
            session = RefereeSession(
                proto, profile=self.PROFILE, policy=self.DEEP,
                chaos_seed=chaos_seed * 101 + offset
            )
            res = session.exchange(dict(payloads))
            assert not res.degraded, res.metrics.summary()
            assert dump_grid(res.sketch.grid) == ideal
            assert res.rounds >= 1

    def test_verdict_survives_loss(self, chaos_seed):
        h, proto, payloads = make_case()
        ideal = proto.run_serialized(h)
        session = RefereeSession(proto, profile=self.PROFILE,
                                 policy=self.DEEP,
                                 chaos_seed=chaos_seed + 7)
        res = session.exchange(dict(payloads))
        assert not res.degraded
        assert res.is_connected == ideal.is_connected
        assert res.components == ideal.components

    def test_faults_actually_exercised(self, chaos_seed):
        _, proto, payloads = make_case()
        session = RefereeSession(proto, profile=self.PROFILE,
                                 chaos_seed=chaos_seed)
        res = session.exchange(dict(payloads))
        m = res.metrics
        assert m.uplink.dropped + m.uplink.corrupted + m.uplink.duplicated > 0
        assert m.retransmits > 0 or m.uplink.dropped == 0

    def test_same_chaos_seed_replays_identically(self, chaos_seed):
        _, proto, payloads = make_case()

        def run():
            session = RefereeSession(proto, profile=self.PROFILE,
                                     chaos_seed=chaos_seed)
            res = session.exchange(dict(payloads))
            return (res.rounds, res.missing_players,
                    dump_grid(res.sketch.grid), res.metrics.to_dict())

        assert run() == run()

    def test_duplicates_folded_once(self, chaos_seed):
        _, proto, payloads = make_case()
        profile = FaultProfile(duplicate=0.9)
        session = RefereeSession(proto, profile=profile, chaos_seed=chaos_seed)
        res = session.exchange(dict(payloads))
        assert res.metrics.duplicates_ignored > 0
        assert dump_grid(res.sketch.grid) == ideal_grid_state(proto, payloads)

    def test_corruption_rejected_then_retransmitted(self, chaos_seed):
        _, proto, payloads = make_case()
        profile = FaultProfile(corrupt=0.4)
        # A corrupted NACK burns an attempt too (per-attempt failure
        # ~0.64 at this rate), so give the session a deep budget —
        # this test is about corruption handling, not starvation.
        session = RefereeSession(
            proto,
            profile=profile,
            policy=RetryPolicy(max_restarts=20, backoff_base=0.0, jitter=0.0),
            chaos_seed=chaos_seed,
        )
        res = session.exchange(dict(payloads))
        assert not res.degraded
        assert dump_grid(res.sketch.grid) == ideal_grid_state(proto, payloads)
        if res.metrics.uplink.corrupted:
            assert res.metrics.corrupt_rejected > 0


@pytest.mark.faults
class TestDegradedSession:
    def test_budget_exhaustion_is_flagged(self, chaos_seed):
        _, proto, payloads = make_case()
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=0.95),
            policy=RetryPolicy(max_restarts=1, backoff_base=0.0, jitter=0.0),
            chaos_seed=chaos_seed,
        )
        res = session.exchange(dict(payloads))
        assert res.degraded and not res.confident
        assert res.missing_players
        assert res.result.missing_players == res.missing_players
        assert res.metrics.degraded_answers == 1
        assert res.metrics.missing_players == len(res.missing_players)
        assert "DEGRADED" in res.summary()

    def test_survivor_columns_are_exact(self, chaos_seed):
        """Degraded state must equal the ideal fold of exactly the
        surviving players — no partial or double folds."""
        _, proto, payloads = make_case()
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=0.8, duplicate=0.3),
            policy=RetryPolicy(max_restarts=1, backoff_base=0.0, jitter=0.0),
            chaos_seed=chaos_seed,
        )
        res = session.exchange(dict(payloads))
        survivors = {p: payloads[p] for p in payloads
                     if p not in res.missing_players}
        assert set(res.missing_players).isdisjoint(survivors)
        sketch = proto._fresh_sketch()
        for blob in survivors.values():
            load_member_state(sketch.grid, blob)
        assert dump_grid(res.sketch.grid) == dump_grid(sketch.grid)

    def test_round_deadline_caps_protocol(self, chaos_seed):
        _, proto, payloads = make_case()
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=0.9),
            policy=RetryPolicy(max_restarts=50, backoff_base=0.0, jitter=0.0),
            chaos_seed=chaos_seed,
            max_rounds=3,
        )
        res = session.exchange(dict(payloads))
        assert res.rounds <= 3
        if res.missing_players:
            assert res.degraded

    def test_total_blackout_answers_all_missing(self, chaos_seed):
        _, proto, payloads = make_case()
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=1.0),
            policy=RetryPolicy(max_restarts=2, backoff_base=0.0, jitter=0.0),
            chaos_seed=chaos_seed,
        )
        res = session.exchange(dict(payloads))
        assert res.degraded
        assert res.missing_players == tuple(sorted(payloads))
        assert res.result.players == 0


class TestPolicyIntegration:
    def test_backoff_schedule_accounted(self):
        _, proto, payloads = make_case()
        policy = RetryPolicy(max_restarts=3, backoff_base=0.5,
                             backoff_factor=2.0, backoff_max=10.0, jitter=0.0)
        slept = []
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=0.6),
            policy=policy,
            chaos_seed=2,
            sleep=slept.append,
        )
        res = session.exchange(dict(payloads))
        if res.metrics.retransmit_requests:
            assert res.metrics.backoff_seconds == pytest.approx(sum(slept))
            assert res.metrics.backoff_seconds > 0

    def test_no_sleep_by_default(self):
        """Without a sleep callable the schedule is only accounted."""
        _, proto, payloads = make_case()
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=0.5),
            policy=RetryPolicy(max_restarts=4, backoff_base=0.25, jitter=0.0),
            chaos_seed=3,
        )
        res = session.exchange(dict(payloads))
        if res.metrics.retransmit_requests:
            assert res.metrics.backoff_seconds > 0


class TestAuditAndCertify:
    def test_audited_clean_session(self):
        h, proto, payloads = make_case()
        session = RefereeSession(proto, audit=True)
        res = session.exchange(dict(payloads))
        assert res.audit_report is not None
        assert res.audit_report.ok

    def test_certified_connected_answer(self):
        h, proto, payloads = make_case()
        session = RefereeSession(proto, certify=True)
        res = session.exchange(dict(payloads))
        assert res.certificate is not None
        assert res.certificate.verified
        assert "VERIFIED" in res.summary()

    @pytest.mark.faults
    def test_certified_over_lossy_channel(self, chaos_seed):
        h, proto, payloads = make_case()
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=0.3),
            policy=RetryPolicy(max_restarts=16, backoff_base=0.0, jitter=0.0),
            chaos_seed=chaos_seed,
            certify=True,
        )
        res = session.exchange(dict(payloads))
        assert not res.degraded
        assert res.certificate.verified


class TestMetricsShape:
    def test_to_json_round_trips(self):
        import json

        _, proto, payloads = make_case()
        session = RefereeSession(proto, profile=FaultProfile(loss=0.3),
                                 chaos_seed=1)
        session.exchange(dict(payloads))
        blob = json.loads(session.metrics.to_json())
        assert blob["players"] == len(payloads)
        assert blob["uplink"]["sent"] >= len(payloads)
        assert "downlink" in blob

    def test_summary_mentions_recovery(self):
        _, proto, payloads = make_case()
        session = RefereeSession(proto, profile=FaultProfile(loss=0.4),
                                 chaos_seed=5)
        res = session.exchange(dict(payloads))
        text = session.metrics.summary()
        assert "uplink" in text
        if res.metrics.retransmits:
            assert "retransmits" in text

    def test_external_metrics_object_used(self):
        _, proto, payloads = make_case()
        metrics = CommMetrics()
        session = RefereeSession(proto, metrics=metrics)
        res = session.exchange(dict(payloads))
        assert res.metrics is metrics
        assert metrics.accepted == len(payloads)
