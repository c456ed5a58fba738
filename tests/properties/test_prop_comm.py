"""Property tests for the fault-tolerant referee transport.

Two central properties:

* **Schedule determinism** — the simulated channel is a pure function
  of (traffic, profile, chaos seed): replaying identical sends through
  identically-seeded channels yields byte-identical deliveries round
  by round, and identical fault statistics.
* **Exact recovery** — over *any* seeded lossy channel, a reliable
  referee session that completes reproduces the bit-identical sketch
  state of the ideal one-round protocol; a session that cannot
  complete says so (missing players + degraded flag), never silently.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.referee import RefereeSession
from repro.comm.simultaneous import SpanningForestProtocol
from repro.comm.transport import FaultProfile, SimulatedChannel
from repro.util.retry import RetryPolicy
from repro.graph.generators import random_connected_hypergraph
from repro.sketch.serialization import dump_grid, load_member_state

N = 8

profiles = st.builds(
    FaultProfile,
    loss=st.floats(min_value=0.0, max_value=0.6),
    duplicate=st.floats(min_value=0.0, max_value=0.5),
    reorder=st.floats(min_value=0.0, max_value=1.0),
    corrupt=st.floats(min_value=0.0, max_value=0.4),
    delay=st.floats(min_value=0.0, max_value=0.5),
    max_delay=st.integers(min_value=1, max_value=4),
)

packets = st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=40)


def play(profile, seed, traffic, max_rounds=64):
    """Send all traffic, then drain: the full delivery schedule."""
    ch = SimulatedChannel(profile, seed=seed)
    for data in traffic:
        ch.send(data)
    rounds = []
    for _ in range(max_rounds):
        rounds.append(ch.deliver())
        if ch.in_flight == 0:
            break
    return rounds, ch.stats


class TestScheduleDeterminism:
    @given(profiles, st.integers(min_value=0, max_value=2**63), packets)
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_schedule(self, profile, seed, traffic):
        a = play(profile, seed, traffic)
        b = play(profile, seed, traffic)
        assert a == b

    @given(profiles, st.integers(min_value=0, max_value=2**32), packets)
    @settings(max_examples=30, deadline=None)
    def test_conservation(self, profile, seed, traffic):
        """Every copy is delivered or dropped; nothing invented."""
        rounds, stats = play(profile, seed, traffic)
        delivered = sum(len(r) for r in rounds)
        assert delivered == stats.delivered
        assert delivered + stats.dropped == len(traffic) + stats.duplicated


def _fixed_case():
    h = random_connected_hypergraph(N, 12, r=3, seed=404)
    proto = SpanningForestProtocol(N, r=3, seed=405)
    payloads = {
        v: proto.player_message_bytes(v, sorted(h.incident_edges(v)))
        for v in range(N)
    }
    ideal = proto._fresh_sketch()
    for blob in payloads.values():
        load_member_state(ideal.grid, blob)
    return proto, payloads, dump_grid(ideal.grid)


_PROTO, _PAYLOADS, _IDEAL_STATE = _fixed_case()


class TestExactRecovery:
    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.3),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_reliable_delivery_is_bit_identical_or_flagged(
        self, loss, duplicate, corrupt, chaos_seed
    ):
        profile = FaultProfile(
            loss=loss, duplicate=duplicate, corrupt=corrupt, reorder=0.3
        )
        session = RefereeSession(
            _PROTO,
            profile=profile,
            policy=RetryPolicy(max_restarts=12, backoff_base=0.0, jitter=0.0),
            chaos_seed=chaos_seed,
        )
        res = session.exchange(dict(_PAYLOADS))
        if res.degraded:
            # Honest shortfall: flagged, missing listed, survivors exact.
            assert res.missing_players
            assert not res.confident
            survivors = _PROTO._fresh_sketch()
            for p, blob in _PAYLOADS.items():
                if p not in res.missing_players:
                    load_member_state(survivors.grid, blob)
            assert dump_grid(res.sketch.grid) == dump_grid(survivors.grid)
        else:
            assert res.missing_players == ()
            assert dump_grid(res.sketch.grid) == _IDEAL_STATE

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_session_replay_is_deterministic(self, chaos_seed):
        profile = FaultProfile(loss=0.35, duplicate=0.2, corrupt=0.15,
                               delay=0.2, reorder=0.5)

        def run():
            session = RefereeSession(
                _PROTO,
                profile=profile,
                policy=RetryPolicy(max_restarts=6, backoff_base=0.0,
                                   jitter=0.0),
                chaos_seed=chaos_seed,
            )
            res = session.exchange(dict(_PAYLOADS))
            return (
                res.rounds,
                res.degraded,
                res.missing_players,
                dump_grid(res.sketch.grid),
                res.metrics.to_dict(),
            )

        assert run() == run()
