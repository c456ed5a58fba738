"""Reconnect backoff: bounded, overflow-proof, deterministically jittered.

A client stuck retrying through a multi-hour partition reaches attempt
counts where ``factor ** attempt`` overflows a float — the old code
raised ``OverflowError`` from inside the retry loop, turning a
transient outage into a crash.  The exponent is now clamped, the delay
is capped at ``backoff_max`` (plus bounded jitter), and the jitter is
keyed by the client's identity so a seeded simulation replays the
exact same retry timeline while distinct clients stay de-synchronised.
"""

import zlib

import pytest

from repro.util.retry import RetryPolicy
from repro.service.client import ServiceClient


class TestBackoffClamp:
    def test_delay_is_capped_for_all_attempts(self):
        policy = RetryPolicy(
            backoff_base=0.01, backoff_factor=2.0, backoff_max=0.5,
            jitter=0.25,
        )
        ceiling = policy.backoff_max * (1 + policy.jitter)
        for attempt in (1, 2, 10, 100, 10_000, 1 << 40):
            delay = policy.backoff_delay(0, attempt)
            assert 0 < delay <= ceiling, attempt

    def test_huge_attempt_counts_do_not_overflow(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0,
                             backoff_max=2.0)
        # 2.0 ** 1100 overflows a float; the clamp must absorb it.
        delay = policy.backoff_delay(3, 1100)
        assert delay <= policy.backoff_max * (1 + policy.jitter)

    def test_growth_below_the_cap_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0,
                             backoff_max=100.0, jitter=0.0)
        delays = [policy.backoff_delay(0, a) for a in range(1, 6)]
        for earlier, later in zip(delays, delays[1:]):
            assert later == pytest.approx(earlier * 2)

    def test_pathological_factor_is_survivable(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1e308,
                             backoff_max=1.0, jitter=0.0)
        assert policy.backoff_delay(0, 64) == 1.0


class TestDeterministicJitter:
    def test_jitter_is_deterministic_per_shard_and_attempt(self):
        policy = RetryPolicy(jitter=0.25, jitter_seed=7)
        assert policy.backoff_delay(5, 3) == policy.backoff_delay(5, 3)

    def test_distinct_shards_decorrelate(self):
        policy = RetryPolicy(jitter=0.25, jitter_seed=7)
        delays = {policy.backoff_delay(shard, 4) for shard in range(16)}
        assert len(delays) > 8  # not thundering in lockstep

    def test_client_keys_jitter_by_its_identity(self):
        a1 = ServiceClient(None, None, client_id="alpha",
                           endpoints=[("h", 1)])
        a2 = ServiceClient(None, None, client_id="alpha",
                           endpoints=[("h", 1)])
        b = ServiceClient(None, None, client_id="beta",
                          endpoints=[("h", 1)])
        assert a1._backoff_key == a2._backoff_key
        assert a1._backoff_key != b._backoff_key
        assert a1._backoff_key == zlib.crc32(b"alpha")
        # Same identity -> byte-identical retry timeline (what seeded
        # simulation replays); different identity -> decorrelated.
        policy = RetryPolicy(jitter=0.25, jitter_seed=0)
        timeline_a = [policy.backoff_delay(a1._backoff_key, n)
                      for n in range(1, 6)]
        timeline_b = [policy.backoff_delay(b._backoff_key, n)
                      for n in range(1, 6)]
        assert timeline_a == [policy.backoff_delay(a2._backoff_key, n)
                              for n in range(1, 6)]
        assert timeline_a != timeline_b
