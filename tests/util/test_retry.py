"""Retry policy: exponential backoff with deterministic jitter."""

from repro.util.retry import RetryPolicy


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                        backoff_max=0.5, jitter=0.0)
        delays = [p.backoff_delay(0, a) for a in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_deterministic_and_bounded(self):
        p = RetryPolicy(backoff_base=0.1, jitter=0.25, jitter_seed=42)
        d1 = p.backoff_delay(3, 1)
        d2 = p.backoff_delay(3, 1)
        assert d1 == d2
        assert 0.1 <= d1 <= 0.1 * 1.25
        # Different keys desynchronise.
        assert p.backoff_delay(0, 1) != p.backoff_delay(1, 1)
