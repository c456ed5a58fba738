"""Retry budgets with exponential backoff and deterministic jitter.

One policy object shared by everything that retries: the service
client's reconnects, the replica set's straggler re-sends, the load
generator and the simulation world.  The jitter is a pure function of
``(jitter_seed, key, attempt)``, so a seeded simulation replays the
exact same retry timeline while distinct keys (clients, replicas) stay
de-synchronised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hashing import hash64

_JITTER_SALT = 0x5D9E_C0DE


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, and how long to wait before each retry.

    Parameters
    ----------
    max_restarts:
        Retry budget per key (client, replica, ...).
    backoff_base, backoff_factor, backoff_max:
        Exponential backoff of the pre-retry sleep:
        ``min(backoff_max, backoff_base * backoff_factor**(attempt-1))``.
    jitter:
        Fractional jitter added on top of the backoff delay (0.25 =
        up to +25%), derived deterministically from ``jitter_seed``,
        the key, and the attempt — reproducible under test, yet
        de-synchronised across keys in production.
    jitter_seed:
        Seed of the deterministic jitter hash.
    """

    max_restarts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    jitter_seed: int = 0

    def backoff_delay(self, key: int, attempt: int) -> float:
        """Deterministic backoff-plus-jitter sleep before a retry.

        The exponent is clamped before exponentiating: a client stuck
        retrying through a multi-hour partition reaches attempt counts
        where ``factor ** attempt`` overflows a float — the ``min``
        would never see the capped value, it would see an
        ``OverflowError``.  Past the clamp every attempt just sleeps
        ``backoff_max`` (plus jitter), which is the intended ceiling.
        """
        exponent = min(max(0, attempt - 1), 64)
        try:
            raw = self.backoff_base * self.backoff_factor ** exponent
        except OverflowError:  # pragma: no cover - pathological factor
            raw = self.backoff_max
        delay = min(self.backoff_max, raw)
        if self.jitter > 0:
            acc = hash64(self.jitter_seed, _JITTER_SALT)
            acc = hash64(acc, key)
            frac = (hash64(acc, attempt) % 10_000) / 10_000.0
            delay *= 1.0 + self.jitter * frac
        return delay
