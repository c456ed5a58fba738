"""E22 — fault-tolerant referee: success rate and cost versus loss rate.

Robustness claim (repro.comm): the multi-round retransmission protocol
turns the paper's one-shot referee exchange into an eventually-
complete one — at 20% message loss the default retry budget still
completes ≥ 99% of sessions with the exact one-round verdict, paying
only a few extra rounds and a modest bits overhead versus the ideal
lossless baseline; and when the budget *is* exhausted the answer is
always flagged degraded with the missing players listed, never a
silently wrong verdict.

Measured (``pytest benchmarks/bench_referee_faults.py``): a loss-rate
sweep (eventual success rate, mean rounds, retransmits, wire-bits
ratio vs the ideal baseline) and a budget-exhaustion sweep proving
every incomplete session is flagged.  ``referee_fault_sweep`` /
``budget_exhaustion_sweep`` are the reusable cores; the smoke test in
``tests/comm/test_bench_smoke.py`` runs them at small n.
"""

from _report import record

from repro.comm.referee import RefereeSession
from repro.comm.simultaneous import SpanningForestProtocol
from repro.comm.transport import FaultProfile
from repro.util.retry import RetryPolicy
from repro.graph.generators import random_connected_hypergraph


def _payloads(proto, h):
    return {
        v: proto.player_message_bytes(v, sorted(h.incident_edges(v)))
        for v in range(h.n)
    }


def referee_fault_sweep(
    n: int = 24,
    edges: int = 40,
    r: int = 3,
    losses=(0.0, 0.1, 0.2, 0.3),
    trials: int = 30,
    retries: int = 8,
    seed: int = 0,
):
    """Sweep loss rates; returns one result row per loss rate.

    Each trial replays a distinct deterministic chaos seed.  A trial
    *succeeds* when the session completes (no missing players) and
    its verdict equals the ideal protocol's; an incomplete session
    must be flagged degraded — a complete-but-wrong or
    unflagged-incomplete outcome is counted as ``silently_wrong`` and
    the acceptance test requires that count to be zero.
    """
    h = random_connected_hypergraph(n, edges, r=r, seed=seed)
    proto = SpanningForestProtocol(n, r=r, seed=seed + 1)
    payloads = _payloads(proto, h)
    ideal = proto.referee_decode_bytes(list(payloads.values()))
    ideal_bits = 8 * sum(len(b) for b in payloads.values())
    policy = RetryPolicy(max_restarts=retries, backoff_base=0.0, jitter=0.0)
    rows = []
    for loss in losses:
        profile = FaultProfile(loss=loss)
        complete = rounds = retx = bits = silently_wrong = 0
        for trial in range(trials):
            session = RefereeSession(
                proto, profile=profile, policy=policy, chaos_seed=trial
            )
            res = session.exchange(dict(payloads))
            rounds += res.rounds
            retx += res.metrics.retransmits
            bits += res.metrics.uplink.bytes_sent * 8
            if not res.degraded:
                complete += 1
                if res.is_connected != ideal.is_connected:
                    silently_wrong += 1
            elif not res.missing_players or res.confident:
                silently_wrong += 1  # incomplete yet unflagged
        rows.append(
            {
                "loss": loss,
                "trials": trials,
                "success_rate": complete / trials,
                "mean_rounds": rounds / trials,
                "mean_retransmits": retx / trials,
                "bits_ratio": (bits / trials) / ideal_bits,
                "silently_wrong": silently_wrong,
            }
        )
    return rows


def budget_exhaustion_sweep(
    n: int = 24,
    edges: int = 40,
    r: int = 3,
    loss: float = 0.7,
    retries: int = 2,
    trials: int = 30,
    seed: int = 0,
):
    """Starve the retry budget; verify every shortfall is flagged."""
    h = random_connected_hypergraph(n, edges, r=r, seed=seed)
    proto = SpanningForestProtocol(n, r=r, seed=seed + 1)
    payloads = _payloads(proto, h)
    policy = RetryPolicy(max_restarts=retries, backoff_base=0.0, jitter=0.0)
    degraded = flagged = complete = 0
    for trial in range(trials):
        session = RefereeSession(
            proto,
            profile=FaultProfile(loss=loss),
            policy=policy,
            chaos_seed=trial,
        )
        res = session.exchange(dict(payloads))
        if res.degraded:
            degraded += 1
            if res.missing_players and not res.confident:
                flagged += 1
        else:
            complete += 1
    return {
        "trials": trials,
        "degraded": degraded,
        "flagged": flagged,
        "complete": complete,
    }


def bench_e22_referee_faults():
    rows = referee_fault_sweep()
    record(
        "E22a",
        "referee success rate and cost vs message loss "
        "(n=24 players, rank-3, retry budget 8, 30 chaos seeds/row)",
        ["loss", "success", "rounds", "retransmits", "bits vs ideal",
         "silently wrong"],
        [
            (
                f"{r['loss']:.0%}",
                f"{r['success_rate']:.2f}",
                f"{r['mean_rounds']:.1f}",
                f"{r['mean_retransmits']:.1f}",
                f"{r['bits_ratio']:.2f}x",
                r["silently_wrong"],
            )
            for r in rows
        ],
        notes="Success = complete exchange with the ideal one-round "
        "verdict.  The 0% row is the paper's lossless baseline "
        "(1 round, 1.00x bits).",
    )
    by_loss = {r["loss"]: r for r in rows}
    assert by_loss[0.0]["success_rate"] == 1.0
    assert by_loss[0.0]["mean_rounds"] == 1.0
    assert by_loss[0.2]["success_rate"] >= 0.99, by_loss[0.2]
    assert all(r["silently_wrong"] == 0 for r in rows)

    starved = budget_exhaustion_sweep()
    record(
        "E22b",
        "budget exhaustion at 70% loss with retry budget 2",
        ["trials", "complete", "degraded", "flagged degraded"],
        [(starved["trials"], starved["complete"], starved["degraded"],
          starved["flagged"])],
        notes="Every incomplete session must carry the degraded flag "
        "and its missing-player list — never a silently wrong verdict.",
    )
    assert starved["flagged"] == starved["degraded"]
    assert starved["degraded"] > 0  # the sweep actually starved some runs


if __name__ == "__main__":
    bench_e22_referee_faults()
