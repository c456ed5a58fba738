"""Multi-round referee sessions over unreliable channels.

The paper's referee gets every player column in one perfect round.
:class:`RefereeSession` keeps the *answer* of that protocol while
surviving a channel that drops, duplicates, delays, reorders, and
corrupts — the repairability is exactly the vertex-based-sketch
property: each player's message is a fixed linear column, so a lost
column can be re-requested, a duplicated one folded exactly once, and
a permanently missing one excluded, leaving the referee a sketch of
the surviving columns.

Round structure (all channels are round-based
:class:`~repro.comm.transport.SimulatedChannel`\\ s):

1. the simultaneous round — every player frames its column
   (:class:`~repro.comm.reliable.Envelope`) and sends;
2. while columns are missing and budget remains, the referee issues
   per-player retransmit requests (nack frames, themselves subject to
   channel faults) and folds whatever arrives, CRC-verified and
   deduplicated;
3. the retry machinery is the shared
   :class:`~repro.util.retry.RetryPolicy`: ``max_restarts`` is
   the per-player retransmit budget, ``backoff_delay`` paces the
   waves deterministically, and the session's ``max_rounds`` is the
   round deadline.

When the budget (or round deadline) is exhausted with players still
missing, the session answers in **degraded mode** from the surviving
columns: the verdict is computed as usual but flagged not-confident,
with the missing player ids reported — a short read can never
masquerade as a clean disconnected-graph verdict.  Optionally the
final sketch is digest-audited (:mod:`repro.audit`) and the answer
certified (:func:`~repro.audit.certify.certify_spanning_forest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CommError, MessageCorruptionError
from ..util.retry import RetryPolicy
from .metrics import CommMetrics
from .reliable import (
    Envelope,
    ReliableReceiver,
    decode_nack,
    encode_envelope,
    encode_nack,
)
from .simultaneous import ProtocolResult, SpanningForestProtocol
from .transport import FaultProfile, SimulatedChannel

#: Default retransmission policy for referee sessions: a deeper retry
#: budget than the default policy (a retransmit is cheap) and no
#: wall-clock backoff by default — the backoff schedule is still
#: *computed* and accounted, just not slept in simulation.
DEFAULT_REFEREE_POLICY = RetryPolicy(max_restarts=8, backoff_base=0.0, jitter=0.0)


@dataclass(frozen=True)
class RefereeResult:
    """Outcome of a fault-tolerant referee session.

    ``result`` is the underlying :class:`ProtocolResult` (including
    ``missing_players``); ``confident`` is False iff the session had
    to answer in degraded mode — the verdict then describes only the
    surviving columns and must not be trusted as a statement about the
    whole graph.
    """

    result: ProtocolResult
    rounds: int
    degraded: bool
    confident: bool
    missing_players: Tuple[int, ...]
    metrics: CommMetrics
    certificate: Optional[object] = None  # CertifiedResult when certified
    audit_report: Optional[object] = None  # AuditReport when audited
    #: The referee's folded sketch — exactly the surviving columns.
    #: Exposed so callers can assert bit-identity against the ideal
    #: protocol (``dump_grid``) or run further decodes on it.
    sketch: Optional[object] = None

    @property
    def is_connected(self) -> bool:
        return self.result.is_connected

    @property
    def components(self) -> List[List[int]]:
        return self.result.components

    def summary(self) -> str:
        status = "COMPLETE" if not self.degraded else "DEGRADED"
        lines = [
            f"{status}: connected={self.is_connected} "
            f"components={len(self.components)} rounds={self.rounds}"
        ]
        if self.degraded:
            lines.append(
                f"  missing players: {list(self.missing_players)} "
                f"(verdict covers survivors only; not confident)"
            )
        if self.certificate is not None:
            lines.append("  " + self.certificate.summary().splitlines()[0])
        return "\n".join(lines)


class RefereeSession:
    """Drive one spanning-forest referee exchange over lossy channels.

    Parameters
    ----------
    protocol:
        The :class:`~repro.comm.simultaneous.SpanningForestProtocol`
        whose players and decoding to use.
    profile:
        Channel :class:`FaultProfile` (default: the ideal channel).
    policy:
        :class:`~repro.util.retry.RetryPolicy`;
        ``max_restarts`` is the per-player retransmit budget and
        ``backoff_delay`` paces retransmit waves.
    chaos_seed:
        Seed of the fault schedule; equal seeds replay identical
        failure scenarios.
    max_rounds:
        Round deadline: hard cap on protocol rounds (``None`` = bound
        by the retry budget alone).
    audit:
        Attach a :class:`~repro.audit.digest.GridDigest` to the
        referee grid and audit it before decoding, so referee-side
        memory corruption between rounds is detected.
    certify:
        Re-verify the final answer via
        :func:`~repro.audit.certify.certify_spanning_forest`.
    sleep:
        Optional callable receiving each computed backoff delay; by
        default delays are accounted in the metrics but not slept
        (simulation time is rounds, not seconds).
    """

    def __init__(
        self,
        protocol: SpanningForestProtocol,
        profile: Optional[FaultProfile] = None,
        policy: RetryPolicy = DEFAULT_REFEREE_POLICY,
        chaos_seed: int = 0,
        max_rounds: Optional[int] = None,
        audit: bool = False,
        certify: bool = False,
        metrics: Optional[CommMetrics] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        self.protocol = protocol
        self.profile = profile if profile is not None else FaultProfile.ideal()
        self.policy = policy
        self.max_rounds = max_rounds
        self.audit = audit
        self.certify = certify
        self.metrics = metrics if metrics is not None else CommMetrics()
        self._sleep = sleep
        self.uplink = SimulatedChannel(self.profile, seed=chaos_seed, lane=0)
        self.downlink = SimulatedChannel(self.profile, seed=chaos_seed, lane=1)
        self.metrics.uplink = self.uplink.stats
        self.metrics.downlink = self.downlink.stats

    # -- player side ----------------------------------------------------

    def _transmit(self, player: int, seq: int, payload: bytes) -> None:
        self.metrics.envelopes_sent += 1
        self.uplink.send(encode_envelope(Envelope(player, seq, payload)))

    # -- the exchange ---------------------------------------------------

    def run(self, hypergraph) -> RefereeResult:
        """Full protocol on a concrete hypergraph: players compute
        their columns locally, then the lossy exchange runs."""
        payloads = {
            v: self.protocol.player_message_bytes(
                v, sorted(hypergraph.incident_edges(v))
            )
            for v in range(hypergraph.n)
        }
        return self.exchange(payloads)

    def exchange(self, payloads: Dict[int, bytes]) -> RefereeResult:
        """Run the reliable protocol over precomputed player payloads."""
        if not payloads:
            raise CommError("referee session needs at least one player")
        players = sorted(payloads)
        metrics = self.metrics
        metrics.players = len(players)

        sketch = self.protocol._fresh_sketch()
        if self.audit:
            from ..audit.digest import attach_digest

            attach_digest(sketch.grid)
        receiver = ReliableReceiver(sketch.grid, metrics)
        seq = {p: 0 for p in players}
        attempts = {p: 0 for p in players}

        # Round 1: the simultaneous round of the ideal protocol.
        for p in players:
            self._transmit(p, seq[p], payloads[p])
        rounds = 1
        for frame in self.uplink.deliver():
            receiver.receive(frame)
        missing = receiver.missing(players)

        # Retransmission rounds.
        while missing:
            if self.max_rounds is not None and rounds >= self.max_rounds:
                break
            askable = [
                p for p in missing if attempts[p] < self.policy.max_restarts
            ]
            if not askable and self.uplink.in_flight == 0:
                break  # budget exhausted and no stragglers in flight
            rounds += 1
            for p in askable:
                attempts[p] += 1
                delay = self.policy.backoff_delay(p, attempts[p])
                metrics.backoff_seconds += delay
                if self._sleep is not None and delay > 0:
                    self._sleep(delay)
                metrics.retransmit_requests += 1
                self.downlink.send(encode_nack(rounds, (p,)))
            for frame in self.downlink.deliver():
                try:
                    _round_no, asked = decode_nack(frame)
                except MessageCorruptionError:
                    continue  # player saw garbage; accounted as lost below
                for p in asked:
                    if p not in payloads:
                        continue
                    seq[p] += 1
                    metrics.retransmits += 1
                    self._transmit(p, seq[p], payloads[p])
            for frame in self.uplink.deliver():
                receiver.receive(frame)
            missing = receiver.missing(players)

        metrics.rounds = rounds
        metrics.nacks_lost = (
            self.downlink.stats.dropped + self.downlink.stats.corrupted
        )
        return self._conclude(sketch, players, missing, rounds, payloads)

    # -- decoding and reporting -----------------------------------------

    def _conclude(
        self,
        sketch,
        players: List[int],
        missing: Tuple[int, ...],
        rounds: int,
        payloads: Dict[int, bytes],
    ) -> RefereeResult:
        metrics = self.metrics
        degraded = bool(missing)
        if degraded:
            metrics.degraded_answers += 1
            metrics.missing_players = len(missing)

        audit_report = None
        if self.audit:
            from ..audit import audit_sketch

            audit_report = audit_sketch(sketch, label="referee").raise_if_corrupt()

        spanning = sketch.decode()
        components = sketch.components_of_decode()
        size = max(len(b) for b in payloads.values())
        result = ProtocolResult(
            spanning_graph=spanning,
            components=components,
            is_connected=len(components) == 1,
            message_words=size // 8,
            message_bits=8 * size,
            total_bits=8 * self.uplink.stats.bytes_sent,
            players=len(players) - len(missing),
            missing_players=missing,
        )
        certificate = None
        if self.certify:
            from ..audit.certify import certify_spanning_forest

            certificate = certify_spanning_forest(sketch)
        return RefereeResult(
            result=result,
            rounds=rounds,
            degraded=degraded,
            confident=not degraded,
            missing_players=missing,
            metrics=metrics,
            certificate=certificate,
            audit_report=audit_report,
            sketch=sketch,
        )
