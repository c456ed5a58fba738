"""Stream runner: feed one stream into many sketches, with accounting.

A convenience layer used by examples and benchmarks: it validates the
stream once, fans each event out to every registered sketch (anything
with an ``update(edge, sign)`` method), and collects space/throughput
statistics so the experiments can report the paper's space columns.

With ``batch_size`` set, events are buffered and folded through each
sketch's vectorised ``update_batch`` instead of one scalar ``update``
per event; the sketch state is bit-identical to the scalar loop's.
Sharded ingest is :class:`~repro.engine.shard.ShardedIngestEngine`
(``repro ingest --shards``), not this runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..errors import DomainError, EngineError, StreamError
from ..graph.hypergraph import Hypergraph
from .quarantine import (
    REASON_ABSENT_DELETE,
    REASON_DOMAIN,
    REASON_DOUBLE_INSERT,
    BadUpdate,
    Quarantine,
    check_policy,
    handle_bad_update,
)
from .updates import EdgeUpdate, StreamValidator


@dataclass
class RunReport:
    """What happened during a stream run.

    ``wall_seconds`` is the end-to-end wall clock of :meth:`StreamRunner
    .run` (validation + dispatch + bookkeeping); ``sketch_seconds``
    isolates the time spent inside each sketch's update path, so engine
    speedups are measurable per sketch instead of being averaged into
    the aggregate.  ``quarantined`` / ``dropped`` count
    events diverted by the ``on_bad_update`` policy; such events never
    reach any sketch.
    """

    events: int = 0
    inserts: int = 0
    deletes: int = 0
    quarantined: int = 0
    dropped: int = 0
    wall_seconds: float = 0.0
    sketch_seconds: Dict[str, float] = field(default_factory=dict)
    final_edges: int = 0
    space: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Integrity accounting (the ``audit_every`` option): digest audit
    # passes run and human-readable descriptions of any corruption
    # found.  A nonzero findings list always co-occurs with an
    # :class:`~repro.errors.IntegrityError` from :meth:`StreamRunner
    # .run` — the report is for post-mortem, not for ignoring.
    audits: int = 0
    corruption_findings: List[str] = field(default_factory=list)


class StreamRunner:
    """Feeds validated streams into registered sketches.

    Parameters
    ----------
    n, r:
        Stream domain (vertices, max hyperedge cardinality).
    validate:
        Replay the stream through a :class:`StreamValidator` (model
        well-formedness + live-graph tracking).
    batch_size:
        When set, events are dispatched in vectorised batches through
        each sketch's ``update_batch`` (sketches without one fall back
        to the scalar loop).
    on_bad_update:
        What to do with an event the validator rejects (double
        insertion, deletion of an absent edge, domain violation):
        ``"strict"`` (default) raises as before; ``"quarantine"``
        diverts the event into ``quarantine`` with its 1-based stream
        position and keeps running; ``"drop"`` skips it silently.
        Diverted events never reach any registered sketch.  Requires
        ``validate=True`` for the non-strict policies (without the
        validator there is nothing to classify).
    quarantine:
        The :class:`~repro.stream.quarantine.Quarantine` sink for the
        ``"quarantine"`` policy (and the drop counter for ``"drop"``).
    audit_every:
        When set, every registered sketch gets an integrity digest
        attached at registration (see :mod:`repro.audit`) and is
        audited every ``audit_every`` dispatched events, plus once at
        end of stream.  Corruption — counters mutated outside the
        update path — raises :class:`~repro.errors.IntegrityError`
        with localized findings (also recorded in
        :attr:`RunReport.corruption_findings`).
    """

    def __init__(
        self,
        n: int,
        r: int = 2,
        validate: bool = True,
        batch_size: Optional[int] = None,
        on_bad_update: str = "strict",
        quarantine: Optional[Quarantine] = None,
        audit_every: Optional[int] = None,
    ):
        if audit_every is not None and audit_every < 1:
            raise EngineError(
                f"audit_every must be >= 1 events, got {audit_every}"
            )
        check_policy(on_bad_update)
        if on_bad_update != "strict" and not validate:
            raise StreamError(
                f"on_bad_update={on_bad_update!r} needs validate=True "
                "(the validator is what classifies bad updates)"
            )
        self.n = n
        self.r = r
        self.validate = validate
        self.batch_size = batch_size
        self.on_bad_update = on_bad_update
        self.quarantine = quarantine
        self.audit_every = audit_every
        self._validator = StreamValidator(n, r) if validate else None
        self._sketches: Dict[str, Any] = {}
        self._auditors: Dict[str, Any] = {}

    def register(self, name: str, sketch: Any) -> Any:
        """Attach a sketch (must expose ``update(edge, sign)``)."""
        if name in self._sketches:
            raise KeyError(f"duplicate sketch name {name!r}")
        self._sketches[name] = sketch
        if self.audit_every is not None:
            from ..audit.integrity import SketchAuditor

            # Baseline now: the sketch's state at registration is
            # trusted, everything after must flow through update paths.
            self._auditors[name] = SketchAuditor(sketch, name)
        return sketch

    def __getitem__(self, name: str) -> Any:
        return self._sketches[name]

    # -- integrity ------------------------------------------------------

    def _audit_pass(self, report: RunReport) -> None:
        """Audit every registered sketch; corruption is fatal.

        Findings land in :attr:`RunReport.corruption_findings` before
        the raise, so a caller catching the
        :class:`~repro.errors.IntegrityError` still gets the full
        localization in the report it holds.
        """
        from ..errors import IntegrityError

        findings: List[str] = []
        for auditor in self._auditors.values():
            result = auditor.audit()
            report.audits += 1
            findings.extend(f.describe() for f in result.findings)
        if findings:
            report.corruption_findings.extend(findings)
            raise IntegrityError(
                f"stream-runner integrity audit failed: "
                + "; ".join(findings[:8])
                + ("; ..." if len(findings) > 8 else ""),
                findings=tuple(findings),
            )

    def _maybe_audit(self, dispatched: int, last_audit: int,
                     report: RunReport) -> int:
        if (
            self.audit_every is not None
            and dispatched - last_audit >= self.audit_every
        ):
            self._audit_pass(report)
            return dispatched
        return last_audit

    # -- dispatch strategies --------------------------------------------

    def _run_scalar(self, events: List[EdgeUpdate], report: RunReport) -> None:
        last_audit = 0
        for dispatched, event in enumerate(events, start=1):
            for name, sketch in self._sketches.items():
                start = time.perf_counter()
                sketch.update(event.edge, event.sign)
                report.sketch_seconds[name] += time.perf_counter() - start
            last_audit = self._maybe_audit(dispatched, last_audit, report)

    def _run_batched(self, events: List[EdgeUpdate], report: RunReport) -> None:
        from ..engine.batch import iter_event_batches

        dispatched = 0
        last_audit = 0
        for batch in iter_event_batches(events, self.batch_size):
            for name, sketch in self._sketches.items():
                start = time.perf_counter()
                if hasattr(sketch, "update_batch"):
                    sketch.update_batch(batch)
                else:
                    for event in batch:
                        sketch.update(event.edge, event.sign)
                report.sketch_seconds[name] += time.perf_counter() - start
            dispatched += len(batch)
            last_audit = self._maybe_audit(dispatched, last_audit, report)

    # -- running --------------------------------------------------------

    def _divert(self, position: int, event: EdgeUpdate,
                exc: Exception, report: RunReport) -> None:
        """Route one validator-rejected event through the policy."""
        if isinstance(exc, DomainError):
            reason = REASON_DOMAIN
        elif event.sign > 0:
            reason = REASON_DOUBLE_INSERT
        else:
            reason = REASON_ABSENT_DELETE
        op = "+" if event.sign > 0 else "-"
        handle_bad_update(
            self.on_bad_update,
            BadUpdate(
                line=position,
                reason=reason,
                detail=str(exc),
                raw=f"{op} {' '.join(str(v) for v in event.edge)}",
                source="stream",
            ),
            self.quarantine,
            exc=exc,
        )
        if self.on_bad_update == "quarantine":
            report.quarantined += 1
        else:
            report.dropped += 1

    def run(self, stream: Iterable[EdgeUpdate]) -> RunReport:
        """Apply a stream to every registered sketch."""
        report = RunReport()
        report.sketch_seconds = {name: 0.0 for name in self._sketches}
        start = time.perf_counter()
        events: List[EdgeUpdate] = []
        for position, event in enumerate(stream, start=1):
            if self._validator is not None:
                try:
                    self._validator.apply(event)
                except (StreamError, DomainError) as exc:
                    self._divert(position, event, exc, report)
                    continue
            events.append(event)
            report.events += 1
            if event.sign > 0:
                report.inserts += 1
            else:
                report.deletes += 1
        if self.batch_size is not None:
            self._run_batched(events, report)
        else:
            self._run_scalar(events, report)
        if self._auditors:
            self._audit_pass(report)  # end-of-stream audit
        report.wall_seconds = time.perf_counter() - start
        if self._validator is not None:
            report.final_edges = self._validator.graph.num_edges
        for name, sketch in self._sketches.items():
            entry: Dict[str, int] = {}
            if hasattr(sketch, "space_counters"):
                entry["counters"] = sketch.space_counters()
            if hasattr(sketch, "space_bytes"):
                entry["bytes"] = sketch.space_bytes()
            report.space[name] = entry
        return report

    @property
    def live_graph(self) -> Optional[Hypergraph]:
        """The validated live graph (None when validation is off)."""
        return self._validator.graph if self._validator is not None else None
