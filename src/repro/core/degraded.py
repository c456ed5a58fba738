"""Degraded-mode decoding: a weaker answer instead of no answer.

The paper's decoders are *probabilistic*: with small probability a
sketch decode fails detectably (:class:`~repro.errors.
SketchDecodeError` and its sampler subclasses).  The library's default
is to surface the failure and let the caller rerun with fresh
randomness — correct, but useless to a pipeline that already spent a
pass over the stream.  This module implements the fallback ladder:

1. **Retry across independent repetitions.**  Structures built from
   R independent instances (:class:`~repro.core._sampled.
   SampledForestUnion`) or k independently seeded layers
   (:class:`~repro.sketch.skeleton.SkeletonSketch`) can skip the
   failing instance and answer from the survivors — each instance
   carries its own randomness, so the rest remain valid.
2. **Fall back to a weaker query.**  When full k-connectivity
   machinery fails, a connectivity-only answer (layer-0 spanning
   graph) is usually still decodable.
3. **Report honestly.**  Every degraded answer comes back as a
   :class:`DegradedResult` carrying a machine-readable ``reason`` code
   and human ``detail``, never silently pretending to be a full
   answer.  Pipelines opt in per query (``*_degraded`` methods, the
   CLI's ``--degraded-ok``); the plain query APIs still raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from ..errors import SketchDecodeError

# Machine-readable degradation reason codes.
REASON_DECODE_FAILED = "decode-failed"          # primary decode raised
REASON_PARTIAL_CERTIFICATE = "partial-certificate"  # some instances skipped
REASON_CONNECTIVITY_ONLY = "connectivity-only"  # weaker query substituted
REASON_CORRUPTION = "corruption-excluded"       # audit excluded instances


@dataclass(frozen=True)
class DegradedResult:
    """The outcome of a query that is allowed to degrade.

    ``value`` is the answer (of whatever type the query returns);
    ``degraded`` says whether the full-strength path produced it.  When
    degraded, ``mode`` names the fallback that answered, ``reason`` is
    a machine-readable code (``REASON_*``), and ``detail`` the human
    explanation.  ``attempts`` counts decode attempts, including the
    failed primary.
    """

    value: Any
    degraded: bool
    mode: str = "full"
    reason: Optional[str] = None
    detail: str = ""
    attempts: int = 1

    def __bool__(self) -> bool:
        # A DegradedResult is NOT its value: force callers to unwrap
        # explicitly instead of truth-testing the wrapper by accident.
        raise TypeError(
            "DegradedResult has no truth value; use .value (and check "
            ".degraded) instead"
        )


def decode_with_degradation(
    primary: Callable[[], Any],
    fallbacks: Sequence[Tuple[str, Callable[[], Any]]] = (),
    metrics=None,
) -> DegradedResult:
    """Run ``primary()``; walk the fallback ladder on decode failure.

    ``fallbacks`` is an ordered sequence of ``(mode_name, thunk)``
    pairs, strongest first.  The first thunk that decodes wins and its
    answer is wrapped as a degraded :class:`DegradedResult` (reason
    ``decode-failed``, detail = the primary's error).  When every rung
    fails, the *primary's* exception is re-raised — the fallback
    ladder never converts a hard failure into a silent one.

    ``metrics`` may be a :class:`~repro.engine.query.QueryMetrics`
    (or anything with a ``degraded_queries`` int attribute); its
    ``degraded_queries`` is incremented once per degraded answer.
    """
    attempts = 1
    try:
        return DegradedResult(value=primary(), degraded=False,
                              mode="full", attempts=attempts)
    except SketchDecodeError as exc:
        primary_exc = exc
    for mode, thunk in fallbacks:
        attempts += 1
        try:
            value = thunk()
        except SketchDecodeError:
            continue
        if metrics is not None:
            metrics.degraded_queries += 1
        return DegradedResult(
            value=value,
            degraded=True,
            mode=mode,
            reason=REASON_DECODE_FAILED,
            detail=str(primary_exc),
            attempts=attempts,
        )
    raise primary_exc
