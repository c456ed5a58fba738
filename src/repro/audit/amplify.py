"""Confidence amplification by majority vote over independent sketches.

The paper's constructions succeed with probability 1 − δ per decode;
the standard amplification (run R independently seeded copies, take
the majority answer) drives the failure probability down to
``exp(-2R(q - 1/2)²)`` where q > 1/2 is the per-copy success rate.
:func:`run_amplified` does exactly that over a replayable stream and
reports the *empirical* confidence — the fraction of successful
repetitions that agreed with the majority — alongside the Hoeffding
bound, so a caller can see not just the answer but how contested it
was.  Decode failures (the sketches' declared Monte Carlo mode) are
counted and excluded from the vote rather than treated as answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import SketchDecodeError
from ..util.hashing import derive_seed
from ..util.rng import normalize_seed

# Salt separating amplification-repetition seeds from every other
# derive_seed stream in the library.
_AMPLIFY_SALT = 0xA3F1


@dataclass(frozen=True)
class AmplifiedResult:
    """Majority-vote answer over independent sketch repetitions.

    ``confidence`` is the empirical agreement rate (majority votes /
    successful votes); ``error_bound`` is the Hoeffding tail bound on
    the majority being wrong, assuming the per-copy success rate is at
    least the observed one (1.0, i.e. vacuous, when the vote is split
    50/50 or worse).
    """

    value: Any
    repetitions: int
    agreeing: int
    failed: int
    confidence: float
    error_bound: float
    votes: Tuple[Any, ...] = ()

    @property
    def successful(self) -> int:
        return self.repetitions - self.failed

    def __bool__(self) -> bool:
        raise TypeError(
            "AmplifiedResult has no truth value; use .value (and check "
            ".confidence) instead"
        )

    def summary(self) -> str:
        return (
            f"amplified over {self.repetitions} repetitions: "
            f"value={self.value!r} agreement={self.agreeing}/"
            f"{self.successful} (confidence={self.confidence:.3f}, "
            f"error bound {self.error_bound:.2e}, {self.failed} decode "
            f"failures)"
        )


def amplify_votes(votes: Sequence[Any], failed: int = 0) -> AmplifiedResult:
    """Fold raw per-repetition answers into a majority-vote result.

    Votes are grouped by ``repr`` (answers need not be hashable); ties
    break deterministically toward the lexicographically smallest
    representation.  Raises :class:`~repro.errors.SketchDecodeError`
    when every repetition failed — amplification cannot conjure an
    answer out of no votes.
    """
    if not votes:
        raise SketchDecodeError(
            f"amplification got no successful votes ({failed} repetitions, "
            "all failed to decode)"
        )
    buckets = {}
    for v in votes:
        key = repr(v)
        if key in buckets:
            buckets[key][0] += 1
        else:
            buckets[key] = [1, v]
    best_key = min(buckets, key=lambda k: (-buckets[k][0], k))
    agreeing, value = buckets[best_key]
    confidence = agreeing / len(votes)
    if confidence > 0.5:
        error_bound = math.exp(-2.0 * len(votes) * (confidence - 0.5) ** 2)
    else:
        error_bound = 1.0
    return AmplifiedResult(
        value=value,
        repetitions=len(votes) + failed,
        agreeing=agreeing,
        failed=failed,
        confidence=confidence,
        error_bound=error_bound,
        votes=tuple(votes),
    )


def _run_repetition(
    make_sketch: Callable[[int], Any],
    events: List,
    query: Callable[[Any], Any],
    seed: int,
) -> Tuple[bool, Any]:
    """One amplification repetition: build, ingest, query.

    Returns ``(True, vote)`` or ``(False, failure message)`` — decode
    failures are data here, not exceptions, so one failed repetition
    doesn't abort its siblings.
    """
    sketch = make_sketch(seed)
    if hasattr(sketch, "update_batch") and events:
        sketch.update_batch(events)
    else:
        for u in events:
            edge, sign = (u.edge, u.sign) if hasattr(u, "edge") else u
            sketch.update(edge, sign)
    try:
        return True, query(sketch)
    except SketchDecodeError as exc:
        return False, str(exc)


def run_amplified(
    make_sketch: Callable[[int], Any],
    stream: Iterable,
    query: Callable[[Any], Any],
    repetitions: int,
    base_seed: Optional[int] = None,
) -> AmplifiedResult:
    """Run ``repetitions`` independently seeded sketches and vote.

    ``make_sketch(seed)`` builds one fresh sketch; ``stream`` must be
    replayable (a list of :class:`~repro.stream.updates.EdgeUpdate` or
    ``(edge, sign)`` pairs — it is materialized once up front);
    ``query(sketch)`` produces one vote, and may raise
    :class:`~repro.errors.SketchDecodeError` for the Monte Carlo
    failure mode, which counts as a failed repetition rather than a
    vote.  Repetition seeds derive from ``base_seed`` so the whole
    amplified run is reproducible.
    """
    if repetitions < 1:
        raise SketchDecodeError(
            f"amplification needs >= 1 repetition, got {repetitions}"
        )
    events: List = list(stream)
    base = normalize_seed(base_seed)
    outcomes = [
        _run_repetition(
            make_sketch, events, query, derive_seed(base, _AMPLIFY_SALT, i)
        )
        for i in range(repetitions)
    ]
    votes: List[Any] = []
    failed = 0
    for ok, payload in outcomes:
        if ok:
            votes.append(payload)
        else:
            failed += 1
    return amplify_votes(votes, failed)
