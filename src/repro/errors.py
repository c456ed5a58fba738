"""Exception hierarchy for the ``repro`` library.

Every failure mode the library can report deliberately has its own
exception type so callers can distinguish "you called the API wrong"
(:class:`ReproError` subclasses raised eagerly) from "the randomized
sketch did not have enough information" (:class:`SketchDecodeError`),
which is the probabilistic failure the paper's "with high probability"
statements allow.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class DomainError(ReproError):
    """A coordinate, vertex id, or hyperedge is outside the declared domain."""


class RankError(DomainError):
    """A hyperedge violates the declared cardinality bounds (2 <= |e| <= r)."""


class SketchDecodeError(ReproError):
    """A sketch decode failed.

    This is the *probabilistic* failure mode: linear sketches succeed
    with high probability, and when the randomness is unlucky (or the
    sketch was built with too-small parameters for the input) decoding
    raises this error rather than silently returning a wrong answer
    whenever the failure is detectable.
    """


class NotOneSparseError(SketchDecodeError):
    """A 1-sparse recovery cell was asked to decode a non-1-sparse vector."""


class SamplerEmptyError(SketchDecodeError):
    """An L0 sampler found no nonzero coordinate.

    Either the sketched vector is identically zero, or (with small
    probability) every subsampling level failed to isolate a coordinate.
    Callers that expect possibly-zero vectors should catch this.
    The two cases are distinguished by the subclasses below — benign
    :class:`SamplerZeroError` vs genuinely probabilistic
    :class:`SamplerFailedError` — so recovery layers can retry or
    degrade only on real failures.
    """


class SamplerZeroError(SamplerEmptyError):
    """The sketched vector appears identically zero (benign: nothing to
    sample, e.g. a component with no outgoing edges)."""


class SamplerFailedError(SamplerEmptyError):
    """The vector is nonzero but every subsampling level failed to
    isolate a coordinate — the detectable probabilistic decode failure
    that the degraded-decoding layer retries or falls back on."""


class IncompatibleSketchError(ReproError):
    """Two sketches with different seeds/shapes were combined linearly."""


class IntegrityError(ReproError):
    """Sketch state failed an integrity check (out-of-band corruption).

    Raised by the :mod:`repro.audit` layer when a merge violates the
    linearity invariant of the computed content digests, or by a
    payload check — i.e. the data was mutated by something
    *other* than the sketch update path (bit rot, a buggy writer, a
    torn restore).  Distinct from :class:`SketchDecodeError`: decode
    failures are the allowed probabilistic mode; integrity failures
    mean the state itself can no longer be trusted.  Carries the
    localized ``findings`` (:class:`~repro.audit.integrity.Corruption`)
    when known.
    """

    def __init__(self, message: str, findings=()):
        super().__init__(message)
        self.findings = tuple(findings)


class PayloadCorruptionError(IntegrityError):
    """A serialized sketch payload failed its CRC.

    The blob's counter bytes were damaged in transit or at rest; the
    header may still parse, so this is raised *before* any counters are
    deserialized into a live grid.
    """


class StreamError(ReproError):
    """A dynamic stream violated multigraph-freeness or balance invariants."""


class EngineError(ReproError):
    """Base class for ingestion-engine failures (:mod:`repro.engine`)."""


class CheckpointError(EngineError):
    """A checkpoint file is missing, truncated, corrupted, or was written
    by an incompatible engine configuration.

    Raised eagerly on restore so that a damaged checkpoint can never be
    deserialized silently into wrong sketch state.
    """


class WorkerCrashError(EngineError):
    """A shard worker died (or stopped responding) mid-ingest.

    Carries the failing ``shard`` index when known.  With checkpointing
    enabled the ingest resumes from the last checkpoint, bit-identically
    (the sketches are linear); without it, the stream must be replayed
    from the start.
    """

    def __init__(self, message: str, shard=None):
        super().__init__(message)
        self.shard = shard


class ServiceError(ReproError):
    """Base class for sketch-server failures (:mod:`repro.service`).

    Every service error carries a stable machine-readable ``code`` that
    travels in protocol error responses, so clients can branch on the
    failure class (``draining`` vs ``no-such-sketch`` vs ``internal``)
    without parsing prose.
    """

    code = "internal"

    def __init__(self, message: str, code: str = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ProtocolFrameError(ServiceError):
    """A protocol frame violated the wire format (bad magic, oversized
    header/payload, malformed JSON header, short read)."""

    code = "bad-frame"


class PeerDisconnectedError(ProtocolFrameError):
    """The peer closed the connection mid-frame (abrupt disconnect).

    Distinct from a malformed frame: the bytes that did arrive were
    fine, the peer just went away.  The server counts it and closes the
    session without attempting to answer a dead socket; a client
    treats it as a retryable transport failure (reconnect + re-send of
    stamped requests is exactly-once safe)."""

    code = "disconnected"


class WALError(ServiceError):
    """A write-ahead-log operation failed (cannot open, write, or
    rotate a segment).  Ingest that cannot be logged is refused —
    the ack contract is "logged before acked", never "maybe logged"."""

    code = "wal"


class WALCorruptionError(WALError):
    """A WAL record in the *interior* of the log failed its CRC.

    A torn final record is the expected crash artifact and is silently
    truncated on recovery; a bad CRC with valid records after it means
    the log was damaged at rest and replay refuses to continue past it
    silently."""

    code = "wal-corrupt"


class WALFullError(WALError):
    """A WAL append failed for lack of disk (ENOSPC or kin) — a
    *transient environment* fault, not log damage.

    The registry rolls the already-folded batch back with its linear
    inverse (fold the same updates sign-flipped — exact by linearity),
    so the sketch state is as if the batch never arrived, and raises
    this typed retryable error instead of poisoning the session loop.
    Mutations for the sketch keep failing fast with ``wal_full`` (each
    attempt re-probes the disk) until an append succeeds again; reads,
    health, and checkpoint-driven truncation — the thing that frees
    space — keep running throughout."""

    code = "wal_full"


class BadRequestError(ServiceError):
    """A well-framed request with invalid contents — unknown command,
    missing arguments, malformed update payload."""

    code = "bad-request"


class NoSuchSketchError(ServiceError):
    """The request names a sketch the registry does not hold."""

    code = "no-such-sketch"


class SketchExistsError(ServiceError):
    """``create`` named a sketch that already exists (and the request
    did not allow adoption of the existing one)."""

    code = "sketch-exists"


class DrainingError(ServiceError):
    """The server is draining: in-flight work completes, but new ingest
    (and other mutating commands) are rejected with this typed error."""

    code = "draining"


class OverloadedError(ServiceError):
    """The server shed the request because its in-flight budget is full.

    Carries ``retry_after`` — the server's hint (seconds) for when to
    retry; it also travels in the error response header so remote
    clients back off without guessing.  Shedding early keeps queueing
    delay bounded: the alternative is every request slowing down until
    timeouts fire indiscriminately.
    """

    code = "overloaded"

    def __init__(self, message: str, retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = retry_after


class SketchFrozenError(ServiceError):
    """The sketch is frozen (a migration is dumping its state), so
    mutations are refused until ``thaw``.

    Freeze windows are bounded in milliseconds by design — the
    migration dumps, ships, and forgets/thaws — so clients treat this
    as transient and retry with backoff; stamped batches make the
    retry exactly-once safe."""

    code = "frozen"


class ReplicationError(ServiceError):
    """A replica-set operation failed as a whole — a write could not
    reach its quorum, or anti-entropy could not converge the replicas
    it can reach.  Individual replica failures are *not* this error
    (they are retried, failed over, or repaired); this is raised when
    the set itself can no longer honor its contract."""

    code = "replication"


class ServiceTimeoutError(ServiceError):
    """A client-side request deadline expired before the response.

    The request *may* have been applied — timeouts are ambiguous by
    nature.  Stamped mutations (``client``/``request`` ids) are safe to
    retry: the server's dedup window turns a re-send of an applied
    batch into a duplicate ack instead of a double fold.
    """

    code = "timeout"


class CommError(ReproError):
    """A referee exchange cannot proceed at all (:mod:`repro.comm`).

    Raised when there are no messages to decode.  A damaged or
    foreign message is rejected by the blob parser with
    :class:`PayloadCorruptionError` or :class:`IncompatibleSketchError`.
    """
