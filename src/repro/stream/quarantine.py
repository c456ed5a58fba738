"""Input quarantine: malformed updates become records, not run-enders.

A production stream is hostile: lines fail to parse, vertex ids fall
outside the declared domain, hyperedges exceed the rank bound, and
balance invariants break (double insertions, deletions of absent
edges).  The library's default is *strict* — raise at the offending
line — which is right for curated workloads and wrong for a service
that must survive one bad producer.  This module supplies the middle
ground:

* :data:`POLICIES` — ``"strict"`` (raise, the default everywhere),
  ``"quarantine"`` (divert the bad update to a quarantine file with
  full line provenance and keep going), ``"drop"`` (skip silently,
  count only);
* :class:`BadUpdate` — one diverted update: line number, a
  machine-readable ``reason`` code, the human detail, and the raw
  offending text;
* :class:`Quarantine` — the sink.  Records are kept in memory and,
  when a path is given, appended eagerly to a JSON-lines file (one
  object per bad line) so provenance survives a later crash.

The stream reader (:func:`repro.stream.file_io.read_stream`) accepts a
policy and a :class:`Quarantine`; it is the one offline place that
classifies bad updates into the reason codes below.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import IO, List, Optional

from ..errors import StreamError

POLICIES = ("strict", "quarantine", "drop")

# Machine-readable reason codes.
REASON_PARSE = "parse"                    # line does not tokenize as an event
REASON_DOMAIN = "domain"                  # vertex id outside [0, n)
REASON_RANK = "rank"                      # hyperedge cardinality out of bounds
REASON_DOUBLE_INSERT = "balance-double-insert"
REASON_ABSENT_DELETE = "balance-absent-delete"


def check_policy(policy: str) -> str:
    """Validate a bad-update policy name; returns it unchanged."""
    if policy not in POLICIES:
        raise StreamError(
            f"unknown bad-update policy {policy!r} (choose from {POLICIES})"
        )
    return policy


@dataclass(frozen=True)
class BadUpdate:
    """One malformed update with its provenance.

    ``line`` is the 1-based line number in the stream file.
    ``reason`` is one of the ``REASON_*`` codes.  ``source`` is always
    ``"file"``; it stays a field so the JSONL schema is unchanged.
    """

    line: int
    reason: str
    detail: str
    raw: str
    source: str = "file"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class Quarantine:
    """Sink for diverted updates, with an optional JSONL file behind it.

    Every :meth:`record` appends to the in-memory list and — when the
    quarantine was opened with a path — writes the JSON line through
    immediately, so a crash cannot lose provenance already collected.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: List[BadUpdate] = []
        self.dropped = 0  # updates skipped under the "drop" policy
        self._fh: Optional[IO[str]] = None
        if path is not None:
            self._fh = open(path, "a")

    def record(self, bad: BadUpdate) -> None:
        """Divert one bad update into the quarantine."""
        self.records.append(bad)
        if self._fh is not None:
            self._fh.write(bad.to_json() + "\n")
            self._fh.flush()

    def drop(self) -> None:
        """Count one silently dropped update."""
        self.dropped += 1

    def __len__(self) -> int:
        return len(self.records)

    def close(self) -> None:
        if self._fh is not None:
            # Quarantine records are the forensic trail of an unhealthy
            # run — make them durable, not just buffered, before the
            # process (possibly crashing) lets go of the file.
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Quarantine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def read(path: str) -> List[BadUpdate]:
        """Load a quarantine file back into :class:`BadUpdate` records."""
        out: List[BadUpdate] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(BadUpdate(**json.loads(line)))
        return out


def handle_bad_update(
    policy: str,
    bad: BadUpdate,
    quarantine: Optional[Quarantine],
    exc: Optional[Exception] = None,
) -> None:
    """Apply a policy to one bad update.

    ``strict`` re-raises ``exc`` (or a :class:`StreamError` built from
    the record), ``quarantine`` records into ``quarantine`` (required),
    ``drop`` counts it when a quarantine is attached and otherwise
    discards silently.
    """
    check_policy(policy)
    if policy == "strict":
        if exc is not None:
            raise exc
        raise StreamError(f"line {bad.line}: {bad.detail}")
    if policy == "quarantine":
        if quarantine is None:
            raise StreamError(
                "policy 'quarantine' needs a Quarantine sink to record into"
            )
        quarantine.record(bad)
        return
    if quarantine is not None:
        quarantine.drop()
