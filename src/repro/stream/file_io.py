"""Text file format for dynamic (hyper)graph streams.

A stream file is line-oriented:

* ``# ...`` — comment
* ``n <count> [r <rank>]`` — header (must come first)
* ``+ v1 v2 [v3 ...]`` — hyperedge insertion
* ``- v1 v2 [v3 ...]`` — hyperedge deletion

Example::

    # two triangles, one deleted edge
    n 6 r 3
    + 0 1 2
    + 3 4
    + 4 5
    - 3 4

The format exists so streams are artifacts: workloads can be generated
once, checked in, replayed through the CLI (:mod:`repro.cli`) or any
sketch, and shared across language implementations.

The reader is the offline stream-model check: every event line goes
through a :class:`~repro.stream.updates.StreamValidator`, so a line
that does not parse, leaves the ``[0, n)`` domain, breaks the rank
bound, inserts a live edge or deletes an absent one is a bad line.  Bad
lines raise :class:`~repro.errors.StreamError` with the offending
1-based line number by default; under the ``quarantine`` or ``drop``
policies (see :mod:`repro.stream.quarantine`) they are diverted or
skipped instead, so one rotten producer cannot kill a whole replay.
Header problems are always fatal — without ``n`` there is no domain to
validate against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TextIO, Tuple

from ..errors import DomainError, RankError, StreamError
from .quarantine import (
    REASON_ABSENT_DELETE,
    REASON_DOMAIN,
    REASON_DOUBLE_INSERT,
    REASON_PARSE,
    REASON_RANK,
    BadUpdate,
    Quarantine,
    check_policy,
    handle_bad_update,
)
from .updates import DELETE, INSERT, EdgeUpdate, StreamValidator


def write_stream(
    fh: TextIO, n: int, updates: Iterable[EdgeUpdate], r: int = 2
) -> int:
    """Write a stream; returns the number of events written."""
    fh.write(f"n {n} r {r}\n")
    count = 0
    for u in updates:
        op = "+" if u.sign > 0 else "-"
        fh.write(f"{op} {' '.join(str(v) for v in u.edge)}\n")
        count += 1
    return count


def read_stream(
    fh: TextIO,
    on_bad_line: str = "strict",
    quarantine: Optional[Quarantine] = None,
) -> Tuple[int, int, List[EdgeUpdate]]:
    """Parse a stream file; returns ``(n, r, updates)``.

    Every event goes through one
    :class:`~repro.stream.updates.StreamValidator`, so the returned
    updates form a valid dynamic stream: vertices in ``[0, n)``, at
    most ``r`` per hyperedge, and no double insertion or deletion of an
    absent edge.

    Parameters
    ----------
    on_bad_line:
        ``"strict"`` (default) raises :class:`~repro.errors.StreamError`
        at the first bad *event* line, with its line number.
        ``"quarantine"`` diverts each bad line into ``quarantine`` (a
        :class:`~repro.stream.quarantine.Quarantine`, required) and
        keeps parsing; ``"drop"`` skips bad lines silently.  Header
        problems (missing, duplicate, or unparsable ``n`` line) are
        fatal under every policy.
    """
    check_policy(on_bad_line)
    n = None
    r = 2
    validator: Optional[StreamValidator] = None
    updates: List[EdgeUpdate] = []
    saw_content = False
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        saw_content = True
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise StreamError(f"line {lineno}: duplicate header")
            try:
                n = int(parts[1])
                if len(parts) >= 4 and parts[2] == "r":
                    r = int(parts[3])
                validator = StreamValidator(n, r)
            except (IndexError, ValueError, DomainError) as exc:
                raise StreamError(f"line {lineno}: bad header {line!r}") from exc
            continue

        def bad(reason: str, detail: str) -> None:
            handle_bad_update(
                on_bad_line,
                BadUpdate(line=lineno, reason=reason, detail=detail, raw=line),
                quarantine,
                exc=StreamError(f"line {lineno}: {detail}"),
            )

        if parts[0] not in ("+", "-"):
            bad(REASON_PARSE, f"unknown op {parts[0]!r}")
            continue
        if validator is None:
            raise StreamError(f"line {lineno}: event before 'n' header")
        try:
            verts = tuple(int(p) for p in parts[1:])
        except ValueError:
            bad(REASON_PARSE, f"bad vertex in {line!r}")
            continue
        sign = INSERT if parts[0] == "+" else DELETE
        try:
            update = EdgeUpdate(verts, sign)
            validator.apply(update)
        except RankError as exc:
            bad(REASON_RANK, str(exc))
            continue
        except DomainError as exc:
            bad(REASON_DOMAIN, str(exc))
            continue
        except StreamError as exc:
            reason = REASON_DOUBLE_INSERT if sign == INSERT else REASON_ABSENT_DELETE
            bad(reason, str(exc))
            continue
        updates.append(update)
    if n is None:
        if not saw_content:
            raise StreamError("stream file is empty (no 'n' header)")
        raise StreamError("stream file has no 'n' header")
    return n, r, updates


def load_stream_file(
    path: str,
    on_bad_line: str = "strict",
    quarantine: Optional[Quarantine] = None,
) -> Tuple[int, int, List[EdgeUpdate]]:
    """Read a stream from a file path."""
    with open(path) as fh:
        return read_stream(fh, on_bad_line=on_bad_line, quarantine=quarantine)


def save_stream_file(
    path: str, n: int, updates: Iterable[EdgeUpdate], r: int = 2
) -> int:
    """Write a stream to a file path; returns the event count."""
    with open(path, "w") as fh:
        return write_stream(fh, n, updates, r)
