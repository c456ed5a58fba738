"""Per-sketch write-ahead log and exactly-once dedup window.

The durability contract of the sketch server is *logged before acked*:
every ``ingest-batch`` appends one WAL record — the packed pair
payload (or the JSON hyperedge batch) verbatim, plus the stamping
metadata — to a segment-rotated, CRC-framed log **before** the ack
leaves the socket.  Because sketch updates are linear, replaying a
logged batch after restoring a checkpoint is *bit-identical* to never
having crashed: recovery is ``load latest checkpoint, re-fold the WAL
tail``, and the test-suite asserts byte-equality of ``dump`` blobs
against a serial re-run of exactly the acknowledged batches.

On-disk layout (one directory per sketch)::

    wal-<first-seq 012d>.rpwl        segment: header + records
    segment header:  b"RPWL" | u8 version
    record:          u32 body_len | u32 crc32(body) | body
    body:            u64 seq | u8 kind | u32 meta_len | meta JSON | payload

``seq`` increases by one per record for the sketch's whole lifetime
(record 1 is the ``create`` record carrying the construction config,
so a sketch whose first checkpoint never landed is still recoverable
from the WAL alone).  Checkpoints store the covered ``seq`` in their
meta and then :meth:`WriteAheadLog.truncate_through` deletes the dead
segments, so disk use is bounded by the un-checkpointed tail plus one
segment.

Crash artifacts are distinguished deliberately:

* a **torn final record** (short read, or a CRC mismatch with nothing
  after it) is what an interrupted append leaves behind — recovery
  truncates it and continues, losing only a batch that was *never
  acked*;
* a **CRC-bad interior record** means damage at rest — replay raises
  :class:`~repro.errors.WALCorruptionError` rather than silently
  skipping acknowledged history.

Fsync policy (``fsync=``) sets the durability/throughput trade-off:
``"always"`` fsyncs before every ack (survives power loss),
``"os"`` flushes to the kernel page cache before every ack (survives
any process crash, SIGKILL included, but not power loss), ``"none"``
leaves records in the userspace buffer until rotation or close
(fastest; a crash can lose the buffered tail, acks included — only
for bulk loads that can re-run).
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from collections import OrderedDict
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import WALCorruptionError, WALError, WALFullError
from ..util.frame import parse_header
from ..util.fs import REAL_FS, Filesystem, numbered_files

#: ``errno`` values that mean "out of space", not "log damage".
_FULL_ERRNOS = frozenset(
    code for code in (
        getattr(errno, "ENOSPC", None), getattr(errno, "EDQUOT", None)
    ) if code is not None
)

_MAGIC = b"RPWL"
_VERSION = 1
_SUFFIX = ".rpwl"
_HEADER = _MAGIC + bytes([_VERSION])
_RECORD_PRELUDE = struct.Struct("<II")  # body_len, crc32(body)
_BODY_PRELUDE = struct.Struct("<QBI")  # seq, kind, meta_len

#: Record kinds.
KIND_CREATE = 1  #: meta = the sketch construction config
KIND_PAIRS = 2  #: payload = the packed rank-2 codec bytes, verbatim
KIND_UPDATES = 3  #: payload = JSON ``[[sign, [v...]], ...]`` utf-8

FSYNC_POLICIES = ("always", "os", "none")


class WALRecord(NamedTuple):
    """One decoded log record."""

    seq: int
    kind: int
    meta: Dict[str, object]
    payload: bytes


def encode_record(seq: int, kind: int, meta: Dict[str, object],
                  payload: bytes = b"") -> bytes:
    """Serialize one record (prelude + CRC-covered body)."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = _BODY_PRELUDE.pack(seq, kind, len(meta_bytes)) + meta_bytes + payload
    return _RECORD_PRELUDE.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes) -> WALRecord:
    seq, kind, meta_len = _BODY_PRELUDE.unpack_from(body, 0)
    off = _BODY_PRELUDE.size
    if off + meta_len > len(body):
        raise WALCorruptionError("WAL record meta overruns its body")
    meta = parse_header(body[off:off + meta_len], WALCorruptionError,
                        "WAL record meta")
    return WALRecord(int(seq), int(kind), meta, body[off + meta_len:])


def _scan_segment(path: str, final_segment: bool,
                  fs: Filesystem = REAL_FS) -> Tuple[List[WALRecord], int]:
    """Decode every record of one segment file.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    offset of the first torn byte (== file size when the segment is
    clean).  A torn tail is tolerated only in the *final* segment — a
    short interior segment means records acknowledged after it exist,
    so its damage raises :class:`WALCorruptionError`.
    """
    with fs.open(path, "rb") as fh:
        data = fh.read()
    if data[:len(_HEADER)] != _HEADER:
        raise WALCorruptionError(f"{path}: bad magic or version in WAL segment")
    records: List[WALRecord] = []
    off = len(_HEADER)
    while off < len(data):
        start = off
        if off + _RECORD_PRELUDE.size > len(data):
            break  # torn prelude
        body_len, crc = _RECORD_PRELUDE.unpack_from(data, off)
        off += _RECORD_PRELUDE.size
        if off + body_len > len(data):
            off = start
            break  # torn body
        body = data[off:off + body_len]
        if zlib.crc32(body) != crc:
            # A bad CRC at the very tail is a torn (interrupted) write;
            # anywhere else it is damage under acknowledged history.
            if final_segment and off + body_len == len(data):
                off = start
                break
            raise WALCorruptionError(
                f"{path}: CRC mismatch in WAL record at byte {start}"
            )
        records.append(_decode_body(body))
        off += body_len
    if off != len(data) and not final_segment:
        raise WALCorruptionError(
            f"{path}: torn record in a non-final WAL segment"
        )
    return records, off


class WriteAheadLog:
    """Segment-rotated, CRC-framed, fsync-policied write-ahead log.

    One instance per sketch; the caller (the registry, under the
    sketch's lock) owns sequencing — every :meth:`append` must pass the
    next monotonically increasing ``seq``.

    Opening an existing directory recovers it: segments are scanned,
    a torn final record is physically truncated away, and appends
    continue after the last intact record.
    """

    def __init__(self, directory: str, segment_bytes: int = 4 << 20,
                 fsync: str = "always", fs: Filesystem = REAL_FS):
        if fsync not in FSYNC_POLICIES:
            raise WALError(
                f"unknown WAL fsync policy {fsync!r} (want one of "
                f"{'/'.join(FSYNC_POLICIES)})"
            )
        self.directory = directory
        self.segment_bytes = max(1 << 12, int(segment_bytes))
        self.fsync = fsync
        self.fs = fs
        self._fh = None
        self._fh_path: Optional[str] = None
        self._fh_size = 0
        self.last_seq = 0
        self.appended = 0  # records appended by this process
        self.synced = 0  # fsyncs issued
        self._recover()

    # -- segment bookkeeping --------------------------------------------

    def _segments(self) -> List[Tuple[int, str]]:
        """(first_seq, path) of every segment, ascending."""
        return numbered_files(self.fs, self.directory, "wal-", _SUFFIX)

    def _recover(self) -> None:
        """Scan existing segments; truncate a torn tail; set last_seq."""
        segments = self._segments()
        for i, (_first, path) in enumerate(segments):
            final = i == len(segments) - 1
            records, valid = _scan_segment(path, final_segment=final,
                                           fs=self.fs)
            if records:
                self.last_seq = records[-1].seq
            if final and valid < self.fs.getsize(path):
                with self.fs.open(path, "r+b") as fh:
                    fh.truncate(valid)
                    self.fs.fsync(fh)

    def _open_segment(self, first_seq: int) -> None:
        self.fs.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"wal-{first_seq:012d}{_SUFFIX}")
        fh = self.fs.open(path, "ab")
        if fh.tell() == 0:
            try:
                fh.write(_HEADER)
                fh.flush()
                if self.fsync == "always":
                    self.fs.fsync(fh)
            except OSError:
                # A torn header would make the segment unscannable and
                # poison later appends; remove the husk before failing.
                fh.close()
                try:
                    self.fs.remove(path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                raise
            self.fs.fsync_dir(self.directory)
        self._fh = fh
        self._fh_path = path
        self._fh_size = fh.tell()

    def _ensure_segment(self, seq: int) -> None:
        if self._fh is None:
            segments = self._segments()
            if segments:
                # Continue the last segment unless it is already full.
                _first, path = segments[-1]
                if self.fs.getsize(path) < self.segment_bytes:
                    self._fh = self.fs.open(path, "ab")
                    self._fh_path = path
                    self._fh_size = self._fh.tell()
                    return
            self._open_segment(seq)
        elif self._fh_size >= self.segment_bytes:
            self.close_segment()
            self._open_segment(seq)

    def close_segment(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            if self.fsync == "always":
                self.fs.fsync(self._fh)
            self._fh.close()
            self._fh = None
            self._fh_path = None
            self._fh_size = 0

    close = close_segment

    # -- the write path --------------------------------------------------

    def append(self, seq: int, kind: int, meta: Dict[str, object],
               payload: bytes = b"") -> None:
        """Append one record and make it as durable as the policy says.

        Must be called with ``seq == last_seq + 1``; the monotonic
        check is an assertion of the caller's locking discipline, not
        input validation.
        """
        if seq != self.last_seq + 1:
            raise WALError(
                f"non-monotonic WAL append: seq {seq} after {self.last_seq}"
            )
        data = encode_record(seq, kind, meta, payload)
        try:
            self._ensure_segment(seq)
            self._fh.write(data)
            if self.fsync in ("always", "os"):
                self._fh.flush()
            if self.fsync == "always":
                self.fs.fsync(self._fh)
                self.synced += 1
        except OSError as exc:
            repaired = self._repair_failed_append()
            if exc.errno in _FULL_ERRNOS and repaired:
                # Disk full, log physically rolled back to its pre-append
                # length: the environment fault is transient and the log
                # is intact, so the caller may retry once space frees up.
                raise WALFullError(
                    f"WAL append hit a full disk: {exc}"
                ) from exc
            raise WALError(f"WAL append failed: {exc}") from exc
        self._fh_size += len(data)
        self.last_seq = seq
        self.appended += 1

    def _repair_failed_append(self) -> bool:
        """Truncate a possibly-torn append back off the live segment.

        A failed ``write``/``flush`` may have landed a prefix of the
        record; leaving it would tear the segment for every later
        append, not just this one.  Returns True when the segment is
        known intact (nothing was open, or the truncate succeeded).
        """
        if self._fh is None:
            return True
        try:
            self._fh.truncate(self._fh_size)
            self._fh.flush()
            return True
        except OSError:  # pragma: no cover - double disk fault
            # Can't prove the tail is clean; drop the handle so the next
            # append re-opens and recovery truncates by scan instead.
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
            self._fh_path = None
            self._fh_size = 0
            return False

    # -- the read path ---------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[WALRecord]:
        """Yield every intact record with ``seq > after_seq`` in order."""
        self.close_segment()
        segments = self._segments()
        for i, (_first, path) in enumerate(segments):
            records, _valid = _scan_segment(
                path, final_segment=(i == len(segments) - 1), fs=self.fs
            )
            for record in records:
                if record.seq > after_seq:
                    yield record

    # -- truncation (checkpoint interplay) -------------------------------

    def truncate_through(self, seq: int) -> int:
        """Delete segments made dead by a checkpoint covering ``seq``.

        A segment is dead when every record in it has ``seq`` at most
        the covered one — detected without scanning via the *next*
        segment's first-seq name.  The final segment is never deleted
        (it is the append target); rotation retires it naturally.
        Returns the number of segments removed.
        """
        segments = self._segments()
        removed = 0
        for (first, path), (next_first, _next_path) in zip(
            segments, segments[1:]
        ):
            if next_first <= seq + 1:
                if self._fh_path == path:  # pragma: no cover - paranoia
                    self.close_segment()
                try:
                    self.fs.remove(path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    continue
                removed += 1
        if removed:
            self.fs.fsync_dir(self.directory)
        return removed

    # -- observability ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        segments = self._segments()
        return {
            "segments": len(segments),
            "bytes": sum(
                self.fs.getsize(p) for _s, p in segments
                if self.fs.exists(p)
            ),
            "last_seq": self.last_seq,
            "appended": self.appended,
            "synced": self.synced,
            "fsync": self.fsync,
        }


def wipe_wal(directory: str, fs: Filesystem = REAL_FS) -> None:
    """Delete every WAL segment under ``directory`` (stale lineage).

    Used when a sketch name is *re-created*: the old log belongs to a
    dead sketch and replaying it into the new one would be corruption.
    """
    if not fs.isdir(directory):
        return
    for _first, path in numbered_files(fs, directory, "wal-", _SUFFIX):
        try:
            fs.remove(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    fs.fsync_dir(directory)


class DedupWindow:
    """Bounded (client, request) -> ack memory for exactly-once ingest.

    The server consults it *before* folding a stamped batch and records
    the ack *after* the WAL append, all under the sketch lock; a
    timed-out client can therefore re-send with the same stamp and
    receive the original ack (``duplicate: true``) instead of a double
    fold.  Eviction is FIFO by insertion — with the window sized a few
    multiples of (clients x in-flight requests per client), an entry
    only falls out long after its client stopped retrying it.

    The window is crash-persistent *through the log*: checkpoint meta
    stores :meth:`to_list` for the covered prefix, and WAL replay
    re-adds the stamp of every replayed record, so recovery rebuilds
    exactly the window a non-crashed server would hold.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[Tuple[str, int], Dict[str, int]]" = (
            OrderedDict()
        )
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> float:
        return len(self._entries) / self.capacity

    def check(self, client: Optional[str],
              request: Optional[int]) -> Optional[Dict[str, int]]:
        """The remembered ack for a stamp, or None (unstamped: None)."""
        if client is None or request is None:
            return None
        ack = self._entries.get((str(client), int(request)))
        if ack is not None:
            self.hits += 1
        return ack

    def add(self, client: Optional[str], request: Optional[int],
            count: int, events: int) -> None:
        """Remember the ack of an applied stamped batch."""
        if client is None or request is None:
            return
        key = (str(client), int(request))
        self._entries[key] = {"count": int(count), "events": int(events)}
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- checkpoint persistence ------------------------------------------

    def to_list(self) -> List[List[object]]:
        """JSON-serializable snapshot, oldest first."""
        return [
            [client, request, ack["count"], ack["events"]]
            for (client, request), ack in self._entries.items()
        ]

    @classmethod
    def from_list(cls, items, capacity: int = 4096) -> "DedupWindow":
        window = cls(capacity=capacity)
        for client, request, count, events in items:
            window.add(client, request, count, events)
        return window
