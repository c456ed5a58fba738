"""Checkpoint/restore for sharded sketch ingestion.

A checkpoint captures a *consistent barrier* of an ingest: the stream
offset (events consumed) plus every shard's full sketch state, dumped
through :func:`repro.sketch.serialization.dump_sketch`.  Because the
sketches are linear and the shard partition is deterministic, restoring
the blobs and replaying the stream from the stored offset reproduces
the uninterrupted run *bit for bit*.

File format (one file per checkpoint, ``ckpt-<offset>.rpck``)::

    RPCK | u32 header_len | JSON header | u64 len, blob (per shard) | u32 crc32

The JSON header records a format version, the stream offset, and the
engine configuration (shard count, partition seed, user metadata); the
trailing CRC32 covers everything before it.  Writes go to a temporary
file in the same directory followed by ``os.replace``, so a crash
mid-write can never leave a half-written file under a checkpoint name.
Restores verify magic, version, CRC, and shard count and raise
:class:`~repro.errors.CheckpointError` on any mismatch — a damaged
checkpoint is loudly rejected, never silently deserialized.  The
manager retains ``keep`` generations, and ``load_latest`` falls back
(with a warning) to the previous generation when the newest fails
verification, so one corrupt byte costs at most one checkpoint
interval of replay rather than the whole run.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError
from ..util.fs import REAL_FS, Filesystem

_MAGIC = b"RPCK"
_VERSION = 1
_SUFFIX = ".rpck"


@dataclass
class Checkpoint:
    """One restored (or about-to-be-saved) ingest barrier."""

    offset: int
    shard_blobs: List[bytes]
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def shards(self) -> int:
        return len(self.shard_blobs)


def encode_checkpoint(ck: Checkpoint) -> bytes:
    """Serialize a checkpoint to its on-disk byte format."""
    header = {
        "version": _VERSION,
        "offset": ck.offset,
        "shards": len(ck.shard_blobs),
        "meta": ck.meta,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_MAGIC, struct.pack("<I", len(head)), head]
    for blob in ck.shard_blobs:
        parts.append(struct.pack("<Q", len(blob)))
        parts.append(blob)
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload))


def decode_checkpoint(data: bytes) -> Checkpoint:
    """Parse and fully verify checkpoint bytes.

    Raises :class:`CheckpointError` on bad magic, version, truncation,
    bit flips (CRC mismatch), or structural damage.
    """
    if len(data) < 12 or data[:4] != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    payload, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) != crc:
        raise CheckpointError(
            "checkpoint checksum mismatch (file is truncated or corrupted)"
        )
    (head_len,) = struct.unpack_from("<I", data, 4)
    offset = 8
    if offset + head_len > len(payload):
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(data[offset:offset + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if header.get("version") != _VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')}"
        )
    offset += head_len
    blobs: List[bytes] = []
    for _ in range(int(header["shards"])):
        if offset + 8 > len(payload):
            raise CheckpointError("truncated checkpoint (missing shard blob)")
        (size,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        if offset + size > len(payload):
            raise CheckpointError("truncated checkpoint (short shard blob)")
        blobs.append(data[offset:offset + size])
        offset += size
    if offset != len(payload):
        raise CheckpointError("trailing bytes in checkpoint payload")
    return Checkpoint(offset=int(header["offset"]), shard_blobs=blobs,
                      meta=dict(header.get("meta", {})))


class CheckpointManager:
    """Directory of periodic ingest checkpoints with atomic writes.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created on first save).
    interval:
        Engine barrier period, in stream events — the engine consults
        this to decide when to quiesce the shards and save.
    keep:
        How many most-recent checkpoints to retain; older files are
        pruned after each successful save (at least 1 is always kept).
    """

    def __init__(self, directory: str, interval: int = 10_000, keep: int = 2,
                 fs: Filesystem = REAL_FS):
        if interval < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {interval}")
        self.directory = directory
        self.interval = interval
        self.keep = max(1, keep)
        self.fs = fs
        # Damaged-generation fallbacks observed by the last load_latest().
        self.last_fallback: List[Tuple[str, str]] = []

    # -- paths ----------------------------------------------------------

    def _path_for(self, offset: int) -> str:
        return os.path.join(self.directory, f"ckpt-{offset:012d}{_SUFFIX}")

    def _existing(self) -> List[Tuple[int, str]]:
        """(offset, path) of every checkpoint file, ascending by offset."""
        if not self.fs.isdir(self.directory):
            return []
        found = []
        for name in self.fs.listdir(self.directory):
            if name.startswith("ckpt-") and name.endswith(_SUFFIX):
                try:
                    offset = int(name[len("ckpt-"):-len(_SUFFIX)])
                except ValueError:
                    continue
                found.append((offset, os.path.join(self.directory, name)))
        return sorted(found)

    def latest_path(self) -> Optional[str]:
        """Path of the most recent checkpoint, or None."""
        existing = self._existing()
        return existing[-1][1] if existing else None

    # -- save / load ----------------------------------------------------

    def save(self, ck: Checkpoint) -> str:
        """Atomically persist a checkpoint; returns its path.

        The bytes are written to a ``.tmp`` file in the same directory,
        flushed and fsynced, then renamed into place, so readers only
        ever see complete files.  The *directory* is fsynced after the
        rename: on ext4/xfs a rename is only durable once the directory
        entry itself reaches disk, so without this a crash shortly
        after ``save`` could roll the directory back to a state where
        the checkpoint never existed.
        """
        self.fs.makedirs(self.directory, exist_ok=True)
        path = self._path_for(ck.offset)
        tmp = path + ".tmp"
        data = encode_checkpoint(ck)
        with self.fs.open(tmp, "wb") as fh:
            fh.write(data)
            self.fs.fsync(fh)
        self.fs.replace(tmp, path)
        self.fs.fsync_dir(self.directory)
        self._prune()
        return path

    def _prune(self) -> None:
        for _offset, path in self._existing()[:-self.keep]:
            try:
                self.fs.remove(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def wipe(self) -> int:
        """Delete every retained checkpoint (a dead lineage).

        Used when a name is *re-created* over an old checkpoint
        directory: the stale generations belong to a different sketch
        and ``load_latest`` would otherwise prefer them (their offsets
        can exceed the new lineage's).  Returns the number of files
        removed.
        """
        removed = 0
        for _offset, path in self._existing():
            try:
                self.fs.remove(path)
                removed += 1
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        if removed:
            self.fs.fsync_dir(self.directory)
        return removed

    def load(self, path: str) -> Checkpoint:
        """Load and verify one checkpoint file."""
        try:
            with self.fs.open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        return decode_checkpoint(data)

    def load_latest(self, strict: bool = False) -> Optional[Checkpoint]:
        """The most recent *loadable* checkpoint, or None when empty.

        By default, a damaged newest checkpoint (truncation, bit flip,
        CRC mismatch) falls back to the previous retained generation —
        with ``keep >= 2`` a single corrupt byte no longer makes resume
        impossible.  Every fallback is announced with a
        :class:`UserWarning` and recorded in :attr:`last_fallback`
        (``(bad_path, error_message)`` pairs, newest first), so the
        caller can surface how much progress was sacrificed.  Only when
        *every* retained generation is damaged does it raise
        :class:`CheckpointError`, listing each file's failure.

        With ``strict=True`` the pre-fallback behaviour is restored: a
        damaged newest checkpoint raises immediately and the caller
        decides whether older state is acceptable.
        """
        self.last_fallback: List[Tuple[str, str]] = []
        existing = self._existing()
        if not existing:
            return None
        failures: List[Tuple[str, str]] = []
        for _offset, path in reversed(existing):
            try:
                return self.load(path)
            except CheckpointError as exc:
                if strict:
                    raise
                failures.append((path, str(exc)))
                self.last_fallback = list(failures)
                warnings.warn(
                    f"checkpoint {os.path.basename(path)} is damaged "
                    f"({exc}); falling back to the previous generation",
                    stacklevel=2,
                )
        detail = "; ".join(
            f"{os.path.basename(p)}: {msg}" for p, msg in failures
        )
        raise CheckpointError(
            f"every retained checkpoint is damaged ({detail})"
        )
