"""Fault-injection harness for the ingestion engine.

Not a test module (the ``test_*``/``bench_*`` collection globs skip
it): these are the building blocks the ``-m faults`` tests and the
chaos smoke job compose.  Everything is deterministic in a seed — a
chaos run that fails is rerunnable bit-for-bit.

The injectable faults mirror the failure model in docs/engine.md:

* :class:`KillWorkerOnce` — SIGKILL one shard's worker process at the
  Nth dispatched batch (shm backend);
* :func:`flip_byte` — corrupt one byte of a file in place (checkpoint
  damage);
* :func:`rewrite_blob_member` — a member-state blob whose header claims
  another (possibly out-of-range) member, its CRC resealed;
* :func:`make_stream` / :func:`reference_sketch` — a deterministic
  workload and its uninterrupted ground truth, so recovery tests can
  assert byte equality of sketch state rather than approximate
  agreement.
"""

from __future__ import annotations

import os
import signal

import numpy as np

from repro.graph.generators import random_connected_graph
from repro.sketch.serialization import dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import with_churn


def make_stream(n: int = 24, extra: int = 18, seed: int = 0):
    """A deterministic insert+churn stream over a connected graph."""
    g = random_connected_graph(n, extra, seed=seed)
    churn = [(0, n - 1), (1, n - 2), (2, n - 3)]
    return n, list(with_churn(g, churn, shuffle_seed=seed))


def make_prototype(n: int, seed: int = 0) -> SpanningForestSketch:
    """The sketch prototype used across the fault tests."""
    return SpanningForestSketch(n, seed=seed, rounds=6, rows=2, buckets=8)


def reference_sketch(prototype, events) -> bytes:
    """Ground truth: the serialized state of an uninterrupted scalar run."""
    clean = prototype.copy()
    for grid in _iter_grids(clean):
        grid.reset()
    for u in events:
        clean.update(u.edge, u.sign)
    return dump_sketch(clean)


def _iter_grids(sketch):
    from repro.sketch.serialization import iter_grids

    return iter_grids(sketch)


class KillWorkerOnce:
    """Engine fault hook: SIGKILL one shard worker at the Nth batch.

    Usable only with the shm backend; reaches the live pool through
    ``engine.pool`` to find the victim pid.  Records what it killed in
    :attr:`killed`.
    """

    def __init__(self, engine, shard: int = 0, at_batch: int = 1):
        self.engine = engine
        self.shard = shard
        self.at_batch = at_batch
        self.killed: list = []

    def __call__(self, shard: int, batch_index: int) -> None:
        if self.killed or batch_index != self.at_batch:
            return
        pool = self.engine.pool
        pid = pool.worker_pid(self.shard)
        os.kill(pid, signal.SIGKILL)
        pool._procs[self.shard].join(timeout=5.0)
        self.killed.append(pid)


def flip_byte(path: str, offset: int = -8) -> None:
    """Corrupt one byte of a file in place (negative offsets from EOF)."""
    with open(path, "r+b") as fh:
        fh.seek(offset, os.SEEK_END if offset < 0 else os.SEEK_SET)
        pos = fh.tell()
        byte = fh.read(1)
        fh.seek(pos)
        fh.write(bytes([byte[0] ^ 0xFF]))


def flip_bank_bit(sketch, seed: int = 0) -> dict:
    """Flip one deterministic bit in one live counter bank.

    The victim grid, array (w/s/f), cell, and bit are all derived from
    ``seed``, so a failing chaos run replays exactly.  Returns where the
    damage landed — ``label``/``instance``/``group``/``member``/
    ``level`` match the coordinates :func:`repro.audit.audit_sketch`
    reports (``row`` too, which the audit cannot name), so tests can
    assert localization, not just detection.
    """
    from repro.audit.integrity import named_grids
    from repro.util.hashing import hash64

    refs = list(named_grids(sketch, "sketch"))
    ref = refs[hash64(seed, 0xB17) % len(refs)]
    grid = ref.grid
    arrays = {"w": grid._w, "s": grid._s, "f": grid._f}
    name = ("w", "s", "f")[hash64(seed, 0xA44) % 3]
    arr = arrays[name]
    flat = hash64(seed, 0xCE11) % arr.size
    bit = hash64(seed, 0xF11B) % 64
    arr.reshape(-1)[flat] ^= (1 << bit) - (1 << 64 if bit == 63 else 0)
    group, member, level, row, _bucket = (
        int(i) for i in np.unravel_index(flat, arr.shape)
    )
    return {
        "label": ref.label,
        "instance": ref.instance if ref.instance is not None else group,
        "array": name,
        "group": group,
        "member": member,
        "level": level,
        "row": row,
        "bit": bit,
    }


def flip_blob_byte(blob: bytes, seed: int = 0) -> bytes:
    """Flip one deterministic bit in the payload half of a sketch blob.

    Targets the second half of the blob — counter payload for any
    realistically sized sketch — so the damage is the kind the payload
    CRC (not the envelope structure checks) must catch.
    """
    from repro.util.hashing import hash64

    data = bytearray(blob)
    lo = len(data) // 2
    pos = lo + hash64(seed, 0x0FF5) % (len(data) - lo)
    data[pos] ^= 1 << (hash64(seed, 0xB0B0) % 8)
    return bytes(data)


def rewrite_blob_member(blob: bytes, member) -> bytes:
    """Re-pack a member-state blob with its header ``"member"`` replaced.

    The frame CRC covers the header, so the result is resealed: it
    models a hostile peer that can compute a CRC, the case the
    member-index range check (not the CRC) must catch.
    """
    from repro.errors import PayloadCorruptionError
    from repro.util import frame

    header, payloads = frame.unpack(blob, b"RPRS", 2, PayloadCorruptionError)
    header["member"] = member
    return frame.pack(b"RPRS", 2, header, payloads)
