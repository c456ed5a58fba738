"""Serialization of sketch state.

Linear sketches are *messages* in every deployment the paper
envisions — a stream processor checkpoints them, distributed players
ship them to the referee, shards merge them.  This module provides a
compact, self-describing binary format for :class:`SamplerGrid` state
and for single-member (player) columns:

* ``dump_grid`` / ``load_grid`` — full grid state.  Loading verifies
  the structural header (shape, seed) so that state can only be
  restored into a compatible grid; mismatches raise
  :class:`~repro.errors.IncompatibleSketchError` rather than silently
  corrupting counters.
* ``dump_member_state`` / ``load_member_state`` — one player's column
  (the payload of a simultaneous-protocol message), with the same
  header checks.

Format: a small JSON header (length-prefixed) followed by the raw
little-endian ``int64`` counter arrays.  No pickle — the format is
portable and cannot execute code.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Tuple

import numpy as np

from ..errors import IncompatibleSketchError, PayloadCorruptionError
from .bank import SamplerGrid

_MAGIC = b"RPRS"
_VERSION = 1


def _header_for(grid: SamplerGrid) -> Dict[str, int]:
    return {
        "version": _VERSION,
        "groups": grid.groups,
        "members": grid.members,
        "domain": grid.domain,
        "levels": grid.levels,
        "rows": grid.rows,
        "buckets": grid.buckets,
        "seed": grid.seed,
    }


def _pack(header: Dict[str, int], arrays: Tuple[np.ndarray, ...]) -> bytes:
    payloads = [np.ascontiguousarray(arr, dtype="<i8").tobytes() for arr in arrays]
    crc = 0
    for data in payloads:
        crc = zlib.crc32(data, crc)
    # Fixed-width hex so the message size stays data-independent.
    header = dict(header, crc=f"{crc:08x}")
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [_MAGIC, struct.pack("<I", len(head)), head]
    for data in payloads:
        out.append(struct.pack("<Q", len(data)))
        out.append(data)
    return b"".join(out)


def _unpack(blob: bytes, count: int) -> Tuple[Dict[str, int], Tuple[np.ndarray, ...]]:
    if blob[:4] != _MAGIC:
        raise IncompatibleSketchError("not a sketch blob (bad magic)")
    (head_len,) = struct.unpack_from("<I", blob, 4)
    offset = 8
    header = json.loads(blob[offset:offset + head_len].decode("utf-8"))
    if header.get("version") != _VERSION:
        raise IncompatibleSketchError(
            f"unsupported sketch blob version {header.get('version')}"
        )
    offset += head_len
    arrays = []
    crc = 0
    for _ in range(count):
        (size,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        data = blob[offset:offset + size]
        crc = zlib.crc32(data, crc)
        arrays.append(np.frombuffer(data, dtype="<i8", count=size // 8).copy())
        offset += size
    if offset != len(blob):
        raise IncompatibleSketchError("trailing bytes in sketch blob")
    expected_crc = header.pop("crc", None)
    if expected_crc is not None and expected_crc != f"{crc:08x}":
        raise PayloadCorruptionError(
            f"sketch blob payload CRC mismatch "
            f"(stored {expected_crc}, computed {crc:08x})"
        )
    return header, tuple(arrays)


def _check_header(grid: SamplerGrid, header: Dict[str, int]) -> None:
    expected = _header_for(grid)
    mismatched = [k for k in expected if header.get(k) != expected[k]]
    if mismatched:
        raise IncompatibleSketchError(
            f"sketch blob incompatible with grid (fields: {mismatched})"
        )


def dump_grid(grid: SamplerGrid) -> bytes:
    """Serialize a grid's full counter state."""
    return _pack(_header_for(grid), (grid._w, grid._s, grid._f))


def load_grid(grid: SamplerGrid, blob: bytes, accumulate: bool = False) -> SamplerGrid:
    """Restore (or, with ``accumulate``, linearly add) serialized state.

    The target ``grid`` must have been constructed with the same
    parameters and seed as the dumped one; the header is verified.
    ``accumulate=True`` adds the stored counters instead of replacing —
    i.e. merges two sketches, exploiting linearity.
    """
    header, (w, s, f) = _unpack(blob, 3)
    _check_header(grid, header)
    shape = grid._w.shape
    w, s, f = w.reshape(shape), s.reshape(shape), f.reshape(shape)
    # Strictly in-place: the counter arrays are views into the grid's
    # SoA block, which may itself be a shared-memory mapping other
    # processes hold — rebinding would silently detach them.
    from ..util.prime_field import MERSENNE_61 as _P

    if accumulate:
        grid._w += w
        for dst, src in ((grid._s, s), (grid._f, f)):
            dst += src
            np.subtract(dst, _P, out=dst, where=dst >= _P)
    else:
        grid._w[...] = w
        grid._s[...] = s
        grid._f[...] = f
    if grid._digest is not None:
        # The blob's payload CRC already vouched for the bytes; rebase
        # the maintained digest on the restored counters.
        from ..audit.digest import GridDigest

        grid._digest = GridDigest.compute(grid)
    # Restoring replaces (or shifts) every member's counters at once.
    grid._touch()
    return grid


def dump_member_state(grid: SamplerGrid, member: int) -> bytes:
    """Serialize one player's column (a referee-protocol message)."""
    state = grid.extract_member(member)
    header = _header_for(grid)
    header["member"] = member
    return _pack(header, (state["w"], state["s"], state["f"]))


def peek_member(blob: bytes) -> int:
    """The member index a serialized player message belongs to.

    Parses and CRC-verifies the blob without touching any grid, so a
    receiver can dedup or route a message *before* folding it in —
    folding is a linear add, and adding the same column twice corrupts
    the sketch.
    """
    header, _ = _unpack(blob, 3)
    member = header.get("member")
    if member is None:
        raise IncompatibleSketchError("blob is not a member-state message")
    return int(member)


def load_member_state(grid: SamplerGrid, blob: bytes) -> int:
    """Merge a serialized player message into a referee grid.

    Returns the member index the message belongs to.
    """
    header, (w, s, f) = _unpack(blob, 3)
    member = header.pop("member", None)
    if member is None:
        raise IncompatibleSketchError("blob is not a member-state message")
    _check_header(grid, header)
    shape = grid._w[:, member].shape
    grid.add_member_state(
        member,
        {"w": w.reshape(shape), "s": s.reshape(shape), "f": f.reshape(shape)},
    )
    return member


def replace_member_state(grid: SamplerGrid, blob: bytes) -> int:
    """Overwrite one member's column with a serialized player message.

    The repair-side twin of :func:`load_member_state`: anti-entropy
    ships a *correct* replica's column and the divergent replica must
    end bit-identical, so the column is replaced rather than linearly
    added.  Returns the member index.
    """
    header, (w, s, f) = _unpack(blob, 3)
    member = header.pop("member", None)
    if member is None:
        raise IncompatibleSketchError("blob is not a member-state message")
    _check_header(grid, header)
    member = int(member)
    shape = grid._w[:, member].shape
    grid._w[:, member] = w.reshape(shape)
    grid._s[:, member] = s.reshape(shape)
    grid._f[:, member] = f.reshape(shape)
    grid._touch()
    if grid._digest is not None:
        from ..audit.digest import GridDigest

        grid._digest = GridDigest.compute(grid)
    return member


def message_bytes(grid: SamplerGrid, member: int = 0) -> int:
    """Exact on-the-wire size of one player message."""
    return len(dump_member_state(grid, member))


# -- whole-sketch state (engine checkpoints, worker shipping) ------------

_SKETCH_MAGIC = b"RPSK"


def iter_grids(sketch):
    """Yield every :class:`SamplerGrid` a composite sketch owns.

    Understands the library's composition conventions: a raw grid, a
    sketch owning a ``grid`` (:class:`SpanningForestSketch`), and a
    sketch owning ``layers`` of sub-sketches (:class:`SkeletonSketch`),
    recursively.  This is what lets the ingestion engine checkpoint and
    merge any of the streaming sketches without per-type code.
    """
    if isinstance(sketch, SamplerGrid):
        yield sketch
    elif hasattr(sketch, "grid"):
        yield sketch.grid
    elif hasattr(sketch, "layers"):
        for layer in sketch.layers:
            yield from iter_grids(layer)
    else:
        raise IncompatibleSketchError(
            f"cannot serialize {type(sketch).__name__}: "
            "expected a SamplerGrid, .grid, or .layers"
        )


def dump_sketch(sketch) -> bytes:
    """Serialize the full counter state of any grid-composed sketch.

    The envelope is a magic tag, a grid count, and the length-prefixed
    :func:`dump_grid` blob of each constituent grid (each carrying its
    own verified header).
    """
    blobs = [dump_grid(g) for g in iter_grids(sketch)]
    out = [_SKETCH_MAGIC, struct.pack("<I", len(blobs))]
    for blob in blobs:
        out.append(struct.pack("<Q", len(blob)))
        out.append(blob)
    return b"".join(out)


def verify_sketch_blob(blob: bytes) -> int:
    """Structurally verify a :func:`dump_sketch` blob without a target.

    Walks the envelope and re-checks every constituent grid blob's
    payload CRC (no counters are deserialized into any live grid).
    Returns the number of grids verified.  Raises
    :class:`~repro.errors.PayloadCorruptionError` on a CRC mismatch and
    :class:`~repro.errors.IncompatibleSketchError` on structural damage
    (bad magic, truncation, trailing bytes).
    """
    if blob[:4] != _SKETCH_MAGIC:
        raise IncompatibleSketchError("not a sketch-state blob (bad magic)")
    (count,) = struct.unpack_from("<I", blob, 4)
    offset = 8
    for _ in range(count):
        if offset + 8 > len(blob):
            raise IncompatibleSketchError("truncated sketch-state blob")
        (size,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        if offset + size > len(blob):
            raise IncompatibleSketchError("truncated sketch-state blob")
        _unpack(blob[offset:offset + size], 3)
        offset += size
    if offset != len(blob):
        raise IncompatibleSketchError("trailing bytes in sketch-state blob")
    return count


def load_sketch(sketch, blob: bytes, accumulate: bool = False):
    """Restore (or linearly add, with ``accumulate``) whole-sketch state.

    ``sketch`` must be structurally identical (same constructor
    parameters and seed) to the dumped one; every constituent grid's
    header is verified and mismatches raise
    :class:`~repro.errors.IncompatibleSketchError`.
    """
    grids = list(iter_grids(sketch))
    if blob[:4] != _SKETCH_MAGIC:
        raise IncompatibleSketchError("not a sketch-state blob (bad magic)")
    (count,) = struct.unpack_from("<I", blob, 4)
    if count != len(grids):
        raise IncompatibleSketchError(
            f"sketch-state blob has {count} grids, target has {len(grids)}"
        )
    offset = 8
    for grid in grids:
        if offset + 8 > len(blob):
            raise IncompatibleSketchError("truncated sketch-state blob")
        (size,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        if offset + size > len(blob):
            raise IncompatibleSketchError("truncated sketch-state blob")
        load_grid(grid, blob[offset:offset + size], accumulate=accumulate)
        offset += size
    if offset != len(blob):
        raise IncompatibleSketchError("trailing bytes in sketch-state blob")
    return sketch
