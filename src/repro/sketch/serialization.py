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

Format: one :mod:`repro.util.frame` frame — a JSON header and the raw
little-endian ``int64`` counter arrays under one CRC32.  No pickle —
the format is portable and cannot execute code.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Tuple

import numpy as np

from ..errors import IncompatibleSketchError, PayloadCorruptionError
from ..util import frame
from .bank import SamplerGrid

_MAGIC = b"RPRS"
_VERSION = 2
_GEOMETRY = ("groups", "members", "domain", "levels", "rows", "buckets", "seed")


def _pack(magic: bytes, header: Dict, arrays) -> bytes:
    payloads = [np.ascontiguousarray(a, dtype="<i8").tobytes() for a in arrays]
    return frame.pack(magic, _VERSION, header, payloads)


def _unpack(blob: bytes, magic: bytes = _MAGIC) -> Tuple[Dict, list]:
    return frame.unpack(blob, magic, _VERSION, IncompatibleSketchError,
                        PayloadCorruptionError)


def _header_for(grid: SamplerGrid) -> Dict[str, int]:
    return {key: getattr(grid, key) for key in _GEOMETRY}


def _check_header(grid: SamplerGrid, header: Dict) -> None:
    mismatched = [k for k in _GEOMETRY if header.get(k) != getattr(grid, k)]
    if mismatched:
        raise IncompatibleSketchError(
            f"sketch blob incompatible with grid (fields: {mismatched})"
        )


def _planes(payloads: list, shape) -> List[np.ndarray]:
    """The w, s, f counter arrays: views of the blob, shaped ``shape``."""
    size = 8 * int(np.prod(shape))
    if len(payloads) != 3 or any(len(p) != size for p in payloads):
        raise IncompatibleSketchError("sketch blob payloads do not match its header")
    return [np.frombuffer(p, dtype="<i8").reshape(shape) for p in payloads]


def _rebase_digest(grid: SamplerGrid) -> None:
    grid._touch()
    if grid._digest is not None:
        # The blob's CRC already vouched for the bytes; rebase the
        # maintained digest on the restored counters.
        from ..audit.digest import GridDigest

        grid._digest = GridDigest.compute(grid)


def _restore(grid: SamplerGrid, planes: List[np.ndarray], accumulate: bool) -> None:
    w, s, f = planes
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
    # Restoring replaces (or shifts) every member's counters at once.
    _rebase_digest(grid)


def dump_grid(grid: SamplerGrid) -> bytes:
    """Serialize a grid's full counter state."""
    return _pack(_MAGIC, _header_for(grid), (grid._w, grid._s, grid._f))


def load_grid(grid: SamplerGrid, blob: bytes, accumulate: bool = False) -> SamplerGrid:
    """Restore (or, with ``accumulate``, linearly add) serialized state.

    The target ``grid`` must have been constructed with the same
    parameters and seed as the dumped one; the header is verified.
    ``accumulate=True`` adds the stored counters instead of replacing —
    i.e. merges two sketches, exploiting linearity.
    """
    header, payloads = _unpack(blob)
    _check_header(grid, header)
    _restore(grid, _planes(payloads, grid._w.shape), accumulate)
    return grid


def dump_member_state(grid: SamplerGrid, member: int) -> bytes:
    """Serialize one player's column (a referee-protocol message)."""
    state = grid.extract_member(member)
    header = dict(_header_for(grid), member=member)
    return _pack(_MAGIC, header, (state["w"], state["s"], state["f"]))


def _member_of(header: Dict[str, int]) -> int:
    """The blob's member index, range-checked against its own header.

    The CRC covers the header, but a hostile peer can reseal a frame,
    so the index is untrusted: an out-of-range one would fold into the
    wrong column (negative indices wrap) or raise ``IndexError``
    mid-write.
    """
    member = header.pop("member", None)
    if member is None:
        raise IncompatibleSketchError("blob is not a member-state message")
    members = header.get("members")
    if (
        type(member) is not int
        or type(members) is not int
        or not 0 <= member < members
    ):
        raise IncompatibleSketchError(
            f"member index {member!r} outside [0, {members!r})"
        )
    return member


def read_member_state(
    grid: SamplerGrid, blob: bytes
) -> Tuple[int, Dict[str, np.ndarray]]:
    """Parse and verify a player message against ``grid``; no writes.

    Returns ``(member, state)``; the state arrays are views of
    ``blob``.  A receiver applying several blobs as one unit checks
    them all with this first, so a bad one cannot leave the others
    half-applied.
    """
    header, payloads = _unpack(blob)
    member = _member_of(header)
    _check_header(grid, header)
    planes = _planes(payloads, grid._w[:, member].shape)
    return member, dict(zip("wsf", planes))


def peek_member(blob: bytes) -> int:
    """The member index a serialized player message belongs to.

    Parses and CRC-verifies the blob without touching any grid, so a
    receiver can dedup or route a message *before* folding it in —
    folding is a linear add, and adding the same column twice corrupts
    the sketch.
    """
    header, _ = _unpack(blob)
    return _member_of(header)


def load_member_state(grid: SamplerGrid, blob: bytes) -> int:
    """Merge a serialized player message into a referee grid.

    Returns the member index the message belongs to.
    """
    member, state = read_member_state(grid, blob)
    grid.add_member_state(member, state)
    return member


def replace_member_state(grid: SamplerGrid, blob: bytes) -> int:
    """Overwrite one member's column with a serialized player message.

    The repair-side twin of :func:`load_member_state`: anti-entropy
    ships a *correct* replica's column and the divergent replica must
    end bit-identical, so the column is replaced rather than linearly
    added.  Returns the member index.
    """
    member, state = read_member_state(grid, blob)
    grid._w[:, member] = state["w"]
    grid._s[:, member] = state["s"]
    grid._f[:, member] = state["f"]
    _rebase_digest(grid)
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
    """Serialize the full counter state of any grid-composed sketch:
    one frame, each grid's geometry in the header and its w, s, f
    arrays as payloads, in :func:`iter_grids` order."""
    grids = list(iter_grids(sketch))
    header = {"grids": [_header_for(g) for g in grids]}
    return _pack(_SKETCH_MAGIC, header, [a for g in grids for a in (g._w, g._s, g._f)])


def _read_sketch(blob: bytes) -> List[Tuple[Dict, list]]:
    """``(geometry, payloads)`` per grid of a CRC-verified sketch blob."""
    if bytes(blob[16:20]) == _MAGIC:  # a version-1 envelope's first grid
        return _read_sketch_v1(blob)
    header, payloads = _unpack(blob, _SKETCH_MAGIC)
    grids = header.get("grids")
    if (
        not isinstance(grids, list)
        or not all(isinstance(g, dict) for g in grids)
        or len(payloads) != 3 * len(grids)
    ):
        raise IncompatibleSketchError("sketch-state header does not match its payloads")
    return [(geometry, payloads[3 * i:3 * i + 3]) for i, geometry in enumerate(grids)]


def _read_sketch_v1(blob: bytes) -> List[Tuple[Dict, list]]:
    """Read-only legacy path: ``RPSK | u32 count | (u64 len | grid)*``,
    each grid an unsealed frame body whose header holds its payloads'
    CRC32 as ``"crc"`` (a missing one is corruption)."""
    error = IncompatibleSketchError
    (count,) = struct.unpack_from("<I", blob, 4)
    grids = []
    for inner in frame.walk_payloads(blob, 8, len(blob), error):
        raw, payloads = frame.split(inner, _MAGIC, error)
        header = frame.parse_header(raw, error)
        crc = zlib.crc32(b"".join(payloads))
        if header.pop("crc", None) != f"{crc:08x}":
            raise PayloadCorruptionError("version-1 sketch blob CRC mismatch")
        if header.pop("version", None) != 1:
            raise error("unsupported sketch blob version")
        grids.append((header, payloads))
    if len(grids) != count:
        raise error(f"version-1 sketch-state blob holds {len(grids)} of {count} grids")
    return grids


def verify_sketch_blob(blob: bytes) -> int:
    """Structurally verify a :func:`dump_sketch` blob without a target.

    Checks the CRC and the header without deserializing any counters
    into a live grid.  Returns the number of grids verified.  Raises
    :class:`~repro.errors.PayloadCorruptionError` on a CRC mismatch and
    :class:`~repro.errors.IncompatibleSketchError` on structural damage
    (bad magic, version, truncation, trailing bytes).
    """
    return len(_read_sketch(blob))


def load_sketch(sketch, blob: bytes, accumulate: bool = False):
    """Restore (or linearly add, with ``accumulate``) whole-sketch state.

    ``sketch`` must be structurally identical (same constructor
    parameters and seed) to the dumped one; every constituent grid's
    header is verified before any grid is written, and mismatches
    raise :class:`~repro.errors.IncompatibleSketchError`.
    """
    grids = list(iter_grids(sketch))
    stored = _read_sketch(blob)
    if len(stored) != len(grids):
        raise IncompatibleSketchError(
            f"sketch-state blob has {len(stored)} grids, target has {len(grids)}"
        )
    planes = []
    for grid, (header, payloads) in zip(grids, stored):
        _check_header(grid, header)
        planes.append(_planes(payloads, grid._w.shape))
    for grid, grid_planes in zip(grids, planes):
        _restore(grid, grid_planes, accumulate)
    return sketch
