"""Wire format of the sketch server.

One *frame* carries one request or one response::

    b"RPSV" | u32 header_len | u64 payload_len | JSON header | payload

The fixed 16-byte prelude makes framing trivial to read incrementally;
the JSON header holds the command (or result) and all small arguments;
the optional binary payload carries bulk data — packed update arrays on
ingest, sketch blobs on ``dump``.  Both directions use the same frame.

Requests are ``{"id": <int>, "cmd": <str>, ...args}``; responses echo
the id as ``{"id": ..., "ok": true, ...result}`` or
``{"id": ..., "ok": false, "error": <code>, "message": <str>}`` where
``error`` is one of the stable :class:`~repro.errors.ServiceError`
codes (``bad-frame``, ``bad-request``, ``no-such-sketch``,
``sketch-exists``, ``draining``, ``internal``, ...) so clients branch
on the failure class without parsing prose.

The packed rank-2 ingest codec (:func:`encode_pairs` /
:func:`decode_pairs`) lays a batch of signed edges out as::

    u32 count | count × i8 sign | count × u32 u | count × u32 v

which the server decodes straight into the numpy arrays
:meth:`~repro.sketch.spanning_forest.SpanningForestSketch.
update_batch_pairs` consumes — no per-event Python on the hot path.
General hyperedge batches travel as JSON ``[[sign, [v...]], ...]`` in
the header instead (command ``ingest-batch`` with ``updates``).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import PeerDisconnectedError, ProtocolFrameError
from ..util.frame import pack_payloads, parse_header, walk_payloads

MAGIC = b"RPSV"
_PRELUDE = struct.Struct("<4sIQ")

#: Hard frame limits — a malformed or hostile peer cannot make the
#: server buffer unbounded memory.
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 26

#: Protocol version, echoed by ``hello``/``stats`` for compatibility.
PROTOCOL_VERSION = 1


def encode_frame(header: Dict[str, object], payload: bytes = b"") -> bytes:
    """Serialize one frame (header dict + optional binary payload)."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolFrameError(
            f"frame header of {len(head)} bytes exceeds {MAX_HEADER_BYTES}"
        )
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolFrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte cap (MAX_PAYLOAD_BYTES)"
        )
    return _PRELUDE.pack(MAGIC, len(head), len(payload)) + head + payload


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[Dict[str, object], bytes]]:
    """Read one frame; ``None`` on clean EOF before any byte.

    Raises :class:`~repro.errors.PeerDisconnectedError` when the peer
    closes mid-frame (an abrupt disconnect: the bytes that arrived
    were fine, there just aren't enough of them) and
    :class:`~repro.errors.ProtocolFrameError` on genuinely malformed
    framing — bad magic, oversized declared lengths, an unparseable
    header.  The distinction matters to the session layer: a
    disconnect gets counted and the session closed without writing to
    the dead socket; a malformed frame is answered ``bad-frame``
    before closing, since framing can no longer be trusted.
    """
    try:
        prelude = await reader.readexactly(_PRELUDE.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise PeerDisconnectedError("connection closed mid-frame") from exc
    magic, head_len, payload_len = _PRELUDE.unpack(prelude)
    if magic != MAGIC:
        raise ProtocolFrameError(f"bad frame magic {magic!r}")
    if head_len > MAX_HEADER_BYTES:
        raise ProtocolFrameError(f"declared header of {head_len} bytes too large")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolFrameError(
            f"declared payload of {payload_len} bytes too large"
        )
    try:
        head = await reader.readexactly(head_len)
        payload = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as exc:
        raise PeerDisconnectedError("connection closed mid-frame") from exc
    return parse_header(head, ProtocolFrameError, "frame header"), payload


# -- packed rank-2 ingest codec -------------------------------------------

_PAIRS_COUNT = struct.Struct("<I")


def encode_pairs(us, vs, signs) -> bytes:
    """Pack parallel (u, v, sign) edge arrays into the binary layout."""
    u = np.ascontiguousarray(us, dtype=np.uint32)
    v = np.ascontiguousarray(vs, dtype=np.uint32)
    s = np.ascontiguousarray(signs, dtype=np.int8)
    if not (u.shape == v.shape == s.shape) or u.ndim != 1:
        raise ProtocolFrameError(
            "pair batch arrays must be equal-length 1-D"
        )
    return (
        _PAIRS_COUNT.pack(u.size)
        + s.tobytes() + u.tobytes() + v.tobytes()
    )


def encode_blob_list(blobs) -> bytes:
    """Pack a list of byte strings: ``u32 count | count x (u64 len | bytes)``.

    The bulk codec of ``wal-tail``, which ships raw WAL record
    payloads: a frame payload holding several independent blobs.
    """
    return b"".join([_PAIRS_COUNT.pack(len(blobs)), *pack_payloads(blobs)])


def decode_blob_list(payload: bytes) -> list:
    """Unpack an :func:`encode_blob_list` payload."""
    blobs = walk_payloads(payload, _PAIRS_COUNT.size, len(payload),
                          ProtocolFrameError)
    if (
        len(payload) < _PAIRS_COUNT.size
        or _PAIRS_COUNT.unpack_from(payload)[0] != len(blobs)
    ):
        raise ProtocolFrameError("blob-list count does not match its blobs")
    return blobs


def decode_pairs(payload: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack a :func:`encode_pairs` payload into (u, v, sign) arrays.

    Validates the declared count against the payload size; the
    semantic validation (vertex range, signs, self-loops) happens in
    :func:`repro.engine.batch.expand_pair_batch`.
    """
    if len(payload) < _PAIRS_COUNT.size:
        raise ProtocolFrameError("pair payload shorter than its count field")
    (count,) = _PAIRS_COUNT.unpack_from(payload, 0)
    expected = _PAIRS_COUNT.size + count * (1 + 4 + 4)
    if len(payload) != expected:
        raise ProtocolFrameError(
            f"pair payload of {len(payload)} bytes does not match "
            f"count={count} (expected {expected})"
        )
    off = _PAIRS_COUNT.size
    s = np.frombuffer(payload, dtype=np.int8, count=count, offset=off)
    off += count
    u = np.frombuffer(payload, dtype="<u4", count=count, offset=off)
    off += 4 * count
    v = np.frombuffer(payload, dtype="<u4", count=count, offset=off)
    return (
        u.astype(np.int64),
        v.astype(np.int64),
        s.astype(np.int64),
    )
