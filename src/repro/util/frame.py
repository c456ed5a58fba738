"""The one checked byte frame for sketch blobs and checkpoints::

    magic | u32 header_len | JSON header | (u64 len | payload)* | u32 crc32

The CRC32 covers every byte before it.  :func:`unpack` bounds-checks
every length, verifies the CRC before it parses the header, and raises
only the caller's typed errors.  The WAL and wire preludes share
:func:`parse_header`; blob lists share the payload list.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Iterable, List, Optional, Tuple, Type

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def parse_header(raw, error: Type[Exception], what: str = "header") -> Dict:
    """Decode a UTF-8 JSON object, raising only ``error``."""
    try:
        header = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise error(f"unparseable {what}: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"{what} is not a JSON object")
    return header


def pack_payloads(payloads: Iterable[bytes]) -> List[bytes]:
    """The ``(u64 len | payload)*`` parts of a payload list."""
    return [part for data in payloads for part in (_U64.pack(len(data)), data)]


def walk_payloads(buf, off: int, end: int, error: Type[Exception]) -> list:
    """The length-prefixed payloads filling ``buf[off:end]``, as slices."""
    out = []
    while off < end:
        if end - off < _U64.size:
            raise error("truncated payload length")
        (size,) = _U64.unpack_from(buf, off)
        off += _U64.size
        if size > end - off:
            raise error("truncated payload")
        out.append(buf[off:off + size])
        off += size
    return out


def split(buf, magic: bytes, error: Type[Exception]) -> Tuple[memoryview, list]:
    """``(raw header, payloads)`` of an unsealed frame body (no CRC)."""
    view = memoryview(buf).cast("B")
    if view[:len(magic)] != magic:
        raise error(f"not an {magic.decode()} frame (bad magic)")
    start = len(magic) + _U32.size
    if len(view) < start:
        raise error(f"truncated {magic.decode()} frame")
    (head_len,) = _U32.unpack_from(view, len(magic))
    if head_len > len(view) - start:
        raise error(f"{magic.decode()} header overruns the frame")
    payloads = walk_payloads(view, start + head_len, len(view), error)
    return view[start:start + head_len], payloads


def pack(magic: bytes, version: int, header: Dict,
         payloads: Iterable[bytes] = ()) -> bytes:
    """Seal ``header`` (plus ``version``) and ``payloads`` into a frame."""
    head = json.dumps(dict(header, version=version), sort_keys=True).encode()
    parts = [magic, _U32.pack(len(head)), head, *pack_payloads(payloads)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, _U32.pack(crc)])


def unpack(buf, magic: bytes, version: int, error: Type[Exception],
           corrupt: Optional[Type[Exception]] = None) -> Tuple[Dict, list]:
    """``(header without version, payloads as views)`` of a frame.

    Raises ``corrupt`` (default ``error``) on a CRC mismatch and
    ``error`` on anything else: a foreign magic or version, truncation,
    trailing bytes, a header that is not a JSON object.
    """
    view = memoryview(buf).cast("B")
    end = max(len(view) - _U32.size, 0)
    raw, payloads = split(view[:end], magic, error)
    if zlib.crc32(view[:end]) != _U32.unpack_from(view, end)[0]:
        raise (corrupt or error)(f"{magic.decode()} checksum mismatch")
    header = parse_header(raw, error, f"{magic.decode()} header")
    if header.pop("version", None) != version:
        raise error(f"unsupported {magic.decode()} version")
    return header, payloads
