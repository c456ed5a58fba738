"""Every byte format fails closed under a seeded mutator.

A mutant is one bit flip, truncation, deletion or insertion applied to
a valid encoding.  Decoding a mutant may only raise the format's typed
error; anything else is an *untyped escape*.  The CRC-sealed formats
(member blobs, whole-sketch blobs, checkpoints of either sketch
version) must also never accept a mutant with a result that differs
from the original's.  A WAL segment may accept a damaged final record
as a torn tail, so what it accepts must be a prefix of the original
records.  Blob lists and wire frames carry no CRC (TCP covers them),
so for them only the typed-error rule applies.

The tier-1 test runs a few hundred mutants per format; the
``-m faults`` sweep runs 10,000 per format with the chaos seed.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, NamedTuple, Tuple

import numpy as np
import pytest

from repro.engine.checkpoint import Checkpoint, decode_checkpoint, encode_checkpoint
from repro.errors import (
    CheckpointError,
    IncompatibleSketchError,
    PayloadCorruptionError,
    ProtocolFrameError,
    WALError,
)
from repro.service.protocol import (
    decode_blob_list,
    encode_blob_list,
    encode_frame,
    encode_pairs,
    read_frame,
)
from repro.service.sim.fs import SimFilesystem
from repro.service.wal import KIND_CREATE, KIND_PAIRS, KIND_UPDATES, WriteAheadLog
from repro.sketch.serialization import (
    dump_grid,
    dump_member_state,
    dump_sketch,
    load_member_state,
    load_sketch,
    verify_sketch_blob,
)
from repro.sketch.spanning_forest import SpanningForestSketch

from ..engine.test_checkpoint import V1_FIXTURE

SKETCH_ERRORS = (IncompatibleSketchError, PayloadCorruptionError)


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One seeded bit flip, truncation, deletion or insertion."""
    kind = rng.randrange(4)
    pos = rng.randrange(len(data))
    if kind == 0:
        out = bytearray(data)
        out[pos] ^= 1 << rng.randrange(8)
        return bytes(out)
    if kind == 1:
        return data[:pos]
    span = rng.randint(1, 8)
    if kind == 2:
        return data[:pos] + data[pos + span:]
    return data[:pos] + rng.randbytes(span) + data[pos:]


class Format(NamedTuple):
    data: bytes
    decode: Callable[[bytes], object]
    errors: Tuple[type, ...]
    #: ``accepts(original_result, mutant_result)`` for a decoded mutant.
    accepts: Callable[[object, object], bool]


def _equal(a, b) -> bool:
    return a == b


def _anything(a, b) -> bool:
    return True


def _prefix(a, b) -> bool:
    return b == a[:len(b)]


def _forest() -> SpanningForestSketch:
    return SpanningForestSketch(6, seed=4, rounds=2, levels=3)


def _loaded_forest() -> SpanningForestSketch:
    sketch = _forest()
    for edge in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        sketch.insert(edge)
    return sketch


def member_blob() -> Format:
    referee = _forest().grid

    def decode(blob):
        referee.reset()
        load_member_state(referee, blob)
        return dump_grid(referee)

    return Format(dump_member_state(_loaded_forest().grid, 2), decode,
                  SKETCH_ERRORS, _equal)


def sketch_blob() -> Format:
    target = _forest()

    def decode(blob):
        verify_sketch_blob(blob)
        return dump_sketch(load_sketch(target, blob))

    return Format(dump_sketch(_loaded_forest()), decode, SKETCH_ERRORS, _equal)


def _checkpoint(data: bytes, prototype: Callable[[], object]) -> Format:
    def decode(blob):
        ck = decode_checkpoint(blob)
        states = [dump_sketch(load_sketch(prototype(), b)) for b in ck.shard_blobs]
        return ck.offset, ck.meta, states

    return Format(data, decode, (CheckpointError,), _equal)


def checkpoint() -> Format:
    blob = dump_sketch(_loaded_forest())
    ck = Checkpoint(offset=9, shard_blobs=[blob, dump_sketch(_forest())],
                    meta={"shards": 2, "sketch": "SpanningForestSketch"})
    return _checkpoint(encode_checkpoint(ck), _forest)


def checkpoint_v1() -> Format:
    return _checkpoint(
        V1_FIXTURE.read_bytes(),
        lambda: SpanningForestSketch(4, seed=1, rounds=1, levels=2),
    )


def wal_segment() -> Format:
    fs = SimFilesystem()
    wal = WriteAheadLog("/wal", fs=fs)
    wal.append(1, KIND_CREATE, {"config": {"n": 6}})
    wal.append(2, KIND_PAIRS, {"client": "c", "request": 1, "count": 2},
               encode_pairs([0, 1], [1, 2], [1, 1]))
    wal.append(3, KIND_UPDATES, {"count": 1}, b'[[1, [0, 5]]]')
    wal.close()
    (name,) = fs.listdir("/wal")
    with fs.open(f"/wal/{name}", "rb") as fh:
        data = fh.read()

    def decode(blob):
        fresh = SimFilesystem()
        fresh.makedirs("/wal", exist_ok=True)
        with fresh.open(f"/wal/{name}", "wb") as fh:
            fh.write(blob)
        return list(WriteAheadLog("/wal", fs=fresh).replay())

    return Format(data, decode, (WALError,), _prefix)


def blob_list() -> Format:
    blobs = [b"", b"x" * 9, dump_member_state(_forest().grid, 0)]
    return Format(encode_blob_list(blobs), decode_blob_list,
                  (ProtocolFrameError,), _anything)


def wire_frame() -> Format:
    payload = encode_pairs(np.arange(5), np.arange(1, 6), np.ones(5))
    data = encode_frame({"id": 7, "cmd": "ingest-batch", "name": "g"}, payload)

    async def read(blob):
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_frame(reader)

    return Format(data, read, (ProtocolFrameError,), _anything)


FORMATS = {
    "rprs-member": member_blob,
    "rpsk": sketch_blob,
    "rpck": checkpoint,
    "rpck-v1": checkpoint_v1,
    "wal-segment": wal_segment,
    "blob-list": blob_list,
    "rpsv-frame": wire_frame,
}


def sweep(fmt: Format, seed: int, count: int):
    """``(escapes, wrong)``: mutant indices with an untyped exception,
    and with an accepted result the format must not produce."""
    rng = random.Random(seed)
    escapes, wrong = [], []
    with asyncio.Runner() as runner:  # for the coroutine decoders

        def decode(blob):
            result = fmt.decode(blob)
            return runner.run(result) if asyncio.iscoroutine(result) else result

        original = decode(fmt.data)
        for i in range(count):
            try:
                result = decode(mutate(fmt.data, rng))
            except fmt.errors:
                continue
            except Exception as exc:  # noqa: BLE001 - the escape being counted
                escapes.append((i, repr(exc)))
                continue
            if not fmt.accepts(original, result):
                wrong.append(i)
    return escapes, wrong


def assert_fails_closed(name: str, seed: int, count: int) -> None:
    escapes, wrong = sweep(FORMATS[name](), seed, count)
    assert escapes == [], f"{name}: {len(escapes)} untyped escapes"
    assert wrong == [], f"{name}: {len(wrong)} mutants accepted, differing"


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_mutants_fail_closed(name):
    assert_fails_closed(name, seed=0, count=300)


@pytest.mark.faults
@pytest.mark.parametrize("name", sorted(FORMATS))
def test_mutants_fail_closed_sweep(name, chaos_seed):
    assert_fails_closed(name, seed=1 + chaos_seed, count=10_000)
