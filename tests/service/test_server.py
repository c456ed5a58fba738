"""In-process server tests: commands, typed errors, drain, bit-identity.

Each test boots a :class:`SketchServer` inside the test's own event
loop and talks to it over a real TCP connection through
:class:`ServiceClient` — the full protocol stack minus the subprocess
boundary (the subprocess shape is covered by ``test_drain_sigterm.py``
and the E24 benchmark).
"""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.errors import (
    BadRequestError,
    DrainingError,
    NoSuchSketchError,
    SketchExistsError,
)
from repro.service import ServiceClient, SketchRegistry, SketchServer
from repro.service import registry as registry_module
from repro.service.protocol import PROTOCOL_VERSION, encode_pairs
from repro.util.clock import Clock
from repro.sketch.serialization import dump_member_state, dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch

from ..engine.faults import rewrite_blob_member


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    kwargs.setdefault("checkpoint_interval", 0.0)
    kwargs.setdefault("snapshot_interval", 3600.0)
    registry = kwargs.pop("registry", None) or SketchRegistry(
        checkpoint_dir=kwargs.pop("checkpoint_dir", None)
    )
    server = SketchServer(registry, **kwargs)
    task = asyncio.ensure_future(server.run(install_signal_handlers=False))
    try:
        while server.port == 0:
            await asyncio.sleep(0.005)
            if task.done():
                task.result()  # surface startup errors
        yield server
    finally:
        server.begin_drain()
        await asyncio.wait_for(server.wait_stopped(), timeout=30)
        with contextlib.suppress(asyncio.CancelledError):
            await task


def edge_arrays(edges, sign=1):
    us = np.array([e[0] for e in edges], dtype=np.uint32)
    vs = np.array([e[1] for e in edges], dtype=np.uint32)
    signs = np.full(us.size, sign, dtype=np.int8)
    return us, vs, signs


class TestCommands:
    def test_hello_and_lifecycle(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    hello = await c.hello()
                    assert hello["protocol"] == PROTOCOL_VERSION
                    await c.create("g", n=16, seed=3)
                    assert [s["name"] for s in await c.list()] == ["g"]
                    count = await c.ingest_pairs(
                        "g", *edge_arrays([(0, 1), (1, 2)])
                    )
                    assert count == 2
                    resp = await c.query("g", op="components")
                    assert [0, 1, 2] in resp["components"]
                    assert resp["as_of"] == 2
                    assert resp["staleness"] == 0

        asyncio.run(go())

    def test_query_ops_and_staleness(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=4, seed=1)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    fresh = await c.query("g", op="edges")
                    assert fresh["edges"] == [[0, 1]]
                    # Snapshot consistency serves the decoded epoch even
                    # after more ingest, reporting its staleness.
                    await c.ingest_pairs("g", *edge_arrays([(2, 3)]))
                    stale = await c.query(
                        "g", op="edges", consistency="snapshot"
                    )
                    assert stale["as_of"] == 1
                    assert stale["staleness"] == 1
                    assert stale["edges"] == [[0, 1]]
                    fresh = await c.query("g", op="edges")
                    assert fresh["edges"] == [[0, 1], [2, 3]]

        asyncio.run(go())

    def test_skeleton_layers_op(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("s", n=6, kind="skeleton", k=2)
                    await c.ingest_pairs(
                        "s", *edge_arrays([(0, 1), (1, 2), (3, 4)])
                    )
                    resp = await c.query("s", op="layers")
                    assert len(resp["layers"]) == 2
                    await c.create("g", n=6)
                    with pytest.raises(BadRequestError, match="not a skeleton"):
                        await c.query("g", op="layers")

        asyncio.run(go())

    def test_json_updates_ingest(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8)
                    count = await c.ingest_updates(
                        "g", [[1, [0, 1]], [1, [1, 2]], [-1, [0, 1]]]
                    )
                    assert count == 3
                    resp = await c.query("g", op="edges")
                    assert resp["edges"] == [[1, 2]]

        asyncio.run(go())

    def test_dump_matches_local_replay(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=16, seed=9)
                    edges = [(0, 1), (1, 2), (5, 9), (14, 15)]
                    await c.ingest_pairs("g", *edge_arrays(edges))
                    events, blob = await c.dump("g")
                    assert events == len(edges)
                    local = SpanningForestSketch(16, seed=9)
                    local.update_batch_pairs(*edge_arrays(edges))
                    assert blob == dump_sketch(local)

        asyncio.run(go())

    def test_stats_shape(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    stats = await c.stats()
                    assert stats["schema"] == "repro-metrics/1"
                    server_section = stats["sections"]["server"]
                    per_command = server_section["per_command"]
                    assert per_command["ingest-batch"]["requests"] == 1
                    assert server_section["sessions_active"] == 1
                    assert stats["sections"]["sketches"]["g"]["events"] == 1

        asyncio.run(go())

    def test_audit_over_the_wire(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    report = await c.audit("g")
                    assert report["ok"] is True

        asyncio.run(go())


class TestTypedErrors:
    def test_errors_round_trip(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    with pytest.raises(NoSuchSketchError):
                        await c.query("ghost")
                    await c.create("g", n=8)
                    with pytest.raises(SketchExistsError):
                        await c.create("g", n=8)
                    with pytest.raises(BadRequestError):
                        await c.create("bad name!", n=8)
                    with pytest.raises(BadRequestError):
                        await c.query("g", consistency="psychic")
                    # The session survives typed errors.
                    assert await c.list() != []

        asyncio.run(go())

    def test_hostile_member_index_is_bad_request(self):
        """A CRC-valid repair blob naming member -1 or n is refused as
        a typed error, the connection stays open, and a valid blob
        ahead of it in the same batch is not applied either."""
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8, seed=9)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1), (2, 3)]))
                    _, before = await c.dump("g")
                    _, (blob0,) = await c.fetch_members("g", 0, [0])
                    ahead = SpanningForestSketch(8, seed=9)
                    ahead.update_batch_pairs(*edge_arrays([(4, 5)]))
                    valid = dump_member_state(ahead.grid, 4)
                    for member in (-1, 8):
                        hostile = rewrite_blob_member(blob0, member)
                        with pytest.raises(BadRequestError, match="member index"):
                            await c.repair_members("g", 0, [valid, hostile])
                        _, after = await c.dump("g")
                        assert after == before

        asyncio.run(go())

    def test_damaged_codec_bytes_are_bad_request(self):
        """A member blob with one header byte set to 0xff, and a dump
        blob missing its last 3 bytes, are typed ``bad-request``
        answers on a session that stays open, and change no state."""
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8, seed=9)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1), (2, 3)]))
                    _, before = await c.dump("g")
                    _, (blob,) = await c.fetch_members("g", 0, [0])
                    damaged = bytearray(blob)
                    damaged[12] = 0xFF  # inside the JSON header
                    with pytest.raises(BadRequestError):
                        await c.repair_members("g", 0, [bytes(damaged)])
                    with pytest.raises(BadRequestError):
                        await c.restore_sketch(
                            "h", {"n": 8, "seed": 9}, before[:-3], events=2
                        )
                    assert (await c.dump("g"))[1] == before
                    assert [s["name"] for s in await c.list()] == ["g"]
                    assert c.reconnects == 0
                assert server.metrics.sessions_opened == 1

        asyncio.run(go())

    def test_unknown_command_is_bad_request(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    with pytest.raises(BadRequestError):
                        await c.request("frobnicate")

        asyncio.run(go())


class TestDrain:
    def test_drain_rejects_mutations_serves_reads(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    await c.drain()
                    with pytest.raises(DrainingError):
                        await c.ingest_pairs("g", *edge_arrays([(1, 2)]))
                    with pytest.raises(DrainingError):
                        await c.create("h", n=8)
                    # Reads still answer during the drain window.
                    resp = await c.query("g", op="edges")
                    assert resp["edges"] == [[0, 1]]
                    events, _ = await c.dump("g")
                    assert events == 1
                assert server.metrics.rejected_draining >= 2

        asyncio.run(go())

    def test_drain_writes_final_checkpoint(self, tmp_path):
        async def go():
            async with running_server(
                checkpoint_dir=str(tmp_path)
            ) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8, seed=2)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1), (2, 3)]))
                    reference = (await c.dump("g"))[1]
            # Context exit drains the server: final checkpoint on disk.
            fresh = SketchRegistry(checkpoint_dir=str(tmp_path))
            assert fresh.restore_all() == ["g"]
            record = fresh.get("g")
            assert record.events == 2
            assert dump_sketch(record.sketch) == reference

        asyncio.run(go())

    def test_resume_restores_service(self, tmp_path):
        async def go():
            async with running_server(checkpoint_dir=str(tmp_path)) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8, seed=2)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    reference = (await c.dump("g"))[1]
            async with running_server(
                checkpoint_dir=str(tmp_path), resume=True
            ) as server:
                assert server.restored == ["g"]
                async with await ServiceClient.connect(port=server.port) as c:
                    events, blob = await c.dump("g")
                    assert events == 1
                    assert blob == reference
                    # The restored sketch keeps serving ingest.
                    await c.ingest_pairs("g", *edge_arrays([(1, 2)]))
                    resp = await c.query("g", op="edges")
                    assert resp["edges"] == [[0, 1], [1, 2]]

        asyncio.run(go())


class TestConcurrentBitIdentity:
    def test_interleaved_clients_equal_serial_replay(self):
        """Concurrent mixed traffic from several connections leaves the
        server bit-identical to a serial replay — the linearity claim
        the service is built on, at test scale."""
        n, seed, conns, batches = 32, 13, 4, 6
        rng = np.random.default_rng(seed)
        plans = []
        for _ in range(conns):
            ops = []
            for _ in range(batches):
                us = rng.integers(0, n - 1, size=40, dtype=np.uint32)
                vs = (
                    us + 1 + rng.integers(0, n - 1 - us, dtype=np.uint32)
                ).astype(np.uint32)
                signs = np.where(
                    rng.random(40) < 0.3, -1, 1
                ).astype(np.int8)
                ops.append((us, vs, signs))
            plans.append(ops)

        async def run_conn(port, ops):
            async with await ServiceClient.connect(port=port) as c:
                for us, vs, signs in ops:
                    await c.ingest_pairs("g", us, vs, signs)
                    await c.query("g", consistency="snapshot")

        async def go():
            async with running_server(snapshot_interval=0.05) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=n, seed=seed)
                await asyncio.gather(
                    *(run_conn(server.port, ops) for ops in plans)
                )
                async with await ServiceClient.connect(port=server.port) as c:
                    events, blob = await c.dump("g")
            return events, blob

        events, blob = asyncio.run(go())
        reference = SpanningForestSketch(n, seed=seed)
        for ops in plans:
            for us, vs, signs in ops:
                reference.update_batch_pairs(us, vs, signs)
        assert events == conns * batches * 40
        assert blob == dump_sketch(reference)


class CountingOffload:
    """An ``offload=`` seam that records which function each hop ran."""

    def __init__(self):
        self.hops = []

    async def __call__(self, fn, *args, **kwargs):
        self.hops.append(fn.__name__)
        return await asyncio.to_thread(fn, *args, **kwargs)

    def take(self):
        hops, self.hops = self.hops, []
        return hops


class TestOneHopPerRequest:
    def test_one_offload_per_ingest_batch_and_fresh_query(self, monkeypatch):
        monkeypatch.setattr(registry_module, "FOLD_CHUNK", 4)
        offload = CountingOffload()
        path = [(v, v + 1) for v in range(2, 12)]

        async def go():
            async with running_server(offload=offload) as server:
                record_chunks = []
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=16, seed=3)
                    registry = server.registry
                    ingest_pairs = registry.ingest_pairs

                    def counted(record, us, vs, signs):
                        record_chunks.append(len(us))
                        return ingest_pairs(record, us, vs, signs)

                    monkeypatch.setattr(registry, "ingest_pairs", counted)
                    offload.take()
                    await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    assert offload.take() == ["ingest_batch"]
                    await c.ingest_updates("g", [(1, [14, 15])])
                    assert offload.take() == ["ingest_batch"]
                    # Larger than a chunk: still one hop, folded in three.
                    record_chunks.clear()
                    assert await c.ingest_pairs("g", *edge_arrays(path)) == 12
                    assert offload.take() == ["ingest_batch"]
                    assert record_chunks == [4, 4, 2]
                    resp = await c.query("g", op="edges")
                    assert offload.take() == ["refresh_snapshot"]
                    assert resp["staleness"] == 0
                    assert resp["edges"] == [[0, 1]] + [
                        list(e) for e in path
                    ] + [[14, 15]]

        asyncio.run(go())

    def test_bad_vertex_in_the_last_chunk_folds_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(registry_module, "FOLD_CHUNK", 4)

        async def go():
            async with running_server(checkpoint_dir=str(tmp_path)) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=16, seed=3)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1), (2, 3)]))
                    record = server.registry.get("g")
                    before = (record.events, record.seq, await c.dump("g"))
                    edges = [(v, v + 1) for v in range(9)] + [(3, 16)]
                    with pytest.raises(BadRequestError, match="outside"):
                        await c.request(
                            "ingest-batch", name="g",
                            payload=encode_pairs(*edge_arrays(edges)),
                            client="cli", request=1,
                        )
                    assert (record.events, record.seq, await c.dump("g")) \
                        == before
                    assert record.dedup.check("cli", 1) is None

        asyncio.run(go())


class FakeClock(Clock):
    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


class TestSnapshotCron:
    def test_skips_what_a_fresh_read_just_decoded(self):
        clock, offload = FakeClock(), CountingOffload()
        registry = SketchRegistry(clock=clock)
        server = SketchServer(
            registry, snapshot_interval=1.0, clock=clock, offload=offload
        )
        record = registry.create("g", {"n": 8, "seed": 1})

        async def go():
            for now, edge in ((0.2, (0, 1)), (0.6, (1, 2))):
                registry.ingest_pairs(record, *edge_arrays([edge]))
                clock.now = now
                await server._cmd_query({"name": "g"}, b"")
            assert offload.take() == ["refresh_snapshot"] * 2
            registry.ingest_pairs(record, *edge_arrays([(2, 3)]))
            # Stale, but decoded 0.4 s ago: no decode; come back when
            # the snapshot turns one interval old.
            clock.now = 1.0
            assert await server._refresh_stale_snapshots() == \
                pytest.approx(0.6)
            assert offload.take() == []
            assert record.snapshot["offset"] == 2
            # Older than one interval: exactly one decode.
            clock.now = 1.7
            assert await server._refresh_stale_snapshots() == 1.0
            assert offload.take() == ["refresh_snapshot"]
            assert record.snapshot["offset"] == 3
            assert record.snapshot["decoded_at"] == 1.7
            # Current: nothing to do.
            clock.now = 3.0
            assert await server._refresh_stale_snapshots() == 1.0
            assert offload.take() == []

        asyncio.run(go())
