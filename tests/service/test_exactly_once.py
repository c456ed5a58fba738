"""Exactly-once ingest, overload shedding, health, and disconnects.

The durability tentpole's *semantic* half: stamped retries answer the
original ack instead of folding twice (in-process and across a
restore), the in-flight budget sheds expensive work with a typed
``overloaded`` error while cheap control commands still answer, the
``health`` command surfaces WAL lag / dedup occupancy / drain state,
and an abruptly disconnected peer is counted and cleaned up without
taking the server down.  Subprocess SIGKILL recovery is covered by
``test_chaos_recovery.py``.
"""

import asyncio
import contextlib

import pytest

from repro.errors import (
    OverloadedError,
    PeerDisconnectedError,
    WALError,
)
from repro.util.retry import RetryPolicy
from repro.service import ServiceClient, SketchRegistry
from repro.service.protocol import MAGIC, encode_pairs
from repro.service.wal import KIND_PAIRS
from repro.sketch.serialization import dump_sketch

from .test_server import edge_arrays, running_server


def stamped(client_id, request):
    return {"client": client_id, "request": request}


class TestExactlyOnce:
    def test_duplicate_stamp_answers_original_ack(self, tmp_path):
        async def go():
            async with running_server(
                checkpoint_dir=str(tmp_path)
            ) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8, seed=1)
                    payload = encode_pairs(*edge_arrays([(0, 1), (1, 2)]))
                    first, _ = await c.request(
                        "ingest-batch", payload=payload, name="g",
                        **stamped("cli", 1)
                    )
                    assert first["count"] == 2 and first["events"] == 2
                    assert first["seq"] == 2  # create record is seq 1
                    again, _ = await c.request(
                        "ingest-batch", payload=payload, name="g",
                        **stamped("cli", 1)
                    )
                    assert again["duplicate"] is True
                    assert again["count"] == 2
                    assert again["events"] == 2  # the *original* ack
                    # The duplicate did not fold: offset unchanged, and
                    # the sketch equals a single application.
                    events, _blob = await c.dump("g")
                    assert events == 2
                    assert server.metrics.dedup_hits == 1
                    # A fresh stamp folds normally.
                    resp, _ = await c.request(
                        "ingest-batch", payload=payload, name="g",
                        **stamped("cli", 2)
                    )
                    assert "duplicate" not in resp
                    assert resp["events"] == 4

        asyncio.run(go())

    def test_retry_after_poisoned_connection_does_not_double_fold(
        self, tmp_path
    ):
        """The timeout scenario, made deterministic: the ack is lost to
        the client (poisoned connection after the server applied the
        batch), the client re-sends the same stamp over a fresh
        connection, and the dedup window answers it."""

        async def go():
            async with running_server(
                checkpoint_dir=str(tmp_path)
            ) as server:
                c = await ServiceClient.connect(port=server.port)
                try:
                    await c.create("g", n=8, seed=1)
                    stamp = c.next_stamp()
                    payload = encode_pairs(*edge_arrays([(0, 1)]))
                    await c.request_once(
                        "ingest-batch", payload=payload, name="g", **stamp
                    )
                    # Simulate a timed-out ack: the connection is
                    # poisoned, the client never saw the response.
                    await c._drop_connection()
                    resp, _ = await c.request(
                        "ingest-batch", payload=payload, name="g", **stamp
                    )
                    assert resp["duplicate"] is True
                    events, _ = await c.dump("g")
                    assert events == 1
                    assert c.reconnects == 1
                finally:
                    await c.close()

        asyncio.run(go())

    def test_dedup_survives_restore(self, tmp_path):
        """A stamp acked before the crash answers ``duplicate`` after
        recovery — the window is rebuilt from checkpoint meta + WAL
        replay, so exactly-once holds *across* the crash."""
        registry = SketchRegistry(checkpoint_dir=str(tmp_path))
        record = registry.create("g", {"n": 8, "seed": 1})
        us, vs, signs = edge_arrays([(0, 1), (1, 2)])
        count = registry.ingest_pairs(record, us, vs, signs)
        registry.wal_commit(
            record, KIND_PAIRS, encode_pairs(us, vs, signs),
            "cli", 1, count,
        )
        blob = dump_sketch(record.sketch)
        # No checkpoint, no drain: the WAL alone carries the state.
        record.wal.close()

        fresh = SketchRegistry(checkpoint_dir=str(tmp_path))
        assert fresh.restore_all() == ["g"]
        restored = fresh.get("g")
        assert restored.replayed == 1
        assert restored.events == 2
        assert dump_sketch(restored.sketch) == blob
        assert restored.dedup.check("cli", 1) == {"count": 2, "events": 2}

    def test_dedup_survives_checkpoint_plus_tail(self, tmp_path):
        """Stamps from both sides of the checkpoint are remembered:
        the covered prefix rides in checkpoint meta, the tail is
        re-added during WAL replay."""
        registry = SketchRegistry(checkpoint_dir=str(tmp_path))
        record = registry.create("g", {"n": 8, "seed": 1})
        for req, edge in enumerate([(0, 1), (1, 2), (2, 3)], start=1):
            us, vs, signs = edge_arrays([edge])
            registry.ingest_pairs(record, us, vs, signs)
            registry.wal_commit(
                record, KIND_PAIRS, encode_pairs(us, vs, signs),
                "cli", req, 1,
            )
            if req == 2:
                registry.checkpoint(record)
        record.wal.close()

        fresh = SketchRegistry(checkpoint_dir=str(tmp_path))
        fresh.restore_all()
        restored = fresh.get("g")
        assert restored.replayed == 1  # only the post-checkpoint tail
        assert restored.events == 3
        for req in (1, 2, 3):
            assert restored.dedup.check("cli", req) is not None


class TestOverload:
    def test_budget_exhausted_sheds_with_retry_after(self):
        async def go():
            async with running_server(max_in_flight=2) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8)
                    # Pin the budget as if two ingests were in flight.
                    server._expensive_in_flight = server.max_in_flight
                    with pytest.raises(OverloadedError) as info:
                        await c.request_once(
                            "ingest-batch", name="g",
                            payload=encode_pairs(*edge_arrays([(0, 1)])),
                        )
                    assert info.value.retry_after > 0
                    assert server.metrics.rejected_overload == 1
                    # Cheap control commands bypass the budget: health
                    # still answers on a saturated server.
                    health = await c.health()
                    assert health["rejected_overload"] == 1
                    assert health["status"] == "ok"
                    assert await c.list() != []
                    server._expensive_in_flight = 0
                    assert await c.ingest_pairs(
                        "g", *edge_arrays([(0, 1)])
                    ) == 1

        asyncio.run(go())

    def test_client_retries_overloaded_until_capacity_returns(self):
        async def go():
            async with running_server(max_in_flight=1) as server:
                async with await ServiceClient.connect(
                    port=server.port, retry=RetryPolicy(max_restarts=10)
                ) as c:
                    await c.create("g", n=8)
                    server._expensive_in_flight = 1
                    loop = asyncio.get_running_loop()
                    loop.call_later(
                        0.15, setattr, server, "_expensive_in_flight", 0
                    )
                    events = await c.ingest_pairs(
                        "g", *edge_arrays([(0, 1)])
                    )
                    assert events == 1
                    assert c.retries >= 1
                    assert c.errors_by_code.get("overloaded", 0) >= 1

        asyncio.run(go())

    def test_retry_budget_exhaustion_reraises(self):
        async def go():
            async with running_server(max_in_flight=1) as server:
                async with await ServiceClient.connect(
                    port=server.port, retry=RetryPolicy(max_restarts=2)
                ) as c:
                    await c.create("g", n=8)
                    server._expensive_in_flight = 1
                    with pytest.raises(OverloadedError):
                        await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    assert c.retries == 2

        asyncio.run(go())


class TestHealth:
    def test_health_surfaces_wal_lag_and_dedup(self, tmp_path):
        async def go():
            async with running_server(
                checkpoint_dir=str(tmp_path)
            ) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8, seed=1)
                    await c.ingest_pairs("g", *edge_arrays([(0, 1), (1, 2)]))
                    health = await c.health()
                    assert health["status"] == "ok"
                    assert health["wal_enabled"] is True
                    assert health["max_in_flight"] == server.max_in_flight
                    sk = health["sketches"]["g"]
                    # create record + one batch, none checkpointed yet.
                    assert sk["wal_seq"] == 2
                    assert sk["wal_lag"] == 2
                    assert health["worst_wal_lag"] == 2
                    assert sk["dedup_entries"] == 1
                    assert 0 < sk["dedup_occupancy"] < 1
                    assert sk["wal"]["fsync"] == "always"
                    # A checkpoint covers the log: lag drops to zero.
                    await c.checkpoint("g")
                    health = await c.health()
                    assert health["sketches"]["g"]["wal_lag"] == 0
                    # Draining is visible.
                    await c.drain()
                    health = await c.health()
                    assert health["status"] == "draining"
                    assert health["draining"] is True

        asyncio.run(go())

    def test_wal_append_failure_freezes_mutations(self, tmp_path):
        async def go():
            async with running_server(
                checkpoint_dir=str(tmp_path)
            ) as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8, seed=1)
                    record = server.registry.get("g")

                    def explode(*args, **kwargs):
                        raise WALError("injected: disk full")

                    record.wal.append = explode
                    with pytest.raises(WALError, match="disk full"):
                        await c.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    assert record.wal_broken is True
                    # Mutations are frozen — a retry must NOT double
                    # fold into a sketch whose log is behind.
                    with pytest.raises(WALError, match="frozen"):
                        await c.ingest_pairs("g", *edge_arrays([(1, 2)]))
                    health = await c.health()
                    assert health["status"] == "degraded"
                    assert health["sketches"]["g"]["wal_broken"] is True
                    # Reads still serve.
                    resp = await c.query("g", op="components")
                    assert resp["as_of"] == 1

        asyncio.run(go())


class TestAbruptDisconnect:
    def test_half_written_prelude_counted_and_survived(self):
        """A peer dying mid-frame is routine, not an error worth a
        stack trace: the session closes cleanly, the disconnect is
        counted, and other sessions keep being served."""

        async def go():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(MAGIC + b"\x01\x00")  # 6 of 16 prelude bytes
                await writer.drain()
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()
                for _ in range(200):
                    if server.metrics.disconnects_midframe:
                        break
                    await asyncio.sleep(0.01)
                assert server.metrics.disconnects_midframe == 1
                assert server.metrics.frame_errors == 0
                # The server still answers new sessions.
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8)
                    assert [s["name"] for s in await c.list()] == ["g"]
                assert reader is not None

        asyncio.run(go())

    def test_client_raises_typed_disconnect(self):
        """A server that dies mid-response surfaces as
        PeerDisconnectedError (code ``disconnected``) — transient and
        retryable — not a bare ConnectionError or a hang."""

        async def half_frame(reader, writer):
            await reader.read(16)
            writer.write(MAGIC[:2])  # half a response prelude
            await writer.drain()
            writer.close()

        async def go():
            srv = await asyncio.start_server(half_frame, "127.0.0.1", 0)
            port = srv.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                client = ServiceClient(reader, writer)  # no endpoint
                with pytest.raises(PeerDisconnectedError):
                    await client.request("hello")
                await client.close()
            finally:
                srv.close()
                await srv.wait_closed()

        asyncio.run(go())

    def test_reconnect_after_disconnect_when_endpoint_known(self):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(port=server.port) as c:
                    await c.create("g", n=8)
                    await c._drop_connection()
                    # The next request transparently reconnects.
                    assert await c.ingest_pairs(
                        "g", *edge_arrays([(0, 1)])
                    ) == 1
                    assert c.reconnects == 1

        asyncio.run(go())
