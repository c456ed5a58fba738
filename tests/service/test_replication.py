"""Replica-set coordination: quorum ingest, anti-entropy, migration.

Boots real servers (in-process, real TCP) and drives them through
:class:`~repro.service.replication.ReplicaSet` — the full replication
stack minus the subprocess boundary.  Kills and link faults under
traffic are the fault schedules' job (``tests/service/sim``).
"""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.util.retry import RetryPolicy
from repro.errors import (
    BadRequestError,
    NoSuchSketchError,
    ReplicationError,
)
from repro.service import (
    ReplicaSet,
    ServiceClient,
    SketchRegistry,
    SketchServer,
    migrate_sketch,
    parse_endpoints,
)

from repro.cli import main
from repro.service import protocol

from .test_failover import running_servers
from .test_server import edge_arrays, running_server


def fast_retry():
    return RetryPolicy(max_restarts=6, backoff_base=0.01, backoff_max=0.05)


@contextlib.asynccontextmanager
async def replica_set(servers, **kwargs):
    kwargs.setdefault("retry", fast_retry())
    kwargs.setdefault("timeout", 10.0)
    rs = ReplicaSet(
        [("127.0.0.1", s.port) for s in servers], **kwargs
    )
    try:
        yield rs
    finally:
        await rs.close()


async def dump_all(rs, name):
    """Per-replica serialized blobs (None where the sketch is absent)."""
    out = []
    for c in rs.clients:
        try:
            _events, blob = await c.dump(name)
            out.append(blob)
        except NoSuchSketchError:
            out.append(None)
    return out


class TestParseEndpoints:
    def test_parses_list(self):
        assert parse_endpoints("a:1,b:2, c:3") == [
            ("a", 1), ("b", 2), ("c", 3)
        ]
        assert parse_endpoints("h:0,h:65535") == [("h", 0), ("h", 65535)]

    def test_default_host(self):
        assert parse_endpoints(":7001") == [("127.0.0.1", 7001)]

    def test_rejects_garbage(self):
        with pytest.raises(BadRequestError):
            parse_endpoints("nope")
        with pytest.raises(BadRequestError):
            parse_endpoints("")
        with pytest.raises(BadRequestError):
            parse_endpoints("h:\u00b2")  # a digit to isdigit(), not to int()

    @pytest.mark.parametrize("spec", ["h:65536", "h:70000", "a:1,b:99999"])
    def test_rejects_out_of_range_port(self, spec):
        with pytest.raises(BadRequestError, match="0-65535"):
            parse_endpoints(spec)


class TestQuorumIngest:
    def test_default_quorum_is_majority(self):
        rs = ReplicaSet([("h", 1), ("h", 2), ("h", 3)])
        assert rs.write_quorum == 2
        rs5 = ReplicaSet([("h", i) for i in range(5)])
        assert rs5.write_quorum == 3
        with pytest.raises(BadRequestError):
            ReplicaSet([("h", 1)], write_quorum=2)

    def test_quorum_write_replicates_to_all(self):
        async def go():
            async with running_servers(3) as servers:
                async with replica_set(servers, write_quorum=2) as rs:
                    await rs.create("g", n=32, seed=9)
                    count = await rs.ingest_pairs(
                        "g", *edge_arrays([(0, 1), (1, 2), (5, 6)])
                    )
                    assert count == 3
                    # Quorum acked at 2; the third lands in background.
                    for _ in range(200):
                        blobs = await dump_all(rs, "g")
                        if len({b for b in blobs}) == 1:
                            break
                        await asyncio.sleep(0.01)
                    blobs = await dump_all(rs, "g")
                    assert blobs[0] is not None
                    assert blobs[0] == blobs[1] == blobs[2]
                    assert rs.metrics.quorum_writes == 1

        asyncio.run(go())

    def test_same_stamp_on_every_replica_dedups_resends(self):
        async def go():
            async with running_servers(2) as servers:
                async with replica_set(servers, write_quorum=2) as rs:
                    await rs.create("g", n=16, seed=1)
                    await rs.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    # Re-send the SAME stamped batch manually to both:
                    # both must answer from dedup, folding nothing.
                    us, vs, signs = edge_arrays([(0, 1)])
                    from repro.service.protocol import encode_pairs
                    payload = encode_pairs(us, vs, signs)
                    for c in rs.clients:
                        resp, _ = await c.request(
                            "ingest-batch", payload=payload, name="g",
                            client=rs.client_id, request=1,
                        )
                        assert resp.get("duplicate") is True
                    blobs = await dump_all(rs, "g")
                    assert blobs[0] == blobs[1]
                    for c in rs.clients:
                        health = await c.health()
                        assert health["sketches"]["g"]["events"] == 1

        asyncio.run(go())

    def test_write_succeeds_with_one_replica_down(self):
        async def go():
            async with running_servers(2) as survivors:
                registry = SketchRegistry()
                victim = SketchServer(
                    registry, checkpoint_interval=0.0,
                    snapshot_interval=3600.0,
                )
                task = asyncio.ensure_future(
                    victim.run(install_signal_handlers=False)
                )
                while victim.port == 0:
                    await asyncio.sleep(0.005)
                servers = list(survivors) + [victim]
                async with replica_set(
                    servers, write_quorum=2,
                    retry=RetryPolicy(max_restarts=2, backoff_base=0.01,
                                      backoff_max=0.02),
                ) as rs:
                    await rs.create("g", n=16, seed=2)
                    victim.begin_drain()
                    await asyncio.wait_for(victim.wait_stopped(), timeout=10)
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
                    count = await rs.ingest_pairs(
                        "g", *edge_arrays([(3, 4)])
                    )
                    assert count == 1
                    # The dead replica is marked lagging once its
                    # background attempt exhausts its retries.
                    for _ in range(300):
                        if 2 in rs.lagging:
                            break
                        await asyncio.sleep(0.01)
                    assert 2 in rs.lagging

        asyncio.run(go())

    def test_quorum_unreachable_raises_replication_error(self):
        async def go():
            async with running_server() as server:
                endpoints = [
                    ("127.0.0.1", server.port),
                    ("127.0.0.1", 1),  # dead
                    ("127.0.0.1", 1),  # dead
                ]
                rs = ReplicaSet(
                    endpoints, write_quorum=2,
                    retry=RetryPolicy(max_restarts=1, backoff_base=0.01,
                                      backoff_max=0.02),
                    timeout=2.0,
                )
                try:
                    with pytest.raises(ReplicationError):
                        await rs.create("g", n=16, seed=1)
                    assert rs.metrics.quorum_failures == 1
                finally:
                    await rs.close()

        asyncio.run(go())


class TestAntiEntropy:
    def test_converged_set_is_a_noop(self):
        async def go():
            async with running_servers(3) as servers:
                async with replica_set(servers, write_quorum=3) as rs:
                    await rs.create("g", n=32, seed=4)
                    await rs.ingest_pairs(
                        "g", *edge_arrays([(0, 1), (2, 3)])
                    )
                    report = await rs.anti_entropy("g")
                    assert report["converged"] is True
                    assert report["rounds"] == 1
                    assert report["wal_resent"] == 0
                    assert report["repaired"] == 0

        asyncio.run(go())

    def test_wal_resend_heals_a_lagging_replica(self, tmp_path):
        # The WAL stage needs WALs: give each replica a real directory.
        async def go():
            async with contextlib.AsyncExitStack() as stack:
                servers = []
                for i in range(3):
                    servers.append(
                        await stack.enter_async_context(
                            running_server(
                                checkpoint_dir=str(tmp_path / f"r{i}")
                            )
                        )
                    )
                async with replica_set(servers, write_quorum=3) as rs:
                    await rs.create("g", n=32, seed=7)
                    await rs.ingest_pairs(
                        "g", *edge_arrays([(0, 1), (1, 2)])
                    )
                    # Bypass the set: land two extra stamped batches
                    # on replicas 0 and 1 only, so replica 2 lags
                    # behind acked state.
                    us, vs, signs = edge_arrays([(4, 5), (6, 7)])
                    from repro.service.protocol import encode_pairs
                    payload = encode_pairs(us, vs, signs)
                    stamp = rs.next_stamp()
                    for c in rs.clients[:2]:
                        await c.request(
                            "ingest-batch", payload=payload,
                            name="g", **stamp
                        )
                    report = await rs.anti_entropy("g")
                    assert report["converged"] is True
                    assert report["wal_resent"] >= 1
                    blobs = await dump_all(rs, "g")
                    assert blobs[0] == blobs[1] == blobs[2]
                    healths = [await c.health() for c in rs.clients]
                    events = {
                        h["sketches"]["g"]["events"] for h in healths
                    }
                    assert events == {4}

        asyncio.run(go())

    def test_copy_stage_heals_walless_divergence(self):
        async def go():
            async with running_servers(3) as servers:  # no WAL dirs
                async with replica_set(servers, write_quorum=3) as rs:
                    await rs.create("g", n=32, seed=3)
                    await rs.ingest_pairs(
                        "g", *edge_arrays([(0, 1), (1, 2)])
                    )
                    # Diverge replica 2 out-of-band: an unstamped
                    # direct write the others never saw, with no WAL
                    # to resend from — only the copy stage can fix it.
                    rogue = await ServiceClient.connect(
                        port=servers[2].port
                    )
                    await rogue.ingest_pairs(
                        "g", *edge_arrays([(8, 9)])
                    )
                    await rogue.close()
                    report = await rs.anti_entropy("g")
                    assert report["converged"] is True
                    assert report["repaired"] >= 1
                    assert rs.metrics.replicas_repaired == report["repaired"]
                    blobs = await dump_all(rs, "g")
                    assert blobs[0] == blobs[1] == blobs[2]
                    digests = [await c.digest("g") for c in rs.clients]
                    assert len({d["events"] for d in digests}) == 1

        asyncio.run(go())

    def test_copy_past_the_frame_cap_names_it(self, monkeypatch):
        """A source whose dump cannot travel in one frame fails the
        repair with a ``ReplicationError`` naming the cap, not a
        dropped session and a retry loop."""
        async def go():
            async with running_servers(2) as servers:  # no WAL dirs
                async with replica_set(servers, write_quorum=2) as rs:
                    await rs.create("g", n=32, seed=3)
                    await rs.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    rogue = await ServiceClient.connect(
                        port=servers[1].port
                    )
                    await rogue.ingest_pairs("g", *edge_arrays([(8, 9)]))
                    _, blob = await rogue.dump("g")
                    await rogue.close()
                    monkeypatch.setattr(
                        protocol, "MAX_PAYLOAD_BYTES", len(blob) // 2
                    )
                    with pytest.raises(ReplicationError,
                                       match="MAX_PAYLOAD_BYTES"):
                        await rs.anti_entropy("g")
                    assert all(c.reconnects == 0 for c in rs.clients)

        asyncio.run(go())

    def test_restore_stage_reseeds_a_missing_sketch(self):
        async def go():
            async with running_servers(3) as servers:
                async with replica_set(servers, write_quorum=3) as rs:
                    await rs.create("g", n=32, seed=5)
                    await rs.ingest_pairs(
                        "g", *edge_arrays([(0, 1), (2, 3)])
                    )
                    # Replica 1 loses the sketch entirely.
                    lone = await ServiceClient.connect(
                        port=servers[1].port
                    )
                    await lone.forget("g")
                    await lone.close()
                    report = await rs.anti_entropy("g")
                    assert report["converged"] is True
                    assert report["restored"] == 1
                    blobs = await dump_all(rs, "g")
                    assert blobs[0] == blobs[1] == blobs[2]

        asyncio.run(go())

    def test_no_replica_serving_raises(self):
        async def go():
            async with running_servers(2) as servers:
                async with replica_set(servers) as rs:
                    with pytest.raises(ReplicationError):
                        await rs.anti_entropy("ghost")

        asyncio.run(go())

    def test_anti_entropy_all_covers_union_of_names(self):
        async def go():
            async with running_servers(2) as servers:
                async with replica_set(servers, write_quorum=2) as rs:
                    await rs.create("a", n=16, seed=1)
                    await rs.create("b", n=16, seed=2)
                    reports = await rs.anti_entropy_all()
                    assert sorted(reports) == ["a", "b"]
                    assert all(r["converged"] for r in reports.values())

        asyncio.run(go())


class TestHealthAll:
    def test_rogue_write_is_charged_as_divergence(self, capsys):
        """``ctl health --all`` compares digests across the endpoints:
        a converged pair reads 0 divergent and exits 0; after an
        unstamped write on one server that replica reads 1 and the
        command exits 1."""
        def table():
            rows = capsys.readouterr().out.splitlines()[1:]
            return {row.split()[0]: row.split()[-1] for row in rows}

        async def go():
            async with running_servers(2) as servers:
                spec = ",".join(f"127.0.0.1:{s.port}" for s in servers)
                argv = ["ctl", "health", "--all", "--endpoints", spec]
                rogue_ep = f"127.0.0.1:{servers[1].port}"
                async with replica_set(servers, write_quorum=2) as rs:
                    await rs.create("g", n=32, seed=3)
                    await rs.ingest_pairs("g", *edge_arrays([(0, 1)]))
                assert await asyncio.to_thread(main, argv) == 0
                assert set(table().values()) == {"0"}
                async with await ServiceClient.connect(
                    port=servers[1].port
                ) as rogue:
                    await rogue.ingest_pairs("g", *edge_arrays([(8, 9)]))
                assert await asyncio.to_thread(main, argv) == 1
                assert table()[rogue_ep] == "1"

        asyncio.run(go())


class TestMigration:
    def test_migrate_moves_sketch_and_bounds_freeze(self):
        async def go():
            async with running_servers(2) as servers:
                src = await ServiceClient.connect(port=servers[0].port)
                dst = await ServiceClient.connect(port=servers[1].port)
                await src.create("hot", n=32, seed=11)
                us, vs, signs = edge_arrays([(0, 1), (1, 2), (3, 4)])
                await src.ingest_pairs("hot", us, vs, signs)
                _events, before = await src.dump("hot")

                report = await migrate_sketch(src, dst, "hot")
                assert report["events"] == 3
                assert report["freeze_ms"] < 5000

                # Gone from the source, serving on the target,
                # bit-identical state.
                with pytest.raises(NoSuchSketchError):
                    await src.query("hot")
                _events2, after = await dst.dump("hot")
                assert after == before
                resp = await dst.query("hot", op="components")
                assert [0, 1, 2] in resp["components"]
                await src.close()
                await dst.close()

        asyncio.run(go())

    def test_failed_restore_thaws_the_source(self):
        async def go():
            async with running_servers(2) as servers:
                src = await ServiceClient.connect(port=servers[0].port)
                dst = await ServiceClient.connect(port=servers[1].port)
                await src.create("hot", n=16, seed=1)
                # Target already holds the name: restore fails,
                # migration must thaw and leave the source serving.
                await dst.create("hot", n=16, seed=1)
                with pytest.raises(Exception):
                    await migrate_sketch(src, dst, "hot")
                count = await src.ingest_pairs(
                    "hot", *edge_arrays([(0, 1)])
                )
                assert count == 1  # not frozen
                await src.close()
                await dst.close()

        asyncio.run(go())

    def test_migrating_off_a_draining_server_works(self):
        async def go():
            async with running_servers(2) as servers:
                src = await ServiceClient.connect(port=servers[0].port)
                dst = await ServiceClient.connect(port=servers[1].port)
                await src.create("hot", n=16, seed=6)
                await src.ingest_pairs("hot", *edge_arrays([(0, 1)]))
                servers[0].begin_drain()
                # Mutations are refused while draining, but the
                # migration path (freeze/dump/forget) still works.
                report = await migrate_sketch(src, dst, "hot")
                assert report["events"] == 1
                resp = await dst.query("hot", op="edges")
                assert resp["edges"] == [[0, 1]]
                await src.close()
                await dst.close()

        asyncio.run(go())


class TestReplicaSetStats:
    def test_stats_shape(self):
        async def go():
            async with running_servers(2) as servers:
                async with replica_set(servers) as rs:
                    await rs.create("g", n=16, seed=1)
                    await rs.ingest_pairs("g", *edge_arrays([(0, 1)]))
                    stats = rs.stats()
                    assert stats["write_quorum"] == 2
                    assert len(stats["replicas"]) == 2
                    assert stats["replication"]["quorum_writes"] == 1
                    assert "failovers" in stats["reader"]

        asyncio.run(go())

    def test_background_loop_start_stop(self):
        async def go():
            async with running_servers(2) as servers:
                async with replica_set(servers) as rs:
                    await rs.create("g", n=16, seed=1)
                    rs.start_anti_entropy(interval=0.05)
                    await asyncio.sleep(0.2)
                    await rs.stop_anti_entropy()
                    assert rs.metrics.anti_entropy_converged >= 1
                    assert rs.last_anti_entropy is not None

        asyncio.run(go())
