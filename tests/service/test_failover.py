"""Multi-endpoint client: seeded shuffle, failover, circuit breaker.

These tests boot several real servers and verify the client-side half
of replication: a dead endpoint is skipped, the next request lands on
a survivor, the per-endpoint breaker opens after repeated transport
failures, and every transition is visible in ``client_stats()``.
"""

import asyncio
import contextlib
import random

import pytest

from repro.util.retry import RetryPolicy
from repro.errors import PeerDisconnectedError, SketchFrozenError
from repro.service import ServiceClient, SketchRegistry, SketchServer
from repro.service.client import TRANSIENT_CODES

from .test_server import edge_arrays, running_server


@contextlib.asynccontextmanager
async def running_servers(count, **kwargs):
    async with contextlib.AsyncExitStack() as stack:
        servers = []
        for _ in range(count):
            servers.append(
                await stack.enter_async_context(running_server(**kwargs))
            )
        yield servers


class TestEndpointShuffle:
    def test_seeded_shuffle_is_deterministic(self):
        eps = [("127.0.0.1", 7000 + i) for i in range(8)]
        a = list(eps)
        random.Random(42).shuffle(a)
        b = list(eps)
        random.Random(42).shuffle(b)
        assert a == b
        c = list(eps)
        random.Random(43).shuffle(c)
        assert a != c

    def test_client_connects_through_endpoint_list(self):
        async def go():
            async with running_servers(2) as servers:
                endpoints = [("127.0.0.1", s.port) for s in servers]
                async with await ServiceClient.connect(
                    endpoints=endpoints, endpoint_seed=7
                ) as c:
                    hello = await c.hello()
                    assert hello["protocol"] >= 1
                    stats = c.client_stats()
                    assert len(stats["endpoints"]) == 2
                    assert stats["failovers"] == 0
                    # Pinned to exactly one of the two ports.
                    assert c.endpoint.port in {s.port for s in servers}

        asyncio.run(go())

    def test_initial_connect_skips_dead_endpoint(self):
        async def go():
            async with running_server() as server:
                # A dead port first in the list must not prevent
                # connecting to the live one behind it.
                dead = ("127.0.0.1", 1)  # reserved port, always refused
                async with await ServiceClient.connect(
                    endpoints=[dead, ("127.0.0.1", server.port)],
                    endpoint_seed=0,
                ) as c:
                    # endpoint_seed=0 may order either way; whatever
                    # the order, hello must succeed on the live server.
                    assert (await c.hello())["protocol"] >= 1
                    assert c.endpoint.port == server.port

        asyncio.run(go())


class TestFailover:
    def test_failover_to_survivor_on_server_death(self):
        async def go():
            async with running_server() as survivor:
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
                client = await ServiceClient.connect(
                    endpoints=[
                        ("127.0.0.1", victim.port),
                        ("127.0.0.1", survivor.port),
                    ],
                    endpoint_seed=1,
                    retry=RetryPolicy(max_restarts=8, backoff_base=0.01,
                                      backoff_max=0.05),
                    breaker_cooldown=0.2,
                )
                # Force the client onto the victim first.
                while client.endpoint.port != victim.port:
                    await client._drop_connection()
                    client._endpoint_index = [
                        e.port for e in client._endpoints
                    ].index(victim.port)
                    await client._ensure_connection()
                assert (await client.hello())["protocol"] >= 1

                victim.begin_drain()
                await asyncio.wait_for(victim.wait_stopped(), timeout=10)
                with contextlib.suppress(asyncio.CancelledError):
                    await task

                # The next request must transparently fail over.
                hello = await client.hello()
                assert hello["protocol"] >= 1
                assert client.endpoint.port == survivor.port
                stats = client.client_stats()
                assert stats["failovers"] >= 1
                assert stats["failover_count"] >= 1
                assert stats["failover_median_seconds"] is not None
                await client.close()

        asyncio.run(go())

    def test_acked_ingest_survives_failover_without_loss(self):
        async def go():
            async with running_servers(2) as servers:
                # Both replicas hold the sketch; client is pinned to
                # the first, which then dies mid-stream.
                clients = []
                for s in servers:
                    c = await ServiceClient.connect(port=s.port)
                    await c.create("g", n=32, seed=5)
                    clients.append(c)
                us, vs, signs = edge_arrays([(0, 1), (1, 2)])
                for c in clients:
                    await c.ingest_pairs("g", us, vs, signs)
                for c in clients:
                    await c.close()

                fo = await ServiceClient.connect(
                    endpoints=[("127.0.0.1", s.port) for s in servers],
                    endpoint_seed=3,
                    retry=RetryPolicy(max_restarts=8, backoff_base=0.01,
                                      backoff_max=0.05),
                    breaker_cooldown=0.2,
                )
                first = fo.endpoint.port
                victim = next(s for s in servers if s.port == first)
                survivor = next(s for s in servers if s.port != first)
                victim.begin_drain()
                await asyncio.wait_for(victim.wait_stopped(), timeout=10)

                # Queries after the death land on the survivor.
                resp = await fo.query("g", op="components")
                assert [0, 1, 2] in resp["components"]
                assert fo.endpoint.port == survivor.port
                await fo.close()

        asyncio.run(go())


class TestCircuitBreaker:
    def test_breaker_opens_after_threshold_failures(self):
        async def go():
            async with running_server() as server:
                dead = SketchServer(
                    SketchRegistry(), checkpoint_interval=0.0,
                    snapshot_interval=3600.0,
                )
                task = asyncio.ensure_future(
                    dead.run(install_signal_handlers=False)
                )
                while dead.port == 0:
                    await asyncio.sleep(0.005)
                dead_port = dead.port
                dead.begin_drain()
                await asyncio.wait_for(dead.wait_stopped(), timeout=10)
                with contextlib.suppress(asyncio.CancelledError):
                    await task

                client = await ServiceClient.connect(
                    endpoints=[
                        ("127.0.0.1", dead_port),
                        ("127.0.0.1", server.port),
                    ],
                    endpoint_seed=2,
                    retry=RetryPolicy(max_restarts=6, backoff_base=0.01,
                                      backoff_max=0.02),
                    breaker_threshold=2,
                    breaker_cooldown=5.0,
                )
                for _ in range(4):
                    await client.hello()
                stats = client.client_stats()
                dead_ep = next(
                    e for e in stats["endpoints"] if e["port"] == dead_port
                )
                live_ep = next(
                    e for e in stats["endpoints"] if e["port"] == server.port
                )
                assert live_ep["state"] == "closed"
                assert live_ep["connects"] >= 1
                # Once open, the dead endpoint stops being dialled:
                # its failure count freezes at/near the threshold and
                # skip counts accumulate instead.
                if dead_ep["failures"] >= 2:
                    assert dead_ep["state"] == "open"
                await client.close()

        asyncio.run(go())

    def test_all_breakers_open_still_tries(self):
        async def go():
            async with running_server() as server:
                client = await ServiceClient.connect(
                    endpoints=[("127.0.0.1", server.port)],
                    breaker_threshold=1,
                    breaker_cooldown=30.0,
                )
                # Force the only breaker open, then verify a request
                # still dials it (a breaker never makes a reachable
                # set unreachable).
                client._endpoints[0].failures = 1
                client._endpoints[0].open_until = (
                    asyncio.get_event_loop().time() + 30.0
                )
                await client._drop_connection()
                assert (await client.hello())["protocol"] >= 1
                await client.close()

        asyncio.run(go())


class TestFrozenTransient:
    def test_frozen_is_transient_and_retried(self):
        assert "frozen" in TRANSIENT_CODES

        async def go():
            async with running_server() as server:
                c = await ServiceClient.connect(
                    port=server.port,
                    retry=RetryPolicy(max_restarts=10, backoff_base=0.01,
                                      backoff_max=0.05),
                )
                await c.create("g", n=16, seed=1)
                await c.freeze("g")
                us, vs, signs = edge_arrays([(0, 1)])

                async def thaw_soon():
                    await asyncio.sleep(0.08)
                    peer = await ServiceClient.connect(port=server.port)
                    await peer.thaw("g")
                    await peer.close()

                thaw_task = asyncio.ensure_future(thaw_soon())
                # The stamped ingest rides out the freeze window via
                # transparent retries and applies exactly once.
                count = await c.ingest_pairs("g", us, vs, signs)
                assert count == 1
                await thaw_task
                assert c.errors_by_code.get("frozen", 0) >= 1
                await c.close()

        asyncio.run(go())

    def test_frozen_without_retry_budget_raises(self):
        async def go():
            async with running_server() as server:
                c = await ServiceClient.connect(
                    port=server.port, retry=RetryPolicy(max_restarts=0)
                )
                await c.create("g", n=16, seed=1)
                await c.freeze("g")
                us, vs, signs = edge_arrays([(0, 1)])
                with pytest.raises(SketchFrozenError):
                    await c.ingest_pairs("g", us, vs, signs)
                await c.thaw("g")
                await c.close()

        asyncio.run(go())


class TestNoEndpointStillFails:
    def test_raw_connection_client_does_not_failover(self):
        async def go():
            registry = SketchRegistry()
            server = SketchServer(
                registry, checkpoint_interval=0.0, snapshot_interval=3600.0
            )
            task = asyncio.ensure_future(
                server.run(install_signal_handlers=False)
            )
            while server.port == 0:
                await asyncio.sleep(0.005)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            client = ServiceClient(reader, writer)  # no endpoint known
            assert (await client.hello())["protocol"] >= 1
            server.begin_drain()
            await asyncio.wait_for(server.wait_stopped(), timeout=10)
            with contextlib.suppress(asyncio.CancelledError):
                await task
            with pytest.raises(PeerDisconnectedError):
                await client.hello()
            await client.close()

        asyncio.run(go())
