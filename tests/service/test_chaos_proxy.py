"""The chaos proxy's new fault modes: partitions, profiles, stall reap.

``test_chaos_recovery.py`` proves the server survives the original
fault mix; this file tests the proxy itself — asymmetric partitions
drop exactly one direction, per-connection profiles pin fates by
accept order, and expired stalls abort both peer sockets instead of
leaking piped sessions.
"""

import asyncio

import pytest

from repro.util.retry import RetryPolicy
from repro.errors import ServiceTimeoutError
from repro.service import ServiceClient
from repro.service.chaos import ChaosPlan, ChaosProxy

from .test_server import edge_arrays, running_server


class TestAsymmetricPartition:
    def test_c2s_partition_swallows_requests(self, chaos_seed):
        """Client frames never reach the server: the request times out
        and the server never folds the batch."""

        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    await direct.create("g", n=16, seed=chaos_seed)
                proxy = ChaosProxy(
                    "127.0.0.1", server.port,
                    plan=ChaosPlan(
                        seed=chaos_seed, partition_rate=1.0,
                        partition_direction="c2s",
                    ),
                )
                await proxy.start()
                try:
                    async with await ServiceClient.connect(
                        port=proxy.port, timeout=0.3,
                        retry=RetryPolicy(max_restarts=0),
                    ) as c:
                        with pytest.raises(ServiceTimeoutError):
                            await c.ingest_pairs(
                                "g", *edge_arrays([(0, 1)])
                            )
                    assert proxy.faults["partition"] >= 1
                finally:
                    await proxy.stop()
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    health = await direct.health()
                    assert health["sketches"]["g"]["events"] == 0

        asyncio.run(go())

    def test_s2c_partition_applies_but_never_acks(self, chaos_seed):
        """The nastier half-open failure: the batch REACHES the server
        and folds, but the ack is swallowed — the client must treat
        the timeout as indeterminate, and only the stamp makes its
        retry safe."""

        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    await direct.create("g", n=16, seed=chaos_seed)
                proxy = ChaosProxy(
                    "127.0.0.1", server.port,
                    plan=ChaosPlan(
                        seed=chaos_seed, partition_rate=1.0,
                        partition_direction="s2c",
                    ),
                )
                await proxy.start()
                try:
                    async with await ServiceClient.connect(
                        port=proxy.port, timeout=0.5,
                        retry=RetryPolicy(max_restarts=0),
                    ) as c:
                        stamp = c.next_stamp()
                        with pytest.raises(ServiceTimeoutError):
                            await c.request(
                                "ingest-batch",
                                payload=b"",
                                name="g",
                                updates=[[1, [0, 1]]],
                                **stamp,
                            )
                        client_id = c.client_id
                finally:
                    await proxy.stop()
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    health = await direct.health()
                    # The write applied despite the lost ack...
                    assert health["sketches"]["g"]["events"] == 1
                    # ...and the stamped retry dedups, not double-folds.
                    resp, _ = await direct.request(
                        "ingest-batch", name="g",
                        updates=[[1, [0, 1]]],
                        client=client_id, request=stamp["request"],
                    )
                    assert resp.get("duplicate") is True
                    health = await direct.health()
                    assert health["sketches"]["g"]["events"] == 1

        asyncio.run(go())


class TestConnectionProfiles:
    def test_profiles_pin_fates_by_accept_order(self, chaos_seed):
        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    await direct.create("g", n=16, seed=chaos_seed)
                # Rates say "always partition", but profiles force the
                # first two connections clean — proving profiles win.
                proxy = ChaosProxy(
                    "127.0.0.1", server.port,
                    plan=ChaosPlan(seed=chaos_seed, partition_rate=1.0),
                    profiles={1: "pass", 2: "pass"},
                )
                await proxy.start()
                try:
                    for _ in range(2):
                        async with await ServiceClient.connect(
                            port=proxy.port, timeout=2.0,
                            retry=RetryPolicy(max_restarts=0),
                        ) as c:
                            assert (await c.hello())["protocol"] >= 1
                    assert proxy.faults["pass"] == 2
                    # The third connection draws from the rates again.
                    async with await ServiceClient.connect(
                        port=proxy.port, timeout=0.3,
                        retry=RetryPolicy(max_restarts=0),
                    ) as c:
                        with pytest.raises(ServiceTimeoutError):
                            await c.hello()
                    assert proxy.faults["partition"] == 1
                finally:
                    await proxy.stop()

        asyncio.run(go())

    def test_unknown_profile_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ChaosProxy("127.0.0.1", 1, profiles={1: "explode"})


class TestStallReap:
    def test_expired_stall_aborts_both_peers(self, chaos_seed):
        """After the stall elapses the proxy aborts both sockets: the
        session count drains to zero instead of leaking a pipe."""

        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    await direct.create("g", n=4096, seed=chaos_seed)
                proxy = ChaosProxy(
                    "127.0.0.1", server.port,
                    plan=ChaosPlan(
                        seed=chaos_seed, stall_rate=1.0,
                        stall_seconds=0.2,
                    ),
                )
                await proxy.start()
                try:
                    # A batch big enough to cross any stall point
                    # (stall_after is drawn from [1, 1024) bytes).
                    edges = [(i, i + 1) for i in range(2048)]
                    async with await ServiceClient.connect(
                        port=proxy.port, timeout=0.1,
                        retry=RetryPolicy(max_restarts=0),
                    ) as c:
                        with pytest.raises(ServiceTimeoutError):
                            await c.ingest_pairs(
                                "g", *edge_arrays(edges)
                            )
                    # Wait out the stall: the proxy must reap the
                    # session itself, without stop()'s cancel sweep.
                    for _ in range(100):
                        if (
                            proxy.stalls_expired >= 1
                            and not proxy._sessions
                        ):
                            break
                        await asyncio.sleep(0.02)
                    assert proxy.stalls_expired >= 1
                    assert not proxy._sessions
                finally:
                    await proxy.stop()

        asyncio.run(go())
