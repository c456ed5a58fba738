"""The simulated network: ordered delivery, stalls, blocks, resets.

The pipes must behave like TCP as an application sees it — ordered
bytes, latency, resets, refusals, and silence — because the framed
protocol on top assumes exactly that.
"""

import asyncio
import random

import pytest

from repro.errors import ServiceTimeoutError
from repro.service import ServiceClient, SketchRegistry, SketchServer
from repro.service.protocol import encode_pairs
from repro.service.sim import SimClock, SimEventLoop, SimNetwork
from repro.service.sim.world import _inline
from repro.util.retry import RetryPolicy

from ..test_server import edge_arrays


def run_sim(coro):
    loop = SimEventLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


async def echo_server(reader, writer):
    while True:
        data = await reader.read(64)
        if not data:
            break
        writer.write(data)
        await writer.drain()
    writer.close()


class TestDelivery:
    def test_bytes_arrive_in_order_despite_jitter(self):
        async def go():
            net = SimNetwork(random.Random(1), base_delay=0.001, jitter=0.05)
            received = []

            async def collector(reader, writer):
                received.append(await reader.readexactly(26))

            await net.listen(collector, "sim", 9000)
            _, writer = await net.connect("sim", 9000)
            for i in range(26):
                writer.write(bytes([65 + i]))  # one chunk per letter
            await asyncio.sleep(2.0)
            return received

        received = run_sim(go())
        assert received == [b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"]

    def test_echo_round_trip(self):
        async def go():
            net = SimNetwork(random.Random(2))
            await net.listen(echo_server, "sim", 9000)
            reader, writer = await net.connect("sim", 9000)
            writer.write(b"ping")
            await writer.drain()
            data = await reader.readexactly(4)
            writer.close()
            return data

        assert run_sim(go()) == b"ping"

    def test_connect_to_nothing_is_refused(self):
        async def go():
            net = SimNetwork(random.Random(3))
            with pytest.raises(ConnectionRefusedError):
                await net.connect("sim", 9999)

        run_sim(go())


class TestFaults:
    def test_outbound_stall_loses_the_reply_only(self):
        # The server HEARS the request (and would apply it) but its
        # answer vanishes: the duplicated-ack scenario dedup exists for.
        async def go():
            net = SimNetwork(random.Random(4))
            heard = []

            async def server(reader, writer):
                heard.append(await reader.readexactly(3))
                writer.write(b"ack")
                await writer.drain()

            await net.listen(server, "sim", 9000)
            reader, writer = await net.connect("sim", 9000)
            net.stall(9000, "out")
            writer.write(b"req")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.readexactly(3), timeout=1.0)
            return heard

        assert run_sim(go()) == [b"req"]

    def test_inbound_stall_swallows_the_request(self):
        async def go():
            net = SimNetwork(random.Random(5))
            heard = []

            async def server(reader, writer):
                heard.append(await reader.read(16))

            await net.listen(server, "sim", 9000)
            _, writer = await net.connect("sim", 9000)
            net.stall(9000, "in")
            writer.write(b"lost")
            await asyncio.sleep(1.0)
            return heard

        assert run_sim(go()) == []

    def test_block_refuses_and_resets(self):
        async def go():
            net = SimNetwork(random.Random(6))
            await net.listen(echo_server, "sim", 9000)
            reader, writer = await net.connect("sim", 9000)
            net.block(9000)
            with pytest.raises(ConnectionRefusedError):
                await net.connect("sim", 9000)
            with pytest.raises(ConnectionResetError):
                await reader.readexactly(1)
            net.heal(9000)
            r2, w2 = await net.connect("sim", 9000)
            w2.write(b"x")
            return await r2.readexactly(1)

        assert run_sim(go()) == b"x"

    def test_heal_resets_stalled_connections(self):
        # A partition heals: the OLD connection is dead weight (its
        # frames were swallowed); clients must see a reset, reconnect,
        # and find the fresh path clean.
        async def go():
            net = SimNetwork(random.Random(7))
            await net.listen(echo_server, "sim", 9000)
            reader, writer = await net.connect("sim", 9000)
            net.stall(9000, "both")
            writer.write(b"swallowed")
            net.heal(9000)
            with pytest.raises((ConnectionResetError, asyncio.IncompleteReadError)):
                await reader.readexactly(1)
            r2, w2 = await net.connect("sim", 9000)
            w2.write(b"y")
            return await r2.readexactly(1)

        assert run_sim(go()) == b"y"

    def test_abort_resets_the_peer_mid_frame(self):
        async def go():
            net = SimNetwork(random.Random(8))
            errors = []

            async def server(reader, writer):
                try:
                    await reader.readexactly(8)
                except (ConnectionResetError, asyncio.IncompleteReadError) as e:
                    errors.append(type(e).__name__)

            await net.listen(server, "sim", 9000)
            _, writer = await net.connect("sim", 9000)
            writer.write(b"half")
            await asyncio.sleep(0.5)
            writer.transport.abort()
            await asyncio.sleep(0.5)
            return errors

        assert run_sim(go()) == ["ConnectionResetError"]


class TestSimClient:
    def test_stall_times_out_typed_then_lands_once(self):
        # A stalled link expires the per-request deadline as a typed
        # ServiceTimeoutError.  The swallowed request never applied, so
        # after the heal the same stamp folds once; a second resend is
        # answered from the dedup window.
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        us, vs, signs = edge_arrays(edges)
        payload = encode_pairs(us, vs, signs)

        async def go():
            clock = SimClock(asyncio.get_running_loop())
            net = SimNetwork(random.Random(9))
            seams = {"clock": clock, "network": net}
            server = SketchServer(
                SketchRegistry(clock=clock), host="sim", port=9000,
                checkpoint_interval=0.0, snapshot_interval=0.0,
                offload=_inline, **seams,
            )
            ready = asyncio.Event()
            serving = asyncio.ensure_future(server.run(
                install_signal_handlers=False, ready=lambda _: ready.set()))
            await ready.wait()
            try:
                async with await ServiceClient.connect(
                    "sim", 9000, timeout=0.3,
                    retry=RetryPolicy(max_restarts=0), **seams,
                ) as client:
                    await client.create("g", n=12)
                    stamp = client.next_stamp()
                    net.stall(9000, "both")
                    with pytest.raises(ServiceTimeoutError):
                        await client.request(
                            "ingest-batch", payload=payload, name="g",
                            **stamp)
                net.heal(9000)
                async with await ServiceClient.connect(
                    "sim", 9000, timeout=5.0, **seams,
                ) as client:
                    first, _ = await client.request(
                        "ingest-batch", payload=payload, name="g", **stamp)
                    again, _ = await client.request(
                        "ingest-batch", payload=payload, name="g", **stamp)
                    events, _ = await client.dump("g")
            finally:
                server.begin_drain()
                await serving
            return first, again, events

        first, again, events = run_sim(go())
        assert not first.get("duplicate") and again.get("duplicate")
        assert events == len(edges)
