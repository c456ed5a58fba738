"""Chaos recovery: SIGKILL the real server mid-load, lose nothing.

``faults``-marked (run by ``scripts/chaos_smoke.sh service`` under a
seed sweep).  The supervisor runs the actual ``python -m repro.cli
serve`` subprocess on a fixed port, SIGKILLs it at a seeded point
while stamped traffic is in flight, restarts it with ``--resume``, and
the tests assert the durability contract end to end:

* every **acked** batch survives — after re-sending the indeterminate
  ones (same stamps: exactly-once makes the re-send safe whether or
  not the original landed), the recovered sketch's ``dump`` blob is
  **byte-identical** to a serial replay of the full plan;
* recovery is observable (``health`` reports ``replayed``) and the
  server keeps serving after it.

The :class:`ChaosProxy` tests exercise the transport-fault half on an
in-process server: cuts mid-prelude, abrupt resets, and stalls long
enough to fire client timeouts — all seeded, all surfaced as typed
transient errors that the client's retry loop absorbs.
"""

import asyncio

import numpy as np
import pytest

from repro.util.retry import RetryPolicy
from repro.errors import ServiceError, ServiceTimeoutError
from repro.service import ServiceClient
from repro.service.chaos import ChaosPlan, ChaosProxy, ServerSupervisor
from repro.service.protocol import encode_pairs
from repro.sketch.serialization import dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch

from .test_server import edge_arrays, running_server

pytestmark = pytest.mark.faults

N = 64
BATCH = 64


def make_plan(seed, batches=30):
    """A seeded list of pair batches (us, vs, signs)."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(batches):
        us = rng.integers(0, N - 1, size=BATCH, dtype=np.uint32)
        vs = (us + 1 + rng.integers(0, N - 1 - us, dtype=np.uint32)).astype(
            np.uint32
        )
        signs = np.where(rng.random(BATCH) < 0.25, -1, 1).astype(np.int8)
        plan.append((us, vs, signs))
    return plan


def serial_replay_blob(plan, seed):
    reference = SpanningForestSketch(N, seed=seed)
    for us, vs, signs in plan:
        reference.update_batch_pairs(us, vs, signs)
    return dump_sketch(reference)


async def drive_plan(port, name, plan, start=0, retries=8):
    """Send ``plan[start:]`` with stamps + retries across restarts.

    Returns ``(acked, indeterminate, client_id)`` where
    ``indeterminate`` maps an op index to the stamp it was sent under
    (so it can be re-sent with the same identity after recovery).
    """
    acked, indeterminate = [], {}
    async with await ServiceClient.connect(
        port=port, timeout=10.0, retry=RetryPolicy(max_restarts=retries)
    ) as client:
        for index in range(start, len(plan)):
            us, vs, signs = plan[index]
            stamp = client.next_stamp()
            try:
                await client.request(
                    "ingest-batch",
                    payload=encode_pairs(us, vs, signs),
                    name=name,
                    **stamp,
                )
            except ServiceError:
                indeterminate[index] = stamp
            else:
                acked.append(index)
        return acked, indeterminate, client.client_id


class TestSigkillRecovery:
    def test_sigkill_midload_loses_no_acked_write(
        self, tmp_path, chaos_seed
    ):
        """Kill -9 between two batches; the resumed server must hold
        exactly the acked prefix, replay it from the WAL (no drain, no
        final checkpoint happened), and keep ingesting."""
        plan = make_plan(chaos_seed)
        rng = np.random.default_rng(chaos_seed + 1)
        kill_at = int(rng.integers(5, len(plan) - 5))
        with ServerSupervisor(
            str(tmp_path), extra_args=["--checkpoint-interval", "0.2"]
        ) as sup:
            sup.start()

            async def before_kill():
                async with await ServiceClient.connect(
                    port=sup.port, timeout=10.0
                ) as c:
                    await c.create("g", n=N, seed=chaos_seed)
                return await drive_plan(sup.port, "g", plan[:kill_at])

            acked, indeterminate, _ = asyncio.run(before_kill())
            assert not indeterminate  # nothing was faulted yet
            assert acked == list(range(kill_at))

            recovery = sup.restart()  # SIGKILL + --resume
            assert recovery < 10.0

            async def after_restart():
                async with await ServiceClient.connect(
                    port=sup.port, timeout=10.0
                ) as c:
                    health = await c.health()
                    rest = await drive_plan(
                        sup.port, "g", plan, start=kill_at
                    )
                    async with await ServiceClient.connect(
                        port=sup.port, timeout=10.0
                    ) as c2:
                        events, blob = await c2.dump("g")
                    return health, rest, events, blob

            health, rest, events, blob = asyncio.run(after_restart())
            assert health["sketches"]["g"]["events"] == kill_at * BATCH
            # Recovery replayed the WAL tail the cron had not covered.
            assert health["status"] == "ok"
            acked2, indeterminate2, _ = rest
            assert not indeterminate2
            assert events == len(plan) * BATCH
            assert blob == serial_replay_blob(plan, chaos_seed)

    def test_sigkill_during_traffic_with_resend(self, tmp_path, chaos_seed):
        """The adversarial schedule: the kill lands *while* requests
        are in flight, so some ops end indeterminate (acked-or-not
        unknown to the client).  Re-sending them with their original
        stamps after recovery is safe — exactly-once turns an
        already-applied one into a duplicate ack — after which the
        state must be byte-identical to a serial replay of the whole
        plan."""
        plan = make_plan(chaos_seed, batches=40)
        with ServerSupervisor(
            str(tmp_path), extra_args=["--checkpoint-interval", "0.2"]
        ) as sup:
            sup.start()

            async def go():
                async with await ServiceClient.connect(
                    port=sup.port, timeout=10.0
                ) as c:
                    await c.create("g", n=N, seed=chaos_seed)
                rng = np.random.default_rng(chaos_seed + 2)
                kill_delay = 0.05 + float(rng.random()) * 0.3
                restart = asyncio.ensure_future(
                    asyncio.to_thread(self._delayed_restart, sup, kill_delay)
                )
                acked, indeterminate, client_id = await drive_plan(
                    sup.port, "g", plan
                )
                await restart
                # Re-send every indeterminate op under its original
                # stamp; each must either apply now or answer as a
                # duplicate — never double-fold.
                duplicates = 0
                async with await ServiceClient.connect(
                    port=sup.port, timeout=10.0,
                    retry=RetryPolicy(max_restarts=8),
                ) as c:
                    for index, stamp in sorted(indeterminate.items()):
                        us, vs, signs = plan[index]
                        resp, _ = await c.request(
                            "ingest-batch",
                            payload=encode_pairs(us, vs, signs),
                            name="g",
                            **stamp,
                        )
                        duplicates += bool(resp.get("duplicate"))
                    events, blob = await c.dump("g")
                return acked, indeterminate, duplicates, events, blob

            acked, indeterminate, duplicates, events, blob = asyncio.run(go())
            assert sup.kills == 1
            # Acked + re-sent indeterminate covers the whole plan.
            assert len(acked) + len(indeterminate) == len(plan)
            assert events == len(plan) * BATCH
            assert blob == serial_replay_blob(plan, chaos_seed)

    @staticmethod
    def _delayed_restart(sup, delay):
        import time

        time.sleep(delay)
        sup.restart()

    def test_kill_before_first_checkpoint_recovers_from_wal(
        self, tmp_path, chaos_seed
    ):
        """No checkpoint ever lands (huge interval): the create record
        plus the logged batches must reconstruct the sketch alone."""
        plan = make_plan(chaos_seed, batches=5)
        with ServerSupervisor(
            str(tmp_path), extra_args=["--checkpoint-interval", "3600"]
        ) as sup:
            sup.start()

            async def load():
                async with await ServiceClient.connect(
                    port=sup.port, timeout=10.0
                ) as c:
                    await c.create("g", n=N, seed=chaos_seed)
                return await drive_plan(sup.port, "g", plan)

            acked, indeterminate, _ = asyncio.run(load())
            assert len(acked) == len(plan) and not indeterminate
            sup.restart()

            async def verify():
                async with await ServiceClient.connect(
                    port=sup.port, timeout=10.0
                ) as c:
                    health = await c.health()
                    events, blob = await c.dump("g")
                return health, events, blob

            health, events, blob = asyncio.run(verify())
            assert health["sketches"]["g"]["replayed"] == len(plan)
            assert events == len(plan) * BATCH
            assert blob == serial_replay_blob(plan, chaos_seed)


class TestChaosProxy:
    def test_partial_frames_surface_as_disconnects(self, chaos_seed):
        """Every connection is cut 1-15 bytes in — inside the frame
        prelude.  The server must count mid-frame disconnects (not
        frame errors) and stay up; the raw client sees the typed
        transient error."""

        async def go():
            async with running_server() as server:
                proxy = ChaosProxy(
                    "127.0.0.1", server.port,
                    plan=ChaosPlan(seed=chaos_seed, partial_rate=1.0),
                )
                await proxy.start()
                try:
                    for _ in range(3):
                        async with await ServiceClient.connect(
                            port=proxy.port,
                            retry=RetryPolicy(max_restarts=0),
                        ) as c:
                            with pytest.raises(ServiceError) as info:
                                await c.hello()
                            assert info.value.code in (
                                "disconnected", "frame"
                            )
                    assert proxy.faults["partial"] == 3
                    for _ in range(200):
                        if server.metrics.disconnects_midframe >= 3:
                            break
                        await asyncio.sleep(0.01)
                    assert server.metrics.disconnects_midframe >= 3
                    # Straight to the server still works: it survived.
                    async with await ServiceClient.connect(
                        port=server.port
                    ) as c:
                        await c.create("g", n=8)
                finally:
                    await proxy.stop()

        asyncio.run(go())

    def test_client_retries_through_faulty_proxy(self, chaos_seed):
        """With resets and cuts on half the connections, a client with
        a retry budget still lands every stamped batch exactly once."""

        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    await direct.create("g", n=N, seed=chaos_seed)
                proxy = ChaosProxy(
                    "127.0.0.1", server.port,
                    plan=ChaosPlan(
                        seed=chaos_seed, reset_rate=0.25, partial_rate=0.25
                    ),
                )
                await proxy.start()
                plan = make_plan(chaos_seed, batches=12)
                try:
                    # One fresh connection per op so every batch rolls
                    # the fault dice (a clean connection never faults,
                    # hence never reconnects).
                    for index, (us, vs, signs) in enumerate(plan):
                        acked, indeterminate, _ = await drive_plan(
                            proxy.port, "g", plan[index:index + 1],
                            retries=20,
                        )
                        assert acked == [0] and not indeterminate
                    assert proxy.connections >= len(plan)
                    assert proxy.faults["reset"] + proxy.faults["partial"] > 0
                finally:
                    await proxy.stop()
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    events, blob = await direct.dump("g")
                assert events == len(plan) * BATCH
                assert blob == serial_replay_blob(plan, chaos_seed)

        asyncio.run(go())

    def test_stall_fires_client_timeout(self, chaos_seed):
        """A stalled connection expires the per-request deadline as a
        typed ServiceTimeoutError; the stamped retry (fresh
        connection) lands the batch without double-folding."""

        async def go():
            async with running_server() as server:
                async with await ServiceClient.connect(
                    port=server.port
                ) as direct:
                    await direct.create("g", n=N, seed=chaos_seed)
                proxy = ChaosProxy(
                    "127.0.0.1", server.port,
                    plan=ChaosPlan(
                        seed=chaos_seed, stall_rate=1.0, stall_seconds=30.0
                    ),
                )
                await proxy.start()
                rng = np.random.default_rng(chaos_seed)
                us = rng.integers(0, N - 1, size=2048, dtype=np.uint32)
                vs = (us + 1 + rng.integers(
                    0, N - 1 - us, dtype=np.uint32
                )).astype(np.uint32)
                signs = np.ones(us.size, dtype=np.int8)
                try:
                    async with await ServiceClient.connect(
                        port=proxy.port, timeout=0.3,
                        retry=RetryPolicy(max_restarts=0),
                    ) as c:
                        stamp = c.next_stamp()
                        with pytest.raises(ServiceTimeoutError):
                            await c.request(
                                "ingest-batch",
                                payload=encode_pairs(us, vs, signs),
                                name="g",
                                **stamp,
                            )
                    assert proxy.faults["stall"] >= 1
                    # Retry the same stamp straight at the server.
                    async with await ServiceClient.connect(
                        port=server.port, timeout=10.0
                    ) as c:
                        resp, _ = await c.request(
                            "ingest-batch",
                            payload=encode_pairs(us, vs, signs),
                            name="g",
                            **stamp,
                        )
                        # Applied-or-duplicate; either way exactly once.
                        events, _ = await c.dump("g")
                        assert events == us.size
                finally:
                    await proxy.stop()

        asyncio.run(go())
