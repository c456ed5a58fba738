"""SIGTERM and SIGKILL of a real server process, then ``--resume``.

The acceptance scenario of the service end-to-end, at test scale: a
real ``python -m repro serve`` subprocess takes mixed traffic, receives
SIGTERM mid-load, and must (a) exit 0 after letting in-flight requests
settle, (b) reject post-drain mutations with the *typed* ``draining``
error only — no torn connections, no partial batches — and (c) leave a
final checkpoint from which ``--resume`` restores the sketch
bit-identically to what clients last saw.

The SIGKILL case is the one crash test on a real disk: the fault
schedules in ``tests/service/sim`` cover kills under traffic on a
simulated filesystem, and this one checks that real fsync and rename
leave a checkpoint + WAL tail that ``--resume`` replays to exactly the
acked batches.
"""

import asyncio
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.errors import DrainingError, ProtocolFrameError
from repro.service.client import ServiceClient
from repro.sketch.serialization import dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def start_server(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"serving on [\d.]+:(\d+)", line)
    if not match:  # pragma: no cover - startup failure diagnostics
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}\n{proc.stderr.read()}")
    return proc, int(match.group(1)), line


def batch(rng, n, size):
    us = rng.integers(0, n - 1, size=size, dtype=np.uint32)
    vs = (us + 1 + rng.integers(0, n - 1 - us, dtype=np.uint32)).astype(
        np.uint32
    )
    signs = np.ones(size, dtype=np.int8)
    return us, vs, signs


def serial_replay(n, seed, batches):
    """The dump an uncrashed sketch holds after exactly ``batches``."""
    reference = SpanningForestSketch(n, seed=seed)
    for us, vs, signs in batches:
        reference.update_batch_pairs(us, vs, signs)
    return dump_sketch(reference)


class TestSigtermDrain:
    def test_drain_under_load_and_resume(self, tmp_path):
        n, seed = 32, 21
        ckpt = str(tmp_path / "ckpt")
        proc, port, _ = start_server("--checkpoint-dir", ckpt)
        rng = np.random.default_rng(seed)
        batches = [batch(rng, n, 64) for _ in range(40)]

        async def drive():
            """Ingest until the drain rejection arrives; return what the
            server accepted and the typed rejection evidence."""
            accepted = []
            rejections = 0
            async with await ServiceClient.connect(port=port) as client:
                await client.create("g", n=n, seed=seed)
                for i, (us, vs, signs) in enumerate(batches):
                    if i == 4:
                        proc.send_signal(signal.SIGTERM)
                    try:
                        await client.ingest_pairs("g", us, vs, signs)
                        accepted.append((us, vs, signs))
                    except DrainingError:
                        rejections += 1
                        break
                # Reads keep working while the server settles; grab the
                # drained state as clients observed it.
                events, blob = await client.dump("g")
                # Any further mutation stays a typed rejection.
                try:
                    await client.ingest_pairs("g", *batches[-1])
                    raise AssertionError("mutation accepted after drain")
                except DrainingError:
                    rejections += 1
            return accepted, rejections, events, blob

        try:
            accepted, rejections, events, blob = asyncio.run(drive())
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on hang
                proc.kill()

        assert proc.returncode == 0, f"server exited {proc.returncode}: {err}"
        assert rejections == 2
        assert "draining rejections" in out
        assert events == sum(b[0].size for b in accepted)

        # The accepted prefix replays to exactly the dumped state.
        assert blob == serial_replay(n, seed, accepted)

        # And --resume serves that same state bit-identically.
        proc2, port2, ready = start_server(
            "--checkpoint-dir", ckpt, "--resume"
        )
        try:
            assert "restored 1 sketches" in ready

            async def check():
                async with await ServiceClient.connect(port=port2) as client:
                    return await client.dump("g")

            events2, blob2 = asyncio.run(check())
            assert events2 == events
            assert blob2 == blob
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.communicate(timeout=30)

    def test_sigterm_idle_exits_zero(self):
        proc, port, _ = start_server()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "drained:" in out


class TestSigkillResume:
    def test_kill_9_then_resume_equals_serial_replay(self, tmp_path):
        n, seed = 32, 5
        ckpt = str(tmp_path / "ckpt")
        rng = np.random.default_rng(seed)
        batches = [batch(rng, n, 64) for _ in range(12)]
        proc, port, _ = start_server(
            "--checkpoint-dir", ckpt, "--checkpoint-interval", "0")

        async def ingest(client, todo):
            for us, vs, signs in todo:
                await client.ingest_pairs("g", us, vs, signs)

        async def before_kill():
            async with await ServiceClient.connect(port=port) as client:
                await client.create("g", n=n, seed=seed)
                await ingest(client, batches[:4])
                # Recovery is then a renamed checkpoint plus a
                # four-record WAL tail.
                await client.checkpoint("g")
                await ingest(client, batches[4:8])

        try:
            asyncio.run(before_kill())
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.communicate(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        proc2, port2, ready = start_server(
            "--checkpoint-dir", ckpt, "--resume")
        try:
            assert "restored 1 sketches" in ready

            async def resumed():
                async with await ServiceClient.connect(port=port2) as client:
                    health = await client.health()
                    dumped = await client.dump("g")
                    await ingest(client, batches[8:])
                    return health, dumped, await client.dump("g")

            health, (events, blob), (events2, blob2) = asyncio.run(resumed())
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.communicate(timeout=30)

        assert health["sketches"]["g"]["replayed"] == 4
        assert events == 8 * 64
        assert blob == serial_replay(n, seed, batches[:8])
        assert events2 == 12 * 64
        assert blob2 == serial_replay(n, seed, batches)
