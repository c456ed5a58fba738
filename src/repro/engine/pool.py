"""Worker-pool backends for the sharded ingestion engine.

Both backends expose one small contract the engine drives:

* ``submit(shard, updates)`` — hand a batch of edge updates to a shard;
* ``load(shard, blob)`` — replace a shard's sketch state (resume);
* ``dump_all()`` — quiesce every shard and return its serialized state
  (the checkpoint barrier);
* ``finish()`` — final quiesce; returns ``(sketch, seconds, events)``
  per shard;
* ``queue_depth(shard)`` / ``close()``.

:class:`SerialPool` folds batches in-process, immediately — zero
queueing, useful for deterministic tests and as the vectorised-but-
single-core fast path.  :class:`SharedMemoryPool` runs one OS process
per shard, each folding into its shard's counter blocks in named
shared-memory segments; batches are pipelined over ``multiprocessing``
pipes (the parent does not wait per batch), and the linear sketches
guarantee the final merge is independent of any interleaving.

A dead or hung worker is detected at the next synchronisation point
and surfaces as :class:`~repro.errors.WorkerCrashError` carrying the
shard index.  There is no in-process restart: recovery is the engine's
checkpoint + resume, which linearity makes exact.

Both pools enforce the same lifecycle invariant: any operation after
``close()``/``finish()`` raises :class:`~repro.errors.EngineError`
rather than silently acting on torn-down state.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import EngineError, WorkerCrashError
from ..sketch.serialization import dump_sketch, load_sketch
from ..sketch.shm import attach_sketch, release_sketch, share_sketch

_SYNC_TIMEOUT = 60.0  # seconds to wait on a worker reply before declaring it dead


class SerialPool:
    """In-process backend: one private sketch per shard, fed directly."""

    def __init__(self, sketch_factory: Callable[[], Any], shards: int):
        self._sketches = [sketch_factory() for _ in range(shards)]
        self._seconds = [0.0] * shards
        self._events = [0] * shards
        self._closed = False

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineError("SerialPool is closed (use-after-close)")

    def submit(self, shard: int, updates: Sequence) -> float:
        """Fold a batch into the shard's sketch; returns seconds spent."""
        self._ensure_open()
        start = time.perf_counter()
        self._sketches[shard].update_batch(updates)
        elapsed = time.perf_counter() - start
        self._seconds[shard] += elapsed
        self._events[shard] += len(updates)
        return elapsed

    def load(self, shard: int, blob: bytes) -> None:
        self._ensure_open()
        load_sketch(self._sketches[shard], blob)

    def dump_all(self) -> List[bytes]:
        self._ensure_open()
        return [dump_sketch(sk) for sk in self._sketches]

    def finish(self) -> List[Tuple[Any, float, int]]:
        self._ensure_open()
        out = list(zip(self._sketches, self._seconds, self._events))
        self._closed = True
        return out

    def queue_depth(self, shard: int) -> int:
        return 0

    def close(self, force: bool = False) -> None:
        self._closed = True


def _worker_main(conn, sketch, names) -> None:
    """Shard worker loop: fold batches into the shared banks until told
    to finish.

    Commands arrive as ``(name, payload)`` tuples.  The worker attaches
    zero-copy views of the shard's segments at startup and folds
    batches directly into the shared pages, so barrier replies carry no
    counter payload: ``dump`` answers with a bare ack (the parent
    serializes from its own mapping) and ``finish`` ships only the
    timing counters.  The pipe delivers in order, so the ack doubles as
    the write fence — by the time it arrives, every previously
    submitted batch is folded in.  ``crash`` hard-exits the process and
    ``sleep`` stalls it (the fault-injection hooks for dead and hung
    workers respectively).

    The loop polls with a timeout and watches for reparenting: under
    the fork start method every worker inherits the parent-side pipe
    fds of the whole pool (its own included), so a SIGKILLed parent
    never produces EOF on ``recv`` — without the ppid watchdog the
    workers would linger as orphans forever.  No segment cleanup on
    exit: the attachment is non-owning (see :mod:`repro.sketch.shm`)
    and process death unmaps it.
    """
    attach_sketch(sketch, names)
    seconds = 0.0
    events = 0
    parent = os.getppid()
    try:
        while True:
            while not conn.poll(1.0):
                if os.getppid() != parent:  # parent died; no EOF will come
                    return
            cmd, payload = conn.recv()
            if cmd == "batch":
                start = time.perf_counter()
                sketch.update_batch(payload)
                seconds += time.perf_counter() - start
                events += len(payload)
            elif cmd == "load":
                load_sketch(sketch, payload)
            elif cmd == "dump":
                conn.send(("state", None))
            elif cmd == "finish":
                conn.send(("final", (seconds, events)))
                conn.close()
                return
            elif cmd == "crash":
                os._exit(1)
            elif cmd == "sleep":
                time.sleep(payload)
            else:  # pragma: no cover - defensive
                conn.send(("error", f"unknown command {cmd!r}"))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        # parent died or closed our pipe (e.g. after declaring us hung)
        return


class SharedMemoryPool:
    """One worker per shard folding into shared-memory sampler banks.

    The parent builds each shard's sketch, moves its counter blocks
    into named ``multiprocessing.shared_memory`` segments
    (:func:`~repro.sketch.shm.share_sketch`), and spawns workers that
    attach the same segments by name.  Batches travel over the pipes;
    sketch *state* never does:

    * ``dump_all`` serializes from the parent's own mapping once every
      worker acks (the in-order pipe is the write fence);
    * ``finish`` returns a **private copy** of each shard's sketch,
      because the engine merges after ``close()`` — which unlinks the
      segments.

    ``sync_timeout`` is the patience at synchronisation points; a
    worker that does not answer within it is declared hung.

    SIGKILL-safety: the parent owns the segments, so the stdlib
    resource tracker unlinks them even if the parent itself dies
    without running ``close()``; worker attachments are non-owning and
    a worker death never unlinks a live segment.
    """

    def __init__(self, sketch_factory: Callable[[], Any], shards: int,
                 sync_timeout: float = _SYNC_TIMEOUT):
        ctx = mp.get_context()
        self._sync_timeout = sync_timeout
        self._sketches = [sketch_factory() for _ in range(shards)]
        # Share every shard before the first fork, so no worker inherits
        # a peer's private counter block.
        names = [share_sketch(sketch) for sketch in self._sketches]
        self._conns = []
        self._procs = []
        self._pending = [0] * shards
        self._closed = False
        for shard in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            # The worker's shell is the shard's own shared sketch: a
            # forked worker inherits its mapping and attach_sketch()
            # keeps it; a pickled one arrives with a private copy that
            # attach_sketch() swaps for the segments.
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self._sketches[shard], names[shard]),
                daemon=True,
                name=f"repro-ingest-shm-shard-{shard}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    # -- plumbing -------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineError("SharedMemoryPool is closed (use-after-close)")

    def _send(self, shard: int, message) -> None:
        self._ensure_open()
        try:
            self._conns[shard].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                f"shard {shard} worker is gone (send failed: {exc})",
                shard=shard,
            ) from exc

    def _recv(self, shard: int, expect: str):
        conn = self._conns[shard]
        if not conn.poll(self._sync_timeout):
            raise WorkerCrashError(
                f"shard {shard} worker did not respond within "
                f"{self._sync_timeout}s (hung or dead)",
                shard=shard,
            )
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashError(
                f"shard {shard} worker died mid-ingest", shard=shard
            ) from exc
        if kind != expect:
            raise EngineError(
                f"shard {shard} protocol error: expected {expect!r}, got {kind!r}"
            )
        self._pending[shard] = 0
        return payload

    def _barrier(self, command: str, reply: str) -> list:
        """Send ``command`` to every shard, then collect every reply."""
        for shard in range(len(self._conns)):
            self._send(shard, (command, None))
        return [self._recv(shard, reply) for shard in range(len(self._conns))]

    # -- pool API -------------------------------------------------------

    def submit(self, shard: int, updates: Sequence) -> float:
        self._send(shard, ("batch", list(updates)))
        self._pending[shard] += 1
        return 0.0  # worker-side time is reported at finish()

    def load(self, shard: int, blob: bytes) -> None:
        self._send(shard, ("load", blob))

    def dump_all(self) -> List[bytes]:
        """Checkpoint barrier: drain every shard, then serialize its
        banks from the parent's mapping."""
        self._barrier("dump", "state")
        return [dump_sketch(sketch) for sketch in self._sketches]

    def finish(self) -> List[Tuple[Any, float, int]]:
        timings = self._barrier("finish", "final")
        # Private copies: the caller merges after close() unlinks the
        # segments these sketches' views would otherwise dangle into.
        out = [
            (sketch.copy(), seconds, events)
            for sketch, (seconds, events) in zip(self._sketches, timings)
        ]
        self.close()
        return out

    def queue_depth(self, shard: int) -> int:
        """Batches submitted to the shard since its last barrier."""
        return self._pending[shard]

    # -- fault injection and diagnostics (tests) -------------------------

    def worker_pid(self, shard: int) -> int:
        """OS pid of the shard's worker."""
        return self._procs[shard].pid

    def inject_crash(self, shard: int) -> None:
        """Hard-kill one shard worker."""
        self._send(shard, ("crash", None))

    def inject_hang(self, shard: int, seconds: float) -> None:
        """Stall one shard worker for ``seconds``."""
        self._send(shard, ("sleep", seconds))

    def close(self, force: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        # Workers are dead and the parent's copies (if any) were taken
        # at finish; drop the mappings and delete the segments.
        for sketch in self._sketches:
            release_sketch(sketch, unlink=True, copy=False)

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close(force=True)
        except Exception:
            pass


_POOLS = {"serial": SerialPool, "shm": SharedMemoryPool}

#: The ingest backends :func:`make_pool` accepts.
BACKENDS = tuple(_POOLS)


def make_pool(backend: str, sketch_factory: Callable[[], Any], shards: int):
    """Build a worker pool: ``backend`` is ``"serial"`` or ``"shm"``
    (process workers over shared-memory banks)."""
    if backend not in _POOLS:
        raise EngineError(f"unknown ingest backend {backend!r}")
    return _POOLS[backend](sketch_factory, shards)
