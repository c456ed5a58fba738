"""A simulated filesystem with honest crash and power-loss semantics.

Real disks lose data in layers.  Bytes a process has ``write()``-ten
sit in user-space buffers until ``flush()`` pushes them to the kernel;
a **process crash** (SIGKILL) keeps what was flushed and loses the
buffered tail — possibly mid-record, tearing the final WAL entry.
Kernel page cache survives the process but not the machine: only
``fsync()``-ed bytes survive a **power loss**, and a freshly created or
renamed file additionally needs its *directory entry* fsynced or the
file itself vanishes.  :class:`SimFilesystem` models exactly these
tiers per file:

* ``data`` — everything written (what the live process reads back),
* ``flushed`` — prefix pushed out of user-space (survives SIGKILL),
* ``synced`` — prefix fsynced (survives power loss),
* ``linked`` — directory entry durable (file exists after power loss).

Because the service's WAL is append-only and checkpoints are
write-whole-then-rename, a *length* per tier is a faithful model; the
simulator does not support durable interior overwrites (none exist in
this codebase).

Fault injection:

* :meth:`set_capacity` bounds total bytes; an append that exceeds it
  writes the part that fits and then raises ``OSError(ENOSPC)`` — a
  torn record the WAL's repair path must physically truncate.
* :meth:`process_crash` reverts every file to its flushed prefix plus
  a seeded, possibly-partial slice of the buffered tail (a flush can
  race the kill), and turns all open handles inert: the dead process
  can no longer touch the disk, even from ``finally`` blocks of
  cancelled tasks.
* :meth:`power_loss` reverts to the synced prefix and drops files
  whose directory entries were never made durable.

All methods are synchronous and allocation-cheap; the simulated
offload runs them inline on the virtual-time loop, keeping the world
single-threaded and deterministic.
"""

from __future__ import annotations

import errno
import os
import posixpath
import random
from typing import Dict, List, Optional, Set

from ...util.fs import Filesystem

__all__ = ["SimFilesystem"]


def _norm(path: str) -> str:
    return posixpath.normpath(str(path).replace(os.sep, "/"))


class _FileState:
    """One simulated file: full content plus durability watermarks."""

    __slots__ = ("data", "flushed", "synced", "linked")

    def __init__(self) -> None:
        self.data = bytearray()
        self.flushed = 0
        self.synced = 0
        self.linked = False

    def clamp(self, length: int) -> None:
        del self.data[length:]
        self.flushed = min(self.flushed, length)
        self.synced = min(self.synced, length)


class _SimHandle:
    """File-object shim offering the surface the repo actually uses.

    ``read``/``write``/``flush``/``truncate``/``tell``/``close`` plus
    the context-manager protocol — the full footprint of
    :class:`~repro.util.fs.Filesystem` call sites in the WAL and
    checkpoint code.  After :meth:`SimFilesystem.process_crash` the
    handle is *inert*: mutations silently do nothing, reads return
    empty — the owning process is conceptually dead.
    """

    def __init__(self, fs: "SimFilesystem", path: str, state: _FileState,
                 writable: bool, append: bool):
        self._fs = fs
        self._path = path
        self._state = state
        self._writable = writable
        self._append = append
        self._pos = len(state.data) if append else 0
        self._dead = False
        self.closed = False

    # -- reading --------------------------------------------------------

    def read(self, size: int = -1) -> bytes:
        if self._dead:
            return b""
        data = bytes(self._state.data)
        if size is None or size < 0:
            out = data[self._pos:]
        else:
            out = data[self._pos:self._pos + size]
        self._pos += len(out)
        return out

    # -- writing --------------------------------------------------------

    def write(self, data: bytes) -> int:
        if self._dead:
            return len(data)
        if not self._writable:
            raise OSError(errno.EBADF, "handle opened read-only")
        if self._append:
            self._pos = len(self._state.data)
        accepted = self._fs._accept_write(self._state, len(data))
        self._state.data[self._pos:self._pos + accepted] = data[:accepted]
        self._pos += accepted
        if accepted < len(data):
            # Partial append then failure: exactly how a real ENOSPC
            # tears the final record.
            raise OSError(errno.ENOSPC, "simulated disk full")
        return accepted

    def flush(self) -> None:
        if self._dead:
            return
        self._state.flushed = len(self._state.data)

    def truncate(self, size: Optional[int] = None) -> int:
        if self._dead:
            return 0
        if size is None:
            size = self._pos
        self._state.clamp(size)
        return size

    def tell(self) -> int:
        if self._dead:
            return self._pos
        if self._append:
            return len(self._state.data)
        return self._pos

    def fileno(self) -> int:
        # Never handed to the real OS: SimFilesystem.fsync overrides
        # the os.fsync path entirely.
        return -1

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._writable and not self._dead:
            self.flush()
        self._fs._handles.discard(self)

    def _kill(self) -> None:
        self._dead = True

    def __enter__(self) -> "_SimHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SimFilesystem(Filesystem):
    """In-memory :class:`~repro.util.fs.Filesystem` with fault tiers.

    One instance backs one simulated server node, so a crash or power
    loss scopes naturally to that node's directories.
    """

    def __init__(self) -> None:
        self._files: Dict[str, _FileState] = {}
        self._dirs: Set[str] = {"/", "."}
        self._handles: Set[_SimHandle] = set()
        self._capacity: Optional[int] = None
        #: Counters the world's invariant checks and benches can read.
        self.fsyncs = 0
        self.enospc_errors = 0

    # -- fault injection ------------------------------------------------

    def set_capacity(self, capacity: Optional[int]) -> None:
        """Bound total stored bytes; ``None`` removes the bound."""
        self._capacity = capacity

    def used_bytes(self) -> int:
        return sum(len(f.data) for f in self._files.values())

    def process_crash(self, rng: Optional[random.Random] = None) -> None:
        """SIGKILL the owning node: lose unflushed tails, tear records.

        Each file keeps its flushed prefix plus — with probability ½
        under ``rng`` — a partial slice of the buffered tail, modeling
        a flush racing the kill.  Open handles go inert.
        """
        for handle in list(self._handles):
            handle._kill()
        self._handles.clear()
        for state in self._files.values():
            survivor = state.flushed
            tail = len(state.data) - state.flushed
            if tail > 0 and rng is not None and rng.random() < 0.5:
                survivor += rng.randint(0, tail)
            state.clamp(survivor)

    def power_loss(self) -> None:
        """Cut power: only fsynced bytes of dir-linked files survive."""
        for handle in list(self._handles):
            handle._kill()
        self._handles.clear()
        doomed = [p for p, f in self._files.items() if not f.linked]
        for path in doomed:
            del self._files[path]
        for state in self._files.values():
            state.clamp(state.synced)

    def wipe(self, path: str) -> None:
        """Lose ``path`` and all under it: a stopped node's dead disk."""
        gone = _norm(path) + "/"
        self._files = {p: f for p, f in self._files.items()
                       if not (p + "/").startswith(gone)}
        self._dirs = {d for d in self._dirs if not (d + "/").startswith(gone)}

    # -- Filesystem surface ---------------------------------------------

    def open(self, path: str, mode: str = "rb"):
        path = _norm(path)
        state = self._files.get(path)
        writable = any(c in mode for c in "wa+")
        if "r" in mode and state is None:
            raise FileNotFoundError(errno.ENOENT, "no such file", path)
        if state is None:
            parent = posixpath.dirname(path)
            if parent and parent not in self._dirs:
                raise FileNotFoundError(
                    errno.ENOENT, "no such directory", parent)
            state = self._files[path] = _FileState()
        elif "w" in mode:
            state.clamp(0)
        handle = _SimHandle(self, path, state, writable, append="a" in mode)
        self._handles.add(handle)
        return handle

    def fsync(self, fh) -> None:
        if isinstance(fh, _SimHandle):
            fh.flush()
            if not fh._dead:
                fh._state.synced = fh._state.flushed
                self.fsyncs += 1
            return
        raise TypeError("SimFilesystem can only fsync its own handles")

    def fsync_dir(self, directory: str) -> None:
        directory = _norm(directory)
        for path, state in self._files.items():
            if posixpath.dirname(path) == directory:
                state.linked = True
        self.fsyncs += 1

    def exists(self, path: str) -> bool:
        path = _norm(path)
        return path in self._files or path in self._dirs

    def isdir(self, path: str) -> bool:
        return _norm(path) in self._dirs

    def listdir(self, path: str) -> List[str]:
        path = _norm(path)
        if path not in self._dirs:
            raise FileNotFoundError(errno.ENOENT, "no such directory", path)
        out = set()
        for p in self._files:
            if posixpath.dirname(p) == path:
                out.add(posixpath.basename(p))
        for d in self._dirs:
            if d != path and posixpath.dirname(d) == path:
                out.add(posixpath.basename(d))
        return sorted(out)

    def makedirs(self, path: str, exist_ok: bool = False) -> None:
        path = _norm(path)
        if path in self._dirs and not exist_ok:
            raise FileExistsError(errno.EEXIST, "directory exists", path)
        parts = path.split("/")
        for i in range(1, len(parts) + 1):
            self._dirs.add("/".join(parts[:i]) or "/")

    def remove(self, path: str) -> None:
        path = _norm(path)
        if path not in self._files:
            raise FileNotFoundError(errno.ENOENT, "no such file", path)
        del self._files[path]

    def replace(self, src: str, dst: str) -> None:
        src, dst = _norm(src), _norm(dst)
        state = self._files.get(src)
        if state is None:
            raise FileNotFoundError(errno.ENOENT, "no such file", src)
        del self._files[src]
        self._files[dst] = state
        # The rename itself is not durable until the directory entry
        # is fsynced — checkpoint.save does exactly that.
        state.linked = False

    def getsize(self, path: str) -> int:
        path = _norm(path)
        state = self._files.get(path)
        if state is None:
            raise FileNotFoundError(errno.ENOENT, "no such file", path)
        return len(state.data)

    # -- internals ------------------------------------------------------

    def _accept_write(self, state: _FileState, length: int) -> int:
        """How many of ``length`` new bytes fit under the capacity."""
        if self._capacity is None:
            return length
        room = self._capacity - self.used_bytes()
        if room >= length:
            return length
        self.enospc_errors += 1
        return max(0, room)
