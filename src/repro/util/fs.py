"""The disk seam: one ``Filesystem`` facade for real and simulated IO.

The durability-critical writers — the per-sketch write-ahead log
(:mod:`repro.service.wal`) and the checkpoint manager
(:mod:`repro.engine.checkpoint`) — perform every filesystem operation
through a :class:`Filesystem` instance instead of calling the
:mod:`os` / builtin ``open`` APIs directly.  In production the default
:data:`REAL_FS` delegates straight through; under the deterministic
simulation harness a ``SimFilesystem`` models the three durability
tiers a real disk exposes (userspace buffer, kernel page cache, platter)
and can crash a "process" or lose "power" at any seeded instant,
leaving torn final records and vanished un-fsynced suffixes for the
recovery paths to prove themselves against.

Only the operations the durability layer actually uses are abstracted;
``fsync`` looks up ``os.fsync`` at call time so test spies that
monkeypatch it keep observing real-world syncs.
"""

from __future__ import annotations

import os
from typing import IO, List, Tuple


class Filesystem:
    """Real filesystem: thin pass-through to ``os``/``open``."""

    def open(self, path: str, mode: str = "rb") -> IO[bytes]:
        return open(path, mode)

    def fsync(self, fh: IO[bytes]) -> None:
        """Flush ``fh``'s data to stable storage (survives power loss)."""
        fh.flush()
        os.fsync(fh.fileno())

    def fsync_dir(self, directory: str) -> None:
        """Flush a directory's entries to disk (rename/create durability).

        Needed after ``os.replace``, segment creation, or unlink for
        the entry itself to survive a power loss.  Platforms without
        directory fds (Windows) silently skip — the rename there is
        already as durable as the platform offers.
        """
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def listdir(self, path: str) -> List[str]:
        return os.listdir(path)

    def makedirs(self, path: str, exist_ok: bool = True) -> None:
        os.makedirs(path, exist_ok=exist_ok)

    def remove(self, path: str) -> None:
        os.remove(path)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def getsize(self, path: str) -> int:
        return os.path.getsize(path)


#: Process-wide default used by every writer unless one is injected.
REAL_FS = Filesystem()


def numbered_files(fs: Filesystem, directory: str, prefix: str,
                   suffix: str) -> List[Tuple[int, str]]:
    """(number, path) of every ``<prefix><int><suffix>`` file, ascending.

    Any other name in ``directory`` (a ``.tmp`` dropping, a stray file)
    is ignored; a missing directory lists nothing.
    """
    if not fs.isdir(directory):
        return []
    found = []
    for name in fs.listdir(directory):
        if name.startswith(prefix) and name.endswith(suffix):
            try:
                number = int(name[len(prefix):len(name) - len(suffix)])
            except ValueError:
                continue
            found.append((number, os.path.join(directory, name)))
    return sorted(found)

