"""Shared-memory lifecycle for SoA sampler banks.

A :class:`~repro.sketch.bank.SamplerGrid` stores all of its counters in
one contiguous ``(3, groups, members, levels, rows, buckets)`` int64
block, so moving a grid between processes does not require pickling
member states: the block can live in a named POSIX shared-memory
segment (``multiprocessing.shared_memory``) and every process maps the
*same physical pages* as zero-copy numpy views.  This module owns the
segment lifecycle rules the engine relies on:

* **Naming.**  Segments are named ``repro-bank-<pid:x>-<token>`` where
  ``pid`` is the creating process — greppable in ``/dev/shm`` and
  filterable per-process by tests hunting for leaks.

* **Creation vs attachment.**  The *creator* (the pool parent) owns a
  segment: it is registered with the stdlib ``resource_tracker`` so a
  parent killed with SIGKILL still gets its segments unlinked by the
  tracker process.  *Attachers* (shard workers) explicitly unregister
  their handle: on Python 3.9–3.11, ``SharedMemory(name=...)`` also
  registers with the tracker, and without the unregister a dying
  worker would unlink a segment the parent is still folding into.

* **Teardown order.**  numpy views pin the underlying ``mmap``;
  ``close()`` with live views raises ``BufferError``.
  :func:`close_segment` retries once after a garbage-collection pass,
  but callers (``SamplerGrid.release_shared``) are expected to drop
  their views first.

* **Fork hygiene.**  The creator registry is cleared in forked
  children so a worker's interpreter exit can never unlink segments it
  merely inherited a handle to.

The sketch-level helpers at the bottom (:func:`share_sketch` /
:func:`attach_sketch` / :func:`release_sketch`) apply the grid-level
operations across every :class:`SamplerGrid` reached by
:func:`~repro.sketch.serialization.iter_grids`, so multi-layer sketches
(:class:`~repro.sketch.skeleton.SkeletonSketch`) share each layer's
bank under its own segment.
"""

from __future__ import annotations

import atexit
import os
import secrets
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence

from ..errors import EngineError

#: Prefix of every segment this library creates; leak checks glob
#: ``/dev/shm/<prefix>-*``.
SEGMENT_PREFIX = "repro-bank"

#: Segments created (and still owned) by *this* process, by name.
#: Used only for best-effort unlink at interpreter exit — the normal
#: path is an explicit :func:`close_segment` with ``unlink=True``.
_CREATED: Dict[str, shared_memory.SharedMemory] = {}


def segment_name() -> str:
    """A fresh segment name: ``repro-bank-<pid:x>-<random token>``."""
    return f"{SEGMENT_PREFIX}-{os.getpid():x}-{secrets.token_hex(6)}"


def create_segment(
    nbytes: int, name: Optional[str] = None
) -> shared_memory.SharedMemory:
    """Create (and own) a named segment of at least ``nbytes`` bytes.

    The creating process keeps resource-tracker registration, so the
    segment is unlinked even if this process dies without cleanup
    (SIGKILL); it is also recorded for the atexit sweep below.
    """
    if nbytes < 1:
        raise EngineError(f"shared segment needs positive size, got {nbytes}")
    shm = shared_memory.SharedMemory(
        name=name if name is not None else segment_name(),
        create=True,
        size=int(nbytes),
    )
    _CREATED[shm.name] = shm
    return shm


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* taking ownership.

    Python <= 3.11 registers every ``SharedMemory`` handle — attached
    or created — with the resource tracker, and forked workers share
    the parent's tracker process.  Registration is suppressed for the
    attach (the 3.12 ``track=False`` backport idiom): sending an
    ``unregister`` instead would cancel the *creator's* registration
    in the shared tracker and lose SIGKILL cleanup for everyone.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        raise EngineError(f"shared segment {name!r} does not exist")
    finally:
        resource_tracker.register = original
    return shm


def close_segment(
    shm: shared_memory.SharedMemory, unlink: bool = False
) -> None:
    """Unmap a segment handle; with ``unlink=True`` also delete it.

    Callers must drop numpy views into ``shm.buf`` first — a live view
    pins the mmap.  One gc pass is retried defensively for views that
    only became unreachable (reference cycles), then the error
    propagates: silently leaking a mapping would hide a real bug.
    """
    try:
        shm.close()
    except BufferError:
        import gc

        gc.collect()
        shm.close()
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _CREATED.pop(shm.name, None)


def active_segments() -> List[str]:
    """Names of segments created by this process and not yet unlinked."""
    return sorted(_CREATED)


def _cleanup_created() -> None:  # pragma: no cover - interpreter exit
    """Best-effort unlink of leftover segments at interpreter exit."""
    for name in list(_CREATED):
        shm = _CREATED.pop(name)
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


atexit.register(_cleanup_created)

# A forked child inherits _CREATED but not ownership; only the creator
# may ever unlink.  (multiprocessing children skip atexit, but a plain
# os.fork() child would not.)
os.register_at_fork(after_in_child=_CREATED.clear)


# -- sketch-level helpers -------------------------------------------------


def _grids(sketch) -> List:
    from .serialization import iter_grids

    return list(iter_grids(sketch))


def share_sketch(sketch) -> List[str]:
    """Move every grid's counter block into its own named segment.

    Returns the segment names in :func:`iter_grids` order — the wire
    handle a worker needs to :func:`attach_sketch` the same pages.
    """
    return [grid.to_shared() for grid in _grids(sketch)]


def attach_sketch(sketch, names: Sequence[str]) -> None:
    """Rebind every grid of ``sketch`` onto the named segments.

    ``names`` must line up with :func:`iter_grids` order (the order
    :func:`share_sketch` returned).  The grids' private counters are
    discarded — after this call they alias the shared pages.
    """
    grids = _grids(sketch)
    if len(names) != len(grids):
        raise EngineError(
            f"sketch has {len(grids)} grids but {len(names)} segment "
            "names were provided"
        )
    for grid, name in zip(grids, names):
        grid.attach_shared(name)


def release_sketch(sketch, unlink: bool = False, copy: bool = True) -> None:
    """Detach every grid from shared memory (see ``release_shared``)."""
    for grid in _grids(sketch):
        grid.release_shared(unlink=unlink, copy=copy)
