"""Vectorised grids of L0 samplers (the production sketch engine).

The AGM-style sketches all share one shape: a grid of L0 samplers
indexed by ``(group, member)`` where

* *members* are vertices — member ``v``'s sampler sketches vertex
  ``v``'s (signed) incidence row;
* *groups* are independent repetitions (Borůvka rounds): randomness is
  **shared across members within a group** — that is exactly what
  makes the member sketches of one group summable, the linchpin of the
  whole approach (summing a component's rows yields a sketch of its
  boundary δ(S)) — and **independent across groups**, which is what
  the decoding loops consume one round at a time.

Counters live in **one contiguous int64 block** of shape
``(3, groups, members, levels, rows, buckets)`` — exact weights, index
sums mod p, and fingerprints mod p as the three planes (see
:mod:`repro.sketch.onesparse` for the cell semantics); ``_w`` / ``_s``
/ ``_f`` are zero-copy views into it.  The single backing buffer is
what makes merges one vectorised fold, checkpoint restores in-place
writes, and — via :mod:`repro.sketch.shm` — lets shard workers map the
same physical pages through ``multiprocessing.shared_memory`` instead
of pickling member states.  A single stream update touches every group
at once through vectorised hashing, which is the hot path of the
library.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict, namedtuple
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    EngineError,
    IncompatibleSketchError,
    NotOneSparseError,
)
from ..util.hashing import (
    _FIELD_TWEAK,
    HashFamily,
    derive_seed,
    field_residue_np,
    hash64,
    hash64_many,
    hash64_premixed,
    premix64_np,
    splitmix64,
    splitmix64_np,
    trailing_zeros64,
    trailing_zeros64_np,
)
from ..util.prime_field import (
    MERSENNE_61,
    mul_vec_mod,
    shl32_vec_mod,
)
from .l0 import default_levels

_P = MERSENNE_61

# -- decode metrics -------------------------------------------------------

#: Optional :class:`~repro.engine.query.QueryMetrics` sink.  When set,
#: the decode kernels below record cell counts and kernel timings into
#: it.  Kept as a module global (not threaded through every decode
#: signature) so instrumentation has zero cost when off.
_QUERY_METRICS = None


def set_query_metrics(metrics) -> object:
    """Install (or clear, with None) the decode metrics sink; returns
    the previous sink.  See :mod:`repro.engine.query` for the context
    manager most callers want."""
    global _QUERY_METRICS
    previous = _QUERY_METRICS
    _QUERY_METRICS = metrics
    return previous


# -- precomputed placement tables (the ingest fast path) ------------------
#
# Hashing dominates the batched update kernel: every batch re-derives
# the level depth and per-(row, level) bucket of each coordinate from
# scratch.  Those placements are pure functions of (seed, coordinate),
# so for moderate domains they can be tabulated once and gathered per
# batch.  The tables below hold, per group, the capped subsampling
# depth of every coordinate, and per (group, row) the *flat in-member
# cell offset* ``(lvl * rows + r) * buckets + bucket`` of every
# (coordinate, level) pair — exactly the address arithmetic of
# :func:`repro.engine.batch.grid_update_batch`, so the kernel gives
# bit-identical counters on every table tier by construction.


class _HashTableCache:
    """Immutable placement tables for one (seed, geometry) combination.

    ``depth[g]`` maps coordinate -> capped depth (uint8 — a trailing-zero
    count is at most 64 — shape ``(groups, domain)``);
    ``off[g, r]`` maps the flattened
    ``coordinate * levels + lvl`` key -> in-member flat cell offset
    (smallest unsigned dtype that fits, shape
    ``(groups, rows, domain * levels)``).  ``off`` may be None — the
    *depth-only* tier kept when the full offset tables would blow the
    memory budget; the kernel then gathers depths but re-hashes
    buckets.
    """

    __slots__ = ("depth", "off", "nbytes")

    def __init__(self, depth: np.ndarray, off: Optional[np.ndarray]):
        self.depth = depth
        self.off = off
        self.nbytes = depth.nbytes + (0 if off is None else off.nbytes)


def _depth_table_bytes(grid) -> int:
    """Footprint of the depth-only tier (one byte per coordinate/group)."""
    return grid.groups * grid.domain


def _hash_cache_bytes(grid) -> int:
    """Predicted full-tier table footprint of :func:`_build_hash_cache`."""
    cells = grid.levels * grid.rows * grid.buckets
    itemsize = 2 if cells <= (1 << 16) else 4
    return (
        _depth_table_bytes(grid)
        + grid.groups * grid.rows * grid.domain * grid.levels * itemsize
    )


def _build_hash_cache(grid, depth_only: bool = False) -> _HashTableCache:
    """Tabulate every placement hash of a grid over its whole domain."""
    levels, rows, buckets = grid.levels, grid.rows, grid.buckets
    dom = np.arange(grid.domain, dtype=np.int64)
    lvl_arr = np.arange(levels, dtype=np.int64)
    salts = np.array(grid._level_salts, dtype=np.uint64)
    off_dtype = np.uint16 if levels * rows * buckets <= (1 << 16) else np.uint32
    depth = np.empty((grid.groups, grid.domain), dtype=np.uint8)
    off = (
        None
        if depth_only
        else np.empty((grid.groups, rows, grid.domain * levels), dtype=off_dtype)
    )
    for g in range(grid.groups):
        depth[g] = np.minimum(
            trailing_zeros64_np(hash64_many(grid._level_seeds[g], dom)),
            levels - 1,
        )
        if off is None:
            continue
        for r in range(rows):
            h = hash64_many(grid._bucket_seeds[g][r], dom)
            with np.errstate(over="ignore"):
                b = (splitmix64_np(h[:, None] ^ salts[None, :])
                     % np.uint64(buckets)).astype(np.int64)
            off[g, r] = (
                (lvl_arr[None, :] * rows + r) * buckets + b
            ).reshape(-1).astype(off_dtype)
    return _HashTableCache(depth, off)


#: Shared pool of placement tables, LRU-ordered.  Grids with equal
#: (seed, geometry) — e.g. the shards of an engine, or a restored
#: replica of a served sketch — hash identically, so they share one
#: table set.  The pool holds at most ``_HASH_CACHE_POOL_BUDGET``
#: bytes of tables (by *actual* ``nbytes``, not entry count); putting
#: a new table evicts least-recently-used ones to fit.  The batched
#: update kernel attaches a grid's tables on first use within that
#: budget, spilling back to rehashing for oversized domains.  Grids
#: keep a direct reference to their table, so eviction only drops the
#: pooled handle — attached tables stay valid.
_HASH_CACHE_POOL: "OrderedDict[tuple, _HashTableCache]" = OrderedDict()
_HASH_CACHE_POOL_BUDGET = 1 << 28


def clear_hash_cache_pool() -> None:
    """Drop every pooled placement table (tests / memory pressure)."""
    _HASH_CACHE_POOL.clear()


def hash_cache_pool_bytes() -> int:
    """Actual bytes of placement tables currently pooled."""
    return sum(cache.nbytes for cache in _HASH_CACHE_POOL.values())


def _evict_to_budget(incoming: int) -> None:
    """Evict LRU tables until ``incoming`` more bytes would fit."""
    while _HASH_CACHE_POOL and (
        hash_cache_pool_bytes() + incoming > _HASH_CACHE_POOL_BUDGET
    ):
        _HASH_CACHE_POOL.popitem(last=False)


def _pool_get(key: tuple) -> Optional[_HashTableCache]:
    cache = _HASH_CACHE_POOL.get(key)
    if cache is not None:
        _HASH_CACHE_POOL.move_to_end(key)
    return cache


def _pool_put(key: tuple, cache: _HashTableCache) -> None:
    _evict_to_budget(cache.nbytes)
    _HASH_CACHE_POOL[key] = cache


# Forked workers (SharedMemoryPool) inherit the parent's
# pooled tables as copy-on-write pages; clearing the child's pool keeps
# its byte accounting honest (no double-counting of shared physical
# pages) while any table already *attached* to a grid stays referenced
# and usable.
os.register_at_fork(after_in_child=clear_hash_cache_pool)


# -- scalar memoization ---------------------------------------------------
#
# Cell verification repeatedly inverts the same handful of cell weights
# — they are almost always in ±{1..r} — and scalar updates re-hash the
# same coordinates' fingerprints.  Both are pure functions of their
# arguments, so small LRUs turn them into dictionary hits.

@lru_cache(maxsize=4096)
def _inv_mod_cached(w_mod: int) -> int:
    """``pow(w_mod, p-2, p)``, memoized over the few weights seen."""
    return pow(w_mod, _P - 2, _P)


@lru_cache(maxsize=65536)
def _rho_cached(seed: int, index: int) -> int:
    """Memoized :meth:`HashFamily.field_value` fingerprint residue."""
    hi = hash64(seed, index)
    lo = hash64(seed ^ _FIELD_TWEAK, index)
    return ((hi << 64) | lo) % _P


class HashStack(namedtuple("_HashStack", (
    "domain", "levels", "rows", "buckets", "group_seeds", "tiebreak_seeds",
    "salts", "rho_seeds", "owner", "first",
))):
    """The hash context of a stack of same-geometry grids, which the
    decode kernels read through a per-component index.

    A *global group* ``q`` is one Borůvka group of one grid: row ``q``
    of ``group_seeds`` (its level seed, then its ``rows`` bucket seeds)
    and of ``tiebreak_seeds``.  ``owner[q]`` is its grid — the row of
    ``salts`` (per level) and ``rho_seeds`` (fingerprint seed and its
    tweak) — and ``first[owner[q]]`` that grid's group 0.
    """

    __slots__ = ()

    @classmethod
    def of(cls, grids: Sequence["SamplerGrid"]) -> "HashStack":
        """Stack the contexts of ``grids`` (equal geometry), in order."""
        head = grids[0]
        counts = np.array([g.groups for g in grids])
        u64 = np.uint64
        return cls(
            head.domain, head.levels, head.rows, head.buckets,
            np.array([[lvl, *bkt] for g in grids for lvl, bkt in
                      zip(g._level_seeds, g._bucket_seeds)], dtype=u64),
            np.array([t for g in grids for t in g._tiebreak_seeds], dtype=u64),
            np.array([g._level_salts for g in grids], dtype=u64),
            np.array([(g._rho.seed, g._rho.seed ^ _FIELD_TWEAK)
                      for g in grids], dtype=u64),
            np.repeat(np.arange(len(grids)), counts),
            np.cumsum(counts) - counts,
        )

    def rho(self, q: np.ndarray, mixed: np.ndarray) -> np.ndarray:
        """Fingerprint residues of premixed coordinates under the
        grids owning groups ``q`` (``HashFamily.field_value``)."""
        h = hash64_premixed(self.rho_seeds[self.owner[q]], mixed[:, None])
        return field_residue_np(h[:, 0], h[:, 1], _P).astype(np.int64)


class SamplerGrid:
    """A ``groups × members`` grid of mutually-summable L0 samplers.

    Parameters
    ----------
    groups:
        Number of independent repetitions (e.g. Borůvka rounds).
    members:
        Number of member sketches per group (e.g. vertices).
    domain:
        Coordinate domain size (e.g. the hyperedge space dimension).
    seed:
        Master seed; grids with equal parameters and seed are
        compatible for linear combination.
    rows, buckets:
        Geometry of each level's sparse-recovery stage.
    levels / max_support:
        Subsampling depth; ``max_support`` (a bound on any sketched
        vector's support, e.g. max degree) shrinks the depth.
    block:
        Caller-owned storage for the counters: a C-contiguous ``int64``
        array of exactly :meth:`space_counters` elements, adopted as the
        grid's ``_block`` without copying (its current contents become
        the grid's counters).  A composite that lays many grids in one
        arena passes each its slice; a grid on borrowed storage refuses
        :meth:`to_shared` / :meth:`attach_shared` /
        :meth:`release_shared`, which would rebind it away from the
        arena.  Default: a private zeroed block.
    """

    def __init__(
        self,
        groups: int,
        members: int,
        domain: int,
        seed: int,
        rows: int = 2,
        buckets: int = 8,
        levels: Optional[int] = None,
        max_support: Optional[int] = None,
        block: Optional[np.ndarray] = None,
    ):
        if groups < 1 or members < 1 or domain < 1:
            raise IncompatibleSketchError(
                f"grid needs positive shape, got groups={groups}, "
                f"members={members}, domain={domain}"
            )
        self.groups = groups
        self.members = members
        self.domain = domain
        self.rows = rows
        self.buckets = buckets
        self.levels = levels if levels is not None else default_levels(domain, max_support)
        self.seed = seed & ((1 << 64) - 1)
        #: One contiguous SoA backing block: plane 0 = exact weights,
        #: plane 1 = index sums mod p, plane 2 = fingerprints mod p.
        #: ``_w`` / ``_s`` / ``_f`` are views into it (see
        #: :meth:`_bind_views`); the block itself may live in a named
        #: shared-memory segment (:meth:`to_shared`).
        self._shm = None
        self._shm_name = None
        if block is None:
            self._block = np.zeros(self._block_shape(), dtype=np.int64)
            self._borrowed = False
            self._bind_views()
        else:
            self._adopt_block(block)
        self._level_seeds = [derive_seed(self.seed, 1, g) for g in range(groups)]
        self._bucket_seeds = [
            [derive_seed(self.seed, 2, g, r) for r in range(rows)]
            for g in range(groups)
        ]
        #: per-level salts mixed into the bucket hash so collisions do
        #: not repeat across subsampling levels.
        self._level_salts = [derive_seed(self.seed, 5, lvl) for lvl in range(self.levels)]
        self._tiebreak_seeds = [derive_seed(self.seed, 3, g) for g in range(groups)]
        self._rho = HashFamily(derive_seed(self.seed, 4))
        #: the same seeds as arrays, the form the decode kernels read
        self._hashes = HashStack.of([self])
        self._updates = 0
        #: Optional :class:`~repro.audit.digest.GridDigest`, attached by
        #: the integrity layer; every mutation path below keeps it in
        #: lockstep with the counter arrays when present.
        self._digest = None
        #: Mutation counter: every mutation path bumps it through
        #: :meth:`_touch`.  Whoever caches something derived from the
        #: counters compares it — the union's per-instance decode cache
        #: does.
        self._epoch = 0
        #: Optional :class:`_HashTableCache` — precomputed placement
        #: tables consulted by the batched update kernel.  Purely a
        #: performance switch: the kernel is bit-identical on every
        #: table tier (the equivalence tests enforce it).  Attached
        #: lazily by the kernel itself unless :meth:`detach_hash_cache`
        #: cleared ``_hash_cache_auto``; a domain too large for even the
        #: depth tier sets ``_hash_cache_spilled`` so the kernel stops
        #: re-trying and rehashes per batch.
        self._hash_cache = None
        self._hash_cache_auto = True
        self._hash_cache_spilled = False

    # -- storage (SoA block, shared-memory backing) ----------------------

    def _block_shape(self) -> Tuple[int, ...]:
        return (3, self.groups, self.members, self.levels, self.rows,
                self.buckets)

    def _adopt_block(self, block: np.ndarray) -> None:
        """Bind the counters onto caller-owned storage, zero-copy."""
        shape = self._block_shape()
        if (
            block.dtype != np.int64
            or not block.flags.c_contiguous
            or block.size != self.space_counters()
        ):
            raise IncompatibleSketchError(
                f"grid needs a C-contiguous int64 block of "
                f"{self.space_counters()} counters, got {block.dtype} x "
                f"{block.size}"
            )
        self._block = block.reshape(shape)
        self._borrowed = True
        self._bind_views()

    def _refuse_if_borrowed(self, what: str) -> None:
        if self._borrowed:
            raise EngineError(
                f"cannot {what}: the grid's counters are a slice of an "
                "arena its owner updates in place; copy() the grid first"
            )

    def _bind_views(self) -> None:
        """(Re)derive the ``_w`` / ``_s`` / ``_f`` plane views."""
        self._w = self._block[0]
        self._s = self._block[1]
        self._f = self._block[2]

    @property
    def shared_name(self) -> Optional[str]:
        """Segment name when shared-memory backed, else None."""
        return self._shm_name

    def to_shared(self, name: Optional[str] = None) -> str:
        """Move the counter block into a named shared-memory segment.

        Creates (and owns) the segment, copies the current counters in,
        and rebinds ``_block`` and the plane views onto the mapping —
        zero further copies for this process or any process that
        :meth:`attach_shared` the returned name.  Idempotent on an
        already-shared grid (returns the existing name).
        """
        from .shm import create_segment

        self._refuse_if_borrowed("move the counter block to shared memory")
        if self._shm is not None:
            return self._shm_name
        shm = create_segment(self._block.nbytes, name=name)
        block = np.frombuffer(
            shm.buf, dtype=np.int64, count=self._block.size
        ).reshape(self._block.shape)
        block[...] = self._block
        self._block = block
        self._shm = shm
        self._shm_name = shm.name
        self._bind_views()
        return shm.name

    def attach_shared(self, name: str) -> None:
        """Rebind the counters onto an existing segment (zero-copy).

        The grid's current counters are discarded — after this call it
        aliases whatever the segment holds.  The attachment is
        non-owning: this process never unlinks the segment (see
        :mod:`repro.sketch.shm` for the tracker rules).
        """
        from .shm import attach_segment, close_segment

        self._refuse_if_borrowed("attach a shared segment")
        shm = attach_segment(name)
        if shm.size < self._block.nbytes:
            close_segment(shm)
            raise EngineError(
                f"shared segment {name!r} holds {shm.size} bytes but the "
                f"grid needs {self._block.nbytes}"
            )
        self._block = np.frombuffer(
            shm.buf, dtype=np.int64, count=self._block.size
        ).reshape(self._block.shape)
        self._shm = shm
        self._shm_name = name
        self._bind_views()
        # The mapped counters are foreign state; anything derived from
        # the old private block is stale.
        self._touch()

    def release_shared(self, unlink: bool = False, copy: bool = True) -> None:
        """Detach from shared memory; no-op for privately-backed grids.

        With ``copy=True`` the counters survive in a fresh private
        block (the engine's merge-after-close path); ``copy=False``
        abandons them with the segment (teardown).  ``unlink=True``
        deletes the segment — only its creator should pass it.
        """
        from .shm import close_segment

        self._refuse_if_borrowed("release a shared segment")
        if self._shm is None:
            return
        shm = self._shm
        block = (
            np.array(self._block)
            if copy
            else np.zeros(self._block.shape, dtype=np.int64)
        )
        # Rebind before closing: live views into shm.buf pin the mmap.
        self._block = block
        self._shm = None
        self._shm_name = None
        self._bind_views()
        close_segment(shm, unlink=unlink)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # A pickle always carries a private counter block; segment
        # handles and placement tables (pooled per process) are
        # address-space artifacts, not sketch state.
        for view in ("_w", "_s", "_f"):
            state.pop(view, None)
        if self._shm is not None:
            state["_block"] = np.array(self._block)
        state["_shm"] = None
        state["_shm_name"] = None
        # A borrowed block pickles as its own bytes: the copy is private.
        state["_borrowed"] = False
        state["_hash_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    # -- streaming ------------------------------------------------------

    def _depth(self, group: int, index: int) -> int:
        """Deepest subsampling level of ``index`` in ``group``."""
        return min(
            trailing_zeros64(hash64(self._level_seeds[group], index)),
            self.levels - 1,
        )

    def _bucket(self, group: int, row: int, lvl: int, index: int) -> int:
        """Bucket of ``index`` at one (group, row, level) cell array."""
        h = hash64(self._bucket_seeds[group][row], index)
        return splitmix64(h ^ self._level_salts[lvl]) % self.buckets

    def update(self, member: int, index: int, delta: int) -> None:
        """Apply ``x_member[index] += delta`` in every group.

        This is the library's hot path; it deliberately uses scalar
        arithmetic and direct element indexing — for the typical group
        counts (~10) that beats vectorised numpy calls on tiny arrays
        by a wide margin.
        """
        if delta == 0:
            return
        if not 0 <= index < self.domain:
            raise NotOneSparseError(f"coordinate {index} outside [0, {self.domain})")
        if not 0 <= member < self.members:
            raise IncompatibleSketchError(
                f"member {member} outside [0, {self.members})"
            )
        self._updates += 1
        if self._digest is not None:
            self._digest.observe_update(self, member, index, delta)
        self._touch()
        i_mod = index % _P
        rho = _rho_cached(self._rho.seed, index)
        cs = (delta * i_mod) % _P
        cf = (delta * rho) % _P
        w, s, f = self._w, self._s, self._f
        rows, buckets = self.rows, self.buckets
        salts = self._level_salts
        for g in range(self.groups):
            depth = self._depth(g, index)
            bseeds = self._bucket_seeds[g]
            for r in range(rows):
                h = hash64(bseeds[r], index)
                base = w[g, member, :, r]  # (levels, buckets) views
                s_base = s[g, member, :, r]
                f_base = f[g, member, :, r]
                for lvl in range(depth + 1):
                    b = splitmix64(h ^ salts[lvl]) % buckets
                    base[lvl, b] += delta
                    sv = int(s_base[lvl, b]) + cs
                    s_base[lvl, b] = sv - _P if sv >= _P else sv
                    fv = int(f_base[lvl, b]) + cf
                    f_base[lvl, b] = fv - _P if fv >= _P else fv

    def update_batch(self, members, indices, deltas) -> int:
        """Apply a whole array of ``x_member[index] += delta`` updates.

        Parameters are parallel 1-D integer arrays.  The final counter
        state is bit-identical to looping :meth:`update` over the batch
        (updates commute), but the hashing, placement, and modular cell
        arithmetic are vectorised with numpy — the engine's fast path
        for heavy streams.  Returns the number of nonzero-delta updates
        applied.  See :func:`repro.engine.batch.grid_update_batch`.
        """
        from ..engine.batch import grid_update_batch

        return grid_update_batch(self, members, indices, deltas)

    def reset(self) -> None:
        """Zero all counters (back to the empty-stream state)."""
        self._block.fill(0)
        self._updates = 0
        if self._digest is not None:
            self._digest.reset()
        self._touch()

    def _touch(self) -> None:
        """Count a mutation of the counters (every mutation path)."""
        self._epoch += 1

    # -- placement-table plumbing ----------------------------------------

    def attach_hash_cache(self, max_bytes: int = 1 << 28) -> int:
        """Precompute (or adopt pooled) placement tables for this grid.

        Tabulates every coordinate's level depth and per-(row, level)
        bucket so the batched update kernel gathers placements instead
        of rehashing them — the sustained-ingest fast path of the
        serving layer.  Tables are immutable and shared across grids
        with equal seed and geometry (engine shards, restored
        replicas).  Tiered by ``max_bytes``: full tables when they fit,
        the depth-only tier (offset gather replaced by bucket
        rehashing) when only it fits, and
        :class:`~repro.errors.EngineError` when even the depth tier
        would exceed the budget (tables grow with ``domain × levels``;
        this path is for serving-sized domains, not astronomically
        large hyperedge spaces).  Returns the table footprint in bytes.
        """
        depth_only = _hash_cache_bytes(self) > max_bytes
        if depth_only and _depth_table_bytes(self) > max_bytes:
            raise EngineError(
                f"even depth-only placement tables would need "
                f"{_depth_table_bytes(self)} bytes (> max_bytes="
                f"{max_bytes}) for domain={self.domain}, levels="
                f"{self.levels}; hash-table ingest is meant for "
                "serving-sized domains"
            )
        key = (self.seed, self.groups, self.domain,
               self.levels, self.rows, self.buckets)
        cache = _pool_get(key)
        if cache is not None and cache.off is None and not depth_only:
            cache = None  # pooled at a lower tier than affordable: upgrade
        if cache is None:
            cache = _build_hash_cache(self, depth_only=depth_only)
            _pool_put(key, cache)
        self._hash_cache = cache
        self._hash_cache_spilled = False
        return cache.nbytes

    def detach_hash_cache(self) -> None:
        """Stop consulting placement tables (the pool keeps them).

        Also opts this grid out of the kernel's lazy auto-attach —
        detaching would otherwise last exactly one batch.
        """
        self._hash_cache = None
        self._hash_cache_auto = False

    def _ensure_hash_cache(self) -> Optional[_HashTableCache]:
        """The kernel's lazy default-path attach, under the pool budget.

        Returns the attached tables, or None after a
        :meth:`detach_hash_cache` or when the domain spilled past even
        the depth tier — in which case the spill is remembered so each
        batch does not re-try the attach.
        """
        if (self._hash_cache is not None or self._hash_cache_spilled
                or not self._hash_cache_auto):
            return self._hash_cache
        try:
            self.attach_hash_cache(max_bytes=_HASH_CACHE_POOL_BUDGET)
        except EngineError:
            self._hash_cache_spilled = True
        return self._hash_cache

    # -- linearity --------------------------------------------------------

    def _check_compatible(self, other: "SamplerGrid") -> None:
        if (
            self.groups != other.groups
            or self.members != other.members
            or self.domain != other.domain
            or self.levels != other.levels
            or self.rows != other.rows
            or self.buckets != other.buckets
            or self.seed != other.seed
        ):
            raise IncompatibleSketchError("sampler grids incompatible")

    def _digest_of(self, other: "SamplerGrid"):
        """The other operand's digest (computed on demand for merges)."""
        if other._digest is not None:
            return other._digest
        from ..audit.digest import GridDigest

        return GridDigest.compute(other)

    def __iadd__(self, other: "SamplerGrid") -> "SamplerGrid":
        self._check_compatible(other)
        # One vectorised fold over the whole SoA block, in place (the
        # block may be a shared-memory mapping — never rebind it).
        # Residue planes hold canonical values < p, so a single
        # conditional subtract renormalises: bit-identical to the
        # historical per-array ``(a + b) mod p``.
        self._block[0] += other._block[0]
        mod = self._block[1:]
        mod += other._block[1:]
        np.subtract(mod, _P, out=mod, where=mod >= _P)
        if self._digest is not None:
            self._digest.absorb(self._digest_of(other))
        self._touch()
        return self

    def __isub__(self, other: "SamplerGrid") -> "SamplerGrid":
        self._check_compatible(other)
        self._block[0] -= other._block[0]
        mod = self._block[1:]
        mod -= other._block[1:]
        np.add(mod, _P, out=mod, where=mod < 0)
        if self._digest is not None:
            self._digest.absorb(self._digest_of(other), sign=-1)
        self._touch()
        return self

    def copy(self) -> "SamplerGrid":
        out = SamplerGrid.__new__(SamplerGrid)
        out.__dict__.update(self.__dict__)
        # Copies are always privately backed, even off a shared grid.
        out._block = np.array(self._block)
        out._shm = None
        out._shm_name = None
        out._borrowed = False
        out._bind_views()
        out._digest = None if self._digest is None else self._digest.copy()
        return out

    # -- distributed-player plumbing (Section 2 communication model) -----

    def extract_member(self, member: int) -> Dict[str, np.ndarray]:
        """The state a single player (vertex) would send to the referee."""
        return {
            "w": self._w[:, member].copy(),
            "s": self._s[:, member].copy(),
            "f": self._f[:, member].copy(),
        }

    def add_member_state(self, member: int, state: Dict[str, np.ndarray]) -> None:
        """Referee-side: merge a received player message into the grid."""
        self._w[:, member] += state["w"]
        self._s[:, member] = _add_mod(self._s[:, member], state["s"])
        self._f[:, member] = _add_mod(self._f[:, member], state["f"])
        self._touch()
        if self._digest is not None:
            # Message payloads are CRC-verified upstream; accept the
            # merged state as the new trusted baseline.
            from ..audit.digest import GridDigest

            self._digest = GridDigest.compute(self)

    # -- decoding -----------------------------------------------------------

    def appears_zero(self) -> bool:
        """True if every counter vanishes."""
        return not self._block.any()

    def summed_many(
        self, group: int, components: Sequence[Sequence[int]]
    ) -> "SummedBatch":
        """Boundary sketches of *all* components of ``group`` at once.

        ``components`` is a sequence of nonempty member lists (one per
        spanning-forest component / certification part); see
        :meth:`summed_segments`, which does the work.  Returns a
        :class:`SummedBatch`, one component per member list.
        """
        comps = [np.fromiter(c, dtype=np.int64) for c in components]
        if not comps:
            raise IncompatibleSketchError("summed_many() needs components")
        sizes = np.array([c.size for c in comps], dtype=np.int64)
        return self.summed_segments(group, np.concatenate(comps), sizes)

    def summed_segments(
        self, group: int, members: np.ndarray, sizes: np.ndarray
    ) -> "SummedBatch":
        """:meth:`summed_many` on a flat layout: ``members`` lists the
        components' members back to back, ``sizes`` their (positive)
        lengths.

        A one-member component's sum is that member's slice — a plain
        index copy; only components with two or more members are
        folded, in one segment pass
        (``np.add.reduceat``: exact for weights, 32-bit-half folded for
        the modular counters).
        """
        if (sizes < 1).any() or int(sizes.sum()) != members.size:
            raise IncompatibleSketchError(
                "components must be nonempty and cover `members` exactly"
            )
        w, s, f = _sum_slots(
            self._slots(), group * self.members + members,
            np.broadcast_to(self.groups * self.members, members.shape),
            sizes,
        )
        return SummedBatch(
            self._hashes, (self,), np.full(sizes.size, group), w, s, f
        )

    def _slots(self) -> np.ndarray:
        """The counter block as one sampler per slot: ``(plane, group,
        member)`` flattened, each slot ``(levels, rows, buckets)``."""
        return self._block.reshape(-1, self.levels, self.rows, self.buckets)

    # -- accounting -----------------------------------------------------------

    def space_counters(self) -> int:
        """Number of machine-word counters the grid maintains."""
        return 3 * self.groups * self.members * self.levels * self.rows * self.buckets

    def space_bytes(self) -> int:
        """Bytes of counter state."""
        return self._block.nbytes

    @property
    def update_count(self) -> int:
        """Number of stream updates applied (diagnostics)."""
        return self._updates


def _add_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    s = a + b
    return np.where(s >= _P, s - _P, s)


def _fold_segments_mod(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Reduce segments of axis 0 of an array of canonical residues,
    mod p (``np.add.reduceat``): summed as 32-bit halves (the high half
    of a residue is < 2^29, so even millions of summands cannot
    overflow ``int64``) and recombined with one Mersenne shift."""
    mask32 = np.int64(0xFFFFFFFF)
    hi = np.add.reduceat(vals >> np.int64(32), starts, axis=0)
    lo = np.add.reduceat(vals & mask32, starts, axis=0)
    return (
        shl32_vec_mod(hi.astype(np.uint64)).astype(np.int64) + lo % _P
    ) % _P


def _sum_slots(
    slots: np.ndarray,
    w_slot: np.ndarray,
    plane: np.ndarray,
    sizes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component sums gathered from a flat slot view of the counters:
    a buffer seen as ``(-1, levels, rows, buckets)``.

    Node ``k``'s weight sampler is slot ``w_slot[k]``, its index-sum and
    fingerprint samplers 1x / 2x ``plane[k]`` slots on; ``sizes`` cuts
    the nodes into components.  ``slots`` may be a level slice of the
    flat view (``slots[:, lo:hi]``): only those levels are read.
    """
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    # Every component starts as a copy of its first member, which is
    # already the answer for the one-member ones.
    at, step = w_slot[starts], plane[starts]
    w, s, f = slots[at], slots[at + step], slots[at + 2 * step]
    fold = sizes > 1
    multi = np.flatnonzero(fold)
    metrics = _QUERY_METRICS
    if metrics is not None:
        # The first-member copies, then every member folded again.
        read = sizes.size + int(sizes[multi].sum())
        metrics.cells_gathered += read * slots[0].size
    if multi.size:
        nodes = np.repeat(fold, sizes)
        at, step = w_slot[nodes], plane[nodes]
        seg = np.zeros(multi.size, dtype=np.int64)
        np.cumsum(sizes[multi][:-1], out=seg[1:])
        w[multi] = np.add.reduceat(slots[at], seg, axis=0)
        s[multi] = _fold_segments_mod(slots[at + step], seg)
        f[multi] = _fold_segments_mod(slots[at + 2 * step], seg)
    return w, s, f


# -- batched decode kernels ----------------------------------------------


def _occupied(w: np.ndarray, s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Boolean mask of cells with any nonzero counter."""
    return (w != 0) | (s != 0) | (f != 0)


def _verify_cells(
    hashes: HashStack,
    group: np.ndarray,
    w: np.ndarray,
    s: np.ndarray,
    f: np.ndarray,
    lvl_idx: np.ndarray,
    r_idx: np.ndarray,
    b_idx: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised one-sparse verification of a flat batch of cells.

    Inputs are parallel 1-D arrays: each position is one candidate cell
    — the global group whose hash context placed it, raw weight,
    index-sum residue, fingerprint residue, and the (level, row,
    bucket) address it was read from.  Performs exactly the checks of
    the scalar oracle's ``SummedSketch._decode_cell``
    (:mod:`repro.sketch.reference`), as a cascade in which each stage
    runs only on the cells that passed the one before:

    * nonzero weight residue (``w % p != 0``),
    * candidate index ``j = s · w^(p-2) mod p`` inside the domain — a
      cell holding two or more coordinates yields a uniform residue, so
      this stage discards almost every cell that cannot decode,
    * fingerprint equation ``w · rho(j) ≡ f (mod p)``,
    * structural placement (``depth(j) >= level`` and the row's bucket
      hash maps ``j`` to the cell's bucket).

    Returns ``(keep, j, w)``: the positions that verified, ascending,
    with their decoded indices and raw weights.
    """
    w_mod = w % _P
    keep = np.flatnonzero(w_mod)
    w_mod = w_mod[keep]
    # Invert the few distinct weight residues through the scalar LRU:
    # boundary weights are small signed counts, so the unique set is
    # tiny and the memoized pow() beats a 61-step vectorised Fermat
    # ladder (whose per-step numpy overhead dominates at these sizes).
    uniq, positions = np.unique(w_mod, return_inverse=True)
    uniq_inv = np.array(
        [_inv_mod_cached(int(u)) for u in uniq], dtype=np.uint64
    )
    j = mul_vec_mod(s[keep], uniq_inv[positions])
    ok = j < hashes.domain
    keep, w_mod, j = keep[ok], w_mod[ok], j[ok]
    # The coordinate is mixed once and finished under each cell's own
    # fingerprint, level and bucket seeds.
    q, mixed = group[keep], premix64_np(j)
    ok = mul_vec_mod(w_mod, hashes.rho(q, mixed)) == f[keep]
    keep, j, q, mixed = keep[ok], j[ok], q[ok], mixed[ok]
    lvl = lvl_idx[keep]
    seeds = hashes.group_seeds[q]
    depth = trailing_zeros64_np(hash64_premixed(seeds[:, 0], mixed))
    h = hash64_premixed(seeds[np.arange(q.size), 1 + r_idx[keep]], mixed)
    salt = hashes.salts[hashes.owner[q], lvl]
    bucket = splitmix64_np(h ^ salt) % np.uint64(hashes.buckets)
    # depth is capped at levels - 1 >= lvl, so the cap cannot matter.
    ok = (depth >= lvl) & (bucket.astype(np.int64) == b_idx[keep])
    keep = keep[ok]
    return keep, j[ok], w[keep]


class SummedBatch:
    """A batch of decodable boundary sketches, one per component.

    Counter arrays have shape ``(components, width, rows, buckets)``
    and hold the subsampling levels ``[lo, lo + width)`` (all of them
    by default; a level-windowed decode gathers fewer, see
    :func:`drain_windows`); component ``c`` hashes under global group
    ``groups[c]`` of a
    :class:`HashStack` over ``grids`` — one group of one grid, or many
    independently seeded grids — and every component's decode runs
    through the same vectorised kernels: a single verification pass
    across all (component, row, bucket) cells per peeling sweep,
    batched Fermat inversion of the cell weights, and vectorised
    fingerprint/placement checks.
    :meth:`sample_many` is bit-identical per component to the scalar
    oracle's ``SummedSketch.sample`` (:mod:`repro.sketch.reference`)
    on the same counters (the batch peel
    reaches the scalar peel's fixpoint — verified decodes commute — and
    ties, scan orders, and failure modes match exactly).
    """

    __slots__ = ("_hashes", "_grids", "_groups", "_w", "_s", "_f", "_lo")

    #: Per-component outcome tags of :meth:`sample_many`.
    OK = "ok"
    ZERO = "zero"
    FAILED = "failed"

    def __init__(self, hashes: HashStack, grids, groups: np.ndarray, w, s, f,
                 lo: int = 0):
        self._hashes = hashes
        self._grids = grids
        self._groups = groups
        self._w = w
        self._s = s
        self._f = f
        self._lo = lo

    @property
    def count(self) -> int:
        """Number of components in the batch."""
        return self._w.shape[0]

    def appears_zero_many(self) -> np.ndarray:
        """Boolean array: which components' counters all vanish."""
        n = self.count
        return ~(
            self._w.reshape(n, -1).any(axis=1)
            | self._s.reshape(n, -1).any(axis=1)
            | self._f.reshape(n, -1).any(axis=1)
        )

    def subtract(self, comp, index, weight, level=None) -> np.ndarray:
        """Remove ``weight[e]`` units of coordinate ``index[e]`` from
        component ``comp[e]``, for every entry ``e`` (parallel arrays).

        The batch sibling of the oracle's ``SummedSketch.subtract``
        (every level of the batch up to the coordinate's depth in the
        component's group, every row), or with ``level`` of its
        ``_subtract_at_level`` (the peel's case): one
        :func:`~repro.engine.batch.fold_cells` over the batch's own
        planes.  Returns the flat cells written (may repeat).
        """
        from ..engine.batch import fold_cells, index_sums

        if not len(comp):
            return np.empty(0, dtype=np.int64)
        hashes = self._hashes
        lo, width = self._lo, self._w.shape[1]
        rows, buckets = hashes.rows, hashes.buckets
        q, mixed = self._groups[comp], premix64_np(index)
        cs = index_sums(-weight, index, hashes.domain)
        cf = mul_vec_mod((-weight) % _P, hashes.rho(q, mixed))
        if level is None:
            depth = trailing_zeros64_np(
                hash64_premixed(hashes.group_seeds[q, 0], mixed)
            )
            # Levels lo .. min(depth, lo + width - 1): none when the
            # coordinate is shallower than the batch.
            counts = np.clip(depth.astype(np.int64) + 1, lo, lo + width) - lo
            at = np.repeat(np.arange(counts.size), counts)
            level = lo + np.arange(at.size) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            comp, weight, cs, cf, q, mixed = (
                a[at] for a in (comp, weight, cs, cf, q, mixed)
            )
        h = hash64_premixed(hashes.group_seeds[q, 1:], mixed[:, None])
        salt = hashes.salts[hashes.owner[q], level]
        b = splitmix64_np(h ^ salt[:, None]) % np.uint64(buckets)
        flat = (
            ((comp * width + level - lo)[:, None] * rows + np.arange(rows))
            * buckets
            + b.astype(np.int64)
        ).reshape(-1)
        planes = (self._w.reshape(-1), self._s.reshape(-1), self._f.reshape(-1))
        return fold_cells(
            planes, flat,
            *(np.repeat(v, rows) for v in (-weight, cs, cf)),
        )[0]

    def _recover_levels_many(self) -> tuple:
        """Peel every subsampling level of every component at once,
        **in place** (the batch's counters are spent afterwards).

        The level slices of a summed sketch peel independently (a
        subtraction at level ℓ only touches level-ℓ cells), so the
        sweep loop treats each (component, level) pair as one *unit*
        ``u = comp * width + lvl - lo`` (the batch's levels are
        ``[lo, lo + width)``) and verifies all units' candidate
        cells in a single kernel call per sweep — the sweep count
        becomes the maximum any unit needs, not the sum over levels.

        Candidates are a **worklist of dirty cells**: sweep 1 verifies
        every nonzero cell, each later sweep only the nonzero cells the
        previous sweep's subtractions touched.  Verification is a pure
        function of a cell's counters and address, so a cell unchanged
        since it failed fails again; and a cell that verified is always
        touched — its coordinate is subtracted from every cell it hashes
        to at that level, the verifying cell included.  Unit ``u``'s
        state after sweep ``t`` therefore equals a full rescan's, which
        equals the level-by-level loop's after its sweep ``t`` (units
        never interact, and a stalled unit stays stalled): per-unit
        outcomes are bit-identical to ``SummedSketch._recover_level``.

        Returns ``(zero, residual, rec_unit, rec_j, rec_w, scan)``:
        which components have no nonzero cell, per-unit residual flags
        (True = the unit did not peel to zero), the flat recovery log,
        and ``scan`` — ``(component, index, weight)`` of every cell
        that verified in sweep 1, i.e. of every valid cell of the
        un-peeled counters, in (component, level, row, bucket) order.
        """
        hashes = self._hashes
        rows, buckets = hashes.rows, hashes.buckets
        lo, width = self._lo, self._w.shape[1]
        w_flat = self._w.reshape(-1)
        s_flat = self._s.reshape(-1)
        f_flat = self._f.reshape(-1)
        empty = np.empty(0, dtype=np.int64)
        log: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [(empty,) * 3]
        scan = log[0]
        cand = np.flatnonzero(_occupied(w_flat, s_flat, f_flat))
        zero = np.bincount(
            cand // (width * rows * buckets), minlength=self.count
        ) == 0
        cells_seen = sweeps = 0
        guard = 4 * rows * buckets + 8
        while guard > 0 and cand.size:
            guard -= 1
            sweeps += 1
            cells_seen += cand.size
            u_idx = cand // (rows * buckets)
            keep, j_v, w_v = _verify_cells(
                hashes, self._groups[u_idx // width],
                w_flat[cand], s_flat[cand], f_flat[cand],
                lo + u_idx % width, cand // buckets % rows, cand % buckets,
            )
            if not keep.size:
                break
            u_v = u_idx[keep]
            if sweeps == 1:
                scan = (u_v // width, j_v, w_v)
            # The scalar sweep subtracts each decode immediately, so a
            # later cell holding the same coordinate never re-decodes
            # it; the batch verifies against the pre-sweep state
            # instead, so dedupe per (unit, coordinate), keeping the
            # first hit in scan order.
            _, first = np.unique(
                u_v * np.int64(hashes.domain) + j_v, return_index=True
            )
            u_u, j_u, w_u = u_v[first], j_v[first], w_v[first]
            log.append((u_u, j_u, w_u))
            # Each decode is subtracted at its own level, one cell per
            # row; the touched cells, ascending, are the next worklist
            # (a plain sort: ``np.unique`` hashes, ~10x slower here).
            cells = np.sort(self.subtract(
                u_u // width, j_u, w_u, level=lo + u_u % width
            ))
            cells = cells[np.r_[True, cells[1:] != cells[:-1]]]
            cand = cells[_occupied(w_flat[cells], s_flat[cells], f_flat[cells])]
        residual = _occupied(w_flat, s_flat, f_flat).reshape(
            self.count * width, -1
        ).any(axis=1)
        metrics = _QUERY_METRICS
        if metrics is not None:
            metrics.cells_decoded += cells_seen
            metrics.peel_sweeps += sweeps
        ru, rj, rw = (np.concatenate(col) for col in zip(*log))
        return zero, residual, ru, rj, rw, scan

    def sample_many(self) -> List[Tuple[str, Optional[Tuple[int, int]]]]:
        """Decode every component; per-component scalar-parity outcomes.

        Returns one ``(status, payload)`` pair per component:

        * ``("zero", None)`` — counters vanish (scalar raises
          :class:`SamplerZeroError`),
        * ``("ok", (index, weight))`` — a verified nonzero coordinate,
          exactly the pair ``SummedSketch.sample`` would return,
        * ``("failed", None)`` — no level decoded (scalar raises
          :class:`SamplerFailedError`).
        """
        ok, failed, index, weight = self.sample_arrays()
        return [
            (self.OK, (j, wt)) if o
            else (self.FAILED if bad else self.ZERO, None)
            for o, bad, j, wt in zip(
                ok.tolist(), failed.tolist(), index.tolist(), weight.tolist()
            )
        ]

    def sample_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`sample_many` as parallel arrays ``(ok, failed, index,
        weight)``: two disjoint boolean masks (neither set = zero) and
        the sampled pair, meaningful where ``ok``.  Peels a copy."""
        return SummedBatch(
            self._hashes, self._grids, self._groups,
            self._w.copy(), self._s.copy(), self._f.copy(),
        ).drain_arrays()

    def drain_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`sample_arrays`, peeling the batch's own counters: for
        a caller that gathered them for this one decode.  The
        one-window case of :func:`drain_windows`."""
        return drain_windows(
            self.count, [(self._lo, self._lo + self._w.shape[1])],
            lambda comps, lo, hi: self,
        )

    def _read_off(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Peel the batch in place and read every component off.

        Returns ``(won, index, weight, zero, scanned)`` per component:
        ``won`` where a level of the batch certifies a support, with the
        scalar winner in ``index`` / ``weight``; otherwise, where
        ``scanned`` (never with ``won``), the first cell of the un-peeled counters that
        verifies, in (level, row, bucket) order — the scalar fallback
        scan's answer.  ``zero``: no nonzero cell in the batch.
        """
        hashes = self._hashes
        n, width = self.count, self._w.shape[1]
        index = np.zeros(n, dtype=np.int64)
        weight = np.zeros(n, dtype=np.int64)
        zero, residual, ru, rj, rw, scan = self._recover_levels_many()
        # Only fully peeled units certify a support.  One sort by
        # (unit, tiebreak hash, index) puts repeats of a coordinate
        # side by side (equal index, equal hash) and every unit's
        # scalar winner — min over (tiebreak hash, index) — first.
        done = ~residual[ru]
        ru, rj, rw = ru[done], rj[done], rw[done]
        tb = hash64_premixed(
            hashes.tiebreak_seeds[self._groups[ru // width]], premix64_np(rj)
        )
        order = np.lexsort((rj, tb, ru))
        ru, rj, rw = ru[order], rj[order], rw[order]
        starts = np.flatnonzero(
            np.r_[True, (ru[1:] != ru[:-1]) | (rj[1:] != rj[:-1])][: ru.size]
        )
        sums = np.add.reduceat(rw, starts) if starts.size else rw
        # A coordinate whose recovered weights cancel is no support.
        starts, sums = starts[sums != 0], sums[sums != 0]
        # Shallowest certified nonempty level wins: units sort by
        # component, then level, so it is each component's first entry.
        comp, first = np.unique(ru[starts] // width, return_index=True)
        index[comp], weight[comp] = rj[starts[first]], sums[first]
        won = np.zeros(n, dtype=bool)
        won[comp] = True
        # The fallback for the rest: the scalar path scans the un-peeled
        # counters for the first cell that verifies — which sweep 1
        # already found, so nothing is verified (or kept) twice.
        at = np.flatnonzero(~won[scan[0]])
        comp, first = np.unique(scan[0][at], return_index=True)
        index[comp], weight[comp] = scan[1][at[first]], scan[2][at[first]]
        scanned = np.zeros(n, dtype=bool)
        scanned[comp] = True
        return won, index, weight, zero, scanned


def drain_windows(count, windows, gather):
    """Sample ``count`` components, reading their levels window by
    window; the one peel-and-read-off behind every batch sample.

    ``windows`` lists ``(lo, hi)`` level ranges, shallowest first, that
    tile the levels; ``gather(comps, lo, hi)`` returns the
    :class:`SummedBatch` of components ``comps`` (ascending ids) over
    levels ``[lo, hi)``.  A component leaves once a window certifies a
    level, so it reads only the levels down to its winner.  Exact per
    component, because the shallowest certified level wins and levels
    peel independently; the fallback is the first valid cell in level
    order, so the first window that has one answers; and a component
    is ZERO only when no window holds a nonzero cell.

    Returns ``(ok, failed, index, weight)`` as
    :meth:`SummedBatch.sample_arrays` does, and records every component
    once in the query metrics however many windows it read.
    """
    seconds = 0.0
    ok = np.zeros(count, dtype=bool)
    scanned, occupied = np.zeros((2, count), dtype=bool)
    index = np.zeros(count, dtype=np.int64)
    weight = np.zeros(count, dtype=np.int64)
    comps = np.arange(count)
    for lo, hi in windows:
        if not comps.size:
            break
        batch = gather(comps, lo, hi)
        t0 = time.perf_counter()
        won, j, w, zero, seen = batch._read_off()
        seconds += time.perf_counter() - t0
        occupied[comps] |= ~zero
        # Winners always answer; a fallback only if no shallower window
        # had one.
        take = won | (seen & ~scanned[comps])
        index[comps[take]], weight[comps[take]] = j[take], w[take]
        scanned[comps[seen]] = True
        ok[comps[won]] = True
        comps = comps[~won]
    unresolved = ~ok & occupied
    ok |= unresolved & scanned
    failed = ~ok & occupied
    metrics = _QUERY_METRICS
    if metrics is not None:
        n_ok, n_failed = int(ok.sum()), int(failed.sum())
        metrics.batch_queries += count
        metrics.fallback_scans += int(unresolved.sum())
        metrics.sample_ok += n_ok
        metrics.sample_failed += n_failed
        metrics.sample_zero += count - n_ok - n_failed
        metrics.kernel_seconds += seconds
    return ok, failed, index, weight
