"""Vectorised batch-update kernels for :class:`~repro.sketch.bank.SamplerGrid`.

The scalar ``SamplerGrid.update`` walks ``groups × rows × (depth+1)``
counter cells in Python per stream event.  The kernel here applies a
whole *array* of updates at once: the level depths, bucket choices and
modular cell contributions for every update are computed with numpy
(:func:`~repro.util.hashing.hash64_many` /
:func:`~repro.util.prime_field.mul_vec_mod`), grouped by destination
cell with one argsort per (group, row), and folded into the counter
arrays with ``np.add.reduceat`` segment sums.

The result is **bit-identical** to applying the same updates one at a
time (the equivalence tests enforce this across seeds): plain ``int64``
addition is exact for the weight counters, and the modular counters are
accumulated in 32-bit halves so that no segment sum can overflow before
its single final reduction mod ``2^61 - 1``.

:func:`expand_edge_batch` is the bridge from *edge* streams to *row*
batches: it expands a batch of signed hyperedges into the signed
incidence-row updates of the paper's Section 4.1 scheme, which is what
the spanning-forest and skeleton sketches feed through the kernel.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import DomainError, IncompatibleSketchError, NotOneSparseError
from ..util.hashing import (
    field_value_many,
    hash64_many,
    splitmix64_np,
    trailing_zeros64_np,
)
from ..util.prime_field import (
    MERSENNE_61,
    mul_vec_mod,
    scatter_add_mod,
    segment_sum_mod,
    shl32_vec_mod,
)

_P = MERSENNE_61


def _as_update_arrays(
    members, indices, deltas
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce and cross-validate the three parallel update arrays."""
    m = np.ascontiguousarray(members, dtype=np.int64).ravel()
    i = np.ascontiguousarray(indices, dtype=np.int64).ravel()
    d = np.ascontiguousarray(deltas, dtype=np.int64).ravel()
    if not (m.shape == i.shape == d.shape):
        raise IncompatibleSketchError(
            f"update batch arrays disagree in length: "
            f"{m.size} members, {i.size} indices, {d.size} deltas"
        )
    return m, i, d


#: Process-wide switch for the fused cross-group kernel (the default).
#: When off, digest-free batches run the historical per-(group, row)
#: kernels instead — a reference path for the equivalence tests and
#: before/after profiling; both are bit-identical.
_FUSED_KERNEL = True


def set_fused_kernel(enabled: bool) -> bool:
    """Set the fused-kernel default; returns the old value."""
    global _FUSED_KERNEL
    previous = _FUSED_KERNEL
    _FUSED_KERNEL = bool(enabled)
    return previous


def grid_update_batch(grid, members, indices, deltas) -> int:
    """Apply ``x_member[index] += delta`` for a whole batch of updates.

    Parameters are parallel 1-D arrays (any integer sequence).  Returns
    the number of (nonzero-delta) updates applied.  The grid state after
    this call is bit-identical to applying the same updates through the
    scalar ``grid.update`` loop, in any order.

    Dispatch: placement tables are attached lazily on this default path
    (budgeted — see :meth:`SamplerGrid._ensure_hash_cache`).  Digest-free
    grids take :func:`_grid_update_batch_fused`, one pass over the whole
    SoA block across all groups; grids with an audit digest attached
    keep the per-(group, row) kernels, whose fold granularity matches
    ``digest.observe_cells``.
    """
    m, idx, d = _as_update_arrays(members, indices, deltas)
    nz = d != 0
    if not nz.all():
        m, idx, d = m[nz], idx[nz], d[nz]
    if m.size == 0:
        return 0
    if idx.min() < 0 or idx.max() >= grid.domain:
        bad = idx[(idx < 0) | (idx >= grid.domain)][0]
        raise NotOneSparseError(f"coordinate {bad} outside [0, {grid.domain})")
    if m.min() < 0 or m.max() >= grid.members:
        bad = m[(m < 0) | (m >= grid.members)][0]
        raise IncompatibleSketchError(f"member {bad} outside [0, {grid.members})")
    applied = int(m.size)
    grid._updates += applied
    if grid._summed_cache is not None:
        grid._touch_members(np.unique(m))

    digest = grid._digest
    if digest is None and _FUSED_KERNEL and m.size > 1:
        # Coalesce duplicate (member, index) coordinates to their net
        # delta before the per-group expansion: every cell contribution
        # is linear in the delta for a fixed coordinate, and the folds
        # are order-independent, so folding the net value is
        # bit-identical to folding each event — while churny batches
        # (insert + delete of the same edge) shrink dramatically.  The
        # digest path keeps the raw batch: its observations are
        # per-event-set, not just per-net-sum.
        key = m * np.int64(grid.domain) + idx
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        if starts.size < m.size:
            net = np.add.reduceat(d[order], starts)
            keep = net != 0
            sel = order[starts[keep]]
            m, idx, d = m[sel], idx[sel], net[keep]
            if m.size == 0:
                return applied

    # Per-update modular cell contributions, shared by every group.
    d_mod = d % _P
    cs = mul_vec_mod(d_mod, idx % _P)
    cf = mul_vec_mod(d_mod, field_value_many(grid._rho.seed, idx, _P))

    cache = grid._ensure_hash_cache()
    if digest is None and _FUSED_KERNEL:
        _grid_update_batch_fused(grid, cache, m, idx, d, cs, cf)
        return applied
    w3 = grid._w.reshape(grid.groups, -1)
    s3 = grid._s.reshape(grid.groups, -1)
    f3 = grid._f.reshape(grid.groups, -1)
    if cache is not None and cache.off is not None:
        return _grid_update_batch_cached(
            grid, cache, m, idx, d, cs, cf, digest, w3, s3, f3
        )
    return _grid_update_batch_grouped(
        grid, m, idx, d, cs, cf, digest, w3, s3, f3
    )


def _grid_update_batch_grouped(
    grid, m, idx, d, cs, cf, digest, w3, s3, f3
) -> int:
    """The per-(group, row) hashing kernel (dense level masks).

    The original batch kernel: re-derives every placement hash per
    batch and masks a dense ``(U, levels)`` grid per group.  Still the
    path for digest-carrying grids without full placement tables (the
    digest observes per-(group, row) folds) and the reference for the
    fused kernel's equivalence tests.
    """
    levels, rows, buckets = grid.levels, grid.rows, grid.buckets
    lvl_arr = np.arange(levels, dtype=np.int64)
    salts = np.array(grid._level_salts, dtype=np.uint64)
    for g in range(grid.groups):
        depth = np.minimum(
            trailing_zeros64_np(hash64_many(grid._level_seeds[g], idx)),
            levels - 1,
        )
        mask = lvl_arr[None, :] <= depth[:, None]  # (U, levels)
        base = (m[:, None] * levels + lvl_arr[None, :]) * rows  # (U, levels)
        w_flat, s_flat, f_flat = w3[g], s3[g], f3[g]
        for r in range(rows):
            h = hash64_many(grid._bucket_seeds[g][r], idx)
            with np.errstate(over="ignore"):
                b = (splitmix64_np(h[:, None] ^ salts[None, :])
                     % np.uint64(buckets)).astype(np.int64)
            flat = ((base + r) * buckets + b)[mask]
            if flat.size == 0:
                continue
            # Row indices of each surviving (update, level) pair, for
            # gathering the per-update contribution arrays.
            src = np.broadcast_to(
                np.arange(m.size, dtype=np.int64)[:, None], mask.shape
            )[mask]
            folded = fold_cells(
                (w_flat, s_flat, f_flat), flat, d[src], cs[src], cf[src]
            )
            if digest is not None:
                digest.observe_cells(g, r, *folded)
    return int(m.size)


_MASK32 = np.int64(0xFFFFFFFF)


def _cell_sums_bincount(flat, ncells, d_halves, cs_halves, cf_halves):
    """Per-cell folds via dense ``np.bincount`` instead of a sort.

    Every value is split into 32-bit halves summed as float64 bincount
    weights — each half is below ``2^32`` and a cell receives far fewer
    than ``2^21`` contributions, so the float64 sums are exact integers
    and recombining them reproduces the sort-and-reduceat segment sums
    bit for bit (int64 addition wraps identically mod ``2^64``; the
    modular halves recombine exactly as :func:`segment_sum_mod` does).
    Returns ``(cells, dw, cs_contrib, cf_contrib)`` with ``cells``
    ascending, matching the sorted path's output order.
    """
    counts = np.bincount(flat, minlength=ncells)
    cells = np.flatnonzero(counts)

    def halves_sum(hi_vals, lo_vals):
        hi = np.bincount(flat, weights=hi_vals, minlength=ncells)[cells]
        lo = np.bincount(flat, weights=lo_vals, minlength=ncells)[cells]
        return hi.astype(np.int64), lo.astype(np.int64)

    d_hi, d_lo = halves_sum(*d_halves)
    dw = np.left_shift(d_hi, 32) + d_lo

    def mod_sum(halves):
        hi, lo = halves_sum(*halves)
        return (
            shl32_vec_mod(hi.astype(np.uint64)).astype(np.int64)
            + lo % _P
        ) % _P

    return cells, dw, mod_sum(cs_halves), mod_sum(cf_halves)


def _as_halves(values):
    """Split int64 values into (hi, lo) float64 bincount weights."""
    return (
        (values >> np.int64(32)).astype(np.float64),
        (values & _MASK32).astype(np.float64),
    )


def fold_cells(planes, flat, d, cs, cf, halves=None, plane_shift=None):
    """Fold per-entry contributions into their destination cells.

    The one exact/mod-p segment fold behind every batch kernel, the
    grid kernels here and the cross-instance kernel of
    :class:`~repro.core._sampled.SampledForestUnion`.  ``flat`` names
    each entry's cell as an offset into the flat weight plane; ``d`` /
    ``cs`` / ``cf`` are the entries' exact weight deltas and canonical
    index-sum / fingerprint residues.  Entries are grouped by cell —
    ``argsort`` + ``reduceat`` segment sums, or the sort-free dense
    ``np.bincount`` fold when the caller supplies the pre-split
    ``halves`` of ``(d, cs, cf)`` — and each distinct cell receives
    exactly one scatter per plane, so the result is bit-identical to
    applying the entries one at a time in any order.

    ``planes`` is the ``(w, s, f)`` triple of flat counter arrays.  A
    cell sits at the same offset in all three unless ``plane_shift``
    (sorted fold only) gives, per entry, the distance from its weight
    cell to its index-sum cell and from there to its fingerprint cell
    — the layout of instance blocks packed one after another in a
    single arena, where all three planes are the same array.

    Returns ``(cells, dw, cs_contrib, cf_contrib)``: the distinct
    weight-plane cells in ascending order and the folded delta each
    received (what :meth:`GridDigest.observe_cells` consumes).
    """
    w_plane, s_plane, f_plane = planes
    if halves is not None:
        cells, dw, cs_contrib, cf_contrib = _cell_sums_bincount(
            flat, w_plane.size, *halves
        )
        s_cells = f_cells = cells
    else:
        order = np.argsort(flat, kind="stable")
        sorted_cells = flat[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_cells[1:] != sorted_cells[:-1]]
        )
        cells = sorted_cells[starts]
        dw = np.add.reduceat(d[order], starts)
        cs_contrib = segment_sum_mod(cs, order, starts)
        cf_contrib = segment_sum_mod(cf, order, starts)
        if plane_shift is None:
            s_cells = f_cells = cells
        else:
            shift = plane_shift[order[starts]]
            s_cells = cells + shift
            f_cells = s_cells + shift
    w_plane[cells] += dw
    scatter_add_mod(s_plane, s_cells, cs_contrib)
    scatter_add_mod(f_plane, f_cells, cf_contrib)
    return cells, dw, cs_contrib, cf_contrib


def _grid_update_batch_cached(
    grid, cache, m, idx, d, cs, cf, digest, w3, s3, f3
) -> int:
    """The placement-table variant of the batch kernel.

    Instead of rehashing every coordinate per (group, row) and masking
    a dense ``(U, levels)`` grid, the depths come from one gather and
    the surviving ``(update, level)`` pairs are materialised explicitly
    (on average ``E[depth] + 1 ≈ 2`` pairs per update instead of
    ``levels`` dense slots).  The pair enumeration order — update-major,
    level ascending — is exactly the dense path's mask-flattening
    order, and the per-cell folds are the same exact/modular segment
    sums, so the resulting counters (and digest observations) are
    bit-identical to the hashing kernel.

    When the batch is dense relative to the counter array the per-cell
    folds run through :func:`_cell_sums_bincount` (no sort at all);
    sparse batches keep the ``argsort`` + ``reduceat`` path, whose
    cost scales with the batch instead of the grid.
    """
    levels, rows, buckets = grid.levels, grid.rows, grid.buckets
    cell_stride = levels * rows * buckets
    u_arange = np.arange(m.size, dtype=np.int64)
    for g in range(grid.groups):
        depth = cache.depth[g][idx]
        counts = depth + 1
        cum = np.cumsum(counts)
        src = np.repeat(u_arange, counts)
        lvl = np.arange(cum[-1], dtype=np.int64) - np.repeat(cum - counts, counts)
        key = idx[src] * levels + lvl
        base = m[src] * cell_stride
        d_pairs = d[src]
        cs_pairs = cs[src]
        cf_pairs = cf[src]
        w_flat, s_flat, f_flat = w3[g], s3[g], f3[g]
        off_g = cache.off[g]
        halves = (
            (_as_halves(d_pairs), _as_halves(cs_pairs), _as_halves(cf_pairs))
            if w_flat.size <= 8 * src.size
            else None
        )
        for r in range(rows):
            flat = base + off_g[r][key]
            folded = fold_cells(
                (w_flat, s_flat, f_flat), flat, d_pairs, cs_pairs, cf_pairs,
                halves=halves,
            )
            if digest is not None:
                digest.observe_cells(g, r, *folded)
    return int(m.size)


def _grid_update_batch_fused(grid, cache, m, idx, d, cs, cf) -> int:
    """One fused pass per row over the whole SoA block, all groups.

    The per-group kernels above issue ``groups × rows`` separate
    mask/gather/sort/fold sequences; for typical group counts (~10-14)
    the numpy call overhead dominates service-sized batches.  This
    kernel expands the surviving ``(update, group, level)`` triples
    *once* — depths gathered from the placement tables when attached
    (full or depth-only tier), or re-derived with one hashing sweep per
    group — addresses them as **global** flat offsets into the
    contiguous counter planes, and folds all groups' cells together in
    a single exact/modular segment pass per row.

    Bit-identity to the grouped kernels (and hence the scalar loop):
    each counter cell belongs to exactly one group, so its set of
    contributing ``(update, level)`` pairs is the same under either
    partitioning; the exact weight sums and 32-bit-half modular folds
    are order-independent; and every cell still receives exactly one
    scatter per row.  The dense ``np.bincount`` fold triggers on the
    same batch-vs-array density ratio as the per-group kernels (both
    sides of the gate scale by the group count).
    """
    G = grid.groups
    levels, rows, buckets = grid.levels, grid.rows, grid.buckets
    U = m.size
    if cache is not None:
        depth = cache.depth[:, idx]  # (G, U) gather
    else:
        depth = np.empty((G, U), dtype=np.int64)
        for g in range(G):
            depth[g] = np.minimum(
                trailing_zeros64_np(hash64_many(grid._level_seeds[g], idx)),
                levels - 1,
            )
    # Explicit (update, group, level) pair expansion, group-major so
    # each group's pairs are exactly the grouped kernel's update-major,
    # level-ascending enumeration.
    counts = (depth + 1).reshape(-1)
    cum = np.cumsum(counts)
    total = int(cum[-1])
    src = np.repeat(np.arange(G * U, dtype=np.int64), counts)
    lvl = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    g_p, u_p = np.divmod(src, U)
    d_pairs = d[u_p]
    cs_pairs = cs[u_p]
    cf_pairs = cf[u_p]
    planes = (grid._w.reshape(-1), grid._s.reshape(-1), grid._f.reshape(-1))
    halves = (
        (_as_halves(d_pairs), _as_halves(cs_pairs), _as_halves(cf_pairs))
        if planes[0].size <= 8 * total
        else None
    )
    member_stride = levels * rows * buckets
    full_tables = cache is not None and cache.off is not None
    if full_tables:
        key = idx[u_p] * levels + lvl
        mem_base = (g_p * grid.members + m[u_p]) * member_stride
    else:
        cell_base = ((g_p * grid.members + m[u_p]) * levels + lvl) * rows
        salts = np.array(grid._level_salts, dtype=np.uint64)
        # Bucket hashes per (group, row) over the batch's coordinates,
        # gathered per pair below (hashes per distinct update, not per
        # expanded pair).
        hb = np.empty((G, rows, U), dtype=np.uint64)
        for g in range(G):
            for r in range(rows):
                hb[g, r] = hash64_many(grid._bucket_seeds[g][r], idx)
    for r in range(rows):
        if full_tables:
            flat = mem_base + cache.off[g_p, r, key]
        else:
            with np.errstate(over="ignore"):
                b = (
                    splitmix64_np(hb[g_p, r, u_p] ^ salts[lvl])
                    % np.uint64(buckets)
                ).astype(np.int64)
            flat = (cell_base + r) * buckets + b
        fold_cells(planes, flat, d_pairs, cs_pairs, cf_pairs, halves=halves)
    return int(m.size)


def expand_edge_batch(
    scheme, member_of, updates: Iterable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand signed hyperedges into signed incidence-row updates.

    ``updates`` yields :class:`~repro.stream.updates.EdgeUpdate`-likes
    (anything with ``edge`` and ``sign``) or ``(edge, sign)`` pairs.
    Each edge of cardinality k contributes k rows — coefficient
    ``k - 1`` for its minimum vertex, ``-1`` for the rest, times the
    sign — addressed through ``member_of`` (vertex -> grid member).
    Returns the three parallel arrays :func:`grid_update_batch` takes.
    """
    members: List[int] = []
    indices: List[int] = []
    deltas: List[int] = []
    for u in updates:
        edge, sign = (u.edge, u.sign) if hasattr(u, "edge") else u
        if sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {sign}")
        index = scheme.index_of(edge)
        for vertex, coeff in scheme.coefficients(edge):
            member = member_of.get(vertex)
            if member is None:
                raise DomainError(
                    f"edge {tuple(edge)} touches inactive vertex {vertex}"
                )
            members.append(member)
            indices.append(index)
            deltas.append(sign * coeff)
    return (
        np.array(members, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(deltas, dtype=np.int64),
    )


def pairs_of_updates(updates: Sequence):
    """Extract ``(us, vs, signs)`` arrays from a rank-2 update batch.

    Returns None when any event is not a plain 2-vertex edge, in which
    case the caller's generic per-event expansion runs (preserving its
    exact validation errors for malformed input).  The pair path is
    bit-identical to the generic one — see :func:`expand_pair_batch`.
    """
    us: list = []
    vs: list = []
    signs: list = []
    for u in updates:
        edge, sign = (u.edge, u.sign) if hasattr(u, "edge") else u
        try:
            a, b = edge
        except (TypeError, ValueError):
            return None
        us.append(a)
        vs.append(b)
        signs.append(sign)
    try:
        return (
            np.array(us, dtype=np.int64),
            np.array(vs, dtype=np.int64),
            np.array(signs, dtype=np.int64),
        )
    except (TypeError, ValueError, OverflowError):
        return None


def expand_pair_batch(
    scheme, member_lut: np.ndarray, us, vs, signs
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`expand_edge_batch` for rank-2 (graph) edges.

    ``us, vs, signs`` are parallel integer arrays — one signed edge
    ``{u, v}`` per position — and ``member_lut`` maps vertex id to grid
    member (-1 for inactive vertices).  Size-2 subsets rank first in
    the colex coordinate order for every ``r >= 2``, so the coordinate
    of ``{u < v}`` is the closed form ``u + v(v-1)/2`` and the whole
    expansion (coefficients ``+sign`` for the minimum vertex, ``-sign``
    for the other, in :func:`expand_edge_batch`'s per-edge order) runs
    without any per-event Python.  Returns the three parallel arrays
    :func:`grid_update_batch` takes — bit-identical to the generic
    expansion of the same edges.
    """
    u = np.ascontiguousarray(us, dtype=np.int64).ravel()
    v = np.ascontiguousarray(vs, dtype=np.int64).ravel()
    s = np.ascontiguousarray(signs, dtype=np.int64).ravel()
    if not (u.shape == v.shape == s.shape):
        raise IncompatibleSketchError(
            f"pair batch arrays disagree in length: "
            f"{u.size} us, {v.size} vs, {s.size} signs"
        )
    if u.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if (np.abs(s) != 1).any():
        bad = s[np.abs(s) != 1][0]
        raise DomainError(f"sign must be +1 or -1, got {bad}")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if lo.min() < 0 or hi.max() >= scheme.n:
        raise DomainError(
            f"pair batch mentions a vertex outside [0, {scheme.n})"
        )
    if (lo == hi).any():
        bad = lo[lo == hi][0]
        raise DomainError(f"hyperedge ({bad}, {bad}) has repeated vertices")
    m_lo = member_lut[lo]
    m_hi = member_lut[hi]
    if m_lo.min() < 0 or m_hi.min() < 0:
        bad = lo[m_lo < 0][0] if (m_lo < 0).any() else hi[m_hi < 0][0]
        raise DomainError(f"edge batch touches inactive vertex {bad}")
    idx = lo + (hi * (hi - 1)) // 2
    members = np.empty(2 * u.size, dtype=np.int64)
    members[0::2] = m_lo
    members[1::2] = m_hi
    indices = np.repeat(idx, 2)
    deltas = np.empty(2 * u.size, dtype=np.int64)
    deltas[0::2] = s
    deltas[1::2] = -s
    return members, indices, deltas


def iter_event_batches(stream: Iterable, batch_size: int) -> Iterator[List]:
    """Chunk a stream of events into lists of at most ``batch_size``."""
    if batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")
    batch: List = []
    for event in stream:
        batch.append(event)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
