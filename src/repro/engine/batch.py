"""The batch-ingest kernel: one fold for every stack of grids.

The scalar ``SamplerGrid.update`` walks ``groups × rows × (depth+1)``
counter cells in Python per stream event.  :func:`fold_stack` applies a
whole batch at once to a stack of same-geometry grids — a lone grid is
a stack of one (:func:`grid_update_batch`), the R instances of
:class:`~repro.core._sampled.SampledForestUnion` a stack of R in one
arena: the level depths, bucket choices and modular cell contributions
are computed with numpy, and every contribution is added straight into
its destination cell by :func:`fold_cells` — the sketches are linear,
so no stage groups or orders the cells.

The result is **bit-identical** to applying the same updates one at a
time (the equivalence tests enforce this across seeds): plain ``int64``
addition is exact for the weight counters, and the modular counters
are folded so that no cell can overflow before it is reduced mod
``2^61 - 1`` (see :func:`fold_cells`).

:func:`expand_edges` is the bridge from *edge* streams: it expands a
batch of signed hyperedges into the signed incidence rows of the
paper's Section 4.1 scheme.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import DomainError, IncompatibleSketchError, NotOneSparseError
from ..util.hashing import (
    bucket_np,
    hash64_premixed,
    level_counts_np,
    premix64_np,
)
from ..util.prime_field import MERSENNE_61, mul_vec_mod, rotl_vec_mod

_P = MERSENNE_61

#: A cell folds its contributions exactly in ``int64`` while their
#: absolute sum stays below this: with the canonical value already in
#: the cell (< 2^61) the running total stays inside ``int64``.
_EXACT_BOUND = 1 << 62
_MASK32 = np.int64(0xFFFFFFFF)

#: Entries per row from which a batch folds its rows on two threads
#: (:func:`_fold_rows`).  Below ~16k entries the second thread loses:
#: small numpy calls hold the GIL, so the threads mostly take turns.
#: From 2^15 on both measured grid sizes gain 1.18x or more (the
#: sweep in ``docs/engine.md``, "The fold").
_THREAD_ENTRIES = 1 << 15


def grid_update_batch(grid, members, indices, deltas) -> int:
    """Apply ``x_member[index] += delta`` for a whole batch of updates.

    Parameters are parallel 1-D arrays (any integer sequence).  Returns
    the number of (nonzero-delta) updates applied.  The grid state after
    this call is bit-identical to applying the same updates through the
    scalar ``grid.update`` loop, in any order.  The batch folds through
    :func:`fold_stack`, the grid a stack of one keyed by coordinate,
    with the grid's placement tables when
    :meth:`~repro.sketch.bank.SamplerGrid.attach_hash_cache` attached
    them.
    """
    m, idx, d = (np.ascontiguousarray(a, dtype=np.int64).ravel()
                 for a in (members, indices, deltas))
    if not (m.shape == idx.shape == d.shape):
        raise IncompatibleSketchError(
            f"update batch arrays disagree in length: "
            f"{m.size} members, {idx.size} indices, {d.size} deltas"
        )
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
    grid._touch()

    # Key the rows by coordinate: sorted coordinate-major, each
    # coordinate's rows form a run.
    key = idx * np.int64(grid.members) + m
    order = np.argsort(key, kind="stable")
    key, m, idx, d = key[order], m[order], idx[order], d[order]
    if _magnitude(d) * m.size < _EXACT_BOUND:
        # Coalesce duplicate (member, index) coordinates to their net
        # delta: every cell contribution is linear in the delta for a
        # fixed coordinate, and the folds are order-independent, so
        # folding the net value is bit-identical to folding each
        # event, while churny batches (insert + delete of the same
        # edge) shrink dramatically.  The guard keeps each net inside
        # int64: a wrapped net would fold the wrong residue mod p.
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        net = np.add.reduceat(d, starts)
        keep = net != 0
        m, idx, d = m[starts[keep]], idx[starts[keep]], net[keep]
        if m.size == 0:
            return applied
    runs = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    fold_stack(
        grid._hashes, (grid._w.reshape(-1), grid._s.reshape(-1),
                       grid._f.reshape(-1)),
        np.arange(grid.groups) * grid._w[0].size, None,
        np.zeros(runs.size, dtype=np.int64), idx[runs],
        np.append(runs, m.size), m, d, grid._hash_cache,
    )
    return applied


def _magnitude(values: np.ndarray) -> int:
    """``max |values|`` as a Python int (``np.abs`` wraps on INT64_MIN)."""
    if values.size == 0:
        return 0
    return max(int(values.max()), -int(values.min()))


def index_sums(d: np.ndarray, idx: np.ndarray, domain: int) -> np.ndarray:
    """Per-update index-sum contributions ``d · idx`` for :func:`fold_cells`.

    The exact signed products while ``max|d| · domain < 2^62`` — none
    can overflow, and the fold may add them exactly — otherwise their
    canonical residues mod p.
    """
    if _magnitude(d) * domain < _EXACT_BOUND:
        return d * idx
    return mul_vec_mod(d % _P, idx % _P)


def _fold_mod(plane: np.ndarray, cells: np.ndarray, values: np.ndarray) -> None:
    """``plane[cells] += values`` mod p, exactly, for repeating ``cells``.

    ``values`` are any ``int64`` values congruent to the contributions
    mod p.  While their absolute sum provably fits
    (``max|v| · entries < 2^62``) they are added as they are and each
    touched cell is reduced once.  Otherwise each is split into two
    limbs, ``v = hi · 2^32 + lo`` with ``lo`` its low 32 bits and
    ``|hi| <= 2^31``, folded by the Mersenne rotation identity

        x + Σv ≡ ((x + Σlo) · 2^-32 + Σhi) · 2^32  (mod p),

    where multiplying by ``2^-32 ≡ 2^29`` and by ``2^32`` is a 61-bit
    rotation (:func:`~repro.util.prime_field.rotl_vec_mod`, which also
    takes the not-yet-reduced sums) and every intermediate stays inside
    ``int64`` for fewer than 2^30 entries.  Rewriting ``plane[cells]``
    writes every duplicate of a cell with the same value (the gather
    happens before the scatter), so repeats are safe.
    """
    if values.size == 0:
        return
    if _magnitude(values) * values.size < _EXACT_BOUND:
        np.add.at(plane, cells, values)
        plane[cells] = plane[cells] % _P
        return
    np.add.at(plane, cells, values & _MASK32)
    plane[cells] = rotl_vec_mod(plane[cells], 29)
    np.add.at(plane, cells, values >> np.int64(32))
    plane[cells] = rotl_vec_mod(plane[cells], 32) % _P


def fold_cells(planes, flat, d, cs, cf, plane_shift=None):
    """Fold per-entry contributions into their destination cells.

    The one counter write behind batch ingest (:func:`fold_stack`) and
    the decode's ``minus=`` subtraction.  ``flat`` names
    each entry's cell as an offset into the flat weight plane, and
    cells may repeat.  ``d`` holds the entries' exact weight deltas;
    ``cs`` / ``cf`` hold ``int64`` values congruent mod p to their
    index-sum / fingerprint contributions (canonical residues, or the
    signed products of :func:`index_sums`).  Nothing is sorted or
    grouped: the weights are added with ``np.add.at`` (wrapping mod
    2^64 exactly as one-at-a-time ``int64`` addition does) and the two
    modular planes through :func:`_fold_mod`, so the result is
    bit-identical to applying the entries one at a time in any order.

    ``planes`` is the ``(w, s, f)`` triple of flat counter arrays.  A
    cell sits at the same offset in all three unless ``plane_shift``
    gives, per entry, the distance from its weight cell to its
    index-sum cell and from there to its fingerprint cell — the layout
    of instance blocks packed one after another in a single arena,
    where all three planes are the same array.
    """
    w_plane, s_plane, f_plane = planes
    np.add.at(w_plane, flat, d)
    if plane_shift is None:
        s_cells = f_cells = flat
    else:
        s_cells = flat + plane_shift
        f_cells = s_cells + plane_shift
    _fold_mod(s_plane, s_cells, cs)
    _fold_mod(f_plane, f_cells, cf)


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR expansion of a nonempty ``counts``: the ``(owner, local)``
    index pair of each of the ``counts[j]`` entries that ``j`` owns."""
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(counts.size), counts)
    local = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    return owner, local


def fold_stack(hashes, planes, group_base, plane_shift,
               inst, coord, ptr, member, delta, cache=None) -> None:
    """The batch-ingest kernel: fold a CSR batch into a stack of grids.

    Grid ``i`` of the stack owns the global groups ``first[i] + g`` of
    the :class:`~repro.sketch.bank.HashStack` ``hashes``; group ``q``'s
    members start at ``group_base[q]`` of the flat weight plane, one
    ``levels · rows · buckets`` block each, and ``planes`` /
    ``plane_shift`` (None, or one per grid) place the other counters
    as in :func:`fold_cells`.  Key ``k`` of the batch, keys sorted by
    grid, adds each of its rows ``ptr[k]:ptr[k+1]`` of (nonzero)
    ``delta`` to coordinate ``coord[k]`` of that ``member`` of grid
    ``inst[k]``.

    A coordinate is hashed once per (key, group) slot — group-major in
    a stack of one, its seeds broadcast — and bucketed once per (slot,
    level) triple and hash row; ``cache``, a stack of one's placement
    tables, supplies both instead.  Keys of equal width lay their
    entries out row position first, so a lone rank-2 grid keyed in
    coordinate order writes the larger endpoints' cells in member
    order.  The cells are the scalar ``update``'s, so the counters are
    bit-identical to its loop.  From :data:`_THREAD_ENTRIES` entries
    per hash row the rows fold on two threads (:func:`_fold_rows`).
    """
    levels, rows, buckets = hashes.levels, hashes.rows, hashes.buckets
    mixed = premix64_np(coord)
    # (key, group) slots: group-major in a stack of one, its seeds
    # broadcast over the keys; key-major across grids, seeds gathered.
    if inst[0] == inst[-1]:
        qs = hashes.first[inst[0]] + np.arange(
            np.count_nonzero(hashes.owner == inst[0]))
        slot_q = np.repeat(qs, coord.size)
        slot_key = np.tile(np.arange(coord.size), qs.size)
        if cache is None:
            seeds = hashes.group_seeds[qs].T[:, :, None]
            h = hash64_premixed(seeds, mixed).reshape(rows + 1, -1)
    else:
        groups = np.bincount(hashes.owner, minlength=hashes.first.size)
        slot_key, g = _expand(groups[inst])
        slot_q = hashes.first[inst][slot_key] + g
        h = hash64_premixed(
            np.take(hashes.group_seeds.T, slot_q, axis=1), mixed[slot_key]
        )
    counts = (level_counts_np(h[0], levels) if cache is None else
              cache.depth[:, coord].reshape(-1).astype(np.int64) + 1)
    t_slot, lvl = _expand(counts)
    t_key, t_q = slot_key[t_slot], slot_q[t_slot]
    # (row position, triple) entries: every incidence row of the
    # triple's key; spread() takes a per-triple array to them.
    width = np.diff(ptr)
    if (width == width[0]).all():
        # Equal widths: the entries are a (width, triple) grid.
        row = ptr[t_key] + np.arange(width[0])[:, None]

        def spread(a):
            return a[..., None, :]
    else:
        x_t, x_c = _expand(width[t_key])
        row = ptr[t_key][x_t] + x_c

        def spread(a):
            return np.take(a, x_t, axis=-1)
    base = spread(group_base[t_q]) + member[row] * (levels * rows * buckets)
    row = row.reshape(-1)
    # Per-row contributions, one fingerprint hash per key (a grid's
    # group 0 names its fingerprint seed).
    row_key = np.repeat(np.arange(coord.size), width)
    rho = hashes.rho(hashes.first[inst], mixed)
    cs = index_sums(delta, coord[row_key], hashes.domain)
    cf = mul_vec_mod(delta % _P, rho[row_key])
    shift = None if plane_shift is None else plane_shift[inst[row_key]]
    r_all = np.arange(rows, dtype=np.int64)[:, None]
    if cache is not None:
        span = hashes.domain * levels  # one (group, row) offset table
        key = t_q * (rows * span) + coord[t_key] * levels + lvl

        def cells(rs):
            return np.take(cache.off, key + r_all[rs] * span)
    else:
        salt = hashes.salts[hashes.owner[t_q], lvl]
        cell0 = lvl * (rows * buckets) + r_all * buckets

        def cells(rs):  # buckets < 2^63: the view keeps the integers
            b = bucket_np(np.take(h[1:][rs], t_slot, axis=1) ^ salt, buckets)
            return b.view(np.int64) + cell0[rs]

    def fold(rs):
        flat = (base + spread(cells(rs))).reshape(-1)
        at = row if flat.size == row.size else np.tile(row, flat.size // row.size)
        fold_cells(
            planes, flat, delta[at], cs[at], cf[at],
            None if shift is None else shift[at],
        )

    _fold_rows(rows, fold, base.size >= _THREAD_ENTRIES)


def _fold_rows(rows: int, fold, threaded: bool) -> None:
    """``fold(rs)`` over the hash rows ``range(rows)[rs]``: all rows in
    one call, or, when ``threaded``, the even and the odd rows at once.

    Each hash row writes only its own counter cells, so two rows can
    fold at once with no lock, and most of a row fold is numpy work
    that releases the GIL.  Threaded, one short-lived thread folds the
    odd rows while the calling thread folds the even ones; it is
    joined before this returns, and an exception it raised is re-raised
    here.
    """
    if not threaded or rows < 2:
        fold(slice(0, rows))
        return
    failure = []

    def odd_rows():
        try:
            fold(slice(1, rows, 2))
        except BaseException as exc:  # re-raised on the calling thread
            failure.append(exc)

    thread = threading.Thread(target=odd_rows, name="repro-fold-rows")
    thread.start()
    try:
        fold(slice(0, rows, 2))
    finally:
        thread.join()
    if failure:
        raise failure[0]


def expand_edges(
    scheme, updates: Iterable, member_of=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate a batch of signed hyperedges and expand each into its
    incidence rows, event by event.

    ``updates`` yields :class:`~repro.stream.updates.EdgeUpdate`-likes
    (anything with ``edge`` and ``sign``) or ``(edge, sign)`` pairs.
    Returns ``(index, ptr, vertices, coefficients)``: edge ``e`` has
    coordinate ``index[e]`` and the rows ``ptr[e]:ptr[e+1]`` — its
    vertices, addressed through ``member_of`` (vertex -> grid member)
    when given, with coefficient ``k - 1`` for the minimum vertex and
    ``-1`` for the rest, times the sign.
    """
    index: List[int] = []
    ptr: List[int] = [0]
    verts: List[int] = []
    coef: List[int] = []
    for u in updates:
        edge, sign = (u.edge, u.sign) if hasattr(u, "edge") else u
        if sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {sign}")
        index.append(scheme.index_of(edge))
        for vertex, c in scheme.coefficients(edge):
            if member_of is not None:
                member = member_of.get(vertex)
                if member is None:
                    raise DomainError(
                        f"edge {tuple(edge)} touches inactive vertex {vertex}"
                    )
                vertex = member
            verts.append(vertex)
            coef.append(sign * c)
        ptr.append(len(verts))
    return tuple(
        np.array(col, dtype=np.int64) for col in (index, ptr, verts, coef)
    )


def expand_edge_batch(
    scheme, member_of, updates: Iterable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of :func:`expand_edges` as the three parallel
    ``(members, indices, deltas)`` arrays :func:`grid_update_batch`
    takes."""
    index, ptr, members, deltas = expand_edges(scheme, updates, member_of)
    return members, np.repeat(index, np.diff(ptr)), deltas


def pairs_of_updates(updates: Sequence):
    """Extract ``(us, vs, signs)`` arrays from a rank-2 update batch.

    Returns None when any event is not a plain 2-vertex edge of
    integer endpoints with an integer sign, in which case the caller's
    generic per-event expansion runs (preserving its exact validation
    errors for malformed input — a float or string endpoint must not
    be cast to an integer here).  The pair path is bit-identical to
    the generic one — see :func:`expand_pair_batch`.
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
        columns = [np.asarray(col) for col in (us, vs, signs)]
    except ValueError:  # ragged: some endpoint is itself a sequence
        return None
    if any(col.dtype.kind not in "iu" for col in columns):
        return None
    return tuple(col.astype(np.int64) for col in columns)


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
    for the other, in :func:`expand_edges`' per-edge order) runs
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
