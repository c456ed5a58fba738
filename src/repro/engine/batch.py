"""Vectorised batch-update kernels for :class:`~repro.sketch.bank.SamplerGrid`.

The scalar ``SamplerGrid.update`` walks ``groups × rows × (depth+1)``
counter cells in Python per stream event.  The kernel here applies a
whole *array* of updates at once: the level depths, bucket choices and
modular cell contributions for every update are computed with numpy
(:func:`~repro.util.hashing.hash64_premixed` /
:func:`~repro.util.prime_field.mul_vec_mod`), and every contribution is
added straight into its destination cell by :func:`fold_cells` — the
sketches are linear, so no stage groups or orders the cells.

The result is **bit-identical** to applying the same updates one at a
time (the equivalence tests enforce this across seeds): plain ``int64``
addition is exact for the weight counters, and the modular counters
are folded so that no cell can overflow before it is reduced mod
``2^61 - 1`` (see :func:`fold_cells`).

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
    hash64_premixed,
    premix64_np,
    splitmix64_np,
    trailing_zeros64_np,
)
from ..util.prime_field import MERSENNE_61, mul_vec_mod, rotl_vec_mod

_P = MERSENNE_61

#: A cell folds its contributions exactly in ``int64`` while their
#: absolute sum stays below this: with the canonical value already in
#: the cell (< 2^61) the running total stays inside ``int64``.
_EXACT_BOUND = 1 << 62
_MASK32 = np.int64(0xFFFFFFFF)


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


def grid_update_batch(grid, members, indices, deltas) -> int:
    """Apply ``x_member[index] += delta`` for a whole batch of updates.

    Parameters are parallel 1-D arrays (any integer sequence).  Returns
    the number of (nonzero-delta) updates applied.  The grid state after
    this call is bit-identical to applying the same updates through the
    scalar ``grid.update`` loop, in any order.

    There is one kernel, :func:`_grid_update_batch_fused`, on whatever
    placement-table tier the budget gives (attached lazily — see
    :meth:`SamplerGrid._ensure_hash_cache`).  An attached audit digest
    rides the same folds: it is linear, so observing each fold's entries
    moves it exactly as the counters move.
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
    grid._touch()

    if m.size > 1:
        # Coalesce duplicate (member, index) coordinates to their net
        # delta before the per-group expansion: every cell contribution
        # — and every digest term — is linear in the delta for a fixed
        # coordinate, and the folds are order-independent, so folding
        # the net value is bit-identical to folding each event, while
        # churny batches (insert + delete of the same edge) shrink
        # dramatically.
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
    cs = index_sums(d, idx, grid.domain)
    cf = mul_vec_mod(d % _P, field_value_many(grid._rho.seed, idx, _P))
    _grid_update_batch_fused(grid, grid._ensure_hash_cache(), m, idx, d, cs, cf)
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

    The one counter write behind every batch kernel: the grid kernel
    here and the cross-instance kernel of
    :class:`~repro.core._sampled.SampledForestUnion`.  ``flat`` names
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

    Returns the entries ``(flat, d, cs, cf)`` themselves: the folds are
    linear, so per-entry observations of them are what
    :meth:`GridDigest.observe_cells` needs.
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
    return flat, d, cs, cf


def _grid_update_batch_fused(grid, cache, m, idx, d, cs, cf) -> None:
    """One fused pass per row over the whole SoA block, all groups.

    Expands the surviving ``(group, update, level)`` triples *once* —
    depths gathered from the placement tables when attached (full or
    depth-only tier), or hashed here — addresses them as **global**
    flat offsets into the contiguous counter planes, and folds all
    groups' cells together with one :func:`fold_cells` per row.  Every
    hash it needs is taken once per (group, update) — one
    :func:`~repro.util.hashing.premix64_np` of the batch finished under
    each group's seeds — and read back per triple through its flat
    ``group * U + update`` slot.  A triple's cells are exactly the ones
    the scalar ``update`` writes for it, and the folds are
    order-independent, so the counters are bit-identical to the scalar
    loop's.  The grid's digest, when attached, observes each row fold's
    entries (:meth:`~repro.audit.digest.GridDigest.observe_cells`).
    """
    G, U = grid.groups, m.size
    levels, rows, buckets = grid.levels, grid.rows, grid.buckets
    full_tables = cache is not None and cache.off is not None
    if cache is not None:
        depth = cache.depth[:, idx].reshape(-1)
    if not full_tables:
        # One hash per (seed, group, update): the level seed's only
        # without a depth table, then one per row.
        seeds = grid._hashes.group_seeds.T[int(cache is not None):]
        h = hash64_premixed(seeds[:, :, None], premix64_np(idx))
        h = h.reshape(seeds.shape[0], -1)
        if cache is None:
            depth = np.minimum(trailing_zeros64_np(h[0]), levels - 1)
            h = h[1:]
    # Explicit (group, update, level) triple expansion, group-major.
    counts = depth.astype(np.int64) + 1
    cum = np.cumsum(counts)
    slot = np.repeat(np.arange(G * U, dtype=np.int64), counts)
    lvl = np.arange(cum[-1], dtype=np.int64) - np.repeat(cum - counts, counts)
    u_p = np.tile(np.arange(U, dtype=np.int64), G)[slot]
    d_pairs, cs_pairs, cf_pairs = d[u_p], cs[u_p], cf[u_p]
    # (group, member) block of every triple, in member strides.
    block = (np.arange(G, dtype=np.int64)[:, None] * grid.members + m)
    block = block.reshape(-1)[slot]
    planes = (grid._w.reshape(-1), grid._s.reshape(-1), grid._f.reshape(-1))
    if full_tables:
        span = grid.domain * levels  # one (group, row) offset table
        off = cache.off.reshape(-1)
        key = (
            np.arange(G, dtype=np.int64)[:, None] * (rows * span)
            + idx * levels
        ).reshape(-1)[slot] + lvl
        base = block * (levels * rows * buckets)

        def cells(r):
            return base + off[key + r * span]
    else:
        salt = grid._hashes.salts[0][lvl]
        row0 = (block * levels + lvl) * (rows * buckets)

        def cells(r):
            b = splitmix64_np(h[r][slot] ^ salt)
            b %= np.uint64(buckets)
            flat = b.view(np.int64)  # buckets < 2^63: the same integers
            flat += row0 + r * buckets
            return flat

    digest = grid._digest
    for r in range(rows):
        entries = fold_cells(planes, cells(r), d_pairs, cs_pairs, cf_pairs)
        if digest is not None:
            digest.observe_cells(grid, *entries)


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
