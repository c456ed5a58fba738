"""The scalar reference decoder: the oracle the batch kernels answer to.

The library decodes through one path, :class:`~repro.sketch.bank.
SummedBatch` driven by :func:`~repro.sketch.spanning_forest.
decode_stack`.  This module is the independent, one-component-at-a-time
restatement of the same arithmetic that the parity tests compare it
against: it sums a component's members with its own fold
(:func:`summed`), removes entries with its own per-coordinate
subtraction (:meth:`SummedSketch.subtract`) and samples with the plain
peeling loop of :meth:`SummedSketch.sample`.  It therefore checks the
batch gather (``_sum_slots``), the batch subtraction
(``SummedBatch.subtract``) and the batch sampler (``drain_windows``)
independently.

Only tests, benchmarks and profiling scripts import this module; the
library never does.  :func:`oracle` routes every Borůvka round of
``decode_stack`` through :func:`sample_round` for the duration of a
``with`` block.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from ..errors import (
    IncompatibleSketchError,
    NotOneSparseError,
    SamplerEmptyError,
    SamplerFailedError,
    SamplerZeroError,
)
from ..util.hashing import hash64, hash64_np, splitmix64_np
from ..util.prime_field import MERSENNE_61, shl32_vec_mod
from . import spanning_forest
from .bank import SamplerGrid, SummedBatch, _inv_mod_cached, _occupied, _rho_cached

_P = MERSENNE_61


def _fold_mod(vals: np.ndarray) -> np.ndarray:
    """Reduce axis 0 of an array of canonical residues, mod p.

    Residues are summed as 32-bit halves (the high half of a residue is
    < 2^29, so even millions of summands cannot overflow ``int64``) and
    recombined with one Mersenne shift — the vectorised equivalent of
    adding the slices pairwise mod p.
    """
    mask32 = np.int64(0xFFFFFFFF)
    hi = (vals >> np.int64(32)).sum(axis=0)
    lo = (vals & mask32).sum(axis=0)
    return (
        shl32_vec_mod(hi.astype(np.uint64)).astype(np.int64) + lo % _P
    ) % _P


def _fold_members(
    grid: SamplerGrid, group: int, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the members' counter slices into one (L, R, B) triple: the
    weights exactly in ``int64``, the residues through :func:`_fold_mod`."""
    w = grid._w[group, idx].sum(axis=0)
    s = _fold_mod(grid._s[group, idx])
    f = _fold_mod(grid._f[group, idx])
    return w, s, f


def summed(grid: SamplerGrid, group: int, members: Sequence[int]) -> "SummedSketch":
    """Sketch of the *sum* of the given members' vectors in ``group``.

    For vertex incidence rows this is precisely a sketch of the
    boundary δ(members): internal edge coefficients cancel.
    """
    idx = np.fromiter(members, dtype=np.int64)
    if idx.size == 0:
        raise IncompatibleSketchError("summed() needs at least one member")
    return SummedSketch(grid, group, *_fold_members(grid, group, idx))


def member_sketch(grid: SamplerGrid, group: int, member: int) -> "SummedSketch":
    """The single-member sketch as a decodable view."""
    return summed(grid, group, [member])


def sketch_at(batch: SummedBatch, comp: int) -> "SummedSketch":
    """Component ``comp`` of a batch as an independent scalar view."""
    q = int(batch._groups[comp])
    owner = int(batch._hashes.owner[q])
    return SummedSketch(
        batch._grids[owner], q - int(batch._hashes.first[owner]),
        batch._w[comp].copy(), batch._s[comp].copy(), batch._f[comp].copy(),
    )


def sample_round(hashes, slots, grids, rnd, owner, members, sizes, w_slot,
                 plane, drop):
    """The oracle of :func:`repro.sketch.spanning_forest._sample_round`:
    every component summed by :func:`summed`, its ``drop`` entries
    removed by :meth:`SummedSketch.subtract`, and sampled on its own —
    ZERO when its level 0 has no nonzero cell, as in the batch path.
    Reads none of the flat gather (``hashes``, ``slots``, ``w_slot``,
    ``plane``)."""
    comp, drop_index, drop_delta = drop
    ok, bad = np.zeros((2, sizes.size), dtype=bool)
    index = np.zeros(sizes.size, dtype=np.int64)
    for c, idx in enumerate(np.split(members, np.cumsum(sizes)[:-1])):
        sketch = summed(grids[owner[c]], rnd, idx)
        mine = comp == c
        for j, wt in zip(drop_index[mine].tolist(), drop_delta[mine].tolist()):
            sketch.subtract(j, wt)
        try:
            index[c] = sketch.sample()[0]
            ok[c] = True
        except SamplerZeroError:
            pass  # no outgoing edge: an isolated component
        except SamplerFailedError:
            bad[c] = True
    return ok, bad, index


def oracle():
    """A context manager that decodes through :func:`sample_round`."""
    return mock.patch.object(spanning_forest, "_sample_round", sample_round)


class SummedSketch:
    """A decodable L0-sampler view over summed member counters.

    Carries its own (L, rows, buckets) counter arrays plus the hash
    context of the owning grid's group, so it supports local mutation
    (subtracting recovered coordinates during peeling) without touching
    the grid.
    """

    __slots__ = ("_grid", "group", "_w", "_s", "_f")

    def __init__(self, grid: SamplerGrid, group: int, w, s, f):
        self._grid = grid
        self.group = group
        self._w = w
        self._s = s
        self._f = f

    # -- placement helpers ----------------------------------------------

    def _depth_of(self, index: int) -> int:
        return self._grid._depth(self.group, index)

    def _bucket_of(self, row: int, lvl: int, index: int) -> int:
        return self._grid._bucket(self.group, row, lvl, index)

    def _tiebreak(self, index: int) -> int:
        return hash64(self._grid._tiebreak_seeds[self.group], index)

    # -- mutation ---------------------------------------------------------

    def subtract(self, index: int, weight: int) -> None:
        """Remove ``weight`` units of ``index`` from the view (peeling):
        its cell in every row of every level up to its depth."""
        for lvl in range(self._depth_of(index) + 1):
            self._subtract_at_level(lvl, index, weight)

    def copy(self) -> "SummedSketch":
        return SummedSketch(
            self._grid, self.group, self._w.copy(), self._s.copy(), self._f.copy()
        )

    # -- decoding -----------------------------------------------------------

    def appears_zero(self) -> bool:
        """True if all counters vanish (zero vector, whp)."""
        return not self._w.any() and not self._s.any() and not self._f.any()

    def _decode_cell(self, lvl: int, r: int, b: int) -> Optional[Tuple[int, int]]:
        w = int(self._w[lvl, r, b])
        s = int(self._s[lvl, r, b])
        f = int(self._f[lvl, r, b])
        if w == 0 and s == 0 and f == 0:
            return None
        if w == 0 or w % _P == 0:
            raise NotOneSparseError("nonzero cell with zero weight")
        w_mod = w % _P
        j = (s * _inv_mod_cached(w_mod)) % _P
        if j >= self._grid.domain:
            raise NotOneSparseError("index outside domain")
        j = int(j)
        if (w_mod * _rho_cached(self._grid._rho.seed, j)) % _P != f:
            raise NotOneSparseError("fingerprint mismatch")
        # Structural consistency: the coordinate must genuinely live in
        # this cell, else the decode is a (vanishingly rare) collision.
        if self._depth_of(j) < lvl or self._bucket_of(r, lvl, j) != b:
            raise NotOneSparseError("placement mismatch")
        return j, w

    def _recover_level(self, lvl: int) -> Optional[Dict[int, int]]:
        """Peel one level; full support of the subsampled vector or None."""
        scratch = self.copy()
        recovered: Dict[int, int] = {}
        guard = 4 * self._grid.rows * self._grid.buckets + 8
        progress = True
        while progress and guard > 0:
            guard -= 1
            progress = False
            for r in range(self._grid.rows):
                for b in range(self._grid.buckets):
                    try:
                        got = scratch._decode_cell(lvl, r, b)
                    except NotOneSparseError:
                        continue
                    if got is None:
                        continue
                    j, w = got
                    recovered[j] = recovered.get(j, 0) + w
                    scratch._subtract_at_level(lvl, j, w)
                    progress = True
        if scratch._w[lvl].any() or scratch._s[lvl].any() or scratch._f[lvl].any():
            return None
        return {j: w for j, w in recovered.items() if w != 0}

    def _subtract_at_level(self, lvl: int, index: int, weight: int) -> None:
        grid = self._grid
        cs = np.int64((-weight * (index % _P)) % _P)
        cf = np.int64((-weight * _rho_cached(grid._rho.seed, index)) % _P)
        salt = np.uint64(grid._level_salts[lvl])
        seeds = np.array(grid._bucket_seeds[self.group], dtype=np.uint64)
        h = hash64_np(seeds, index)
        with np.errstate(over="ignore"):
            bs = (splitmix64_np(h ^ salt)
                  % np.uint64(grid.buckets)).astype(np.int64)
        rs = np.arange(grid.rows)
        self._w[lvl, rs, bs] -= weight
        s_new = self._s[lvl, rs, bs] + cs
        self._s[lvl, rs, bs] = np.where(s_new >= _P, s_new - _P, s_new)
        f_new = self._f[lvl, rs, bs] + cf
        self._f[lvl, rs, bs] = np.where(f_new >= _P, f_new - _P, f_new)

    def sample(self) -> Tuple[int, int]:
        """A verified nonzero ``(index, weight)`` of the summed vector.

        Shallowest fully-recovered level wins (min tie-break hash among
        its survivors); otherwise any verified single-cell decode.
        Raises :class:`SamplerEmptyError` on a zero vector or total
        decode failure.  The vector is zero when level 0, which holds
        every coordinate, has no nonzero cell: the test
        :func:`~repro.sketch.bank.drain_windows` makes.
        """
        if not (self._w[0].any() or self._s[0].any() or self._f[0].any()):
            raise SamplerZeroError("summed vector appears to be zero")
        for lvl in range(self._grid.levels):
            support = self._recover_level(lvl)
            if support:
                j = min(support, key=lambda i: (self._tiebreak(i), i))
                return j, support[j]
        # Rare fallback (no level fully recovered): any verified
        # single-cell decode, first hit in (level, row, bucket) order.
        for cell in np.argwhere(_occupied(self._w, self._s, self._f)).tolist():
            try:
                return self._decode_cell(*cell)
            except NotOneSparseError:
                continue
        raise SamplerFailedError("no subsampling level decoded")

    def sample_or_none(self) -> Optional[Tuple[int, int]]:
        """Like :meth:`sample` but None for zero vectors / failures."""
        try:
            return self.sample()
        except SamplerEmptyError:
            return None

    def recover_support(self) -> Optional[Dict[int, int]]:
        """Exact support via the level-0 structure, if certifiable."""
        return self._recover_level(0)

    def estimate_support_size(self) -> Optional[int]:
        """Estimate ‖x‖₀ from the subsampling levels (dynamic F0).

        Classical insert-only distinct-count sketches (KMV, HLL) break
        under deletions; a linear L0 structure does not.  The estimator
        finds the shallowest level whose support fully recovers — that
        level holds each surviving coordinate independently with
        probability 2^-ℓ, so ``count · 2^ℓ`` estimates the overall
        support size (exact when ℓ = 0).  Returns ``None`` when no
        level certifies a complete recovery.
        """
        if self.appears_zero():
            return 0
        for lvl in range(self._grid.levels):
            support = self._recover_level(lvl)
            if support is None:
                continue
            if support or lvl == 0:
                # A certified-empty deeper level says little (all
                # coordinates may simply have shallow hash depths), so
                # only a *nonempty* recovery — or level 0, which sees
                # everything — yields an estimate.
                return len(support) * (2 ** lvl)
        return None
