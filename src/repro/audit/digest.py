"""Homomorphic content digests over :class:`~repro.sketch.bank.SamplerGrid` banks.

The integrity layer needs to answer "were these counter arrays mutated
by anything other than the sketch update path?" without re-reading the
whole bank per stream batch.  A cryptographic hash cannot do that — one
update would invalidate the whole hash — but the banks are *linear*
state, so the digest can be linear too:

* ``D_w(g, r)   = Σ_cell  c_w[cell] · w[cell]      (mod 2^64)``
* ``D_sf(g, r)  = Σ_cell  c_m[cell] · x[cell]      (mod p)`` where
  ``x = (s + 2^32 · f) mod p`` packs both modular counters of a cell
  into one residue, and ``p = 2^61 - 1`` is the sketches' own field.

One ``(D_w, D_sf)`` pair is kept per ``(group, row)`` — exactly the
localization unit the auditor reports.  Because the digests are linear
in the counters, *every legitimate mutation has a cheap digest delta*:

* a batched update contributes ``Σ c · Δ`` over just the touched cells
  (each fold of the batch kernel hands over its per-entry deltas — see
  :func:`repro.engine.batch.fold_cells`), so incremental maintenance
  is O(batch), not O(bank);
* a merge satisfies ``D(a + b) = D(a) + D(b)``, which is both how
  digests survive ``__iadd__`` *and* the invariant verified merges
  assert.

Detection is deterministic for the corruption class that matters: a
single flipped bit changes ``w`` by ``±2^b`` and the w-digest by
``±c_w·2^b mod 2^64``, nonzero because every ``c_w`` is odd; it changes
``x`` by a nonzero residue (no power of two is a multiple of the
Mersenne prime) and the sf-digest by a nonzero multiple of ``c_m ≠ 0``.
Multi-bit corruption is missed only when its digest delta cancels —
probability ~2^-61 per (group, row) for adversarial-free faults.

The modulus choices are forced, not stylistic: legitimate updates
reduce ``s``/``f`` mod ``p``, so a cell's stored value moves by
``contribution − k·p`` — only a digest taken mod ``p`` itself is blind
to the unknown ``k``.  The weight counters use plain int64 addition, so
their digest lives mod 2^64 where the wraparound is free.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..util.hashing import hash64_many
from ..util.prime_field import (
    MERSENNE_61,
    mul_vec_mod,
    rotl_vec_mod,
    shl32_vec_mod,
)

_P = MERSENNE_61
_MASK32 = np.int64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1

#: Fixed seed of the coefficient stream.  Deliberately *not* derived
#: from the grid seed: coefficients depend only on the cell's position
#: within its group, so all grids of one shape share a single cached
#: table (the fault model is bit rot, not an adversary who knows the
#: coefficients).
_COEFF_SEED = 0xD16E_57C0_FFEE_5EED

# (cells_per_group) -> (c_w odd uint64 coefficients, c_m residues in [1, p))
_coeff_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _coefficients(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The per-cell coefficient tables for a group of ``size`` cells."""
    cached = _coeff_cache.get(size)
    if cached is None:
        h = hash64_many(_COEFF_SEED, np.arange(size, dtype=np.int64))
        c_w = h | np.uint64(1)  # odd: c_w · 2^b never vanishes mod 2^64
        c_m = ((h % np.uint64(_P - 1)) + np.uint64(1)).astype(np.int64)
        cached = (c_w, c_m)
        _coeff_cache[size] = cached
    return cached


def _fold_mod_rows(prod: np.ndarray, axes: Tuple[int, ...]) -> np.ndarray:
    """Sum residue array ``prod`` mod p over ``axes`` without overflow.

    Residues are split into 32-bit halves whose int64 partial sums
    cannot overflow for any realistic bank size, then recombined with
    exact Python integers.  Returns an int64 array of residues.
    """
    hi = (prod >> np.int64(32)).sum(axis=axes)
    lo = (prod & _MASK32).sum(axis=axes)
    flat_hi = np.atleast_1d(hi).ravel()
    flat_lo = np.atleast_1d(lo).ravel()
    out = np.empty(flat_hi.shape, dtype=np.int64)
    for i in range(flat_hi.size):
        out[i] = ((int(flat_hi[i]) << 32) + int(flat_lo[i])) % _P
    return out.reshape(np.shape(hi))


class GridDigest:
    """Per-``(group, row)`` linear digests of one grid's counter banks.

    Instances are attached to a grid as ``grid._digest`` and maintained
    incrementally by the scalar and batched update paths, combined
    algebraically on merges, and compared against a fresh
    :meth:`compute` by the auditor — any divergence means the arrays
    were mutated outside the update path.
    """

    __slots__ = ("groups", "rows", "cells_per_group", "w", "sf")

    def __init__(self, groups: int, rows: int, cells_per_group: int):
        self.groups = groups
        self.rows = rows
        self.cells_per_group = cells_per_group
        self.w = np.zeros((groups, rows), dtype=np.uint64)
        self.sf = np.zeros((groups, rows), dtype=np.int64)

    # -- construction ---------------------------------------------------

    @classmethod
    def zero_for(cls, grid) -> "GridDigest":
        """The digest of an all-zero grid of ``grid``'s shape."""
        return cls(
            grid.groups,
            grid.rows,
            grid.members * grid.levels * grid.rows * grid.buckets,
        )

    @classmethod
    def compute(cls, grid) -> "GridDigest":
        """Digest the grid's *current* arrays from scratch.

        This is the audit-time ground truth: O(bank) work, tolerant of
        arbitrarily corrupted values (negative, out of field — anything
        an int64 can hold digests deterministically).
        """
        out = cls.zero_for(grid)
        c_w, c_m = _coefficients(out.cells_per_group)
        levels, rows, buckets = grid.levels, grid.rows, grid.buckets
        shape4 = (grid.members, levels, rows, buckets)
        c_w4 = c_w.reshape(shape4)
        c_m4 = c_m.reshape(shape4)
        for g in range(grid.groups):
            w = grid._w[g]
            with np.errstate(over="ignore"):
                prod_w = c_w4 * w.astype(np.uint64)
            out.w[g] = prod_w.sum(axis=(0, 1, 3), dtype=np.uint64)
            # Reduce defensively: corrupted s/f may sit outside [0, p).
            s_res = grid._s[g] % np.int64(_P)
            f_res = grid._f[g] % np.int64(_P)
            x = s_res + shl32_vec_mod(f_res.astype(np.uint64)).astype(np.int64)
            x = np.where(x >= _P, x - _P, x)
            prod = mul_vec_mod(c_m4, x)
            out.sf[g] = _fold_mod_rows(prod, (0, 1, 3))
        return out

    def copy(self) -> "GridDigest":
        out = GridDigest(self.groups, self.rows, self.cells_per_group)
        out.w = self.w.copy()
        out.sf = self.sf.copy()
        return out

    # -- incremental maintenance (legitimate mutations) -----------------

    def observe_cells(
        self,
        grid,
        cells: np.ndarray,
        dw: np.ndarray,
        ds: np.ndarray,
        df: np.ndarray,
    ) -> None:
        """Fold one batch's per-entry deltas in.

        ``cells`` are offsets into ``grid``'s flat weight plane, all
        groups (they may repeat); each names its own ``(group, row)``.
        ``dw`` are the exact int64 weight deltas; ``ds``/``df`` int64
        values congruent to the modular contributions, ``df`` in
        [0, p) — all exactly as :func:`~repro.engine.batch.fold_cells`
        takes and returns them, so the digest moves in lockstep with
        the bank.  The digest is linear, so per-entry observations
        equal per-cell ones.
        """
        c_w, c_m = _coefficients(self.cells_per_group)
        group, local = np.divmod(cells, self.cells_per_group)
        unit = group * self.rows + (local // grid.buckets) % self.rows
        w = np.zeros(self.w.size, dtype=np.uint64)
        with np.errstate(over="ignore"):
            np.add.at(w, unit, c_w[local] * dw.astype(np.uint64))
            self.w += w.reshape(self.w.shape)
        # 2^32 · df is a rotation of the canonical 61-bit df.
        x = ds % _P + rotl_vec_mod(df, 32)
        np.subtract(x, _P, out=x, where=x >= _P)
        prod = mul_vec_mod(c_m[local], x)
        # Halves of residues: < 2^29 and < 2^32 each, so the int64 sums
        # cannot overflow below 2^31 entries.
        hi = np.zeros(self.sf.size, dtype=np.int64)
        lo = np.zeros(self.sf.size, dtype=np.int64)
        np.add.at(hi, unit, prod >> np.int64(32))
        np.add.at(lo, unit, prod & _MASK32)
        hi = shl32_vec_mod((hi % _P).astype(np.uint64)).astype(np.int64)
        self.sf = (self.sf + hi.reshape(self.sf.shape)
                   + (lo % _P).reshape(self.sf.shape)) % _P

    def observe_update(self, grid, member: int, index: int, delta: int) -> None:
        """Fold one scalar ``grid.update(member, index, delta)`` in.

        Mirrors the scalar hot path's placement exactly (same depth and
        bucket hashes); pure-Python arithmetic, only paid when a digest
        is attached.
        """
        c_w, c_m = _coefficients(self.cells_per_group)
        i_mod = index % _P
        rho = grid._rho.field_value(index, _P)
        cs = (delta * i_mod) % _P
        cf = (delta * rho) % _P
        x = (cs + ((cf << 32) % _P)) % _P
        levels, rows, buckets = grid.levels, grid.rows, grid.buckets
        for g in range(grid.groups):
            depth = grid._depth(g, index)
            for r in range(rows):
                acc_w = 0
                acc_sf = 0
                for lvl in range(depth + 1):
                    b = grid._bucket(g, r, lvl, index)
                    flat = ((member * levels + lvl) * rows + r) * buckets + b
                    acc_w += int(c_w[flat]) * delta
                    acc_sf += int(c_m[flat]) * x
                self.w[g, r] = np.uint64(
                    (int(self.w[g, r]) + acc_w) & _MASK64
                )
                self.sf[g, r] = (int(self.sf[g, r]) + acc_sf) % _P

    def absorb(self, other: "GridDigest", sign: int = 1) -> None:
        """Linearity of merges: ``D(a ± b) = D(a) ± D(b)``."""
        with np.errstate(over="ignore"):
            if sign >= 0:
                self.w += other.w
            else:
                self.w -= other.w
        sf = self.sf + (other.sf if sign >= 0 else -other.sf)
        sf %= _P
        self.sf = sf.astype(np.int64)

    def combined(self, other: "GridDigest", sign: int = 1) -> "GridDigest":
        """A fresh digest equal to ``self ± other`` (no mutation)."""
        out = self.copy()
        out.absorb(other, sign=sign)
        return out

    def reset(self) -> None:
        """Back to the all-zero-bank digest."""
        self.w.fill(0)
        self.sf.fill(0)

    # -- comparison -----------------------------------------------------

    def mismatches(self, other: "GridDigest") -> List[Tuple[int, int, str]]:
        """``(group, row, which)`` triples where the digests disagree."""
        out: List[Tuple[int, int, str]] = []
        neq = (self.w != other.w) | (self.sf != other.sf)
        for g, r in zip(*np.nonzero(neq)):
            kinds = []
            if self.w[g, r] != other.w[g, r]:
                kinds.append("w")
            if self.sf[g, r] != other.sf[g, r]:
                kinds.append("s/f")
            out.append((int(g), int(r), "+".join(kinds)))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridDigest):
            return NotImplemented
        return (
            self.groups == other.groups
            and self.rows == other.rows
            and bool(np.array_equal(self.w, other.w))
            and bool(np.array_equal(self.sf, other.sf))
        )

    __hash__ = None  # mutable

    # -- pickling (process-pool workers ship sketches) ------------------

    def __getstate__(self):
        return {
            "groups": self.groups,
            "rows": self.rows,
            "cells_per_group": self.cells_per_group,
            "w": self.w,
            "sf": self.sf,
        }

    def __setstate__(self, state):
        for key, value in state.items():
            setattr(self, key, value)


def attach_digest(grid, force: bool = False) -> GridDigest:
    """Ensure ``grid`` carries a maintained digest; return it.

    When first attached (or with ``force``), the digest is computed
    from the grid's current arrays — i.e. the *current* state is
    accepted as the trusted baseline.
    """
    if grid._digest is None or force:
        grid._digest = GridDigest.compute(grid)
    return grid._digest
