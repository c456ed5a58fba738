"""Linear content digests over :class:`~repro.sketch.bank.SamplerGrid` banks.

The two operands of a merge and their sum are compared through a short
linear fingerprint of their counters rather than the counters
themselves:

* ``D_w(g, r)   = Σ_cell  c_w[cell] · w[cell]      (mod 2^64)``
* ``D_sf(g, r)  = Σ_cell  c_m[cell] · x[cell]      (mod p)`` where
  ``x = (s + 2^32 · f) mod p`` packs both modular counters of a cell
  into one residue, and ``p = 2^61 - 1`` is the sketches' own field.

One ``(D_w, D_sf)`` pair is computed per ``(group, row)``.  Because
the digest is linear in the counters, a merge satisfies
``D(a + b) = D(a) + D(b)`` (:meth:`GridDigest.absorb`) — the invariant
:func:`~repro.audit.integrity.verified_merge` asserts.  Digests are
always computed from the counters; nothing keeps one up to date.

A single flipped bit changes ``w`` by ``±2^b`` and the w-digest by
``±c_w·2^b mod 2^64``, nonzero because every ``c_w`` is odd; it changes
``x`` by a nonzero residue (no power of two is a multiple of the
Mersenne prime) and the sf-digest by a nonzero multiple of ``c_m ≠ 0``.

The modulus choices are forced, not stylistic: legitimate updates
reduce ``s``/``f`` mod ``p``, so a cell's stored value moves by
``contribution − k·p`` — only a digest taken mod ``p`` itself is blind
to the unknown ``k``.  The weight counters use plain int64 addition, so
their digest lives mod 2^64 where the wraparound is free.
"""

from __future__ import annotations

import sys
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
#: Position of an int64's low 32-bit half in its ``int32`` view.
_LO = 0 if sys.byteorder == "little" else 1

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


def _fold_mod_rows(values: np.ndarray, spec: str) -> np.ndarray:
    """Sum int64 ``values`` mod p as ``np.einsum(spec, values)`` would,
    without overflow.

    Each value splits into 32-bit halves, ``v = hi · 2^32 + lo`` with
    ``hi`` its arithmetic shift, so any int64 — negative or past p, as
    a corrupted counter may be — is summed exactly.  The halves are read
    through an ``int32`` view (the last axis must be contiguous) and
    their int64 sums cannot overflow below 2^31 summands; they
    recombine as ``hi · 2^32 + lo`` through the Mersenne rotation.
    Returns canonical residues, ``int64``.
    """
    halves = values.view(np.int32)
    hi = np.einsum(spec, halves[..., 1 - _LO::2], dtype=np.int64) % _P
    lo = np.einsum(
        spec, halves.view(np.uint32)[..., _LO::2], dtype=np.int64
    ) % _P
    return (rotl_vec_mod(hi, 32) + lo) % _P


class GridDigest:
    """Per-``(group, row)`` linear digests of one grid's counter banks,
    computed from the counters by :meth:`compute`."""

    __slots__ = ("groups", "rows", "cells_per_group", "w", "sf")

    def __init__(self, groups: int, rows: int, cells_per_group: int):
        self.groups = groups
        self.rows = rows
        self.cells_per_group = cells_per_group
        self.w = np.zeros((groups, rows), dtype=np.uint64)
        self.sf = np.zeros((groups, rows), dtype=np.int64)

    @classmethod
    def compute(cls, grid) -> "GridDigest":
        """Digest the grid's *current* arrays: O(bank) work, tolerant of
        arbitrarily corrupted values (negative, out of field — anything
        an int64 can hold digests deterministically)."""
        out = cls(
            grid.groups,
            grid.rows,
            grid.members * grid.levels * grid.rows * grid.buckets,
        )
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
            out.sf[g] = _fold_mod_rows(prod, "mlrb->r")
        return out

    def absorb(self, other: "GridDigest") -> None:
        """Linearity of merges: ``D(a + b) = D(a) + D(b)``."""
        with np.errstate(over="ignore"):
            self.w += other.w
        self.sf = (self.sf + other.sf) % _P

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
