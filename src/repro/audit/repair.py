"""Digest diff / repair localization for replicated sketch state.

Anti-entropy between replicas (:mod:`repro.service.replication`) needs
two successively finer comparisons, both cheap relative to shipping
sketch state:

1. *Are two replicas' copies of a sketch identical, and if not, which
   grids/(group, row) cells disagree?* — :func:`sketch_digest_table`
   serializes the :class:`~repro.audit.digest.GridDigest` of every
   constituent grid into a JSON-friendly table;
   :func:`diff_digest_tables` pinpoints the disagreeing cells.
2. *Within a divergent grid, which member columns must be shipped?* —
   :func:`member_digest_table` collapses each member's full column
   (all groups, levels, rows, buckets) into one ``(w, sf)`` digest
   pair, so :func:`divergent_members` localizes the repair to exactly
   the columns that differ.  Shipping columns instead of grids is the
   payoff: one divergent member costs ``O(column)`` bytes, not
   ``O(bank)``.

Both digests are linear in the counters (same coefficient streams as
the audit layer, plus a per-group mixing coefficient for the member
digest), so equality of digests is equality of state up to the usual
~2^-61 per-cell collision bound — and *bit-identical* state always
digests identically, which is the direction repair relies on: after
copying the divergent columns verbatim, the tables must match.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

import numpy as np

from ..errors import IncompatibleSketchError
from ..sketch.serialization import iter_grids
from ..util.hashing import hash64_many
from ..util.prime_field import MERSENNE_61, mul_vec_mod, shl32_vec_mod
from .digest import GridDigest, _coefficients, _fold_mod_rows

_P = MERSENNE_61

#: Seed of the per-group mixing coefficients for member digests.  A
#: member's columns across groups are folded into a single pair via
#: group-dependent coefficients so that compensating corruption in two
#: groups of the same member still (whp) changes the digest.
_GROUP_MIX_SEED = 0x5EED_0F_6B1D_517E

# groups -> (odd uint64 mix for w, nonzero residues mod p for sf)
_mix_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _group_mix(groups: int) -> Tuple[np.ndarray, np.ndarray]:
    cached = _mix_cache.get(groups)
    if cached is None:
        h = hash64_many(_GROUP_MIX_SEED, np.arange(groups, dtype=np.int64))
        mix_w = h | np.uint64(1)
        mix_m = ((h % np.uint64(_P - 1)) + np.uint64(1)).astype(np.int64)
        cached = (mix_w, mix_m)
        _mix_cache[groups] = cached
    return cached


# -- grid / sketch digest tables (coarse comparison) ---------------------


def grid_digest_table(grid) -> Dict[str, List[List[int]]]:
    """One grid's ``(group, row)`` digest matrix as JSON-able ints."""
    digest = GridDigest.compute(grid)
    return {"w": digest.w.tolist(), "sf": digest.sf.tolist()}


def sketch_digest_table(sketch) -> List[Dict[str, List[List[int]]]]:
    """Per-grid digest tables for any grid-composed sketch.

    The result is small — ``O(grids x groups x rows)`` integers — and
    JSON-serializable, so replicas exchange it in a frame header
    rather than a binary payload.
    """
    return [grid_digest_table(g) for g in iter_grids(sketch)]


def table_fingerprint(table: List[Dict[str, List[List[int]]]]) -> str:
    """A short stable hash of a digest table (for grouping replicas)."""
    blob = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def diff_digest_tables(
    ours: List[Dict[str, List[List[int]]]],
    theirs: List[Dict[str, List[List[int]]]],
) -> List[Tuple[int, int, int]]:
    """``(grid, group, row)`` triples where two digest tables disagree.

    Raises :class:`~repro.errors.IncompatibleSketchError` when the
    tables have different shapes — replicas of one sketch always share
    a config, so a shape mismatch means the comparison itself is wrong.
    """
    if len(ours) != len(theirs):
        raise IncompatibleSketchError(
            f"digest tables have {len(ours)} vs {len(theirs)} grids"
        )
    out: List[Tuple[int, int, int]] = []
    for gi, (a, b) in enumerate(zip(ours, theirs)):
        a_w, b_w = np.asarray(a["w"]), np.asarray(b["w"])
        a_sf, b_sf = np.asarray(a["sf"]), np.asarray(b["sf"])
        if a_w.shape != b_w.shape or a_sf.shape != b_sf.shape:
            raise IncompatibleSketchError(
                f"digest tables disagree on grid {gi} shape"
            )
        neq = (a_w != b_w) | (a_sf != b_sf)
        for g, r in zip(*np.nonzero(neq)):
            out.append((gi, int(g), int(r)))
    return out


# -- per-member digests (fine repair localization) -----------------------


def member_digest_table(grid) -> Dict[str, List[int]]:
    """One digest pair per member column of ``grid``.

    For each member ``m``:

    * ``w[m]  = Σ_g mix_w[g] · Σ_cell c_w[cell] · w[g, m, cell]   (mod 2^64)``
    * ``sf[m] = Σ_g mix_m[g] · Σ_cell c_m[cell] · x[g, m, cell]   (mod p)``

    reusing the audit layer's per-cell coefficient stream (reshaped to
    the ``(member, level, row, bucket)`` block of one group) and mixing
    groups with :data:`_GROUP_MIX_SEED` coefficients.  Linear, so
    bit-identical columns always digest identically.
    """
    cells_per_group = grid.members * grid.levels * grid.rows * grid.buckets
    c_w, c_m = _coefficients(cells_per_group)
    shape4 = (grid.members, grid.levels, grid.rows, grid.buckets)
    c_w4 = c_w.reshape(shape4)
    c_m4 = c_m.reshape(shape4)
    mix_w, mix_m = _group_mix(grid.groups)
    total_w = np.zeros(grid.members, dtype=np.uint64)
    total_sf = np.zeros(grid.members, dtype=np.int64)
    for g in range(grid.groups):
        with np.errstate(over="ignore"):
            per_w = (c_w4 * grid._w[g].astype(np.uint64)).sum(
                axis=(1, 2, 3), dtype=np.uint64
            )
            total_w += per_w * mix_w[g]
        s_res = grid._s[g] % np.int64(_P)
        f_res = grid._f[g] % np.int64(_P)
        x = s_res + shl32_vec_mod(f_res.astype(np.uint64)).astype(np.int64)
        x = np.where(x >= _P, x - _P, x)
        per_sf = _fold_mod_rows(mul_vec_mod(c_m4, x), "mlrb->m")
        mixed = mul_vec_mod(
            np.full(grid.members, int(mix_m[g]), dtype=np.int64), per_sf
        )
        total_sf = (total_sf + mixed) % _P
    return {"w": total_w.tolist(), "sf": total_sf.tolist()}


def divergent_members(
    ours: Dict[str, List[int]], theirs: Dict[str, List[int]]
) -> List[int]:
    """Member indices whose digest pairs differ between two tables."""
    if len(ours["w"]) != len(theirs["w"]):
        raise IncompatibleSketchError(
            f"member digest tables have {len(ours['w'])} vs "
            f"{len(theirs['w'])} members"
        )
    a_w, b_w = np.asarray(ours["w"]), np.asarray(theirs["w"])
    a_sf, b_sf = np.asarray(ours["sf"]), np.asarray(theirs["sf"])
    neq = (a_w != b_w) | (a_sf != b_sf)
    return [int(m) for m in np.nonzero(neq)[0]]
