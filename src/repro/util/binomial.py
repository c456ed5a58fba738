"""Combinatorial ranking for hyperedge coordinates.

The paper's linear measurements (Definition 1) index coordinates by
subsets of ``V`` of size between 2 and ``r``.  To sketch such vectors
we need a bijection between those subsets and an integer interval
``[0, D)``; this module provides the standard *combinatorial number
system* (colex order) ranking, partitioned by subset size: all pairs
come first, then all triples, and so on.

Everything here is exact integer arithmetic — the domain ``D`` grows
like ``n**r`` and must not lose precision (coordinate indices feed the
modular index-sum counters of 1-sparse cells).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import isqrt
from typing import Sequence, Tuple

import numpy as np

from ..errors import DomainError, RankError


@lru_cache(maxsize=None)
def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), 0 for out-of-range arguments.

    The result is always a Python int: ``np.int64(5)`` and ``5`` share
    a cache entry, so a numpy-typed value computed here would be handed
    to every later caller.
    """
    n, k = operator.index(n), operator.index(k)
    if k < 0 or k > n or n < 0:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def colex_rank(subset: Sequence[int]) -> int:
    """Rank a strictly increasing subset in colexicographic order.

    Among all ``k``-subsets of the nonnegative integers, colex order
    ranks ``{c_1 < c_2 < ... < c_k}`` as ``sum_i C(c_i, i)``.
    """
    rank = 0
    for i, c in enumerate(subset, start=1):
        rank += binom(c, i)
    return rank


def colex_unrank(rank: int, k: int) -> Tuple[int, ...]:
    """Invert :func:`colex_rank` for ``k``-subsets.

    Each element is the largest ``c`` with ``C(c, i) <= rank``: the
    rank itself for ``i = 1``; for ``i = 2`` the closed form
    ``(1 + isqrt(8 rank + 1)) // 2`` (``c (c - 1) / 2 <= rank`` iff
    ``(2c - 1)^2 <= 8 rank + 1``), so pairs cost O(1) and no
    :func:`binom` call; a doubling search plus bisection for ``i >= 3``.
    """
    out = []
    r = rank
    for i in range(k, 0, -1):
        if i == 1:
            c = r
        elif i == 2:
            c = (1 + isqrt(8 * r + 1)) // 2
            r -= c * (c - 1) // 2
        else:
            lo, hi = i - 1, i
            while binom(hi, i) <= r:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:  # C(lo, i) <= r < C(hi, i)
                mid = (lo + hi) // 2
                if binom(mid, i) <= r:
                    lo = mid
                else:
                    hi = mid
            c = lo
            r -= binom(c, i)
        out.append(c)
    out.reverse()
    return tuple(out)


class EdgeSpace:
    """The coordinate space of hyperedges on ``n`` vertices, rank <= r.

    Coordinates ``[0, D)`` enumerate subsets of ``{0..n-1}`` of size
    2, 3, ..., r in blocks (all pairs, then all triples, ...).  The
    special case ``r = 2`` is the ordinary graph edge space with
    ``D = C(n, 2)``.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids are ``0 .. n-1``.
    r:
        Maximum hyperedge cardinality (the paper's constant ``r``).
    """

    __slots__ = ("n", "r", "_block_offsets", "dimension")

    def __init__(self, n: int, r: int = 2):
        if n < 2:
            raise DomainError(f"EdgeSpace needs n >= 2, got n={n}")
        if r < 2 or r > n:
            raise RankError(f"EdgeSpace needs 2 <= r <= n, got r={r}, n={n}")
        self.n = n
        self.r = r
        offsets = {}
        total = 0
        for size in range(2, r + 1):
            offsets[size] = total
            total += binom(n, size)
        self._block_offsets = offsets
        #: Total number of coordinates D = sum_{i=2..r} C(n, i).
        self.dimension = total
        if self.dimension >= (1 << 61) - 1:
            raise DomainError(
                "edge space dimension exceeds the 2^61-1 fingerprint field; "
                f"n={n}, r={r} is out of supported range"
            )

    def canonical(self, edge: Sequence[int]) -> Tuple[int, ...]:
        """Validate and sort a hyperedge into canonical (sorted) form.

        Each vertex goes through ``operator.index``: a numpy integer
        becomes a Python int, so every rank is one, and a float or
        string vertex is a :class:`DomainError`.
        """
        try:
            e = tuple(sorted(map(operator.index, edge)))
        except TypeError:
            raise DomainError(
                f"hyperedge {edge!r} is not a sequence of integer vertices"
            ) from None
        if len(e) < 2 or len(e) > self.r:
            raise RankError(
                f"hyperedge {tuple(edge)} has cardinality {len(e)}, "
                f"allowed range is [2, {self.r}]"
            )
        if len(set(e)) != len(e):
            raise DomainError(f"hyperedge {tuple(edge)} has repeated vertices")
        if e[0] < 0 or e[-1] >= self.n:
            raise DomainError(
                f"hyperedge {tuple(edge)} mentions a vertex outside [0, {self.n})"
            )
        return e

    def index_of(self, edge: Sequence[int]) -> int:
        """Map a hyperedge to its coordinate in ``[0, D)``."""
        e = self.canonical(edge)
        return self._block_offsets[len(e)] + colex_rank(e)

    def _check_index(self, low: int, high: int) -> None:
        if low < 0 or high >= self.dimension:
            bad = low if low < 0 else high
            raise DomainError(
                f"coordinate {bad} outside edge space of dimension {self.dimension}"
            )

    def edge_of(self, index: int) -> Tuple[int, ...]:
        """Invert :meth:`index_of`."""
        self._check_index(index, index)
        size = 2
        while size < self.r and index >= self._block_offsets[size + 1]:
            size += 1
        return colex_unrank(index - self._block_offsets[size], size)

    def edges_of(self, indices) -> np.ndarray:
        """Vectorised :meth:`edge_of`: an ``(m, r)`` ``int64`` array.

        Row ``i`` holds the sorted vertices of hyperedge ``indices[i]``;
        hyperedges smaller than ``r`` are right-padded with ``-1`` (so
        for ``r = 2`` the result is the plain ``(m, 2)`` endpoint
        array).  Pairs are unranked for the whole array at once — a
        float square root, then an integer fix-up that makes the result
        exact over the whole ``2^61`` domain; larger hyperedges go
        through :func:`colex_unrank` one by one.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        out = np.full((idx.size, self.r), -1, dtype=np.int64)
        if idx.size == 0:
            return out
        self._check_index(int(idx.min()), int(idx.max()))
        pairs = idx < binom(self.n, 2)
        rank = idx[pairs]
        c = ((1.0 + np.sqrt(8.0 * rank + 1.0)) / 2.0).astype(np.int64)
        c -= c * (c - 1) // 2 > rank
        c += c * (c + 1) // 2 <= rank
        out[pairs, 0] = rank - c * (c - 1) // 2
        out[pairs, 1] = c
        for i in np.flatnonzero(~pairs).tolist():
            edge = self.edge_of(int(idx[i]))
            out[i, : len(edge)] = edge
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeSpace(n={self.n}, r={self.r}, dimension={self.dimension})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeSpace)
            and self.n == other.n
            and self.r == other.r
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r))
