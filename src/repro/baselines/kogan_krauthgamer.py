"""Insert-only hypergraph sparsification in the spirit of
Kogan–Krauthgamer ([23] in the paper).

The paper cites [23] as "the first stream algorithm for hypergraph
sparsification in the insert-only model" and positions Theorem 20 as
the first to also support deletions.  This baseline implements the
standard merge-and-reduce template such insert-only algorithms use:

* buffer incoming hyperedges;
* whenever the working summary exceeds a size budget, *re-sparsify*
  offline (here: one Lemma-18 step — peel light edges exactly, halve
  the rest by sampling with doubled weights), which only ever shrinks
  the summary at bounded quality loss per reduction.

Deletions raise :class:`~repro.errors.StreamError`: structurally, a
merge-and-reduce summary cannot "unsample" a discarded edge — that is
the gap the paper's linear sketches close.  (This is a faithful
*template* of [23], not a line-by-line reproduction of their
parameters; experiment E8 uses it as the insert-only comparator.)
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..errors import DomainError, StreamError
from ..graph.degeneracy import light_edges_exact
from ..graph.hypergraph import Hyperedge, Hypergraph, WeightedHypergraph
from ..util.rng import rng_from


class InsertOnlyHypergraphSparsifier:
    """Merge-and-reduce insert-only hypergraph sparsifier.

    Parameters
    ----------
    n, r:
        Hypergraph shape.
    k:
        Lightness threshold for the reduce step (plays the role of the
        paper's ``O(ε⁻²(log n + r))``).
    budget:
        Re-sparsify whenever the summary holds more weighted edges.
    seed:
        Sampling randomness.
    """

    def __init__(
        self,
        n: int,
        r: int,
        k: int,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        if k < 1:
            raise DomainError(f"need k >= 1, got {k}")
        self.n = n
        self.r = r
        self.k = k
        self.budget = budget if budget is not None else max(4 * k * n, 64)
        self._rng = rng_from(seed, 0x1A5)
        self._summary: Dict[Hyperedge, float] = {}
        self._reductions = 0

    def insert(self, edge: Sequence[int]) -> None:
        """Buffer an insertion, reducing when over budget."""
        e = tuple(sorted(edge))
        self._summary[e] = self._summary.get(e, 0.0) + 1.0
        if len(self._summary) > self.budget:
            self._reduce()

    def delete(self, edge: Sequence[int]) -> None:
        """Insert-only: deletions are structurally unsupported."""
        raise StreamError(
            "insert-only merge-and-reduce summaries cannot process deletions; "
            "this is the gap the dynamic sketch of Theorem 20 closes"
        )

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        if sign > 0:
            self.insert(edge)
        else:
            self.delete(edge)

    def _reduce(self) -> None:
        """One Lemma-18 step: keep light edges, halve the heavy rest."""
        support = Hypergraph(self.n, self.r, self._summary.keys())
        light = light_edges_exact(support, self.k)
        reduced: Dict[Hyperedge, float] = {}
        for e, w in self._summary.items():
            if e in light:
                reduced[e] = w
            elif self._rng.random() < 0.5:
                reduced[e] = 2.0 * w
        self._summary = reduced
        self._reductions += 1

    def sparsifier(self) -> WeightedHypergraph:
        """The current summary as a weighted hypergraph."""
        out = WeightedHypergraph(self.n, self.r)
        for e, w in self._summary.items():
            out.add_weighted_edge(e, w)
        return out

    @property
    def reductions(self) -> int:
        """Number of reduce steps performed."""
        return self._reductions

    def space_counters(self) -> int:
        """Words for the weighted summary."""
        return sum(len(e) + 1 for e in self._summary)
