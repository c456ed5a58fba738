"""k-vertex-connectivity testing and estimation (Theorems 6-8).

Section 3.2 of the paper: with ``R = O(k² ε⁻¹ ln n)`` vertex-sampled
spanning forests, the union ``H`` satisfies (Corollary 7):

* if G is ``(1+ε)k``-vertex-connected then H is k-vertex-connected
  w.h.p.;
* if H is k-vertex-connected then G is (H is a subgraph of G — every
  sketched edge is fingerprint-verified, so under a valid dynamic
  stream, every multiplicity 0 or 1, acceptance is *sound* even when
  the randomness is unlucky).

:class:`KVertexConnectivityTester` exposes exactly that one-sided
test; :func:`estimate_vertex_connectivity` runs a geometric ladder of
testers in parallel over the same stream to locate κ(G) up to a
``(1+ε)``-ish factor with ``O(ε⁻¹ k n polylog n)`` total space
(Theorem 8's headline).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..errors import DomainError
from ..graph.hypergraph import Hypergraph
from ..graph.hypergraph_vertex_connectivity import (
    hypergraph_vertex_connectivity,
    is_k_vertex_connected_hypergraph,
)
from ..util.hashing import derive_seed
from ..util.rng import normalize_seed
from ._sampled import SampledForestUnion
from .params import DEFAULT_PARAMS, Params


class KVertexConnectivityTester:
    """One-sided tester: distinguishes (1+ε)k-connected from not-k-connected.

    The certificate H is a hypergraph of the rank ``r`` the tester was
    built with (Section 4.1: with the Theorem 13 sketch the results "go
    through for hypergraphs unchanged"), and the post-processing is
    :mod:`repro.graph.hypergraph_vertex_connectivity`.  At ``r = 2``
    that hands H to the graph algorithm of Section 3.  At ``r > 2`` it
    is the strong-deletion enumeration, which has no known polynomial
    algorithm: it tries removal sets of size < k on the small
    certificate, O(n^k) connectivity checks — fine in the paper's
    constant-k regime.
    """

    def __init__(
        self,
        n: int,
        k: int,
        epsilon: float = 0.5,
        seed: Optional[int] = None,
        repetitions: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
        *,
        r: int = 2,
    ):
        if epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {epsilon}")
        self.n = n
        self.k = k
        self.r = r
        self.epsilon = epsilon
        self.params = params
        reps = (
            repetitions
            if repetitions is not None
            else params.tester_repetitions(n, k, epsilon)
        )
        self._union = SampledForestUnion(
            n, k=k, repetitions=reps, r=r, seed=normalize_seed(seed), params=params
        )

    # -- streaming ------------------------------------------------------

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of an edge."""
        self._union.insert(edge)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of an edge."""
        self._union.delete(edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        self._union.update(edge, sign)

    def update_batch(self, updates) -> int:
        """Apply a batch of signed updates (``EdgeUpdate`` or
        ``(edge, sign)``) through the union's one kernel; see
        :meth:`SampledForestUnion.update_batch`."""
        return self._union.update_batch(updates)

    # -- queries ------------------------------------------------------------

    def certificate(self) -> Hypergraph:
        """The union certificate H."""
        return self._union.decode_union()

    def accepts(self) -> bool:
        """True iff the certificate H is k-vertex-connected.

        Acceptance certifies κ(G) >= k (H ⊆ G); rejection means
        κ(G) < (1+ε)k w.h.p.
        """
        return is_k_vertex_connected_hypergraph(self.certificate(), self.k)

    def certificate_connectivity(self) -> int:
        """κ(H) — a lower bound on κ(G), and >= k w.h.p. when
        κ(G) >= (1+ε)k."""
        return hypergraph_vertex_connectivity(self.certificate())

    # -- accounting -----------------------------------------------------------

    @property
    def repetitions(self) -> int:
        """The number R of vertex-sampled instances."""
        return self._union.repetitions

    def space_counters(self) -> int:
        """Machine words of sketch state."""
        return self._union.space_counters()

    def space_bytes(self) -> int:
        """Bytes of sketch state."""
        return self._union.space_bytes()


class VertexConnectivityEstimator:
    """Geometric ladder of testers estimating κ(G) up to ~(1+ε).

    Maintains testers for ``k = 1, ⌈(1+ε)⌉-spaced, ..., k_max`` over
    the same stream; the estimate is the largest ladder value whose
    tester accepts.  Space is the sum over the ladder —
    ``O(ε⁻¹ k_max n polylog n)`` as in Theorem 8 (the ladder adds a
    ``log_{1+ε} k_max`` factor absorbed into the polylog).
    """

    def __init__(
        self,
        n: int,
        k_max: int,
        epsilon: float = 0.5,
        seed: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
    ):
        if k_max < 1:
            raise DomainError(f"k_max must be >= 1, got {k_max}")
        self.n = n
        self.k_max = k_max
        self.epsilon = epsilon
        self.params = params
        master = normalize_seed(seed)
        ladder: List[int] = []
        k = 1
        while k <= k_max:
            ladder.append(k)
            k = max(k + 1, math.ceil(k * (1 + epsilon)))
        self.ladder = ladder
        self.testers = [
            KVertexConnectivityTester(
                n,
                k=k,
                epsilon=epsilon,
                seed=derive_seed(master, 0xE57, k),
                params=params,
            )
            for k in ladder
        ]

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion (fans out to every ladder tester)."""
        for t in self.testers:
            t.insert(edge)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion."""
        for t in self.testers:
            t.delete(edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update."""
        for t in self.testers:
            t.update(edge, sign)

    def update_batch(self, updates) -> int:
        """Apply a batch of signed updates to every ladder tester."""
        updates = updates if isinstance(updates, list) else list(updates)
        for t in self.testers:
            t.update_batch(updates)
        return len(updates)

    def estimate(self) -> int:
        """The largest ladder k whose tester accepts (0 if none).

        Guarantees (w.h.p.): the estimate never exceeds κ(G), and is at
        least the largest ladder value below κ(G)/(1+ε).
        """
        best = 0
        for k, tester in zip(self.ladder, self.testers):
            if tester.accepts():
                best = k
        return best

    def space_counters(self) -> int:
        """Machine words across the ladder."""
        return sum(t.space_counters() for t in self.testers)

    def space_bytes(self) -> int:
        """Bytes across the ladder."""
        return sum(t.space_bytes() for t in self.testers)
