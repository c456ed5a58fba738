"""Vertex-connectivity *queries* in dynamic graph streams (Theorem 4).

The warm-up construction of Section 3.1: maintain
``R = O(k² ln n)`` vertex-sampled graphs ``G_i`` (each vertex kept with
probability ``1/k``), sketch a spanning forest ``T_i`` of each, and let
``H = T_1 ∪ ... ∪ T_R``.  Lemma 3: for any query set ``S`` of at most
``k`` vertices, w.h.p. ``H \\ S`` is connected iff ``G \\ S`` is — so
after the stream ends, arbitrary "does removing S disconnect the
graph?" queries are answered by a BFS on the small certificate ``H``.

Space is ``R × O((n/k) polylog n) = O(kn polylog n)``, which Theorem 5
proves optimal (see :mod:`repro.lowerbounds.reductions` for the
executable reduction).

The same class serves hypergraphs (``r > 2``): Section 4.1 notes that
substituting the hypergraph spanning-graph sketch of Theorem 13 makes
the vertex-connectivity results "go through for hypergraphs
unchanged".
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..errors import DomainError
from ..graph.traversal import hypergraph_is_connected_excluding
from ..util.rng import normalize_seed
from ._sampled import SampledForestUnion
from .degraded import REASON_CORRUPTION, REASON_PARTIAL_CERTIFICATE, DegradedResult
from .params import DEFAULT_PARAMS, Params


class VertexConnectivityQuerySketch:
    """Answers "does removing S (|S| <= k) disconnect G?" post-stream.

    Parameters
    ----------
    n:
        Number of vertices.
    k:
        Maximum query-set size the structure must support.
    r:
        Hyperedge rank bound; ``r = 2`` (default) is the graph case of
        Theorem 4, larger ``r`` the hypergraph extension of
        Section 4.1.
    seed:
        Randomness seed.
    repetitions:
        Override for the repetition count ``R`` (defaults to the
        profile's ``ceil(c · k² · ln n)``).
    params:
        Constant-factor profile (:class:`repro.core.params.Params`).
    """

    def __init__(
        self,
        n: int,
        k: int,
        r: int = 2,
        seed: Optional[int] = None,
        repetitions: Optional[int] = None,
        params: Params = DEFAULT_PARAMS,
    ):
        self.n = n
        self.k = k
        self.r = r
        self.params = params
        reps = repetitions if repetitions is not None else params.query_repetitions(n, k)
        self._union = SampledForestUnion(
            n, k=k, repetitions=reps, r=r, seed=normalize_seed(seed), params=params
        )

    # -- streaming ------------------------------------------------------

    def insert(self, edge: Sequence[int]) -> None:
        """Stream insertion of a (hyper)edge."""
        self._union.insert(edge)

    def delete(self, edge: Sequence[int]) -> None:
        """Stream deletion of a (hyper)edge."""
        self._union.delete(edge)

    def update(self, edge: Sequence[int], sign: int) -> None:
        """Signed stream update (+1 insert, -1 delete)."""
        self._union.update(edge, sign)

    def update_batch(self, updates) -> int:
        """Apply a batch of signed updates (``EdgeUpdate`` or
        ``(edge, sign)``) through the union's one kernel; see
        :meth:`SampledForestUnion.update_batch`."""
        return self._union.update_batch(updates)

    # -- queries ------------------------------------------------------------

    def certificate(self):
        """The union certificate H (decoded once, then cached)."""
        return self._union.decode_union()

    def disconnects(self, removed: Iterable[int]) -> bool:
        """True if deleting the vertex set ``removed`` disconnects G.

        ``removed`` may have at most ``k`` vertices — the guarantee of
        Lemma 3 is quantified over sets of size <= k only, so larger
        queries are refused rather than silently unreliable.
        """
        S = set(removed)
        if len(S) > self.k:
            raise DomainError(
                f"query set has {len(S)} vertices, structure supports <= {self.k}"
            )
        for v in S:
            if not 0 <= v < self.n:
                raise DomainError(f"query vertex {v} outside [0, {self.n})")
        H = self.certificate()
        return not hypergraph_is_connected_excluding(H, S)

    def disconnects_degraded(
        self, removed: Iterable[int], metrics=None,
        exclude_instances: Iterable[int] = (),
    ) -> DegradedResult:
        """:meth:`disconnects` with honest degradation accounting.

        Decodes every one of the R vertex-sampled instances *strictly*
        (detectable probabilistic failures surface instead of being
        silently absorbed).  Instances that fail are skipped — the
        repetitions are independently seeded, so the surviving union is
        still a valid (weaker) certificate — and the answer comes back
        as a :class:`~repro.core.degraded.DegradedResult`: full
        strength when every instance decoded, otherwise degraded with
        reason ``partial-certificate`` and the failure count in the
        detail.  ``exclude_instances`` lists instance ids to drop
        *before* decoding — the route for
        :meth:`~repro.audit.integrity.AuditReport.corrupted_instances`
        findings, so a bank the audit flagged can never contribute
        edges; exclusions make the answer degraded with reason
        ``corruption-excluded``.  ``metrics`` (a
        :class:`~repro.engine.query.QueryMetrics` or compatible) has
        ``degraded_queries`` incremented per degraded answer.
        """
        S = set(removed)
        if len(S) > self.k:
            raise DomainError(
                f"query set has {len(S)} vertices, structure supports <= {self.k}"
            )
        for v in S:
            if not 0 <= v < self.n:
                raise DomainError(f"query vertex {v} outside [0, {self.n})")
        excluded = sorted(set(exclude_instances))
        H, failed = self._union.decode_union_accounted(exclude=excluded)
        answer = not hypergraph_is_connected_excluding(H, S)
        if not failed:
            return DegradedResult(value=answer, degraded=False, mode="full")
        if metrics is not None:
            metrics.degraded_queries += 1
        reason = REASON_CORRUPTION if excluded else REASON_PARTIAL_CERTIFICATE
        return DegradedResult(
            value=answer,
            degraded=True,
            mode="partial-certificate",
            reason=reason,
            detail=(
                f"{len(failed)} of {self.repetitions} sampled instances "
                f"unavailable (ids {failed[:8]}{'...' if len(failed) > 8 else ''}"
                + (f"; {len(excluded)} excluded as corrupted" if excluded else "")
                + "); answered from the surviving union"
            ),
        )

    def is_connected(self) -> bool:
        """Whether the sketched graph itself appears connected (S = ∅)."""
        return hypergraph_is_connected_excluding(self.certificate(), ())

    def find_disconnecting_set(self, max_size: Optional[int] = None):
        """Search for a smallest vertex set (<= max_size) that disconnects.

        Post-processing on the certificate H: enumerates candidate sets
        in increasing size (so the first hit has minimum cardinality
        among sets up to the bound) and returns it, or ``None`` when no
        set of the allowed size disconnects.  Each candidate's answer
        carries the per-query guarantee of Lemma 3, so the returned set
        genuinely disconnects G w.h.p. — this turns the query structure
        into a vertex-connectivity *certificate extractor* for
        κ(G) <= k.

        Cost is O(n^max_size) connectivity checks on the small H; the
        intended regime is the paper's constant k.
        """
        from itertools import combinations

        limit = self.k if max_size is None else max_size
        if limit > self.k:
            raise DomainError(
                f"max_size {limit} exceeds the structure's bound k={self.k}"
            )
        H = self.certificate()
        if limit >= 1 and self.r == 2 and H.num_edges:
            # Size-1 fast path on rank-2 certificates: articulation
            # points answer every singleton query in linear time.
            from ..graph.articulation import articulation_points

            g = H.to_graph()
            if not g.is_connected():
                # Already disconnected: any single vertex (with >= 2
                # survivors) "disconnects" by the query convention.
                for S in combinations(range(self.n), 1):
                    if not hypergraph_is_connected_excluding(H, S):
                        return set(S)
            pts = articulation_points(g)
            if pts:
                return {min(pts)}
            start = 2
        else:
            start = 1
        for size in range(start, limit + 1):
            for S in combinations(range(self.n), size):
                if not hypergraph_is_connected_excluding(H, S):
                    return set(S)
        return None

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
