"""Result certification: answers that carry re-verified witnesses.

The paper's guarantees are Monte Carlo — a decode is only correct with
probability 1 − δ — and the decode path itself is intricate enough to
be a fault surface of its own.  Certification closes the loop by
re-deriving the answer from the *witness* (the forest/skeleton edges
the one-sparse fingerprint test recovered), through checks that are
independent of the Borůvka/peeling decode logic:

* **membership** — every witness edge touches only active vertices,
  and (when a reference edge set is supplied, e.g. the
  :class:`~repro.stream.updates.StreamValidator`'s live graph) is a
  genuine edge of the sketched graph;
* **completeness** — for every component the witness implies and every
  independent sketch group, the summed boundary sketch
  ``Σ_{v∈C} a_v`` must be *exactly zero*: a true component's internal
  edge coefficients cancel identically, so any nonzero counter proves
  the decode stopped early (an outgoing edge exists that the answer
  ignored).  This check rejects under-merged answers deterministically
  and accepts true answers deterministically — its only failure mode
  is the ~2^-61 chance that a nonzero boundary vector digests to zero
  in *every* group;
* **consistency** — skeleton layers must be edge-disjoint, as the
  peeling construction promises.

Every certified query returns a :class:`CertifiedResult`: the value,
the witness edges, whether every check passed, and the failures when
not — never a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.hypergraph import Hypergraph
from ..graph.union_find import UnionFind

Edge = Tuple[int, ...]


@dataclass(frozen=True)
class CertifiedResult:
    """A query answer plus the evidence that re-verified it.

    ``witness`` is the recovered edge set the answer is derived from;
    ``verified`` is True iff every independent check passed (``checks``
    counts them, ``failures`` describes the ones that did not).
    ``confidence`` is populated by the amplification layer when the
    answer came from a majority vote.
    """

    value: Any
    witness: Tuple[Edge, ...]
    verified: bool
    checks: int
    failures: Tuple[str, ...] = ()
    method: str = "spanning-forest"
    confidence: Optional[float] = None

    def __bool__(self) -> bool:
        raise TypeError(
            "CertifiedResult has no truth value; use .value (and check "
            ".verified) instead"
        )

    def summary(self) -> str:
        status = "VERIFIED" if self.verified else "NOT VERIFIED"
        lines = [
            f"{status} ({self.method}): {self.checks} checks, "
            f"{len(self.witness)} witness edges"
            + (f", confidence={self.confidence:.3f}"
               if self.confidence is not None else "")
        ]
        for f in self.failures[:8]:
            lines.append(f"  FAIL: {f}")
        if len(self.failures) > 8:
            lines.append(f"  ... and {len(self.failures) - 8} more")
        return "\n".join(lines)


def _canonical(edges: Iterable[Sequence[int]]) -> List[Edge]:
    return [tuple(sorted(int(v) for v in e)) for e in edges]


def _active_components(sketch, edges: Iterable[Edge]) -> List[List[int]]:
    """Components of the active vertex set under the witness edges."""
    member_of = sketch._member_of
    uf = UnionFind(len(sketch.vertices))
    for e in edges:
        uf.union_many([member_of[v] for v in e])
    groups = {}
    for v in sketch.vertices:
        groups.setdefault(uf.find(member_of[v]), []).append(v)
    return sorted((sorted(c) for c in groups.values()), key=lambda c: c[0])


def _boundary_failures(
    sketch, components: List[List[int]], minus: Sequence[Edge] = ()
) -> Tuple[List[str], int]:
    """The completeness check: every claimed component, every group, of
    the sketch of ``G − minus`` (``minus`` is subtracted from the
    summed boundary sketches, never from the sketch).

    One ``summed_many`` + ``appears_zero_many`` pass per group covers
    every component at once; a component's check count stops at its
    first nonzero group (one proof per component suffices).
    """
    failures: List[str] = []
    checks = 0
    grid = sketch.grid
    member_of = sketch._member_of
    member_lists = [[member_of[v] for v in comp] for comp in components]
    comp_of = np.empty(grid.members, dtype=np.int64)
    for ci, members in enumerate(member_lists):
        comp_of[members] = ci
    drop_members, *drop = sketch.incidence([(e, 1) for e in minus])
    zero = []
    for group in range(grid.groups):
        batch = grid.summed_many(group, member_lists)
        batch.subtract(comp_of[drop_members], *drop)
        zero.append(batch.appears_zero_many())
    zero = np.stack(zero)
    for ci, comp in enumerate(components):
        nonzero_groups = np.flatnonzero(~zero[:, ci])
        if nonzero_groups.size:
            group = int(nonzero_groups[0])
            checks += group + 1
            failures.append(
                f"claimed component {{{comp[0]}, ...}} (size "
                f"{len(comp)}) has a nonzero boundary sketch in "
                f"group {group}: an outgoing edge was missed"
            )
        else:
            checks += grid.groups
    return failures, checks


def _membership_failures(
    sketch, witness: List[Edge], reference: Optional[Set[Edge]]
) -> Tuple[List[str], List[Edge], int]:
    """Witness edges must be active-vertex (and reference, if given) edges."""
    failures: List[str] = []
    usable: List[Edge] = []
    checks = 0
    for e in witness:
        checks += 1
        if not sketch.contains_vertexwise(e):
            failures.append(f"witness edge {e} touches an inactive vertex")
            continue
        if reference is not None and e not in reference:
            failures.append(
                f"witness edge {e} is not an edge of the reference graph"
            )
            continue
        usable.append(e)
    return failures, usable, checks


def certify_spanning_forest(
    sketch, reference_edges: Optional[Iterable[Sequence[int]]] = None
) -> CertifiedResult:
    """Decode a spanning forest and re-verify it independently.

    ``sketch`` is a :class:`~repro.sketch.spanning_forest.
    SpanningForestSketch`.  The result's ``value`` is the list of
    components (of the active vertex set) the witness forest implies —
    re-derived with a plain union-find, then proven complete by the
    boundary-zero check.  ``reference_edges``, when supplied (e.g. from
    a stream validator's live graph), additionally pins every witness
    edge to the true graph.
    """
    forest = sketch.decode()
    witness = sorted(set(_canonical(forest.edges())))
    reference = (
        None if reference_edges is None else set(_canonical(reference_edges))
    )
    failures, usable, checks = _membership_failures(sketch, witness, reference)
    components = _active_components(sketch, usable)
    boundary_failures, boundary_checks = _boundary_failures(sketch, components)
    failures.extend(boundary_failures)
    checks += boundary_checks
    return CertifiedResult(
        value=components,
        witness=tuple(witness),
        verified=not failures,
        checks=checks,
        failures=tuple(failures),
        method="spanning-forest",
    )


def certify_connectivity(
    sketch, reference_edges: Optional[Iterable[Sequence[int]]] = None
) -> CertifiedResult:
    """Certified "is the sketched graph connected?" (value: bool)."""
    cert = certify_spanning_forest(sketch, reference_edges)
    return replace(cert, value=len(cert.value) == 1, method="connectivity")


def certify_skeleton(
    skeleton, reference_edges: Optional[Iterable[Sequence[int]]] = None
) -> CertifiedResult:
    """Decode a k-skeleton and re-verify every peeled layer.

    ``skeleton`` is a :class:`~repro.sketch.skeleton.SkeletonSketch`.
    Layer ``i``'s forest is checked against the *peeled* graph
    ``G − F_1 − ... − F_{i−1}`` it claims to span (the boundary-zero
    check subtracts the earlier layers from its summed boundary
    sketches, so the sketch is only read), layers must be
    edge-disjoint, and every witness edge passes the membership checks.
    ``value`` is the skeleton hypergraph ``F_1 ∪ ... ∪ F_k``.
    """
    forests = skeleton.decode_layers()
    reference = (
        None if reference_edges is None else set(_canonical(reference_edges))
    )
    failures: List[str] = []
    checks = 0
    witness: List[Edge] = []
    recovered: List[Edge] = []
    for i, (layer, forest) in enumerate(zip(skeleton.layers, forests)):
        edges_i = sorted(set(_canonical(forest.edges())))
        layer_failures, usable, layer_checks = _membership_failures(
            layer, edges_i, reference
        )
        failures.extend(f"layer {i}: {f}" for f in layer_failures)
        checks += layer_checks
        seen = set(recovered)
        for e in edges_i:
            checks += 1
            if e in seen:
                failures.append(
                    f"layer {i}: witness edge {e} already appeared in an "
                    "earlier layer (layers must be edge-disjoint)"
                )
        boundary_failures, boundary_checks = _boundary_failures(
            layer, _active_components(layer, usable), minus=recovered
        )
        failures.extend(f"layer {i}: {f}" for f in boundary_failures)
        checks += boundary_checks
        witness.extend(edges_i)
        recovered.extend(edges_i)
    value = Hypergraph(skeleton.n, skeleton.r)
    for e in sorted(set(witness)):
        value.add_edge(e)
    return CertifiedResult(
        value=value,
        witness=tuple(witness),
        verified=not failures,
        checks=checks,
        failures=tuple(failures),
        method="k-skeleton",
    )


def certify_edge_connectivity(
    sketch, reference_edges: Optional[Iterable[Sequence[int]]] = None
) -> CertifiedResult:
    """Certified edge-connectivity estimate (value: λ̂, capped at k_max).

    ``sketch`` is an :class:`~repro.core.edge_connectivity_sketch.
    EdgeConnectivitySketch`; the skeleton is certified first and λ̂ is
    computed from the certified witness subgraph.
    """
    cert = certify_skeleton(sketch._skeleton, reference_edges)
    return replace(
        cert,
        value=sketch._estimate_from(cert.value),
        method="edge-connectivity",
    )
