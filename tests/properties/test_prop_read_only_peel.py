"""The read-only peel equals the mutate-and-decode peel it replaced.

The skeleton, light-edge, sparsifier and certification decoders decode
``G − F`` by subtracting ``F`` from each round's gathered component
sums.  The oracles below are the old algorithm: subtract ``F`` from the
live counters (of a ``copy()``, so no restore is needed), then decode.
Linearity makes the two byte-identical — weights are exact ``int64``
either way and the modular planes hold canonical residues either way —
so every forest, layer, flag and certificate must match exactly, on
dynamic streams at rank 2 and 3, strict and not, with skipped layers,
through the batch decode and through the scalar reference oracle.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.certify import (
    CertifiedResult,
    _active_components,
    _canonical,
    _membership_failures,
    certify_skeleton,
)
from repro.core.light_edges import LightEdgeRecoverySketch, _light_subset
from repro.core.sparsifier import HypergraphSparsifierSketch
from repro.errors import SketchDecodeError
from repro.graph.hypergraph import Hypergraph, WeightedHypergraph
from repro.sketch import reference
from repro.sketch.skeleton import SkeletonSketch

N = 7
MODES = pytest.mark.parametrize("mode", [nullcontext, reference.oracle],
                                ids=["batch_decode", "scalar_decode"])


@st.composite
def dynamic_streams(draw):
    """``(r, events)``: a signed stream of rank-``r`` hyperedges on N
    vertices in which every deletion removes a live edge."""
    r = draw(st.sampled_from([2, 3]))
    live, events = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        if live and draw(st.integers(0, 3)) == 0:
            edge = live.pop(draw(st.integers(0, len(live) - 1)))
            events.append((edge, -1))
            continue
        size = draw(st.integers(min_value=2, max_value=r))
        edge = tuple(sorted(draw(st.lists(
            st.integers(0, N - 1), min_size=size, max_size=size, unique=True,
        ))))
        if edge not in live:
            live.append(edge)
            events.append((edge, 1))
    return r, events


seeds = st.integers(min_value=0, max_value=2**31)


def _fed(sketch, events):
    for edge, sign in events:
        sketch.update(edge, sign)
    return sketch


def _outcome(read):
    """A read's answer, or the decode error it raised."""
    try:
        return "ok", _canon(read())
    except SketchDecodeError as exc:
        return "raised", type(exc).__name__


def _canon(answer):
    if isinstance(answer, WeightedHypergraph):
        return sorted(answer.weights.items())
    if isinstance(answer, Hypergraph):
        return answer.edges()
    if isinstance(answer, CertifiedResult):
        return answer.witness, answer.checks, answer.failures
    if isinstance(answer, (list, tuple)):
        return [_canon(part) for part in answer]
    return answer


# -- the old algorithm: write -F into a copy's counters, then decode ----


def old_decode_layers(skeleton, strict=False, skip=()):
    skeleton = skeleton.copy()
    forests, recovered = [], []
    for i, layer in enumerate(skeleton.layers):
        if i in skip:
            forests.append(Hypergraph(skeleton.n, skeleton.r))
            continue
        if recovered:
            layer.update_batch([(e, -1) for e in recovered])
        forest = layer.decode(strict=strict)
        forests.append(forest)
        recovered.extend(forest.edges())
    return forests


def old_recover_layers(light, skeleton):
    skeleton = skeleton.copy()
    layers = []
    for _ in range(light.max_iterations):
        union = Hypergraph(skeleton.n, skeleton.r)
        for forest in old_decode_layers(skeleton):
            for e in forest.edges():
                union.add_edge(e)
        if union.num_edges == 0:
            break
        layer = _light_subset(union, light.k)
        if not layer:
            break
        layers.append(layer)
        for e in layer:
            skeleton.update(e, -1)
    return layers, all(sk.grid.appears_zero() for sk in skeleton.layers)


def old_sparsifier_decode(sparsifier):
    out = WeightedHypergraph(sparsifier.n, sparsifier.r)
    assigned, complete = [], False
    for i, light in enumerate(sparsifier._sketches):
        skeleton = light._skeleton.copy()
        for e, depth in assigned:
            if depth >= i:
                skeleton.update(e, -1)
        layers, exhausted = old_recover_layers(light, skeleton)
        for e in (e for layer in layers for e in layer):
            out.add_weighted_edge(e, float(2 ** i))
            assigned.append((e, sparsifier.edge_depth(e)))
        if i == sparsifier.levels:
            complete = exhausted
    return out, complete


def old_certify_skeleton(skeleton):
    """Peel each layer's copy, then the scalar boundary loop."""
    failures, checks, witness, recovered = [], 0, [], []
    forests = old_decode_layers(skeleton)
    for i, (layer, forest) in enumerate(zip(skeleton.layers, forests)):
        edges_i = sorted(set(_canonical(forest.edges())))
        layer_failures, usable, layer_checks = _membership_failures(
            layer, edges_i, None
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
        peeled = layer.copy()
        if recovered:
            peeled.update_batch([(e, -1) for e in recovered])
        for comp in _active_components(peeled, usable):
            members = [peeled._member_of[v] for v in comp]
            for group in range(peeled.grid.groups):
                checks += 1
                boundary = reference.summed(peeled.grid, group, members)
                if not boundary.appears_zero():
                    failures.append(
                        f"layer {i}: claimed component {{{comp[0]}, ...}} "
                        f"(size {len(comp)}) has a nonzero boundary sketch "
                        f"in group {group}: an outgoing edge was missed"
                    )
                    break
        witness.extend(edges_i)
        recovered.extend(edges_i)
    return tuple(witness), checks, tuple(failures)


# -- properties ----------------------------------------------------------


@MODES
@given(dynamic_streams(), seeds, st.booleans(),
       st.lists(st.integers(0, 2), max_size=2))
@settings(max_examples=20, deadline=None)
def test_skeleton_layers_match_old_peel(mode, stream, seed, strict, skip):
    r, events = stream
    sketch = _fed(SkeletonSketch(N, k=3, r=r, seed=seed), events)
    with mode():
        got = _outcome(lambda: sketch.decode_layers(strict=strict, skip=skip))
        want = _outcome(lambda: old_decode_layers(sketch, strict, skip))
    assert got == want


@MODES
@given(dynamic_streams(), seeds)
@settings(max_examples=15, deadline=None)
def test_light_edge_layers_match_old_peel(mode, stream, seed):
    r, events = stream
    sketch = _fed(LightEdgeRecoverySketch(N, k=2, r=r, seed=seed), events)
    with mode():
        got = _canon(sketch.recover_layers())
        want = _canon(old_recover_layers(sketch, sketch._skeleton))
    assert got == want


@MODES
@given(dynamic_streams(), seeds)
@settings(max_examples=10, deadline=None)
def test_sparsifier_matches_old_peel(mode, stream, seed):
    r, events = stream
    sketch = _fed(
        HypergraphSparsifierSketch(N, r=r, seed=seed, k=2, levels=2), events
    )
    with mode():
        got = _canon(sketch.decode())
        want = _canon(old_sparsifier_decode(sketch))
    assert got == want


@MODES
@given(dynamic_streams(), seeds)
@settings(max_examples=15, deadline=None)
def test_certify_skeleton_matches_old_peel(mode, stream, seed):
    r, events = stream
    sketch = _fed(SkeletonSketch(N, k=3, r=r, seed=seed), events)
    with mode():
        got = _canon(certify_skeleton(sketch))
        want = old_certify_skeleton(sketch)
    assert got == want
