"""A read is pure: every peeling decoder runs on read-only counters.

The skeleton, light-edge, sparsifier and certification decoders peel
``G − F`` by subtracting the known edges ``F`` from the gathered
component sums, never from the live grids.  Each test here locks every
grid's counters — the block *and* its ``_w`` / ``_s`` / ``_f`` views,
which keep their own writeable flag — and then asserts that the read
succeeds and leaves ``update_count``, ``_epoch`` and the serialized
state exactly as they were.
"""

from contextlib import nullcontext

import pytest

from repro.audit.certify import certify_skeleton
from repro.core.light_edges import LightEdgeRecoverySketch
from repro.core.sparsifier import HypergraphSparsifierSketch
from repro.graph.generators import random_connected_graph
from repro.graph.hypergraph import Hypergraph, WeightedHypergraph
from repro.sketch import reference
from repro.sketch.serialization import dump_sketch
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch

N = 12
GRAPH = random_connected_graph(N, 14, seed=21)


def _skeletons(sketch):
    """The skeleton sketches holding ``sketch``'s counters."""
    if isinstance(sketch, HypergraphSparsifierSketch):
        return [level._skeleton for level in sketch._sketches]
    if isinstance(sketch, LightEdgeRecoverySketch):
        return [sketch._skeleton]
    return [sketch]


def _grids(sketch):
    if isinstance(sketch, SpanningForestSketch):
        return [sketch.grid]
    return [layer.grid for sk in _skeletons(sketch) for layer in sk.layers]


def _state(sketch):
    grids = _grids(sketch)
    return (
        [g.update_count for g in grids],
        [g._epoch for g in grids],
        [dump_sketch(sk) for sk in _skeletons(sketch)],
    )


def _lock(sketch):
    for grid in _grids(sketch):
        for plane in (grid._block, grid._w, grid._s, grid._f):
            plane.flags.writeable = False


def _canon(answer):
    """A comparable form of any reader's answer."""
    if isinstance(answer, WeightedHypergraph):
        return sorted(answer.weights.items())
    if isinstance(answer, Hypergraph):
        return answer.edges()
    if isinstance(answer, (list, tuple)):
        return [_canon(part) for part in answer]
    if hasattr(answer, "witness"):  # a CertifiedResult
        return _canon((answer.value, answer.witness, answer.checks,
                       answer.failures))
    return answer


def _fed(sketch):
    for e in GRAPH.edges():
        sketch.insert(e)
    return sketch


def _forest_minus():
    sketch = _fed(SpanningForestSketch(N, seed=3))
    return sketch, lambda: sketch.decode(minus=list(GRAPH.edges())[:5])


def _skeleton_layers():
    sketch = _fed(SkeletonSketch(N, k=3, seed=4))
    return sketch, sketch.decode_layers


def _certify():
    sketch = _fed(SkeletonSketch(N, k=3, seed=5))
    return sketch, lambda: certify_skeleton(sketch)


def _light_layers():
    sketch = _fed(LightEdgeRecoverySketch(N, k=2, seed=6))
    return sketch, sketch.recover_layers


def _sparsifier():
    sketch = _fed(HypergraphSparsifierSketch(N, r=2, seed=7, k=2, levels=3))
    return sketch, sketch.decode


@pytest.mark.parametrize("mode", [nullcontext, reference.oracle],
                         ids=["batch_decode", "scalar_decode"])
@pytest.mark.parametrize(
    "build",
    [_forest_minus, _skeleton_layers, _certify, _light_layers, _sparsifier],
)
def test_read_runs_on_locked_counters_and_writes_nothing(build, mode):
    sketch, read = build()
    before = _state(sketch)
    with mode():
        unlocked = read()
        _lock(sketch)
        locked = read()
    assert _state(sketch) == before
    assert _canon(locked) == _canon(unlocked)
