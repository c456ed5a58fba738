"""Property tests for the batched decode/query engine.

The engine's one contract (PR "query engine"): the vectorised batch
decode path is *bit-identical* to the scalar reference oracle
(:mod:`repro.sketch.reference`) on every input
— the same spanning forest, the same skeleton layers, and the same
failure taxonomy (strict failures and degraded fallbacks fire on
exactly the same sketches).
These properties drive both paths over random dynamic streams, random
component partitions, and post-merge sketches, and compare outputs
exactly.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SamplerEmptyError, SketchDecodeError
from repro.sketch import reference, spanning_forest
from repro.sketch.bank import SamplerGrid
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch

from .test_prop_streams_and_sketches import dynamic_streams

N = 10
seeds = st.integers(min_value=0, max_value=2**31)


def _windowed():
    """The batch decode with every round reading its levels in windows."""
    return mock.patch.object(spanning_forest, "_WINDOW_CELLS", 0)


def _both_paths(fn):
    """Run ``fn`` through the scalar oracle, then the batch decode at
    its real level-window gate and with every round windowed.

    Exceptions are data: returns ``("ok", result)`` or
    ``("fail", exception type name)`` per path so failure parity is
    part of the comparison.  The two batch runs must agree exactly;
    the oracle's outcome and theirs are returned.
    """
    out = []
    for ctx in (reference.oracle, nullcontext, _windowed):
        with ctx():
            try:
                out.append(("ok", fn()))
            except SketchDecodeError as exc:
                out.append(("fail", type(exc).__name__))
    scalar, batch, windowed = out
    assert windowed == batch
    return scalar, batch


class TestForestDecodeParity:
    @given(dynamic_streams(), seeds, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_same_forest_same_failures(self, sg, seed, strict):
        stream, _final = sg
        sk = SpanningForestSketch(N, seed=seed)
        for u in stream:
            sk.update(u.edge, u.sign)
        scalar, batch = _both_paths(
            lambda: sorted(sk.decode(strict=strict).edges())
        )
        assert scalar == batch

    @given(dynamic_streams(), dynamic_streams(), seeds)
    @settings(max_examples=20, deadline=None)
    def test_post_merge_parity(self, sg_a, sg_b, seed):
        """Merging two shards then decoding: both paths see the summed
        state and still agree exactly."""
        a = SpanningForestSketch(N, seed=seed)
        b = SpanningForestSketch(N, seed=seed)
        for u in sg_a[0]:
            a.update(u.edge, u.sign)
        for u in sg_b[0]:
            b.update(u.edge, u.sign)
        a += b
        scalar, batch = _both_paths(lambda: sorted(a.decode().edges()))
        assert scalar == batch


class TestSummedManyParity:
    @given(
        dynamic_streams(),
        seeds,
        st.lists(
            st.integers(min_value=0, max_value=N - 1),
            min_size=1, max_size=N, unique=True,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_partition_matches_summed(self, sg, seed, members):
        """summed_many over a random partition of the active vertices
        equals member-by-member summed() on every counter."""
        stream, _final = sg
        sk = SpanningForestSketch(N, seed=seed)
        for u in stream:
            sk.update(u.edge, u.sign)
        grid: SamplerGrid = sk.grid
        rest = [m for m in range(N) if m not in members]
        components = [members] + ([rest] if rest else [])
        for group in range(grid.groups):
            batch = grid.summed_many(group, components)
            for ci, comp in enumerate(components):
                ref = reference.summed(grid, group, comp)
                got = reference.sketch_at(batch, ci)
                assert np.array_equal(ref._w, got._w)
                assert np.array_equal(ref._s, got._s)
                assert np.array_equal(ref._f, got._f)
                assert ref.appears_zero() == bool(
                    batch.appears_zero_many()[ci]
                )

    @given(dynamic_streams(), seeds)
    @settings(max_examples=20, deadline=None)
    def test_sample_many_matches_scalar_sample(self, sg, seed):
        """Per-component sample_many outcomes equal SummedSketch.sample
        (value and failure mode) on singleton components."""
        stream, _final = sg
        sk = SpanningForestSketch(N, seed=seed)
        for u in stream:
            sk.update(u.edge, u.sign)
        grid = sk.grid
        components = [[m] for m in range(N)]
        batch = grid.summed_many(0, components)
        for (status, payload), comp in zip(
            batch.sample_many(), components
        ):
            try:
                expected = ("ok", reference.summed(grid, 0, comp).sample())
            except SamplerEmptyError as exc:
                kind = type(exc).__name__
                expected = (
                    ("zero", None)
                    if kind == "SamplerZeroError"
                    else ("failed", None)
                )
            got = (status, payload) if status == "ok" else (status, None)
            assert got == expected


class TestSkeletonAndAmplifyParity:
    @given(
        dynamic_streams(max_steps=25),
        seeds,
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_skeleton_layers(self, sg, seed, k, strict):
        stream, _final = sg
        sk = SkeletonSketch(N, k=k, seed=seed)
        for u in stream:
            sk.update(u.edge, u.sign)
        scalar, batch = _both_paths(
            lambda: [
                sorted(f.edges())
                for f in sk.decode_layers(strict=strict)
            ]
        )
        assert scalar == batch

    @given(dynamic_streams(max_steps=25), seeds)
    @settings(max_examples=10, deadline=None)
    def test_degraded_parity(self, sg, seed):
        """decode_with_degradation degrades (or not) identically."""
        from repro.core.degraded import decode_with_degradation

        stream, _final = sg
        sk = SkeletonSketch(N, k=2, seed=seed)
        for u in stream:
            sk.update(u.edge, u.sign)

        def run():
            r = decode_with_degradation(
                lambda: sk.decode(strict=True),
                [(
                    "connectivity-only",
                    lambda: sk.decode_connectivity_only(),
                )],
            )
            return (r.degraded, r.mode, sorted(r.value.edges()))

        scalar, batch = _both_paths(run)
        assert scalar == batch
