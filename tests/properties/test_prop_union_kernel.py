"""Differential property tests for the union's two cross-instance
kernels.

**Ingest.**  :class:`~repro.core._sampled.SampledForestUnion` folds
every stream update into one arena through one kernel.  Its reference
is the route it replaced: hand each event to the scalar ``update`` of
every instance that sampled the edge.  Hypothesis drives both over the
same random insert / delete / flap schedule, cut into arbitrary
batches, with direct ``sketches[i].update`` calls interleaved and audit
digests on some instances; afterwards every instance must serialize to
the same bytes, the union bookkeeping (``_updates``, ``_dirty``, the
decoded certificate) must agree, and every digest must equal a
recomputed one — with no scalar ``update`` run by the union itself.

**Decode.**  The union decodes its dirty instances in one stacked
Borůvka loop.  Its reference is the loop it replaced — ``decode()`` of
each dirty instance on its own — under the batch kernel and under the
scalar oracle (:mod:`repro.sketch.reference`): per-instance edge sets,
strict-failure lists and the per-component ``QueryMetrics`` totals must
agree at every decode of a random schedule, however the stack is cut
into passes.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.digest import GridDigest, attach_digest
from repro.core._sampled import SampledForestUnion
from repro.core.params import Params
from repro.engine.query import collect_query_metrics
from repro.errors import SamplerFailedError
from repro.sketch import reference, spanning_forest
from repro.sketch.bank import SamplerGrid
from repro.sketch.serialization import dump_sketch

N, REPS = 12, 10
PARAMS = Params.fast()


@st.composite
def schedules(draw):
    r = draw(st.sampled_from([2, 3]))
    k = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    edge = st.lists(
        st.integers(min_value=0, max_value=N - 1),
        min_size=2, max_size=r, unique=True,
    ).map(tuple)
    pool = draw(st.lists(edge, min_size=1, max_size=12))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "flap", "direct"]),
            st.integers(min_value=0, max_value=len(pool) - 1),
        ),
        min_size=1, max_size=40,
    ))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1))
    audited = draw(st.sets(st.integers(min_value=0, max_value=REPS - 1)))
    return r, k, seed, pool, steps, cuts, audited


def scalar_route(union, edge, sign):
    hit = np.flatnonzero(union.membership[:, list(edge)].all(axis=1))
    for i in hit.tolist():
        union.sketches[i].update(edge, sign)
    return hit.tolist()


def kernel_only():
    """Fail any scalar grid update while the union ingests."""
    return mock.patch.object(
        SamplerGrid, "update", side_effect=AssertionError("scalar update")
    )


def direct_target(union, edge):
    """An instance whose scalar ``update`` the caller may drive itself."""
    hit = np.flatnonzero(union.membership[:, list(edge)].all(axis=1))
    return int(hit[0]) if hit.size else None


class TestKernelAgainstScalarRoute:
    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_same_bookkeeping(self, schedule):
        r, k, seed, pool, steps, cuts, audited = schedule
        fused = SampledForestUnion(N, k, REPS, r=r, seed=seed, params=PARAMS)
        twin = SampledForestUnion(N, k, REPS, r=r, seed=seed, params=PARAMS)
        for i in audited & set(fused.sketches):
            attach_digest(fused.sketches[i].grid)
        # Both start clean, so _dirty records exactly the written grids.
        assert fused.decode_union().num_edges == 0
        assert twin.decode_union().num_edges == 0

        pending, cut_at, events, hit = [], 0, 0, set()

        def flush():
            nonlocal pending
            if pending:
                with kernel_only():
                    assert fused.update_batch(pending) == len(pending)
                pending = []

        for op, which in steps:
            edge = pool[which]
            if op == "direct":
                # A caller writing one instance through its own scalar
                # update, between batches: same arena pages either way.
                flush()
                i = direct_target(fused, edge)
                if i is not None:
                    fused.sketches[i].update(edge, 1)
                    twin.sketches[i].update(edge, 1)
                continue
            signs = {"insert": (1,), "delete": (-1,), "flap": (1, -1)}[op]
            for sign in signs:
                pending.append((edge, sign))
                hit.update(scalar_route(twin, edge, sign))
                events += 1
            if len(pending) >= cuts[cut_at % len(cuts)]:
                cut_at += 1
                if len(pending) == 1:
                    with kernel_only():
                        fused.update(*pending.pop())  # a batch of one
                flush()
        flush()

        # Dirtiness is read off the grids' mutation counters, so it sees
        # the kernel, the scalar route and the direct writes alike.
        assert fused._updates == events
        assert fused._dirty == twin._dirty >= hit
        for i in fused.sketches:
            assert dump_sketch(fused.sketches[i]) == dump_sketch(twin.sketches[i])
            assert (fused.sketches[i].grid.update_count
                    == twin.sketches[i].grid.update_count)
        # Audited instances rode the kernel, digests in step.
        for i in audited & set(fused.sketches):
            grid = fused.sketches[i].grid
            assert grid._digest == GridDigest.compute(grid)
        assert set(fused.decode_union().edges()) == set(
            twin.decode_union().edges()
        )


# -- the stacked decode against the per-instance loop ----------------------

#: Geometry small enough that components FAIL and fall back to the
#: single-cell scan all the time (one row of two buckets per level).
TINY = Params.fast().with_overrides(rows=1, buckets=2)

#: The per-component counters: a union decode must add them up exactly
#: as the per-instance loop does (``decode_rounds`` and ``peel_sweeps``
#: count kernel passes and are *fewer* for the stack).
COUNTERS = ("batch_queries", "sample_ok", "sample_zero", "sample_failed",
            "cells_decoded", "fallback_scans", "cache_hits", "cache_misses")


def forests_of(union):
    """Per-instance edge sets (as coordinates) of the union's cache."""
    coords, src = union._forest_cache
    return {i: set(coords[src == i].tolist()) for i in union.sketches}


def loop_decode(union, instances):
    """The replaced loop: each instance's own ``decode`` (lenient, then
    strict for the failure flag), as coordinates."""
    forests, failed = {}, []
    for i in instances:
        sketch = union.sketches[i]
        forests[i] = {
            sketch.scheme.index_of(e) for e in sketch.decode().edges()
        }
        try:
            strict = sketch.decode(strict=True)
        except SamplerFailedError:
            failed.append(i)
        else:
            assert {sketch.scheme.index_of(e) for e in strict.edges()} \
                == forests[i]
    return forests, failed


@st.composite
def decode_schedules(draw):
    r = draw(st.sampled_from([2, 3]))
    k = draw(st.sampled_from([1, 2, 3]))  # k = 3: instances with < 2 vertices
    seed = draw(st.integers(min_value=0, max_value=2**32))
    edge = st.lists(
        st.integers(min_value=0, max_value=N - 1),
        min_size=2, max_size=r, unique=True,
    ).map(tuple)
    pool = draw(st.lists(edge, min_size=1, max_size=40))
    steps = draw(st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["insert", "delete", "direct"]),
                st.integers(min_value=0, max_value=len(pool) - 1),
            ),
            st.tuples(st.sampled_from(["decode", "pickle"]), st.just(0)),
        ),
        min_size=1, max_size=30,
    ))
    pass_cells = draw(st.sampled_from([1, 400, 1 << 40]))
    return r, k, seed, pool, steps, pass_cells


class TestStackedDecodeAgainstInstanceLoop:
    def check(self, schedule, params):
        with mock.patch.object(spanning_forest, "_PASS_CELLS", schedule[-1]):
            return self.checked(schedule, params)

    def checked(self, schedule, params):
        r, k, seed, pool, steps, _ = schedule
        # stacked: the union's own decode.  looped: one batch decode()
        # per dirty instance.  oracle: the same through reference.oracle().
        stacked, looped, oracle = (
            SampledForestUnion(N, k, REPS, r=r, seed=seed, params=params)
            for _ in range(3)
        )
        # Start dense, so the tiny geometry has something to choke on.
        for union in (stacked, looped, oracle):
            union.update_batch([(e, 1) for e in set(pool)])
        forests = {}
        for op, which in steps + [("decode", 0)]:
            if op == "pickle":
                stacked = pickle.loads(pickle.dumps(stacked))
            elif op == "decode":
                dirty = sorted(stacked._dirty)
                with collect_query_metrics() as got:
                    H, failed = stacked.decode_union_accounted()
                with collect_query_metrics() as want:
                    for i in dirty:
                        looped.sketches[i].decode()
                with reference.oracle():
                    fresh, _ = loop_decode(oracle, dirty)
                    _, strict_failed = loop_decode(oracle, oracle.sketches)
                forests.update(fresh)
                assert forests_of(stacked) == forests
                assert failed == strict_failed
                assert got.instances_decoded == len(dirty)
                for name in COUNTERS:
                    assert getattr(got, name) == getattr(want, name), name
                if dirty:
                    assert got.decode_rounds <= want.decode_rounds
                good = [i for i in stacked.sketches if i not in failed]
                assert {stacked.scheme.index_of(e) for e in H.edges()} == \
                    set().union(*(forests[i] for i in good))
                assert stacked.decode_union() is stacked.decode_union()
                assert {
                    stacked.scheme.index_of(e)
                    for e in stacked.decode_union().edges()
                } == set().union(*forests.values())
            else:
                edge = pool[which]
                sign = -1 if op == "delete" else 1
                for union in (stacked, looped, oracle):
                    if op == "direct":
                        i = direct_target(union, edge)
                        if i is not None:
                            union.sketches[i].update(edge, sign)
                    else:
                        union.update(edge, sign)
        # The stack under the scalar oracle: same forests, same failures.
        again = pickle.loads(pickle.dumps(stacked))
        again._decoded_at[:] = -1
        with reference.oracle():
            _, failed_again = again.decode_union_accounted()
        assert forests_of(again) == forests and failed_again == failed
        return got

    @given(decode_schedules())
    @settings(max_examples=40, deadline=None)
    def test_same_forests_failures_and_counters(self, schedule):
        self.check(schedule, TINY)

    @given(decode_schedules())
    @settings(max_examples=15, deadline=None)
    def test_default_geometry(self, schedule):
        self.check(schedule, PARAMS)

    @pytest.mark.parametrize("pass_cells", [1, 400, 1 << 40])
    def test_failed_and_fallback_paths_are_reached(self, pass_cells):
        """A fixed dense schedule on which the tiny geometry provably
        FAILs components and takes the fallback scan, at every pass
        size — so the property above is not vacuous on those paths."""
        import itertools

        pool = list(itertools.combinations(range(N), 2))[::2]
        steps = [("delete", 3), ("decode", 0), ("insert", 3), ("direct", 7),
                 ("pickle", 0), ("delete", 11)]
        got = self.check(
            (2, 1, 5, pool, steps, pass_cells), TINY
        )
        assert got.sample_failed > 0 and got.fallback_scans > got.sample_failed
