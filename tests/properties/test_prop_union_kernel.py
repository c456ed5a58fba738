"""Differential property test for the union's cross-instance kernel.

:class:`~repro.core._sampled.SampledForestUnion` folds every stream
update into one arena through one kernel.  Its reference is the route
it replaced: hand each event to the scalar ``update`` of every instance
that sampled the edge.  Hypothesis drives both over the same random
insert / delete / flap schedule, cut into arbitrary batches, with
direct ``sketches[i].update`` calls interleaved and audit digests on
some instances; afterwards every instance must serialize to the same
bytes, and the union bookkeeping (``_updates``, ``_dirty``, the decoded
certificate) must agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.digest import GridDigest, attach_digest
from repro.core._sampled import SampledForestUnion
from repro.core.params import Params
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
        # Both start clean, so _dirty records exactly the routed hits.
        assert fused.decode_union().num_edges == 0
        assert twin.decode_union().num_edges == 0

        pending, cut_at, events = [], 0, 0

        def flush():
            nonlocal pending
            if pending:
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
                twin._dirty.update(scalar_route(twin, edge, sign))
                events += 1
            if len(pending) >= cuts[cut_at % len(cuts)]:
                cut_at += 1
                if len(pending) == 1:
                    fused.update(*pending.pop())  # update == batch of one
                flush()
        flush()

        assert fused._updates == events
        assert fused._dirty == twin._dirty
        for i in fused.sketches:
            assert dump_sketch(fused.sketches[i]) == dump_sketch(twin.sketches[i])
            assert (fused.sketches[i].grid.update_count
                    == twin.sketches[i].grid.update_count)
        # Audited instances stayed on the scalar route, digests in step.
        routed = 0
        for i in audited & set(fused.sketches):
            grid = fused.sketches[i].grid
            assert grid._digest == GridDigest.compute(grid)
            routed += grid.update_count
        assert fused.scalar_routed_updates <= routed
        assert (fused.scalar_routed_updates > 0) == bool(
            audited & fused._dirty
        )
        twin._union_cache = None
        assert set(fused.decode_union().edges()) == set(
            twin.decode_union().edges()
        )
