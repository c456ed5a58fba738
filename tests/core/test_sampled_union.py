"""Direct tests for the shared vertex-sampling machinery (Section 3)."""

import numpy as np
import pytest

from repro.core._sampled import SampledForestUnion
from repro.core.params import Params
from repro.errors import DomainError
from repro.graph.generators import cycle_graph


class TestMembership:
    def test_probability_is_one_over_k_plus_one(self):
        union = SampledForestUnion(200, k=3, repetitions=50, seed=1)
        rate = union.membership.mean()
        assert abs(rate - 1 / 4) < 0.02

    def test_k_one_samples_half(self):
        union = SampledForestUnion(200, k=1, repetitions=50, seed=2)
        assert abs(union.membership.mean() - 0.5) < 0.02

    def test_membership_deterministic_in_seed(self):
        a = SampledForestUnion(40, k=2, repetitions=10, seed=3)
        b = SampledForestUnion(40, k=2, repetitions=10, seed=3)
        assert np.array_equal(a.membership, b.membership)

    def test_tiny_instances_skipped(self):
        union = SampledForestUnion(4, k=5, repetitions=20, seed=4)
        # Most instances sample < 2 of the 4 vertices and are skipped.
        assert union.live_instances <= 20
        for i, sketch in union.sketches.items():
            assert len(sketch.vertices) >= 2

    def test_validation(self):
        with pytest.raises(DomainError):
            SampledForestUnion(1, k=2, repetitions=5)
        with pytest.raises(DomainError):
            SampledForestUnion(10, k=0, repetitions=5)


class TestRouting:
    def test_update_routes_to_matching_instances_only(self):
        union = SampledForestUnion(20, k=2, repetitions=30, seed=5)
        union.update((3, 7), 1)
        for i, sketch in union.sketches.items():
            expected = bool(union.membership[i, 3] and union.membership[i, 7])
            has_content = not sketch.grid.appears_zero()
            assert has_content == expected

    def test_insert_delete_cancels_everywhere(self):
        union = SampledForestUnion(20, k=2, repetitions=30, seed=6)
        union.insert((3, 7))
        union.delete((3, 7))
        assert all(s.grid.appears_zero() for s in union.sketches.values())


class TestUnionDecode:
    def test_union_is_cached_until_update(self):
        union = SampledForestUnion(12, k=1, repetitions=10, seed=7)
        for e in cycle_graph(12).edges():
            union.insert(e)
        first = union.decode_union()
        assert union.decode_union() is first  # cached object
        union.insert((0, 6))
        assert union.decode_union() is not first

    def test_union_edges_genuine(self):
        g = cycle_graph(12)
        union = SampledForestUnion(12, k=1, repetitions=10, seed=8)
        for e in g.edges():
            union.insert(e)
        H = union.decode_union()
        assert all(g.has_edge(*e) for e in H.edges())

    def test_graph_view_requires_rank2(self):
        union = SampledForestUnion(10, k=1, repetitions=8, r=3, seed=9)
        union.insert((0, 1, 2))
        from repro.errors import RankError

        with pytest.raises(RankError):
            union.decode_union_graph()

    def test_space_accounts_all_instances(self):
        union = SampledForestUnion(16, k=2, repetitions=12, seed=10)
        assert union.space_counters() == sum(
            s.space_counters() for s in union.sketches.values()
        )


class TestIncrementalDecodeCache:
    def test_incremental_equals_fresh(self):
        """After targeted updates, the cached-incremental union must
        equal a from-scratch decode of an identically-fed structure."""
        g = cycle_graph(12)
        a = SampledForestUnion(12, k=2, repetitions=20, seed=42)
        b = SampledForestUnion(12, k=2, repetitions=20, seed=42)
        for e in g.edges():
            a.insert(e)
            b.insert(e)
        a.decode_union()          # warm a's cache
        a.delete((0, 1))          # touch a few instances
        a.insert((0, 6))
        b.delete((0, 1))
        b.insert((0, 6))
        assert a.decode_union() == b.decode_union()

    def test_only_dirty_instances_redecoded(self):
        union = SampledForestUnion(16, k=2, repetitions=25, seed=43)
        for e in cycle_graph(16).edges():
            union.insert(e)
        union.decode_union()
        assert not union._dirty
        union.insert((0, 8))
        # Exactly the instances sampling both 0 and 8 became dirty.
        expected = {
            i
            for i in union.sketches
            if union.membership[i, 0] and union.membership[i, 8]
        }
        assert union._dirty == expected
        from repro.engine.query import collect_query_metrics

        with collect_query_metrics() as qm:
            union.decode_union()
        assert qm.instances_decoded == len(expected) > 0
        assert not union._dirty

    def test_scalar_route_write_refreshes_the_certificate(self):
        """``sketches[i].update`` writes the same pages as the kernel;
        the decode cache has to notice it just the same (it used to
        hand back the stale certificate)."""
        union = SampledForestUnion(12, k=2, repetitions=20, seed=42)
        twin = SampledForestUnion(12, k=2, repetitions=20, seed=42)
        for e in cycle_graph(12).edges():
            union.insert(e)
            twin.insert(e)
        stale = union.decode_union()
        assert not stale.has_edge((0, 6))
        hit = [i for i in union.sketches
               if union.membership[i, 0] and union.membership[i, 6]]
        assert len(hit) == 2
        for i in hit:
            union.sketches[i].update((0, 6), 1)
        twin.insert((0, 6))
        assert np.array_equal(union._arena, twin._arena)
        assert union._dirty == set(hit)
        fresh = union.decode_union()
        assert fresh is not stale and fresh.has_edge((0, 6))
        assert fresh == twin.decode_union()
        assert union.decode_union() is fresh  # and cached again

    @pytest.mark.parametrize("how", [
        "iadd", "isub", "load_accumulate", "add_member_state",
        "load_grid", "replace_member_state",
    ])
    def test_merge_and_restore_refresh_the_certificate(self, how):
        """A merge or restore of every instance's grid moves no update
        count; the decode cache has to notice it all the same (it used
        to hand back the pre-merge certificate)."""
        from repro.sketch.serialization import (
            dump_grid,
            dump_member_state,
            load_grid,
            replace_member_state,
        )

        def fed(events):
            union = SampledForestUnion(12, k=2, repetitions=20, seed=42)
            union.update_batch(events)
            return union

        edges = list(cycle_graph(12).edges()) + [(0, 6), (3, 9)]
        union, both = fed([(e, 1) for e in edges[:6]]), fed([(e, 1) for e in edges])
        sign = -1 if how == "isub" else 1
        other = fed([(e, sign) for e in edges[6:]])
        stale = union.decode_union()
        for i, sketch in union.sketches.items():
            grid, theirs = sketch.grid, other.sketches[i].grid
            target = both.sketches[i].grid
            if how == "iadd":
                grid += theirs
            elif how == "isub":
                grid -= theirs
            elif how == "load_accumulate":
                load_grid(grid, dump_grid(theirs), accumulate=True)
            elif how == "add_member_state":
                for m in range(grid.members):
                    grid.add_member_state(m, theirs.extract_member(m))
            elif how == "load_grid":
                load_grid(grid, dump_grid(target))
            else:
                for m in range(grid.members):
                    replace_member_state(grid, dump_member_state(target, m))
        assert np.array_equal(union._arena, both._arena)
        assert union._dirty == set(union.sketches)
        fresh = union.decode_union()
        assert fresh == both.decode_union() and fresh != stale


def scalar_route(union, edge, sign):
    """The reference route: each hit instance's own scalar ``update``."""
    hit = np.flatnonzero(union.membership[:, list(edge)].all(axis=1))
    for i in hit.tolist():
        union.sketches[i].update(edge, sign)


def instance_dumps(union):
    from repro.sketch.serialization import dump_sketch

    return {i: dump_sketch(s) for i, s in union.sketches.items()}


def unsampled_edge(union):
    """A valid edge whose endpoints no instance sampled together."""
    for u in range(union.n):
        for v in range(u + 1, union.n):
            if not (union.membership[:, u] & union.membership[:, v]).any():
                return (u, v)
    raise AssertionError("every edge is sampled somewhere; shrink R")


class TestVectorisedMembership:
    def test_equals_scalar_hash_loop(self):
        from repro.util.hashing import derive_seed, hash64

        union = SampledForestUnion(37, k=3, repetitions=23, seed=11)
        for i in range(23):
            s = derive_seed(union.seed, 0xA11, i)
            for v in range(37):
                assert union.membership[i, v] == (hash64(s, v) % 4 == 0)


class TestValidateBeforeRouting:
    """Bad events are refused with a typed error before any counter or
    ``_updates`` moves — whether or not an instance samples the edge."""

    def fresh(self, r=2):
        return SampledForestUnion(16, k=2, repetitions=12, r=r, seed=21)

    def assert_rejected(self, union, edge, sign, exc=DomainError):
        before = union._arena.copy()
        with pytest.raises(exc):
            union.update(edge, sign)
        assert union._updates == 0
        assert np.array_equal(union._arena, before)

    def test_vertex_out_of_range(self):
        self.assert_rejected(self.fresh(), (3, 99), 1)

    def test_negative_vertex_does_not_wrap(self):
        self.assert_rejected(self.fresh(), (3, -1), 1)

    def test_repeated_vertex(self):
        self.assert_rejected(self.fresh(), (5, 5), 1)

    def test_non_integer_vertex_is_not_truncated(self):
        self.assert_rejected(self.fresh(), (0, 1.5), 1)
        self.assert_rejected(self.fresh(r=3), (0, 1, 2.5), 1)
        self.assert_rejected(self.fresh(), (0, "1"), 1, TypeError)

    def test_rank(self):
        from repro.errors import RankError

        self.assert_rejected(self.fresh(), (1, 2, 3), 1, RankError)
        self.assert_rejected(self.fresh(r=3), (1, 2, 3, 4), 1, RankError)
        self.assert_rejected(self.fresh(r=3), (1, 2, 99), 1)

    def test_bad_sign_on_an_edge_no_instance_samples(self):
        union = self.fresh()
        edge = unsampled_edge(union)
        self.assert_rejected(union, edge, 2)
        self.assert_rejected(union, edge, 0)
        union.update(edge, 1)  # the valid form is accepted, and routed nowhere
        assert union._updates == 1 and not union._arena.any()

    def test_bad_event_late_in_a_batch_applies_nothing(self):
        union = self.fresh()
        with pytest.raises(DomainError):
            union.update_batch([((0, 1), 1), ((2, 3), 1), ((4, 16), 1)])
        assert union._updates == 0 and not union._arena.any()
        union3 = self.fresh(r=3)
        with pytest.raises(DomainError):
            union3.update_batch([((0, 1, 2), 1), ((2, 3), 7)])
        assert union3._updates == 0 and not union3._arena.any()


class TestArenaStorage:
    def make(self, **kw):
        union = SampledForestUnion(20, k=2, repetitions=16, seed=31, **kw)
        for e in cycle_graph(20).edges():
            union.insert(e)
        return union

    def test_every_block_is_a_slice_of_the_one_arena(self):
        union = self.make()
        assert union.space_bytes() == union._arena.nbytes
        at = 0
        for i in sorted(union.sketches):
            block = union.sketches[i].grid._block
            assert np.shares_memory(block, union._arena)
            assert block.ctypes.data == union._arena.ctypes.data + 8 * at
            at += block.size

    def test_scalar_instance_update_writes_the_arena(self):
        kernel, scalar = self.make(), self.make()
        kernel.update((2, 9), 1)
        scalar_route(scalar, (2, 9), 1)
        assert np.array_equal(kernel._arena, scalar._arena)

    @pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
    def test_clone_readopts_one_arena(self, clone):
        import copy
        import pickle

        union = self.make()
        if clone == "pickle":
            payload = pickle.dumps(union, protocol=pickle.HIGHEST_PROTOCOL)
            # the counters travel once, not once per arena and per grid
            assert len(payload) < 1.5 * union._arena.nbytes
            twin = pickle.loads(payload)
        else:
            twin = copy.deepcopy(union)
        assert not np.shares_memory(twin._arena, union._arena)
        for i, sketch in twin.sketches.items():
            assert np.shares_memory(sketch.grid._block, twin._arena)
            assert sketch.grid._borrowed
        assert instance_dumps(twin) == instance_dumps(union)
        twin.update((0, 10), 1)
        union.update((0, 10), 1)
        assert instance_dumps(twin) == instance_dumps(union)
        assert twin.decode_union() == union.decode_union()

    def test_instance_copy_is_private(self):
        union = self.make()
        i, sketch = next(iter(union.sketches.items()))
        for private in (sketch.copy().grid, sketch.grid.copy()):
            assert not np.shares_memory(private._block, union._arena)
            assert np.array_equal(private._block, sketch.grid._block)
            private.to_shared()  # a private copy may move to shared memory
            private.release_shared(unlink=True)

    def test_instance_pickle_carries_its_counters(self):
        import pickle

        union = self.make()
        sketch = next(iter(union.sketches.values()))
        alone = pickle.loads(pickle.dumps(sketch))
        assert not alone.grid._borrowed
        assert np.array_equal(alone.grid._block, sketch.grid._block)

    def test_shared_memory_moves_are_refused(self):
        from repro.errors import EngineError

        grid = next(iter(self.make().sketches.values())).grid
        for move in (
            grid.to_shared,
            lambda: grid.attach_shared("repro-bank-nonexistent"),
            grid.release_shared,
        ):
            with pytest.raises(EngineError, match="arena"):
                move()

    def test_restore_and_merge_stay_in_the_arena(self):
        from repro.sketch.serialization import dump_grid, dump_sketch
        from repro.sketch.serialization import load_grid, load_sketch

        union, other = self.make(), self.make()
        other.update((1, 7), 1)
        for i, sketch in union.sketches.items():
            theirs = other.sketches[i]
            load_sketch(sketch, dump_sketch(theirs))
            load_grid(sketch.grid, dump_grid(theirs.grid), accumulate=True)
            sketch += theirs
            sketch -= theirs
            sketch -= theirs
            assert np.shares_memory(sketch.grid._block, union._arena)
            assert np.shares_memory(sketch.grid._w, union._arena)
        assert np.array_equal(union._arena, other._arena)

    def test_block_argument_validates_storage(self):
        from repro.errors import IncompatibleSketchError
        from repro.sketch.bank import SamplerGrid

        need = SamplerGrid(2, 3, 10, seed=1).space_counters()
        for bad in (
            np.zeros(need - 1, dtype=np.int64),
            np.zeros(need, dtype=np.int32),
            np.zeros(2 * need, dtype=np.int64)[::2],
        ):
            with pytest.raises(IncompatibleSketchError):
                SamplerGrid(2, 3, 10, seed=1, block=bad)
        store = np.zeros(need, dtype=np.int64)
        grid = SamplerGrid(2, 3, 10, seed=1, block=store)
        grid.update(1, 4, 1)
        assert store.any() and grid.space_bytes() == store.nbytes


class TestAuditedAndCachedInstances:
    def test_audited_instances_ride_the_kernel(self):
        """Instances under audit take the one cross-instance fold like
        the rest — no scalar ``update`` runs — and their digests move
        with it, equal to the scalar route's."""
        from unittest import mock

        from repro.audit.digest import GridDigest, attach_digest
        from repro.sketch.bank import SamplerGrid

        union = SampledForestUnion(20, k=2, repetitions=16, seed=41)
        twin = SampledForestUnion(20, k=2, repetitions=16, seed=41)
        audited = sorted(union.sketches)[::2]
        for i in audited:
            attach_digest(union.sketches[i].grid)
            attach_digest(twin.sketches[i].grid)
        edges = list(cycle_graph(20).edges())
        with mock.patch.object(SamplerGrid, "update", side_effect=AssertionError):
            union.update_batch([(e, 1) for e in edges[:10]])
            for e in edges[10:]:
                union.update(e, 1)
        for e in edges:
            scalar_route(twin, e, 1)
        assert instance_dumps(union) == instance_dumps(twin)
        for i in audited:
            grid = union.sketches[i].grid
            assert grid._digest == GridDigest.compute(grid)
            assert grid._digest == twin.sketches[i].grid._digest
        assert any(union.sketches[i].grid.update_count for i in audited)

    def test_audit_clean_after_mixed_updates_and_localises_a_flip(self):
        from repro.audit import audit_sketch
        from repro.core.connectivity_query import VertexConnectivityQuerySketch

        sk = VertexConnectivityQuerySketch(20, 2, seed=43, repetitions=16)
        edges = list(cycle_graph(20).edges())
        sk.update_batch([(e, 1) for e in edges[:8]])
        assert audit_sketch(sk).ok  # baselines every instance
        sk.update_batch([(e, 1) for e in edges[8:14]])
        for e in edges[14:]:
            sk.update(e, 1)
        sk.update_batch([(edges[0], -1), (edges[0], 1)])
        assert audit_sketch(sk).ok
        # Flip one bit of the arena inside a known (instance, group, row).
        union = sk._union
        inst = sorted(union.sketches)[3]
        grid = union.sketches[inst].grid
        group, member, level, row, bucket = 1, 2, 0, 1, 3
        cell = (((group * grid.members + member) * grid.levels + level)
                * grid.rows + row) * grid.buckets + bucket
        union._arena[int(union._base[inst]) + cell] ^= 1 << 17
        report = audit_sketch(sk)
        assert [(f.instance, f.group, f.row, f.kind) for f in report.findings] \
            == [(inst, group, row, "w")]

    def test_summed_cache_stays_exact_under_the_kernel(self):
        from repro.engine.query import SummedCache

        union = SampledForestUnion(20, k=2, repetitions=16, seed=47)
        twin = SampledForestUnion(20, k=2, repetitions=16, seed=47)
        for sketch in union.sketches.values():
            sketch.grid.attach_summed_cache(SummedCache(64))
        edges = list(cycle_graph(20).edges())
        for target in (union, twin):
            target.update_batch([(e, 1) for e in edges])
        assert union.decode_union() == twin.decode_union()  # fills the caches
        for target in (union, twin):
            target.update((0, 1), -1)
            target.update_batch([((0, 10), 1), ((5, 15), 1)])
        assert union.decode_union() == twin.decode_union()


class TestBatchApi:
    EVENTS3 = [((0, 1, 2), 1), ((3, 4), 1), ((0, 1, 2), -1), ((5, 9, 11), 1)]

    @staticmethod
    def unions_of(structure):
        testers = getattr(structure, "testers", [structure])
        return [t._union for t in testers]

    def test_wrappers_batch_equals_per_event(self):
        from repro.core.connectivity_estimate import (
            KVertexConnectivityTester,
            VertexConnectivityEstimator,
        )
        from repro.core.connectivity_query import VertexConnectivityQuerySketch
        from repro.core.hyper_connectivity import (
            HypergraphKVertexConnectivityTester,
            HypergraphVertexConnectivityQuerySketch,
        )
        from repro.stream.updates import EdgeUpdate

        fast = Params.fast()
        edges = [(e, 1) for e in cycle_graph(12).edges()] + [((0, 1), -1)]
        cases = [
            (lambda: VertexConnectivityQuerySketch(12, 2, seed=5, params=fast),
             edges),
            (lambda: KVertexConnectivityTester(12, 2, seed=5, params=fast),
             edges),
            (lambda: VertexConnectivityEstimator(12, 3, seed=5, params=fast),
             edges),
            (lambda: HypergraphKVertexConnectivityTester(
                12, 2, 3, seed=5, params=fast), self.EVENTS3),
            (lambda: HypergraphVertexConnectivityQuerySketch(
                12, 2, r=3, seed=5, params=fast), self.EVENTS3),
        ]
        for make, events in cases:
            one, batched = make(), make()
            for edge, sign in events:
                one.update(edge, sign)
            assert batched.update_batch(
                EdgeUpdate(edge, sign) for edge, sign in events
            ) == len(events)
            for a, b in zip(self.unions_of(one), self.unions_of(batched)):
                assert np.array_equal(a._arena, b._arena)
                assert a._updates == b._updates and a._dirty == b._dirty

    def test_pair_arrays_equal_event_list(self):
        a = SampledForestUnion(16, k=1, repetitions=10, seed=61)
        b = SampledForestUnion(16, k=1, repetitions=10, seed=61)
        us, vs = np.array([0, 5, 9, 0]), np.array([3, 2, 14, 3])
        signs = np.array([1, 1, 1, -1])
        assert a.update_batch_pairs(us, vs, signs) == 4
        b.update_batch(
            [((int(u), int(v)), int(s)) for u, v, s in zip(us, vs, signs)]
        )
        assert np.array_equal(a._arena, b._arena)
        assert a.update_batch([]) == 0 and a._updates == 4

    def test_stream_runner_batches_the_query_structure(self):
        from repro.core.connectivity_query import VertexConnectivityQuerySketch
        from repro.stream.runner import StreamRunner
        from repro.stream.updates import EdgeUpdate

        events = [EdgeUpdate(e, 1) for e in cycle_graph(12).edges()]
        calls = []

        class Spy(VertexConnectivityQuerySketch):
            def update(self, edge, sign):
                raise AssertionError("batched runs must not fall back")

            def update_batch(self, updates):
                calls.append(len(updates))
                return super().update_batch(updates)

        runner = StreamRunner(12, batch_size=5)
        sk = runner.register("q", Spy(12, 1, seed=3, params=Params.fast()))
        runner.run(events)
        assert calls == [5, 5, 2]
        ref = VertexConnectivityQuerySketch(12, 1, seed=3, params=Params.fast())
        for ev in events:
            ref.update(ev.edge, ev.sign)
        assert np.array_equal(sk._union._arena, ref._union._arena)
