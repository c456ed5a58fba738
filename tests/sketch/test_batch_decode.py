"""Unit tests for the batched decode kernels (repro.sketch.bank).

The kernels under test: ``SamplerGrid.summed_many`` (one segment-sum
pass over all components), ``SummedBatch.sample_many`` (joint
verification + peeling across every (component, level, row, bucket)
cell), checked against the scalar oracle (:mod:`repro.sketch.reference`).
The bit-identity *properties* live in
``tests/properties/test_prop_query.py``; here are the deterministic
edge cases.
"""

import numpy as np
import pytest

from repro.engine.query import collect_query_metrics
from repro.errors import (
    IncompatibleSketchError,
    SamplerEmptyError,
    SamplerFailedError,
    SamplerZeroError,
)
from repro.sketch import reference
from repro.sketch.bank import (
    HashStack,
    SamplerGrid,
    SummedBatch,
    _sum_slots,
)
from repro.sketch.serialization import dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch


def _triangle_plus_isolated(n=8, seed=5):
    """Vertices 0-2 form a triangle; the rest are isolated."""
    sk = SpanningForestSketch(n, seed=seed)
    for e in ((0, 1), (1, 2), (0, 2)):
        sk.update(e, 1)
    return sk


class TestSummedMany:
    def test_matches_summed_per_component(self):
        sk = _triangle_plus_isolated()
        grid = sk.grid
        components = [[0, 1, 2], [3], [4, 5], [6, 7]]
        for group in range(grid.groups):
            batch = grid.summed_many(group, components)
            assert batch.count == len(components)
            for ci, comp in enumerate(components):
                ref = reference.summed(grid, group, comp)
                got = reference.sketch_at(batch, ci)
                assert np.array_equal(ref._w, got._w)
                assert np.array_equal(ref._s, got._s)
                assert np.array_equal(ref._f, got._f)

    def test_empty_component_list_rejected(self):
        sk = _triangle_plus_isolated()
        with pytest.raises(IncompatibleSketchError):
            sk.grid.summed_many(0, [])
        with pytest.raises(IncompatibleSketchError):
            sk.grid.summed_many(0, [[0], []])

    def test_zero_detection(self):
        sk = _triangle_plus_isolated()
        # {0,1,2} is a closed component: boundary zero.  {0,1} has the
        # two edges to vertex 2 outstanding; {3} sees nothing at all.
        batch = sk.grid.summed_many(0, [[0, 1, 2], [0, 1], [3]])
        zero = batch.appears_zero_many()
        assert list(zero) == [True, False, True]


class TestSampleMany:
    def test_statuses_match_scalar_taxonomy(self):
        sk = _triangle_plus_isolated()
        grid = sk.grid
        components = [[0, 1, 2], [0, 1], [3]]
        batch = grid.summed_many(0, components)
        outcomes = batch.sample_many()
        for (status, payload), comp in zip(outcomes, components):
            try:
                expected = ("ok", reference.summed(grid, 0, comp).sample())
            except SamplerEmptyError as exc:
                name = type(exc).__name__
                expected = (
                    ("zero", None) if name == "SamplerZeroError"
                    else ("failed", None)
                )
            assert (status, payload if status == "ok" else None) == expected

    def test_zero_component_is_zero_status(self):
        sk = _triangle_plus_isolated()
        batch = sk.grid.summed_many(0, [[3], [0, 1, 2]])
        outcomes = batch.sample_many()
        assert outcomes[0] == (SummedBatch.ZERO, None)
        assert outcomes[1] == (SummedBatch.ZERO, None)

    def test_decoded_edges_are_genuine(self):
        sk = _triangle_plus_isolated()
        batch = sk.grid.summed_many(0, [[0], [1], [2]])
        for status, payload in batch.sample_many():
            assert status == SummedBatch.OK
            index, weight = payload
            edge = sk.scheme.edge_of(index)
            assert set(edge) <= {0, 1, 2}
            assert weight != 0

    def test_batch_is_nondestructive(self):
        sk = _triangle_plus_isolated()
        before = dump_sketch(sk)
        batch = sk.grid.summed_many(0, [[0, 1], [2]])
        batch.sample_many()
        batch.sample_many()  # twice: the peel must work on scratch
        assert dump_sketch(sk) == before


class TestReferenceSeam:
    def test_forest_decode_same_through_the_oracle(self):
        sk = _triangle_plus_isolated()
        with reference.oracle():
            a = sorted(sk.decode().edges())
        b = sorted(sk.decode().edges())
        assert a == b
        assert len(a) == 2  # a spanning tree of the triangle


# -- the worklist peel against the scalar oracle, on built-to-hurt inputs --


def _scalar_outcome(sketch):
    """``SummedSketch.sample`` folded into sample_many's outcome tuples."""
    try:
        return (SummedBatch.OK, sketch.sample())
    except SamplerZeroError:
        return (SummedBatch.ZERO, None)
    except SamplerFailedError:
        return (SummedBatch.FAILED, None)


class _Placer:
    """Finds coordinates of a grid by where group 0 hashes them.

    ``pick(depth, lvl, b0, b1)`` returns a fresh coordinate whose
    (capped) subsampling depth is ``depth`` and whose row-0 / row-1
    buckets at level ``lvl`` are ``b0`` / ``b1``.
    """

    def __init__(self, grid):
        self.grid, self.next = grid, 0

    def pick(self, depth, lvl, b0, b1):
        g = self.grid
        while True:
            j, self.next = self.next, self.next + 1
            if (
                g._depth(0, j) == depth
                and g._bucket(0, 0, lvl, j) == b0
                and g._bucket(0, 1, lvl, j) == b1
            ):
                return j


def _adversarial_grid(seed=99, block=None):
    """One group, two levels, eleven members, each built to hit one path
    of the joint peel; returns ``(grid, components, notes)``."""
    grid = SamplerGrid(groups=1, members=11, domain=1 << 22, seed=seed,
                       rows=2, buckets=8, levels=2, block=block)
    place = _Placer(grid)
    notes = {}
    # member 0 — level 1 is a 9-coordinate path in the cell graph
    # (row-0 bucket i -- row-1 bucket i -- row-0 bucket i+1 ...): only
    # its two ends are alone in a cell, so it peels two coordinates a
    # sweep, five sweeps in all.  Level 0 also holds a pair colliding
    # in both rows, which can never peel: stuck beside a slow level.
    path = [place.pick(1, 1, (i + 1) // 2, i // 2) for i in range(9)]
    for sign, j in zip((1, -1) * 5, path):
        grid.update(0, j, sign)
    stuck = [place.pick(0, 0, 3, 5), place.pick(0, 0, 3, 5)]
    for j in stuck:
        grid.update(0, j, 1)
    notes["path"], notes["stuck"] = path, stuck
    # member 1 — one coordinate: alone in both rows of each level it
    # lives in, so both cells decode it in the same sweep (dedupe).
    notes["lonely"] = place.pick(1, 1, 2, 6)
    grid.update(1, notes["lonely"], -1)
    # members 2 + 3 — x1 and x2 each have a private cell and hide x3,
    # which shares row 0 with x1 and row 1 with x2: sweep 1 subtracts
    # both and only then do x3's cells become one-sparse.  Summed
    # across two members, with a coordinate that cancels in the sum.
    x1, x2, x3 = (place.pick(0, 0, 0, 0), place.pick(0, 0, 1, 1),
                  place.pick(0, 0, 0, 1))
    internal = place.pick(0, 0, 6, 6)
    grid.update(2, x1, 2)
    grid.update(2, internal, 1)
    grid.update(3, internal, -1)
    grid.update(3, x2, -1)
    grid.update(3, x3, 1)
    notes["uncover"] = (x1, x2, x3)
    # member 4 — untouched: an all-zero component between active ones.
    # member 5 — two coordinates with all four cells private; the test
    # flips one fingerprint so the level never peels to zero and the
    # fallback single-cell scan has to answer.
    y1, y2 = place.pick(0, 0, 2, 2), place.pick(0, 0, 4, 4)
    grid.update(5, y1, 1)
    grid.update(5, y2, 1)
    notes["flip"] = (y1, y2)
    # member 6 — nothing but a both-rows collision: FAILED.
    for _ in range(2):
        grid.update(6, place.pick(0, 0, 7, 7), 1)
    # members 7..10 — ordinary traffic, for the fold path.
    rng = np.random.default_rng(3)
    for member in range(7, 11):
        for j in rng.integers(0, grid.domain, size=3):
            grid.update(member, int(j), 1)
    components = [[0], [1], [2, 3], [4], [5], [6], [7, 8, 9], [10]]
    return grid, components, notes


class TestWorklistPeelDifferential:
    def _batch(self, grid, components):
        batch = grid.summed_many(0, components)
        # Corrupt component 4 (member 5): y2's row-0 cell no longer
        # verifies, its subtraction leaves a nonzero fingerprint behind.
        batch._f[4, 0, 0, 4] ^= 1
        return batch

    def test_outcomes_match_scalar_per_component(self):
        grid, components, notes = _adversarial_grid()
        batch = self._batch(grid, components)
        with collect_query_metrics() as qm:
            outcomes = batch.sample_many()
        expected = [_scalar_outcome(reference.sketch_at(batch, c))
                    for c in range(batch.count)]
        assert outcomes == expected
        statuses = [status for status, _ in outcomes]
        assert statuses == ["ok", "ok", "ok", "zero", "ok", "failed",
                            "ok", "ok"]
        # Each construction did what it was built to do.
        assert outcomes[0][1][0] in notes["path"]       # level 1 certified
        assert outcomes[1][1] == (notes["lonely"], -1)
        assert outcomes[2][1][0] in notes["uncover"]
        assert outcomes[4][1] == (notes["flip"][0], 1)  # first cell in scan order
        assert qm.peel_sweeps >= 5
        assert qm.fallback_scans == 2                   # corrupted + failed
        assert (qm.sample_ok, qm.sample_zero, qm.sample_failed) == (6, 1, 1)
        assert qm.batch_queries == 8

    def test_stuck_level_sits_beside_the_slow_one(self):
        grid, components, notes = _adversarial_grid()
        view = reference.sketch_at(grid.summed_many(0, components), 0)
        assert view._recover_level(0) is None
        assert sorted(view._recover_level(1)) == sorted(notes["path"])

    def test_uncovered_coordinate_is_recovered(self):
        grid, components, notes = _adversarial_grid()
        view = reference.sketch_at(grid.summed_many(0, components), 2)
        support = view._recover_level(0)
        x1, x2, x3 = notes["uncover"]
        assert support == {x1: 2, x2: -1, x3: 1}

    def test_worklist_sees_fewer_cells_than_a_rescan(self):
        grid, components, _ = _adversarial_grid()
        batch = self._batch(grid, components)
        nonzero = int(((batch._w != 0) | (batch._s != 0) | (batch._f != 0)).sum())
        with collect_query_metrics() as qm:
            batch.sample_many()
        # Sweep 1 is every nonzero cell; a rescan would pay nearly that
        # again on each of the later sweeps.
        assert nonzero < qm.cells_decoded < 2 * nonzero
        assert qm.peel_sweeps >= 5

    def test_copy_and_fold_paths_agree_with_summed(self):
        grid, components, _ = _adversarial_grid()
        batch = grid.summed_many(0, components)
        for ci, comp in enumerate(components):
            ref = reference.summed(grid, 0, comp)
            for plane in ("_w", "_s", "_f"):
                assert np.array_equal(
                    getattr(ref, plane), getattr(batch, plane)[ci]
                ), (comp, plane)
        assert batch.sample_many() == [
            _scalar_outcome(reference.summed(grid, 0, comp))
            for comp in components
        ]

    def test_segments_layout_equals_lists(self):
        grid, components, _ = _adversarial_grid()
        flat = np.array([m for comp in components for m in comp])
        sizes = np.array([len(comp) for comp in components])
        a = grid.summed_many(0, components)
        b = grid.summed_segments(0, flat, sizes)
        assert np.array_equal(a._w, b._w)
        assert np.array_equal(a._s, b._s)
        assert np.array_equal(a._f, b._f)
        ok, failed, index, weight = b.sample_arrays()
        assert [
            (SummedBatch.OK, (int(j), int(w))) if o
            else (SummedBatch.FAILED if bad else SummedBatch.ZERO, None)
            for o, bad, j, w in zip(ok, failed, index, weight)
        ] == a.sample_many()


class TestStackedGrids:
    """Two adversarial grids with *different* seeds, on one counter
    buffer, decoded as one batch: every component must come out as it
    does from its own grid's ``sample_many()`` — the slow unit that
    needs five sweeps, the stalled one beside it, the FAILED one, and
    the one only the fallback scan answers (from what sweep 1 saw of
    the un-peeled counters: a drained batch keeps no second copy)."""

    def _stack(self):
        size = SamplerGrid(1, 11, 1 << 22, seed=0, rows=2, buckets=8,
                           levels=2).space_counters()
        buffer = np.zeros(2 * size, dtype=np.int64)
        grids, comps = [], None
        for k, seed in enumerate((99, 7)):
            grid, comps, _ = _adversarial_grid(
                seed, block=buffer[k * size:(k + 1) * size]
            )
            # The corruption TestWorklistPeelDifferential applies to its
            # batch, applied to the counters instead: member 5's second
            # coordinate no longer verifies in row 0.
            grid._f[0, 5, 0, 0, :] ^= (grid._f[0, 5, 0, 0, :] != 0)
            grids.append(grid)
        return buffer, grids, comps

    def test_stacked_outcomes_equal_each_grids_own(self):
        buffer, grids, comps = self._stack()
        separate = [g.summed_many(0, comps) for g in grids]
        expected = [o for batch in separate for o in batch.sample_many()]
        assert {status for status, _ in expected} == {"ok", "zero", "failed"}
        assert expected[:8] != expected[8:]  # the seeds really differ

        # One gather over both grids: grid k's plane-0 samplers start at
        # slot 3 * 11 * k, its planes are 11 slots apart.
        slots = buffer.reshape(-1, 2, 2, 8)
        members = np.array([m for comp in comps for m in comp])
        sizes = np.array([len(comp) for comp in comps] * 2)
        w_slot = np.concatenate([members, 33 + members])
        plane = np.full(w_slot.size, 11)
        groups = np.repeat([0, 1], len(comps))
        stack = HashStack.of(grids)

        stacked = SummedBatch(
            stack, grids, groups, *_sum_slots(slots, w_slot, plane, sizes)
        )
        for c in range(stacked.count):  # the gather itself
            ref = reference.sketch_at(separate[c // 8], c % 8)
            got = reference.sketch_at(stacked, c)
            assert got._grid is grids[c // 8] and got.group == 0
            assert np.array_equal(ref._w, got._w)
            assert np.array_equal(ref._s, got._s)
            assert np.array_equal(ref._f, got._f)
        assert stacked.sample_many() == expected  # leaves the batch intact
        with collect_query_metrics() as qm:
            ok, failed, index, weight = stacked.drain_arrays()
        assert [
            (SummedBatch.OK, (j, w)) if o
            else (SummedBatch.FAILED if bad else SummedBatch.ZERO, None)
            for o, bad, j, w in zip(ok.tolist(), failed.tolist(),
                                    index.tolist(), weight.tolist())
        ] == expected
        # Per grid: the corrupted and the FAILED component went to the
        # fallback.
        assert qm.fallback_scans == 4
        assert qm.peel_sweeps >= 5 and qm.batch_queries == 16
        # drain_arrays spent the batch's own counters: the slow level of
        # component 0 is peeled to zero in place.
        assert separate[0]._w[0, 1].any() and not stacked._w[0, 1].any()


@pytest.mark.parametrize("pass_cells", [1 << 19, 64])
def test_stacked_minus_equals_each_instance_decode_minus(pass_cells):
    """``decode_stack(minus=)`` names global node ids, instance-major:
    a stack decodes each instance of ``G − minus`` exactly as the
    instance's own ``decode(minus=)`` does, in one pass or in many."""
    from unittest import mock

    from repro.core._sampled import SampledForestUnion
    from repro.graph.generators import gnp_graph
    from repro.sketch import spanning_forest

    union = SampledForestUnion(14, k=2, repetitions=12, seed=8)
    edges = gnp_graph(14, 0.5, seed=3).edges()
    union.update_batch([(e, 1) for e in edges])
    todo = sorted(union.sketches)
    minus = {
        i: [e for e in edges[::3] if union.sketches[i].contains_vertexwise(e)]
        for i in todo
    }
    triples, offset = [], 0
    for i in todo:
        m, idx, d = union.sketches[i].incidence([(e, 1) for e in minus[i]])
        triples.append((m + offset, idx, d))
        offset += union.sketches[i].grid.members
    with mock.patch.object(spanning_forest, "_PASS_CELLS", pass_cells):
        coords, src, _ = spanning_forest.decode_stack(
            union.scheme, union._hashes,
            union._arena.reshape(-1, union._levels, 2, 8),
            {i: sk.grid for i, sk in union.sketches.items()}, union._member_lut,
            union._base // union._member_stride, todo,
            minus=tuple(np.concatenate(col) for col in zip(*triples)),
        )
    for i in todo:
        alone = union.sketches[i].decode(minus=minus[i])
        assert sorted(coords[src == i].tolist()) == sorted(
            union.scheme.index_of(e) for e in alone.edges()
        )


class TestDecodeAtScale:
    #: ``QueryMetrics.cells_decoded`` of this exact fixture before the
    #: worklist (every sweep re-verified every nonzero cell).
    FULL_RESCAN_CELLS = 336118

    @staticmethod
    def _sketch(n=1024):
        codes = np.unique(
            np.random.default_rng(7).integers(0, n * n, size=40 * n)
        )
        u, v = codes // n, codes % n
        u, v = u[u < v][: 16 * n], v[u < v][: 16 * n]
        # Six rounds (the decode needs four) and no placement tables:
        # the fixture is built in a fraction of a second.
        sk = SpanningForestSketch(n, seed=12345, rounds=6)
        sk.grid.detach_hash_cache()
        sk.update_batch_pairs(u, v, np.ones(len(u), dtype=np.int64))
        return sk, set(zip(u.tolist(), v.tolist()))

    def test_n1024_decode_verifies_fewer_cells_and_explains_itself(self):
        n = 1024
        sk, live = self._sketch(n)
        with collect_query_metrics() as qm:
            forest = sk.decode()
        assert forest.num_edges == n - 1
        assert set(forest.edges()) <= live
        assert 0 < qm.cells_decoded < self.FULL_RESCAN_CELLS
        assert qm.decode_rounds == 4
        assert qm.sample_ok == qm.batch_queries == 1205
        assert qm.sample_zero == qm.sample_failed == 0
        assert qm.peel_sweeps >= qm.decode_rounds
        assert "rounds: 4 Bor" in qm.summary()

    def test_n1024_decode_minus_equals_decoding_the_peeled_copy(self):
        sk, _ = self._sketch()
        minus = sk.decode().edges()  # peel the first forest: layer 2
        peeled = sk.copy()
        peeled.grid.detach_hash_cache()  # no tables for one small batch
        peeled.update_batch([(e, -1) for e in minus])
        outcomes = []
        for decode in (lambda: sk.decode(minus=minus), peeled.decode):
            with collect_query_metrics() as qm:
                forest = decode()
            outcomes.append((forest.edges(), qm.decode_rounds, qm.sample_ok,
                             qm.sample_zero, qm.sample_failed))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] and not set(outcomes[0][0]) & set(minus)
