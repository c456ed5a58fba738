"""Batched vs scalar equivalence for the vectorised update kernels.

The contract of :func:`repro.engine.batch.grid_update_batch` is
*bit-identical* state to the scalar ``SamplerGrid.update`` loop — not
approximately equal, identical — across seeds, grid geometries, and
delta magnitudes.  These tests enforce it, along with the edge-level
paths through :class:`SpanningForestSketch` / :class:`SkeletonSketch`.
"""

import numpy as np
import pytest

from repro.engine.batch import (
    expand_edge_batch,
    grid_update_batch,
    iter_event_batches,
)
from repro.errors import (
    DomainError,
    IncompatibleSketchError,
    NotOneSparseError,
)
from repro.graph.generators import gnp_graph, random_hypergraph
from repro.sketch.bank import SamplerGrid
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.generators import insert_only, random_dynamic_stream
from repro.stream.updates import EdgeUpdate


def grids_equal(a: SamplerGrid, b: SamplerGrid) -> bool:
    return (
        np.array_equal(a._w, b._w)
        and np.array_equal(a._s, b._s)
        and np.array_equal(a._f, b._f)
        and a.update_count == b.update_count
    )


def random_updates(rng, count, members, domain, magnitude):
    members_arr = rng.integers(0, members, size=count)
    indices = rng.integers(0, domain, size=count)
    deltas = rng.integers(-magnitude, magnitude + 1, size=count)
    return members_arr, indices, deltas


class TestGridBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 99991])
    def test_bit_identical_across_seeds(self, seed):
        rng = np.random.default_rng(seed + 1000)
        scalar = SamplerGrid(groups=4, members=6, domain=200, seed=seed)
        batched = SamplerGrid(groups=4, members=6, domain=200, seed=seed)
        m, i, d = random_updates(rng, 300, 6, 200, 1 << 40)
        for mm, ii, dd in zip(m, i, d):
            if dd != 0:
                scalar.update(int(mm), int(ii), int(dd))
        batched.update_batch(m, i, d)
        assert grids_equal(scalar, batched)

    def test_zero_deltas_dropped(self):
        grid = SamplerGrid(groups=2, members=3, domain=50, seed=5)
        applied = grid.update_batch([0, 1, 2], [4, 9, 14], [0, 0, 0])
        assert applied == 0
        assert grid.update_count == 0
        assert not grid._w.any()

    def test_repeated_coordinate_collapses_exactly(self):
        # Many updates to the same cell exercise the segment-sum path.
        scalar = SamplerGrid(groups=3, members=2, domain=30, seed=11)
        batched = SamplerGrid(groups=3, members=2, domain=30, seed=11)
        count = 5000
        m = np.zeros(count, dtype=np.int64)
        i = np.full(count, 17, dtype=np.int64)
        d = np.ones(count, dtype=np.int64)
        for _ in range(count):
            scalar.update(0, 17, 1)
        batched.update_batch(m, i, d)
        assert grids_equal(scalar, batched)

    def test_insert_then_delete_cancels(self):
        grid = SamplerGrid(groups=2, members=4, domain=64, seed=3)
        rng = np.random.default_rng(0)
        m, i, d = random_updates(rng, 100, 4, 64, 5)
        grid.update_batch(m, i, d)
        grid.update_batch(m, i, -d)
        assert not grid._w.any() and not grid._s.any() and not grid._f.any()

    def test_split_in_halves_equals_one_shot(self):
        a = SamplerGrid(groups=2, members=4, domain=80, seed=21)
        b = SamplerGrid(groups=2, members=4, domain=80, seed=21)
        rng = np.random.default_rng(21)
        m, i, d = random_updates(rng, 200, 4, 80, 1 << 30)
        a.update_batch(m, i, d)
        b.update_batch(m[:90], i[:90], d[:90])
        b.update_batch(m[90:], i[90:], d[90:])
        assert grids_equal(a, b)

    def test_out_of_domain_coordinate_rejected(self):
        grid = SamplerGrid(groups=1, members=2, domain=10, seed=0)
        with pytest.raises(NotOneSparseError):
            grid.update_batch([0], [10], [1])
        with pytest.raises(NotOneSparseError):
            grid.update_batch([0], [-1], [1])

    def test_out_of_range_member_rejected(self):
        grid = SamplerGrid(groups=1, members=2, domain=10, seed=0)
        with pytest.raises(IncompatibleSketchError):
            grid.update_batch([2], [0], [1])

    def test_mismatched_array_lengths_rejected(self):
        grid = SamplerGrid(groups=1, members=2, domain=10, seed=0)
        with pytest.raises(IncompatibleSketchError):
            grid.update_batch([0, 1], [0], [1])

    def test_reset_returns_to_empty(self):
        grid = SamplerGrid(groups=2, members=2, domain=16, seed=9)
        grid.update_batch([0, 1], [3, 8], [2, -5])
        grid.reset()
        assert not grid._w.any() and not grid._s.any() and not grid._f.any()
        assert grid.update_count == 0


class TestSketchBatchEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 123])
    def test_forest_graph_stream(self, seed):
        stream, _ = random_dynamic_stream(24, 150, seed=seed)
        scalar = SpanningForestSketch(24, seed=seed)
        batched = SpanningForestSketch(24, seed=seed)
        for u in stream:
            scalar.update(u.edge, u.sign)
        batched.update_batch(stream)
        assert grids_equal(scalar.grid, batched.grid)

    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize("r", [3, 4])
    def test_forest_hypergraph_stream(self, seed, r):
        stream, _ = random_dynamic_stream(16, 120, r=r, seed=seed)
        scalar = SpanningForestSketch(16, r=r, seed=seed)
        batched = SpanningForestSketch(16, r=r, seed=seed)
        for u in stream:
            scalar.update(u.edge, u.sign)
        batched.update_batch(stream)
        assert grids_equal(scalar.grid, batched.grid)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_skeleton_all_layers(self, seed):
        stream, _ = random_dynamic_stream(12, 90, seed=seed)
        scalar = SkeletonSketch(12, k=3, seed=seed)
        batched = SkeletonSketch(12, k=3, seed=seed)
        for u in stream:
            scalar.update(u.edge, u.sign)
        batched.update_batch(stream)
        for a, b in zip(scalar.layers, batched.layers):
            assert grids_equal(a.grid, b.grid)

    def test_batched_decode_matches(self):
        g = gnp_graph(20, 0.3, seed=4)
        batched = SpanningForestSketch(20, seed=4)
        batched.update_batch(insert_only(g))
        scalar = SpanningForestSketch(20, seed=4)
        for u in insert_only(g):
            scalar.update(u.edge, u.sign)
        assert sorted(batched.decode().edges()) == sorted(scalar.decode().edges())

    def test_hypergraph_decode_matches(self):
        h = random_hypergraph(14, 20, r=3, seed=8)
        batched = SpanningForestSketch(14, r=3, seed=8)
        batched.update_batch(insert_only(h))
        scalar = SpanningForestSketch(14, r=3, seed=8)
        for u in insert_only(h):
            scalar.update(u.edge, u.sign)
        assert sorted(batched.decode().edges()) == sorted(scalar.decode().edges())


class TestExpandEdgeBatch:
    def test_pairs_and_updates_accepted(self):
        sk = SpanningForestSketch(6, seed=0)
        a = expand_edge_batch(sk.scheme, sk._member_of, [EdgeUpdate.insert((0, 1))])
        b = expand_edge_batch(sk.scheme, sk._member_of, [((0, 1), 1)])
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_coefficients_sum_to_zero(self):
        # Incidence rows of one edge cancel: Σ coefficients == 0.
        sk = SpanningForestSketch(8, r=3, seed=0)
        _, _, deltas = expand_edge_batch(
            sk.scheme, sk._member_of, [EdgeUpdate.insert((1, 4, 6))]
        )
        assert deltas.sum() == 0

    def test_bad_sign_rejected(self):
        sk = SpanningForestSketch(6, seed=0)
        with pytest.raises(DomainError):
            expand_edge_batch(sk.scheme, sk._member_of, [((0, 1), 2)])

    def test_inactive_vertex_rejected(self):
        sk = SpanningForestSketch(6, seed=0, vertices=[0, 1, 2])
        with pytest.raises(DomainError):
            expand_edge_batch(sk.scheme, sk._member_of, [((0, 5), 1)])


class TestIterEventBatches:
    def test_chunking(self):
        batches = list(iter_event_batches(range(10), 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [x for b in batches for x in b] == list(range(10))

    def test_exact_multiple(self):
        assert [len(b) for b in iter_event_batches(range(8), 4)] == [4, 4]

    def test_empty(self):
        assert list(iter_event_batches([], 4)) == []

    def test_bad_batch_size(self):
        with pytest.raises(DomainError):
            list(iter_event_batches(range(3), 0))


class TestFoldCells:
    """The fold shared by the grid kernels and the union kernel, against
    a per-entry Python reference."""

    P = 2**61 - 1

    def entries(self, seed, cells, size):
        rng = np.random.default_rng(seed)
        flat = rng.integers(0, cells, size=size).astype(np.int64)
        d = rng.integers(-3, 4, size=size).astype(np.int64)
        cs = rng.integers(0, self.P, size=size).astype(np.int64)
        cf = rng.integers(0, self.P, size=size).astype(np.int64)
        return flat, d, cs, cf

    @pytest.mark.parametrize("seed", [0, 1])
    def test_separate_planes_match_entrywise(self, seed):
        from repro.engine.batch import fold_cells

        flat, d, cs, cf = self.entries(seed, cells=40, size=300)
        want = [np.zeros(40, dtype=np.int64) for _ in range(3)]
        for c, dd, a, b in zip(flat, d, cs, cf):
            want[0][c] += dd
            want[1][c] = (int(want[1][c]) + int(a)) % self.P
            want[2][c] = (int(want[2][c]) + int(b)) % self.P
        planes = tuple(np.zeros(40, dtype=np.int64) for _ in range(3))
        folded = fold_cells(planes, flat, d, cs, cf)
        for got, exp in zip(planes, want):
            assert np.array_equal(got, exp)
        # Per-entry observations: the entries themselves, cells repeating.
        for got, entry in zip(folded, (flat, d, cs, cf)):
            assert np.array_equal(got, entry)

    def test_plane_shift_addresses_packed_blocks(self):
        """Two blocks of different plane sizes packed in one arena: each
        entry's s and f cells sit one and two plane lengths past its
        weight cell."""
        from repro.engine.batch import fold_cells

        planes_of = np.array([5, 9])
        bases = np.array([0, 15])
        rng = np.random.default_rng(3)
        block = rng.integers(0, 2, size=200)
        local = rng.integers(0, planes_of[block])
        flat = (bases[block] + local).astype(np.int64)
        _, d, cs, cf = self.entries(4, cells=1, size=200)
        arena = np.zeros(15 + 27, dtype=np.int64)
        want = arena.copy()
        for c, sh, dd, a, b in zip(flat, planes_of[block], d, cs, cf):
            want[c] += dd
            want[c + sh] = (int(want[c + sh]) + int(a)) % self.P
            want[c + 2 * sh] = (int(want[c + 2 * sh]) + int(b)) % self.P
        fold_cells(
            (arena,) * 3, flat, d, cs, cf, plane_shift=planes_of[block]
        )
        assert np.array_equal(arena, want)
