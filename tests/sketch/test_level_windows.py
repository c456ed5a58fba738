"""Level-windowed Borůvka sampling (``spanning_forest._WINDOW_CELLS``).

A decode round of at least ``_WINDOW_CELLS`` counter cells reads its
subsampling levels in windows, shallowest first, and a component stops
reading once a window certifies it.  The answers must be the one-pass
answers bit for bit — the scalar oracle's — and so must the
per-component ``QueryMetrics`` counters: every component counts once a
round however many windows it read.  Here the gate is patched to 0
(every round windowed) against its real value, and the benchmark
shapes are pinned to their side of it.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from repro.core._sampled import SampledForestUnion
from repro.core.params import DEFAULT_PARAMS
from repro.engine.query import collect_query_metrics
from repro.errors import SamplerFailedError, SamplerZeroError
from repro.graph.generators import gnp_graph, random_hypergraph
from repro.sketch import reference, spanning_forest
from repro.sketch.bank import HashStack, SummedBatch, _sum_slots, drain_windows
from repro.sketch.spanning_forest import SpanningForestSketch

from . import test_batch_decode as batch_tests

#: Counters that count components, not kernel passes or cells.
PER_COMPONENT = ("batch_queries", "sample_ok", "sample_zero",
                 "sample_failed", "fallback_scans")

#: The gate as shipped, and 0: every round reads its levels in windows.
GATES = (spanning_forest._WINDOW_CELLS, 0)

#: A gate no round reaches: every round reads all levels in one window.
ONE_PASS = 1 << 62


def gate(cells):
    return mock.patch.object(spanning_forest, "_WINDOW_CELLS", cells)


def outcome(fn):
    """``fn()``, or the name of the decode failure it raised."""
    try:
        return fn()
    except SamplerFailedError as exc:
        return type(exc).__name__


def per_component(qm):
    return tuple(getattr(qm, name) for name in PER_COMPONENT)


def check_against_oracle(fn):
    """``fn`` under the scalar oracle and under the batch decode at each
    gate: one answer, and one set of per-component counters."""
    with reference.oracle():
        want = outcome(fn)
    counters = set()
    for cells in GATES:
        with gate(cells), collect_query_metrics() as qm:
            assert outcome(fn) == want, cells
        counters.add(per_component(qm))
    assert len(counters) == 1
    return want


def tiny_dense_sketch(n=40, seed=2):
    """One row of two buckets a level: components FAIL and the fallback
    scan answers all the time; eight isolated vertices are ZERO."""
    sk = SpanningForestSketch(n + 8, seed=seed, rows=1, buckets=2)
    sk.update_batch([(e, 1) for e in gnp_graph(n, 0.4, seed=seed).edges()])
    return sk


class TestWindowedDecodeMatchesTheOracle:
    def test_minus_entries(self):
        sk = SpanningForestSketch(40, seed=3)
        sk.update_batch([(e, 1) for e in gnp_graph(40, 0.3, seed=4).edges()])
        first = sk.decode().edges()
        second = check_against_oracle(
            lambda: sorted(sk.decode(minus=first).edges())
        )
        assert second and not set(second) & set(first)

    @pytest.mark.parametrize("strict", [False, True])
    def test_zero_failed_and_fallback_components(self, strict):
        sk = tiny_dense_sketch()
        with collect_query_metrics() as qm:
            outcome(lambda: sk.decode(strict=strict))
        assert qm.sample_zero and qm.sample_failed
        assert qm.fallback_scans > qm.sample_failed
        check_against_oracle(lambda: sorted(sk.decode(strict=strict).edges()))

    def test_strict_failure_is_raised_at_every_gate(self):
        sk = tiny_dense_sketch()
        assert check_against_oracle(
            lambda: sk.decode(strict=True)
        ) == "SamplerFailedError"

    def test_rank3_hypergraph(self):
        h = random_hypergraph(30, 60, r=3, seed=5)
        sk = SpanningForestSketch(30, r=3, seed=6)
        sk.update_batch([(e, 1) for e in h.edges()])
        forest = check_against_oracle(lambda: sorted(sk.decode().edges()))
        assert any(len(e) == 3 for e in forest)

    def test_stacked_theorem4_union(self):
        union = SampledForestUnion(14, k=2, repetitions=12, seed=8)
        union.update_batch(
            [(e, 1) for e in gnp_graph(14, 0.5, seed=3).edges()]
        )

        def refresh():
            union._decoded_at[:] = -1
            H, failed = union.decode_union_accounted()
            return sorted(H.edges()), failed

        assert check_against_oracle(refresh)[0]


class TestDrainWindows:
    def test_adversarial_stack_one_level_per_window(self):
        """The slow level beside a stuck one, the FAILED component, the
        fallback-only one and the ZERO one, with one level a window:
        the same outcomes and per-component counters as one window."""
        buffer, grids, comps = batch_tests.TestStackedGrids()._stack()
        slots = buffer.reshape(-1, 2, 2, 8)
        members = np.array([m for comp in comps for m in comp])
        sizes = np.array([len(comp) for comp in comps] * 2)
        w_slot = np.concatenate([members, 33 + members])
        plane = np.full(w_slot.size, 11)
        groups = np.repeat([0, 1], len(comps))
        stack = HashStack.of(grids)

        def gather(ids, lo, hi):
            nodes = np.repeat(np.isin(np.arange(sizes.size), ids), sizes)
            return SummedBatch(
                stack, grids, groups[ids],
                *_sum_slots(slots[:, lo:hi], w_slot[nodes], plane[nodes],
                            sizes[ids]),
                lo=lo,
            )

        runs = []
        for windows in ([(0, 2)], [(0, 1), (1, 2)]):
            with collect_query_metrics() as qm:
                runs.append((drain_windows(sizes.size, windows, gather), qm))
        (whole, one), (split, two) = runs
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)
        ok, failed, _, _ = whole
        assert failed.any() and (~ok & ~failed).any()  # FAILED and ZERO
        assert per_component(one) == per_component(two)
        assert one.fallback_scans == 4
        # Level 1 is read only by components level 0 did not certify.
        assert two.cells_gathered < one.cells_gathered


class TestZeroExit:
    """A component whose level 0 holds no nonzero cell is ZERO and reads
    no window past the first: levels are nested, so level 0 holds every
    coordinate."""

    @staticmethod
    def isolated_sketch():
        """Vertices 0-11 carry a G(12, 0.5); 12-15 are isolated."""
        sk = SpanningForestSketch(16, seed=4)
        sk.update_batch([(e, 1) for e in gnp_graph(12, 0.5, seed=5).edges()])
        return sk

    @staticmethod
    def drain(grid, comps, windows):
        """``drain_windows`` over singleton components of group 0, one
        level a window; returns its outcome and the ids each window
        gathered."""
        slots, plane = grid._slots(), grid.groups * grid.members
        read = []

        def gather(ids, lo, hi):
            read.append(ids.tolist())
            members = np.asarray(comps)[ids]
            return SummedBatch(
                grid._hashes, (grid,), np.zeros(ids.size, dtype=np.int64),
                *_sum_slots(slots[:, lo:hi], members,
                            np.full(members.size, plane),
                            np.ones(members.size, dtype=np.int64)),
                lo=lo,
            )

        return drain_windows(len(comps), windows, gather), read

    def test_a_zero_component_reads_exactly_one_window(self):
        grid = self.isolated_sketch().grid
        windows = [(lvl, lvl + 1) for lvl in range(grid.levels)]
        cell = grid.rows * grid.buckets  # one level of one member
        with collect_query_metrics() as qm:
            (ok, failed, _, _), read = self.drain(grid, [12, 13, 14], windows)
        assert not ok.any() and not failed.any()
        assert read == [[0, 1, 2]]
        assert qm.cells_gathered == 3 * cell
        assert qm.sample_zero == 3
        for member in (12, 13, 14):
            with pytest.raises(SamplerZeroError):
                reference.member_sketch(grid, 0, member).sample()

    def test_zero_components_leave_while_the_rest_read_on(self):
        grid = self.isolated_sketch().grid
        windows = [(lvl, lvl + 1) for lvl in range(grid.levels)]
        (ok, failed, _, _), read = self.drain(grid, [0, 12, 5, 15], windows)
        assert ok.tolist() == [True, False, True, False]
        assert not failed.any()
        assert read[0] == [0, 1, 2, 3]
        assert all(1 not in ids and 3 not in ids for ids in read[1:])

    def test_level_zero_decides_zero_off_stream_too(self):
        """Counters no valid stream makes — level 0 cleared under a
        nonzero level 1 — are ZERO on the batch path and in the scalar
        oracle alike: both test level 0 and nothing else."""
        grid = self.isolated_sketch().grid
        members = np.arange(12)
        batch = grid.summed_segments(0, members, np.ones_like(members))
        deep = np.flatnonzero(batch._w[:, 1].any(axis=(1, 2)))
        assert deep.size
        for plane in (batch._w, batch._s, batch._f):
            plane[deep, 0] = 0
        ok, failed, _, _ = batch.sample_arrays()
        assert not (ok[deep] | failed[deep]).any()
        for c in deep.tolist():
            with pytest.raises(SamplerZeroError):
                reference.sketch_at(batch, c).sample()


class TestCellsGathered:
    def test_windowed_n1024_decode_reads_and_verifies_fewer_cells(self):
        sk, _ = batch_tests.TestDecodeAtScale._sketch()
        runs = []
        for cells in (ONE_PASS, spanning_forest._WINDOW_CELLS):
            with gate(cells), collect_query_metrics() as qm:
                runs.append((sorted(sk.decode().edges()), qm))
        (forest, one), (windowed, qm) = runs
        assert windowed == forest
        assert per_component(qm) == per_component(one)
        assert qm.cells_gathered < one.cells_gathered / 2
        assert qm.cells_decoded < one.cells_decoded
        assert "gather: " in qm.summary()


def gathered(decode, cells):
    with gate(cells), collect_query_metrics() as qm:
        decode()
    return qm.cells_gathered


class TestGateSides:
    """Which side of the gate each benchmark shape takes.  A geometry
    change that moves one across fails here, not as a silent latency
    shift."""

    def test_n256_forest_decode_reads_all_levels_at_once(self):
        n = 256
        pairs = list(itertools.combinations(range(n), 2))
        rng = np.random.default_rng(1)
        pick = rng.choice(len(pairs), 8192, replace=False)
        sk = SpanningForestSketch(n, seed=2)
        sk.update_batch([(pairs[i], 1) for i in pick])
        real = gathered(sk.decode, spanning_forest._WINDOW_CELLS)
        assert real == gathered(sk.decode, ONE_PASS) > 0

    def test_n1024_forest_decode_reads_in_windows(self):
        sk, _ = batch_tests.TestDecodeAtScale._sketch()
        real = gathered(sk.decode, spanning_forest._WINDOW_CELLS)
        assert real < gathered(sk.decode, ONE_PASS)

    def test_theorem4_union_refresh_reads_in_windows(self):
        n, k = 128, 2
        union = SampledForestUnion(
            n, k, DEFAULT_PARAMS.query_repetitions(n, k), seed=9
        )
        union.update_batch(
            [(e, 1) for e in gnp_graph(n, 0.06, seed=4).edges()]
        )

        def refresh():
            union._decoded_at[:] = -1
            union.decode_union()

        real = gathered(refresh, spanning_forest._WINDOW_CELLS)
        assert real <= gathered(refresh, ONE_PASS) / 2
