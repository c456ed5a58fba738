"""Integrity auditing end to end: detect, localize, verify, exclude.

These tests exercise the full corruption story the audit subsystem
promises: a single flipped bit in any live counter bank is *detected*
(digest divergence), *localized* (to the (sketch, instance, group,
row) the injector actually hit), and — through the degraded decode
routing — *excluded* so the query layer never silently answers from a
damaged repetition.  The injectors live in the shared fault harness
(:mod:`tests.engine.faults`) so the chaos smoke job replays any
failing seed bit for bit.
"""

import pytest

from repro.audit.integrity import (
    SketchAuditor,
    audit_sketch,
    named_grids,
    verified_merge,
    verified_restore,
)
from repro.core.connectivity_query import VertexConnectivityQuerySketch
from repro.core.edge_connectivity_sketch import EdgeConnectivitySketch
from repro.core.params import Params
from repro.errors import IntegrityError, PayloadCorruptionError
from repro.graph.hypergraph import Hypergraph
from repro.sketch.bank import SamplerGrid
from repro.sketch.serialization import (
    dump_grid,
    dump_member_state,
    dump_sketch,
    iter_grids,
    load_grid,
    load_member_state,
)
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch

from ..engine.faults import flip_bank_bit, flip_blob_byte


def cycle_updates(n):
    return [((i, (i + 1) % n), +1) for i in range(n)]


def make_forest(n=16, seed=5):
    sketch = SpanningForestSketch(n, seed=seed, rounds=5, rows=2, buckets=8)
    for edge, sign in cycle_updates(n):
        sketch.update(edge, sign)
    return sketch


class TestDetectionAndLocalization:
    @pytest.mark.parametrize("seed", range(6))
    def test_forest_bit_flip_detected_and_localized(self, seed):
        sketch = make_forest()
        auditor = SketchAuditor(sketch, "forest")
        assert auditor.audit().ok
        where = flip_bank_bit(sketch, seed=seed)
        report = auditor.audit()
        assert not report.ok
        hits = [
            f for f in report.findings
            if f.group == where["group"] and f.row == where["row"]
        ]
        assert hits, (where, report.findings)
        assert where["instance"] in report.corrupted_instances()

    @pytest.mark.parametrize("seed", range(4))
    def test_skeleton_bit_flip_localizes_to_layer(self, seed):
        sketch = SkeletonSketch(12, k=3, seed=7, rounds=4, rows=2, buckets=8)
        for edge, sign in cycle_updates(12):
            sketch.update(edge, sign)
        auditor = SketchAuditor(sketch, "skeleton")
        assert auditor.audit().ok
        where = flip_bank_bit(sketch, seed=seed)
        report = auditor.audit()
        assert not report.ok
        assert report.corrupted_instances() == {where["instance"]}
        assert all("layer" in f.sketch for f in report.findings)

    @pytest.mark.parametrize("seed", range(4))
    def test_vertex_query_bit_flip_localizes_to_instance(self, seed):
        sketch = VertexConnectivityQuerySketch(10, k=1, seed=3, repetitions=4)
        for edge, sign in cycle_updates(10):
            sketch.update(edge, sign)
        auditor = SketchAuditor(sketch, "vc")
        assert auditor.audit().ok
        where = flip_bank_bit(sketch, seed=seed)
        report = auditor.audit()
        assert not report.ok
        assert report.corrupted_instances() == {where["instance"]}

    def test_clean_sketch_never_flags(self):
        sketch = make_forest()
        auditor = SketchAuditor(sketch, "forest")
        for edge in [(0, 5), (1, 9), (2, 11)]:
            sketch.update(edge, +1)
            assert auditor.audit().ok
        for edge in [(0, 5), (1, 9)]:
            sketch.update(edge, -1)
            assert auditor.audit().ok

    def test_raise_if_corrupt_carries_findings(self):
        sketch = make_forest()
        auditor = SketchAuditor(sketch, "forest")
        flip_bank_bit(sketch, seed=1)
        with pytest.raises(IntegrityError) as exc:
            auditor.audit().raise_if_corrupt()
        assert exc.value.findings

    def test_rebase_accepts_damage_as_new_baseline(self):
        sketch = make_forest()
        auditor = SketchAuditor(sketch, "forest")
        flip_bank_bit(sketch, seed=2)
        assert not auditor.audit().ok
        auditor.rebase()
        assert auditor.audit().ok

    def test_audit_sketch_one_shot_baselines(self):
        sketch = make_forest()
        assert audit_sketch(sketch, "forest").ok  # baseline pass
        flip_bank_bit(sketch, seed=3)
        report = SketchAuditor(sketch, "forest").audit()
        # The auditor attaches but does not recompute existing digests,
        # so the earlier baseline still convicts the flip.
        assert not report.ok


class TestVerifiedMerge:
    def test_clean_merge_passes_and_matches_plain(self):
        a, b = make_forest(seed=5), make_forest(seed=5)
        c = make_forest(seed=5)
        c.update((0, 7), +1)
        plain = a.copy()
        plain += c
        verified_merge(a, c, label="merge")
        assert dump_sketch(a) == dump_sketch(plain)

        del b  # (unused twin kept the construction symmetric)

    def test_corrupted_operand_raises(self):
        dst, src = make_forest(seed=5), make_forest(seed=5)
        # Baseline the destination, then damage it out of band: the
        # post-merge recompute cannot match digest(dst) + digest(src).
        for ref in named_grids(dst, "merge"):
            from repro.audit.digest import attach_digest

            attach_digest(ref.grid)
        flip_bank_bit(dst, seed=4)
        with pytest.raises(IntegrityError):
            verified_merge(dst, src, label="merge")

    def test_metrics_counters(self):
        from repro.engine.metrics import IngestMetrics

        metrics = IngestMetrics(shards=1, backend="serial", batch_size=1)
        a, b = make_forest(seed=6), make_forest(seed=6)
        verified_merge(a, b, metrics=metrics)
        assert metrics.audits == 1
        assert metrics.corruption_detected == 0


class TestVerifiedRestore:
    def test_accumulate_restore_bit_identical_to_direct_merge(self):
        a, b = make_forest(seed=8), make_forest(seed=8)
        b.update((2, 9), +1)
        blob = dump_sketch(b)
        plain = a.copy()
        plain += b
        verified_restore(a, blob, accumulate=True)
        assert dump_sketch(a) == dump_sketch(plain)

    def test_replace_restore_rebaselines(self):
        a, b = make_forest(seed=8), make_forest(seed=8)
        b.update((2, 9), +1)
        verified_restore(a, dump_sketch(b))
        assert dump_sketch(a) == dump_sketch(b)
        assert SketchAuditor(a, "restored").audit().ok

    @pytest.mark.parametrize("seed", range(4))
    def test_corrupted_blob_rejected_before_any_state_changes(self, seed):
        a, b = make_forest(seed=8), make_forest(seed=8)
        blob = flip_blob_byte(dump_sketch(b), seed=seed)
        before = dump_sketch(a)
        with pytest.raises(PayloadCorruptionError):
            verified_restore(a, blob, accumulate=True)
        assert dump_sketch(a) == before  # nothing was folded in


class TestPayloadCRC:
    """The serialization satellites: payload damage raises typed errors."""

    def make_grid(self):
        grid = SamplerGrid(groups=2, members=6, domain=32, seed=11,
                           rows=2, buckets=4, levels=3)
        for i in range(40):
            grid.update(i % 6, (i * 7) % 32, 1 + i % 3)
        return grid

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_blob_crc(self, seed):
        grid = self.make_grid()
        blob = flip_blob_byte(dump_grid(grid), seed=seed)
        with pytest.raises(PayloadCorruptionError):
            load_grid(self.make_grid(), blob)

    @pytest.mark.parametrize("seed", range(4))
    def test_member_state_crc(self, seed):
        grid = self.make_grid()
        blob = flip_blob_byte(dump_member_state(grid, 3), seed=seed)
        referee = SamplerGrid(groups=2, members=6, domain=32, seed=11,
                              rows=2, buckets=4, levels=3)
        with pytest.raises(PayloadCorruptionError):
            load_member_state(referee, blob)
        assert referee.appears_zero()  # message rejected before merging

    def test_clean_member_state_roundtrip(self):
        grid = self.make_grid()
        referee = SamplerGrid(groups=2, members=6, domain=32, seed=11,
                              rows=2, buckets=4, levels=3)
        for member in range(6):
            assert load_member_state(
                referee, dump_member_state(grid, member)
            ) == member
        assert dump_grid(referee) == dump_grid(grid)


@pytest.mark.faults
class TestCorruptionExclusionEndToEnd:
    """No silently wrong answers: detect -> localize -> exclude -> answer.

    Both tests run under the chaos marker so the smoke script sweeps
    them across injection seeds.
    """

    def test_vertex_query_excludes_corrupted_instance(self, chaos_seed):
        n = 12
        sketch = VertexConnectivityQuerySketch(
            n, k=1, seed=17, params=Params.practical()
        )
        for edge, sign in cycle_updates(n):
            sketch.update(edge, sign)
        auditor = SketchAuditor(sketch, "vc")
        flip_bank_bit(sketch, seed=chaos_seed)
        report = auditor.audit()
        assert not report.ok
        excluded = report.corrupted_instances()
        assert excluded
        # Removing any single vertex of a cycle never disconnects it —
        # the surviving instances must still say so, honestly degraded.
        result = sketch.disconnects_degraded(
            [chaos_seed % n], exclude_instances=excluded
        )
        assert result.value is False
        assert result.degraded
        assert result.reason == "corruption-excluded"

    def test_edge_connectivity_excludes_corrupted_layer(self, chaos_seed):
        n = 10
        sketch = EdgeConnectivitySketch(n, k_max=4, seed=5,
                                        params=Params.practical())
        for edge, sign in cycle_updates(n):
            sketch.update(edge, sign)
        auditor = SketchAuditor(sketch, "ec")
        flip_bank_bit(sketch, seed=chaos_seed)
        report = auditor.audit()
        assert not report.ok
        excluded = report.corrupted_instances()
        assert excluded
        result = sketch.estimate_degraded(exclude_layers=excluded)
        # A cycle has edge connectivity exactly 2; with <= 2 of the 4
        # layers excluded the surviving skeleton still certifies it.
        assert result.value == 2
        assert result.degraded
        assert result.reason == "corruption-excluded"


@pytest.mark.parametrize(
    "sketch",
    [make_forest(), SkeletonSketch(12, k=3, seed=2, rounds=3)],
    ids=["forest", "skeleton"],
)
def test_named_grids_follow_iter_grids_order(sketch):
    """An audit finding's grid and anti-entropy's ``grid=`` index
    (an :func:`iter_grids` position) name the same bank."""
    named = [ref.grid for ref in named_grids(sketch)]
    listed = list(iter_grids(sketch))
    assert len(named) == len(listed) >= 1
    assert all(a is b for a, b in zip(named, listed))
