"""Integrity auditing end to end: detect, localize, verify, exclude.

These tests exercise the full corruption story the audit subsystem
promises: a single flipped bit in any live counter bank is *detected*
by the first audit (its hash rows disagree), *localized* (to the
(sketch, instance, group, member, level) the injector actually hit),
and — through the degraded decode
routing — *excluded* so the query layer never silently answers from a
damaged repetition.  The injectors live in the shared fault harness
(:mod:`tests.engine.faults`) so the chaos smoke job replays any
failing seed bit for bit.
"""

import pytest

from repro.audit.integrity import audit_sketch, named_grids, verified_merge
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
    load_sketch,
)
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.stream.updates import EdgeUpdate

from ..engine.faults import flip_bank_bit, flip_blob_byte


def cycle_updates(n):
    return [((i, (i + 1) % n), +1) for i in range(n)]


def make_forest(n=16, seed=5):
    sketch = SpanningForestSketch(n, seed=seed, rounds=5, rows=2, buckets=8)
    for edge, sign in cycle_updates(n):
        sketch.update(edge, sign)
    return sketch


def at(where):
    return (where["instance"], where["group"], where["member"], where["level"])


def located(report):
    return {(f.instance, f.group, f.member, f.level) for f in report.findings}


class TestDetectionAndLocalization:
    @pytest.mark.parametrize("seed", range(6))
    def test_forest_bit_flip_detected_and_localized(self, seed):
        sketch = make_forest()
        assert audit_sketch(sketch, "forest").ok
        where = flip_bank_bit(sketch, seed=seed)
        report = audit_sketch(sketch, "forest")
        assert not report.ok
        assert located(report) == {at(where)}, (where, report.findings)
        assert report.findings[0].kind == where["array"]
        assert report.corrupted_instances() == {where["instance"]}

    @pytest.mark.parametrize("seed", range(4))
    def test_skeleton_bit_flip_localizes_to_layer(self, seed):
        sketch = SkeletonSketch(12, k=3, seed=7, rounds=4, rows=2, buckets=8)
        for edge, sign in cycle_updates(12):
            sketch.update(edge, sign)
        assert audit_sketch(sketch, "skeleton").ok
        where = flip_bank_bit(sketch, seed=seed)
        report = audit_sketch(sketch, "skeleton")
        assert not report.ok
        assert report.corrupted_instances() == {where["instance"]}
        assert all("layer" in f.sketch for f in report.findings)

    @pytest.mark.parametrize("seed", range(4))
    def test_vertex_query_bit_flip_localizes_to_instance(self, seed):
        sketch = VertexConnectivityQuerySketch(10, k=1, seed=3, repetitions=4)
        for edge, sign in cycle_updates(10):
            sketch.update(edge, sign)
        assert audit_sketch(sketch, "vc").ok
        where = flip_bank_bit(sketch, seed=seed)
        report = audit_sketch(sketch, "vc")
        assert not report.ok
        assert report.corrupted_instances() == {where["instance"]}

    def test_clean_sketch_never_flags(self):
        sketch = make_forest()
        for edge in [(0, 5), (1, 9), (2, 11)]:
            sketch.update(edge, +1)
            assert audit_sketch(sketch, "forest").ok
        for edge in [(0, 5), (1, 9)]:
            sketch.update(edge, -1)
            assert audit_sketch(sketch, "forest").ok

    def test_audit_sketch_first_call_detects(self):
        """No baseline: damage done before the first audit is found by
        it, and the audit leaves no state on the sketch."""
        sketch = make_forest()
        before = dict(vars(sketch.grid))
        where = flip_bank_bit(sketch, seed=3)
        report = audit_sketch(sketch, "forest")
        assert located(report) == {at(where)}
        assert vars(sketch.grid).keys() == before.keys()


class TestVerifiedMerge:
    def test_clean_merge_passes_and_matches_plain(self):
        a = make_forest(seed=5)
        c = make_forest(seed=5)
        c.update((0, 7), +1)
        plain = a.copy()
        plain += c
        verified_merge(a, c, label="merge")
        assert dump_sketch(a) == dump_sketch(plain)

    def test_corrupted_operand_raises(self):
        """Damage to either operand raises before anything is folded."""
        dst, src = make_forest(seed=5), make_forest(seed=5)
        where = flip_bank_bit(dst, seed=4)
        before = dump_sketch(dst)
        with pytest.raises(IntegrityError, match="operand rows") as exc:
            verified_merge(dst, src, label="merge")
        assert {f.group for f in exc.value.findings} == {where["group"]}
        assert dump_sketch(dst) == before

    def test_misaligned_merge_raises(self, monkeypatch):
        """A merge that lands the operand's counters in the wrong cells
        keeps every row consistent; only the digests see it."""
        dst, src = make_forest(seed=5), make_forest(seed=5)

        def misaligned(grid, other):
            grid._block[:, :, 1:] += other._block[:, :, :-1]
            return grid

        monkeypatch.setattr(SamplerGrid, "__iadd__", misaligned)
        with pytest.raises(IntegrityError) as exc:
            verified_merge(dst, src, label="merge")
        assert exc.value.findings
        assert audit_sketch(dst).ok  # the row check alone is blind here

    def test_ingest_verify_rejects_a_corrupted_shard(self, monkeypatch):
        """``ingest --verify``: a shard whose counters were damaged
        before the final merge raises instead of being folded in."""
        from repro.engine import pool as pool_module
        from repro.engine.shard import ShardedIngestEngine

        real_finish = pool_module.SerialPool.finish

        def damaged_finish(pool):
            states = real_finish(pool)
            flip_bank_bit(states[1][0], seed=2)
            return states

        monkeypatch.setattr(pool_module.SerialPool, "finish", damaged_finish)
        engine = ShardedIngestEngine(
            make_forest(seed=5), shards=2, batch_size=4, verify_merges=True
        )
        with pytest.raises(IntegrityError, match="operand rows disagree"):
            engine.ingest([EdgeUpdate(edge, +1) for edge in [(0, 3), (2, 7), (4, 9)]])

    def test_metrics_counters(self):
        from repro.engine.metrics import IngestMetrics

        metrics = IngestMetrics(shards=1, backend="serial", batch_size=1)
        a, b = make_forest(seed=6), make_forest(seed=6)
        verified_merge(a, b, metrics=metrics)
        assert metrics.audits == 1
        assert metrics.corruption_detected == 0


class TestVerifiedRestore:
    """A checkpoint restore is verified by the blob's CRC frame."""

    def test_accumulate_restore_bit_identical_to_direct_merge(self):
        a, b = make_forest(seed=8), make_forest(seed=8)
        b.update((2, 9), +1)
        blob = dump_sketch(b)
        plain = a.copy()
        plain += b
        load_sketch(a, blob, accumulate=True)
        assert dump_sketch(a) == dump_sketch(plain)
        assert audit_sketch(a, "restored").ok

    @pytest.mark.parametrize("seed", range(4))
    def test_corrupted_blob_rejected_before_any_state_changes(self, seed):
        a, b = make_forest(seed=8), make_forest(seed=8)
        blob = flip_blob_byte(dump_sketch(b), seed=seed)
        before = dump_sketch(a)
        with pytest.raises(PayloadCorruptionError):
            load_sketch(a, blob, accumulate=True)
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
        flip_bank_bit(sketch, seed=chaos_seed)
        report = audit_sketch(sketch, "vc")
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
        flip_bank_bit(sketch, seed=chaos_seed)
        report = audit_sketch(sketch, "ec")
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
