"""Digest diff / repair localization (the anti-entropy substrate).

Two replicas of one sketch diverge exactly when their update sets
differ; the repair layer must (a) notice, (b) localize the divergence
to grids/(group, row) cells and then to member columns, and (c) after
the divergent columns are copied verbatim, report convergence.  These
tests pin all three on real sketches, plus the replace-semantics
member load that column repair uses.
"""

import pytest

from repro.audit.repair import (
    diff_digest_tables,
    divergent_members,
    grid_digest_table,
    member_digest_table,
    sketch_digest_table,
    table_fingerprint,
)
from repro.errors import IncompatibleSketchError
from repro.sketch.bank import SamplerGrid
from repro.sketch.serialization import (
    dump_member_state,
    dump_sketch,
    iter_grids,
    replace_member_state,
)
from repro.sketch.skeleton import SkeletonSketch
from repro.sketch.spanning_forest import SpanningForestSketch
from repro.util.hashing import hash64


def make_pair(n=24, seed=5):
    return (
        SpanningForestSketch(n, seed=seed),
        SpanningForestSketch(n, seed=seed),
    )


def edge_stream(count, seed, n=24):
    for i in range(count):
        u = hash64(seed, 2 * i) % n
        v = hash64(seed, 2 * i + 1) % n
        if u != v:
            yield int(u), int(v)


class TestDigestTables:
    def test_identical_sketches_identical_tables(self):
        a, b = make_pair()
        for u, v in edge_stream(60, seed=2):
            a.insert((u, v))
            b.insert((u, v))
        ta, tb = sketch_digest_table(a), sketch_digest_table(b)
        assert ta == tb
        assert table_fingerprint(ta) == table_fingerprint(tb)
        assert diff_digest_tables(ta, tb) == []

    def test_divergence_is_detected_and_localized(self):
        a, b = make_pair()
        for u, v in edge_stream(60, seed=2):
            a.insert((u, v))
            b.insert((u, v))
        b.insert((1, 2))  # the divergent update
        ta, tb = sketch_digest_table(a), sketch_digest_table(b)
        assert ta != tb
        assert table_fingerprint(ta) != table_fingerprint(tb)
        cells = diff_digest_tables(ta, tb)
        assert cells, "a real divergence produced no digest mismatch"
        # An edge update touches members {1, 2} only; every mismatching
        # cell must be explained by those columns.
        grid = a.grid
        for gi, g, r in cells:
            assert gi == 0
            assert 0 <= g < grid.groups and 0 <= r < grid.rows

    def test_skeleton_sketch_tables_cover_all_layers(self):
        a = SkeletonSketch(16, k=2, seed=3)
        table = sketch_digest_table(a)
        assert len(table) == len(list(iter_grids(a)))

    def test_shape_mismatch_raises(self):
        a, _ = make_pair()
        table = sketch_digest_table(a)
        with pytest.raises(IncompatibleSketchError):
            diff_digest_tables(table, table + table)


class TestMemberDigests:
    def test_divergent_members_localize_exactly(self):
        a, b = make_pair()
        for u, v in edge_stream(80, seed=9):
            a.insert((u, v))
            b.insert((u, v))
        b.insert((3, 7))
        da = member_digest_table(a.grid)
        db = member_digest_table(b.grid)
        assert divergent_members(da, db) == [3, 7]

    def test_equal_columns_digest_equal(self):
        a, b = make_pair()
        for u, v in edge_stream(40, seed=4):
            a.insert((u, v))
            b.insert((u, v))
        da = member_digest_table(a.grid)
        db = member_digest_table(b.grid)
        assert divergent_members(da, db) == []

    def test_member_count_mismatch_raises(self):
        grid = SamplerGrid(
            groups=2, members=4, domain=32, rows=2, buckets=4, levels=3, seed=1
        )
        other = SamplerGrid(
            groups=2, members=5, domain=32, rows=2, buckets=4, levels=3, seed=1
        )
        with pytest.raises(IncompatibleSketchError):
            divergent_members(
                member_digest_table(grid), member_digest_table(other)
            )


class TestColumnRepair:
    def test_replace_member_state_converges_bit_identically(self):
        a, b = make_pair()
        for u, v in edge_stream(80, seed=9):
            a.insert((u, v))
            b.insert((u, v))
        a.insert((3, 7))  # a is ahead; b must be repaired to match
        members = divergent_members(
            member_digest_table(a.grid), member_digest_table(b.grid)
        )
        assert members == [3, 7]
        for m in members:
            got = replace_member_state(b.grid, dump_member_state(a.grid, m))
            assert got == m
        assert dump_sketch(a) == dump_sketch(b)
        assert grid_digest_table(a.grid) == grid_digest_table(b.grid)

    def test_replace_is_idempotent_unlike_load(self):
        a, b = make_pair()
        a.insert((0, 1))
        blob0 = dump_member_state(a.grid, 0)
        blob1 = dump_member_state(a.grid, 1)
        for _ in range(3):  # re-delivery must not corrupt the column
            replace_member_state(b.grid, blob0)
            replace_member_state(b.grid, blob1)
        assert dump_sketch(a) == dump_sketch(b)

    def test_replace_rejects_foreign_grid(self):
        a, _ = make_pair(seed=5)
        other = SpanningForestSketch(24, seed=6)
        with pytest.raises(IncompatibleSketchError):
            replace_member_state(other.grid, dump_member_state(a.grid, 0))
