"""Property tests for the integrity layer's core equivalences.

Two families of properties:

* **Verified-path transparency** — for any valid dynamic stream, the
  integrity-checked operations (verified merges, CRC-checked dump /
  accumulate-restore) produce state bit-identical to the plain
  operations they wrap, for every sketch shape (bare grid, spanning
  forest, multi-layer skeleton).  The checks must never perturb what
  they check.
* **Row-check soundness and power** — every hash row of a grid holds
  the same bucket totals at each (group, member, level), so the audit
  has no false positives on any legitimate history (every update and
  merge path, restores, member-state merges, engine output, phantom
  deletes), and the *first* audit finds every single flipped bit at
  exactly its (instance, group, member, level).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.integrity import audit_sketch, verified_merge
from repro.core.connectivity_query import VertexConnectivityQuerySketch
from repro.core.edge_connectivity_sketch import EdgeConnectivitySketch
from repro.core.light_edges import LightEdgeRecoverySketch
from repro.core.params import Params
from repro.engine.shard import ShardedIngestEngine, shard_of_edge, zero_clone
from repro.errors import IncompatibleSketchError
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

from ..engine.faults import flip_bank_bit
from .test_prop_streams_and_sketches import dynamic_streams

N = 10


def make_sketch(kind, seed):
    if kind == "forest":
        return SpanningForestSketch(N, seed=seed, rounds=4, rows=2, buckets=8)
    if kind == "rank3":
        return SpanningForestSketch(N, r=3, seed=seed, rounds=4, rows=3,
                                    buckets=8)
    if kind == "union":
        return VertexConnectivityQuerySketch(N, k=1, seed=seed, repetitions=6)
    return SkeletonSketch(N, k=2, seed=seed, rounds=4, rows=2, buckets=8)


#: Hyperedges a rank-3 history adds on top of its pair stream.
TRIPLES = [(0, 1, 2), (3, 5, 7), (2, 4, 9)]


def assert_clean(sketch):
    report = audit_sketch(sketch)
    assert report.ok, report.findings


def single_run_state(kind, stream, seed) -> bytes:
    sketch = make_sketch(kind, seed)
    for u in stream:
        sketch.update(u.edge, u.sign)
    return dump_sketch(sketch)


class TestVerifiedPathTransparency:
    @given(
        dynamic_streams(),
        st.sampled_from(["forest", "skeleton"]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_sharded_ingest_with_verified_merges_is_bit_identical(
        self, sg, kind, shards, seed
    ):
        stream, _final = sg
        engine = ShardedIngestEngine(
            make_sketch(kind, seed), shards=shards, batch_size=7,
            verify_merges=True,
        )
        result = engine.ingest(stream)
        assert dump_sketch(result.sketch) == single_run_state(kind, stream, seed)

    @given(
        dynamic_streams(),
        st.sampled_from(["forest", "skeleton"]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_shard_dump_then_verified_accumulate_restore(self, sg, kind, seed):
        """Checkpoint round trip: shard, dump each part, fold the blobs
        back into a zero sketch with ``accumulate=True`` — bit-identical
        to the single-shard run, through the CRC- and linearity-checked
        restore path."""
        stream, _final = sg
        proto = make_sketch(kind, seed)
        parts = [zero_clone(proto) for _ in range(3)]
        for u in stream:
            parts[shard_of_edge(u.edge, 0, 3)].update(u.edge, u.sign)
        merged = zero_clone(proto)
        for part in parts:
            restored = zero_clone(proto)
            load_sketch(restored, dump_sketch(part))
            verified_merge(merged, restored)
        assert dump_sketch(merged) == single_run_state(kind, stream, seed)

    @given(dynamic_streams(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_verified_merge_tree_matches_plain_merge(self, sg, seed):
        stream, _final = sg
        proto = make_sketch("forest", seed)
        parts = [zero_clone(proto) for _ in range(4)]
        for u in stream:
            parts[shard_of_edge(u.edge, 0, 4)].update(u.edge, u.sign)
        plain = zero_clone(proto)
        checked = zero_clone(proto)
        for part in parts:
            plain += part.copy()
            verified_merge(checked, part)
        assert dump_sketch(checked) == dump_sketch(plain)

    @given(dynamic_streams(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_grid_dump_accumulate_roundtrip(self, sg, seed):
        """The bare-grid satellite: dump/load with ``accumulate=True``
        equals ``+=``, CRC verified, rows still consistent."""
        stream, _final = sg
        proto = make_sketch("forest", seed)
        a, b = zero_clone(proto), zero_clone(proto)
        for i, u in enumerate(stream):
            (a if i % 2 else b).update(u.edge, u.sign)
        load_grid(a.grid, dump_grid(b.grid), accumulate=True)
        expected = zero_clone(proto)
        for u in stream:
            expected.update(u.edge, u.sign)
        assert dump_grid(a.grid) == dump_grid(expected.grid)
        assert_clean(a.grid)


class TestDigestSoundness:
    @given(
        dynamic_streams(),
        st.sampled_from(["forest", "rank3", "skeleton"]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_no_false_positives_on_any_legitimate_history(
        self, sg, kind, seed
    ):
        """Scalar updates, the batch kernel, ``+=`` / ``-=``, copies,
        replace and accumulate restores, member-state merges,
        and phantom deletes: no audit on the way finds anything."""
        stream, final = sg
        sketch = make_sketch(kind, seed)
        if kind == "rank3":
            stream = stream + [EdgeUpdate(e, +1) for e in TRIPLES]
        half = len(stream) // 2
        for u in stream[:half]:
            sketch.update(u.edge, u.sign)
        assert_clean(sketch)
        other = zero_clone(sketch)
        other.update_batch(stream[half:])
        sketch += other
        assert_clean(sketch)
        sketch -= other
        assert_clean(sketch)
        sketch += other
        # A phantom delete: an edge the stream did not leave live (at
        # most 40 steps never fill all 45 pairs).
        absent = next(
            (i, j) for i in range(N) for j in range(i + 1, N)
            if (i, j) not in final.edges()
        )
        sketch.update(absent, -1)
        assert_clean(sketch)
        assert_clean(sketch.copy())
        restored = zero_clone(sketch)
        load_sketch(restored, dump_sketch(sketch))
        load_sketch(restored, dump_sketch(other), accumulate=True)
        assert_clean(restored)
        for grid, source in zip(iter_grids(restored), iter_grids(sketch)):
            load_member_state(grid, dump_member_state(source, N - 1))
        assert_clean(restored)

    @pytest.mark.parametrize("backend", ["serial", "shm"])
    def test_no_false_positives_on_engine_output(self, backend):
        events = [EdgeUpdate((i, j), +1)
                  for i in range(N) for j in range(i + 1, N) if (i + j) % 3]
        events += [EdgeUpdate(u.edge, -1) for u in events[::4]]
        for kind in ("forest", "skeleton"):
            engine = ShardedIngestEngine(
                make_sketch(kind, 5), shards=2, batch_size=8, backend=backend
            )
            assert_clean(engine.ingest(events).sketch)

    def test_no_false_positives_on_query_structures(self):
        """The Theorem 4 union (kernel and per-instance updates), the
        edge-connectivity and the light-edge sketches."""
        params = Params.practical()
        union = make_sketch("union", 3)
        edge = EdgeConnectivitySketch(N, k_max=3, seed=3, params=params)
        light = LightEdgeRecoverySketch(N, k=2, seed=3, params=params)
        cycle = [((i, (i + 1) % N), +1) for i in range(N)]
        union.update_batch(cycle + [((0, 5), +1), ((0, 5), -1)])
        union.update((2, 7), -1)  # phantom
        for sketch in (edge, light):
            for e, sign in cycle + [((1, 6), -1)]:
                sketch.update(e, sign)
        for sketch in (union, edge, light):
            assert_clean(sketch)


class TestFirstAuditFindsEveryFlip:
    @given(
        st.sampled_from(["forest", "rank3", "skeleton", "union"]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_bit_flip_found_and_localized(self, kind, flip_seed):
        """No earlier audit: the first one finds the flip, and only it,
        at its (instance, group, member, level) and counter plane."""
        sketch = make_sketch(kind, 11)
        edges = [(i, (i + 3) % N) for i in range(N)]
        for e in edges:
            sketch.update(tuple(sorted(e)), +1)
        if kind == "rank3":
            for e in TRIPLES:
                sketch.update(e, +1)
        where = flip_bank_bit(sketch, seed=flip_seed)
        report = audit_sketch(sketch)
        assert [
            (f.instance, f.group, f.member, f.level, f.kind)
            for f in report.findings
        ] == [(where["instance"], where["group"], where["member"],
               where["level"], where["array"])]

    def test_sixteen_buckets_sum_mod_p_without_overflow(self):
        """A 16-bucket row's residues sum past 2^64 (negative deltas
        leave index sums just below p); the mod-p totals still agree on
        a legitimate grid and still convict a flip."""
        grid = SamplerGrid(groups=2, members=3, domain=64, seed=4,
                           rows=3, buckets=16, levels=3)
        rng = np.random.default_rng(0)
        members = np.repeat(np.arange(3), 64)
        indices = np.tile(np.arange(64), 3)
        grid.update_batch(members, indices, -rng.integers(1, 9, members.size))
        widest = max(
            sum(int(v) for v in grid._s[g, m, 0, r])
            for g in range(2) for m in range(3) for r in range(3)
        )
        assert widest >= 2**64  # an int64 or uint64 sum would wrap
        assert_clean(grid)
        grid._f[1, 2, 0, 1, 7] ^= 1 << 60
        assert [(f.group, f.member, f.level, f.kind)
                for f in audit_sketch(grid).findings] == [(1, 2, 0, "f")]

    def test_one_row_grid_is_refused(self):
        """A one-row grid has no redundancy: the audit raises a typed
        error rather than ever reporting it ok."""
        sketch = SpanningForestSketch(N, seed=2, rounds=3, rows=1, buckets=8)
        sketch.update((0, 1), +1)
        with pytest.raises(IncompatibleSketchError, match="one-row"):
            audit_sketch(sketch)
