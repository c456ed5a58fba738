"""Property tests for the SoA sampler bank and its shared-memory backing.

The tentpole invariant of the zero-copy ingest layer: moving a
:class:`SamplerGrid`'s counters into the contiguous SoA block — and
from there into a named shared-memory segment — is *purely* a storage
decision.  Whatever combination of update path (scalar loop, fused
batch kernel), backing (private block, shm
segment, pickled copy) and lifecycle event (merge, checkpoint
roundtrip, member extraction, worker crash) a stream passes through,
the counter state must stay bit-identical to the scalar reference —
and pass the audit's row check wherever it is read.

Hypothesis drives random update streams over a small grid geometry;
every test compares full serialized state (``dump_grid``), which covers
all three planes byte for byte.  The SIGKILL test at the bottom is
deterministic (``-m faults``): a killed shm shard worker must fail the
run naming its shard, leave ``/dev/shm`` clean, and a resume from the
last checkpoint must reproduce the scalar reference byte for byte.
"""

import glob
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.integrity import audit_sketch
from repro.sketch.bank import SamplerGrid
from repro.sketch.serialization import dump_grid, load_grid
from repro.sketch.shm import SEGMENT_PREFIX, active_segments

GROUPS, MEMBERS, DOMAIN = 2, 4, 48
SEEDS = st.integers(min_value=0, max_value=2**32)

updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MEMBERS - 1),
        st.integers(min_value=0, max_value=DOMAIN - 1),
        st.integers(min_value=-5, max_value=5).filter(lambda d: d != 0),
    ),
    min_size=1,
    max_size=60,
)


def make_grid(seed: int) -> SamplerGrid:
    return SamplerGrid(GROUPS, MEMBERS, DOMAIN, seed=seed, rows=2, buckets=4)


def scalar_reference(seed: int, stream) -> bytes:
    grid = make_grid(seed)
    for m, i, d in stream:
        grid.update(m, i, d)
    return dump_grid(grid)


def apply_batch(grid: SamplerGrid, stream) -> SamplerGrid:
    m, i, d = (np.array(col, dtype=np.int64) for col in zip(*stream))
    grid.update_batch(m, i, d)
    return grid


class TestKernelEquivalence:
    @given(SEEDS, updates)
    @settings(max_examples=40, deadline=None)
    def test_default_path_matches_scalar(self, seed, stream):
        """Fused kernel + auto placement tables == scalar loop."""
        reference = scalar_reference(seed, stream)
        assert dump_grid(apply_batch(make_grid(seed), stream)) == reference

    @given(SEEDS, updates, st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_audited_lifecycle_matches_scalar_twin(self, seed, stream,
                                                   cut1, cut2):
        """A segment-backed grid audited between steps and fed by
        ``load_grid(accumulate=True)``, the batch kernel and ``+=`` ends
        byte-identical to a twin fed every update through the scalar
        loop, and every audit on the way is clean."""
        lo, hi = sorted((min(cut1, len(stream)), min(cut2, len(stream))))
        twin = make_grid(seed)
        for m, i, d in stream:
            twin.update(m, i, d)
        loaded, grid, merged = make_grid(seed), make_grid(seed), make_grid(seed)
        for target, part in ((loaded, stream[:lo]), (merged, stream[hi:])):
            if part:
                apply_batch(target, part)
        grid.to_shared()
        try:
            load_grid(grid, dump_grid(loaded), accumulate=True)
            assert audit_sketch(grid).ok
            if stream[lo:hi]:
                apply_batch(grid, stream[lo:hi])
                assert audit_sketch(grid).ok
            grid += merged
            assert dump_grid(grid) == dump_grid(twin)
            assert audit_sketch(grid).ok
        finally:
            grid.release_shared(unlink=True)
        assert audit_sketch(twin).ok

    @given(SEEDS, updates)
    @settings(max_examples=20, deadline=None)
    def test_split_merge_matches_one_shot(self, seed, stream):
        """Folding two half-streams and merging == one-shot ingest."""
        reference = scalar_reference(seed, stream)
        half = len(stream) // 2
        left, right = make_grid(seed), make_grid(seed)
        if stream[:half]:
            apply_batch(left, stream[:half])
        if stream[half:]:
            apply_batch(right, stream[half:])
        left += right
        assert dump_grid(left) == reference


class TestSharedMemoryBacking:
    @given(SEEDS, updates)
    @settings(max_examples=20, deadline=None)
    def test_shm_grid_matches_scalar(self, seed, stream):
        """A segment-backed grid folds updates bit-identically."""
        reference = scalar_reference(seed, stream)
        grid = make_grid(seed)
        name = grid.to_shared()
        try:
            apply_batch(grid, stream)
            assert grid.shared_name == name
            assert dump_grid(grid) == reference
        finally:
            grid.release_shared(unlink=True)
        assert grid.shared_name is None
        assert dump_grid(grid) == reference  # counters survived release

    @given(SEEDS, updates)
    @settings(max_examples=20, deadline=None)
    def test_cross_attach_aliases_pages(self, seed, stream):
        """Two grids attached to one segment see each other's writes.

        The mappings have distinct virtual addresses (two mmaps of one
        segment), so aliasing is asserted behaviorally: writes through
        one handle are immediately visible through the other, both ways.
        """
        writer = make_grid(seed)
        name = writer.to_shared()
        reader = make_grid(seed)
        reader.attach_shared(name)
        try:
            assert reader.shared_name == name
            apply_batch(writer, stream)
            assert dump_grid(reader) == dump_grid(writer)
            m, i, d = stream[0]
            reader.update(m, i, d)
            assert dump_grid(writer) == dump_grid(reader)
        finally:
            reader.release_shared(copy=False)
            writer.release_shared(unlink=True)

    @given(SEEDS, updates)
    @settings(max_examples=20, deadline=None)
    def test_checkpoint_roundtrip_into_shm(self, seed, stream):
        """dump/load roundtrips byte-identically — also into a
        segment-backed target, which must stay segment-backed (load is
        strictly in-place, never a rebind)."""
        source = apply_batch(make_grid(seed), stream)
        blob = dump_grid(source)

        private = load_grid(make_grid(seed), blob)
        assert dump_grid(private) == blob

        shared = make_grid(seed)
        name = shared.to_shared()
        try:
            load_grid(shared, blob)
            # Strictly in-place: the grid stays segment-backed and the
            # plane views still alias the (shared) block.
            assert shared.shared_name == name
            assert np.shares_memory(shared._block, shared._w)
            assert dump_grid(shared) == blob
        finally:
            shared.release_shared(unlink=True)

    @given(SEEDS, updates)
    @settings(max_examples=20, deadline=None)
    def test_pickle_detaches_to_private_copy(self, seed, stream):
        """Pickling a segment-backed grid ships a private snapshot."""
        grid = make_grid(seed)
        grid.to_shared()
        try:
            apply_batch(grid, stream)
            clone = pickle.loads(pickle.dumps(grid))
        finally:
            grid.release_shared(unlink=True)
        assert clone.shared_name is None
        assert not np.shares_memory(clone._block, grid._block)
        assert dump_grid(clone) == dump_grid(grid)


class TestMemberRoundtrip:
    @given(SEEDS, updates)
    @settings(max_examples=20, deadline=None)
    def test_extract_add_member_roundtrip(self, seed, stream):
        """Rebuilding a grid column-by-column reproduces it exactly."""
        source = apply_batch(make_grid(seed), stream)
        rebuilt = make_grid(seed)
        for member in range(MEMBERS):
            rebuilt.add_member_state(member, source.extract_member(member))
        assert dump_grid(rebuilt) == dump_grid(source)


def _my_segments():
    """Segment files in /dev/shm created by *this* process."""
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid():x}-*")


@pytest.mark.faults
class TestShmCrashHygiene:
    def test_sigkill_then_resume_leaks_no_segments(self, tmp_path):
        """SIGKILL an shm shard worker mid-stream with checkpoints on:
        the run raises :class:`WorkerCrashError` for that shard and
        leaves /dev/shm clean, and resuming from the last checkpoint
        is byte-identical to the scalar reference."""
        from repro.engine.checkpoint import CheckpointManager
        from repro.engine.shard import ShardedIngestEngine
        from repro.errors import WorkerCrashError
        from repro.sketch.serialization import dump_sketch
        from repro.sketch.spanning_forest import SpanningForestSketch
        from repro.stream.generators import random_dynamic_stream

        from ..engine.faults import KillWorkerOnce, reference_sketch

        n, seed = 40, 4
        stream, _ = random_dynamic_stream(n, 400, seed=seed)
        reference = reference_sketch(SpanningForestSketch(n, seed=seed), stream)

        files_before = set(_my_segments())
        active_before = set(active_segments())

        def engine():
            return ShardedIngestEngine(
                SpanningForestSketch(n, seed=seed),
                shards=2,
                batch_size=32,
                backend="shm",
                checkpoint=CheckpointManager(str(tmp_path), interval=100),
            )

        crashed = engine()
        killer = KillWorkerOnce(crashed, shard=0, at_batch=8)
        crashed.fault_hook = killer
        with pytest.raises(WorkerCrashError) as info:
            crashed.ingest(stream)
        assert killer.killed
        assert info.value.shard == 0
        # No new /dev/shm files and no new owned-segment registrations
        # survive the crash (deltas, so unrelated leftovers in the same
        # process don't mask or fake a leak here).
        assert set(_my_segments()) == files_before
        assert set(active_segments()) == active_before

        result = engine().ingest(stream, resume=True)
        assert 0 < result.resumed_from < len(stream)
        assert dump_sketch(result.sketch) == reference
        assert set(_my_segments()) == files_before
        assert set(active_segments()) == active_before
