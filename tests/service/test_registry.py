"""Registry unit tests: naming, configs, snapshots, checkpoint resume."""

import numpy as np
import pytest

from repro.errors import (
    BadRequestError,
    CheckpointError,
    NoSuchSketchError,
    SketchExistsError,
)
from repro.service.registry import (
    SketchRegistry,
    build_sketch,
    normalize_config,
)
from repro.sketch.bank import clear_hash_cache_pool
from repro.sketch.serialization import dump_sketch


def ingest_edges(registry, record, edges, sign=1):
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    signs = np.full(us.size, sign, dtype=np.int64)
    return registry.ingest_pairs(record, us, vs, signs)


class TestNormalizeConfig:
    def test_defaults_filled(self):
        config = normalize_config({"n": 16})
        assert config["kind"] == "forest"
        assert config["n"] == 16
        assert config["seed"] == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(BadRequestError, match="unknown"):
            normalize_config({"n": 16, "frobnicate": 3})

    def test_bad_kind_rejected(self):
        with pytest.raises(BadRequestError, match="kind"):
            normalize_config({"n": 16, "kind": "tree"})

    @pytest.mark.parametrize("n", [None, 1, "16", 1.5])
    def test_bad_n_rejected(self, n):
        with pytest.raises(BadRequestError):
            normalize_config({"n": n})

    def test_skeleton_built(self):
        sketch = build_sketch(normalize_config({"n": 12, "kind": "skeleton", "k": 2}))
        assert len(sketch.layers) == 2


class TestCreate:
    def test_create_and_get(self):
        reg = SketchRegistry()
        record = reg.create("alpha", {"n": 16})
        assert reg.get("alpha") is record
        assert reg.names() == ["alpha"]
        assert record.events == 0

    @pytest.mark.parametrize(
        "name", ["", "-leading", "has space", "x" * 65, 7, None]
    )
    def test_bad_names_rejected(self, name):
        with pytest.raises(BadRequestError):
            SketchRegistry().create(name, {"n": 16})

    def test_duplicate_rejected(self):
        reg = SketchRegistry()
        reg.create("a", {"n": 16})
        with pytest.raises(SketchExistsError):
            reg.create("a", {"n": 16})

    def test_admit_rechecks_uniqueness(self):
        reg = SketchRegistry()
        config = reg.validate_create("a", {"n": 16})
        sketch = reg.prepare_sketch(config)
        reg.create("a", {"n": 16})
        with pytest.raises(SketchExistsError):
            reg.admit("a", config, sketch)

    def test_missing_name_raises(self):
        with pytest.raises(NoSuchSketchError):
            SketchRegistry().get("ghost")


class TestIngestAndSnapshot:
    def test_events_advance(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 8})
        assert ingest_edges(reg, record, [(0, 1), (1, 2)]) == 2
        assert record.events == 2

    def test_snapshot_reflects_components(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 4})
        ingest_edges(reg, record, [(0, 1), (2, 3)])
        snap = reg.refresh_snapshot(record)
        assert snap["offset"] == 2
        assert snap["connected"] is False
        assert snap["components"] == [[0, 1], [2, 3]]
        ingest_edges(reg, record, [(1, 2)])
        snap = reg.refresh_snapshot(record)
        assert snap["connected"] is True

    def test_snapshot_noop_when_current(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 4})
        ingest_edges(reg, record, [(0, 1)])
        snap = reg.refresh_snapshot(record)
        assert reg.refresh_snapshot(record) is snap

    def test_delete_cancels_insert(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 4})
        ingest_edges(reg, record, [(0, 1)])
        ingest_edges(reg, record, [(0, 1)], sign=-1)
        snap = reg.refresh_snapshot(record)
        assert snap["edges"] == []

    def test_skeleton_snapshot_has_layers(self):
        reg = SketchRegistry()
        record = reg.create("s", {"n": 6, "kind": "skeleton", "k": 2})
        ingest_edges(reg, record, [(0, 1), (1, 2), (2, 3)])
        snap = reg.refresh_snapshot(record)
        assert len(snap["layers"]) == 2

    def test_json_updates_path(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 6})
        count = reg.ingest_updates(record, [[1, [0, 1]], [1, [1, 2]]])
        assert count == 2
        assert record.events == 2


class TestCheckpointResume:
    def test_round_trip_bit_identical(self, tmp_path):
        reg = SketchRegistry(checkpoint_dir=str(tmp_path))
        record = reg.create("g", {"n": 16, "seed": 3})
        rng = np.random.default_rng(0)
        us = rng.integers(0, 15, size=500)
        vs = (us + 1 + rng.integers(0, 15 - us)) % 16
        keep = us != vs
        reg.ingest_pairs(record, us[keep], vs[keep], np.ones(int(keep.sum())))
        path = reg.checkpoint(record)
        assert path is not None

        fresh = SketchRegistry(checkpoint_dir=str(tmp_path))
        assert fresh.restore_all() == ["g"]
        restored = fresh.get("g")
        assert restored.events == record.events
        assert dump_sketch(restored.sketch) == dump_sketch(record.sketch)

    def test_checkpoint_noop_when_unchanged(self, tmp_path):
        reg = SketchRegistry(checkpoint_dir=str(tmp_path))
        record = reg.create("g", {"n": 8})
        ingest_edges(reg, record, [(0, 1)])
        assert reg.checkpoint(record) is not None
        assert reg.checkpoint(record) is None

    def test_checkpoint_noop_without_directory(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 8})
        ingest_edges(reg, record, [(0, 1)])
        assert reg.checkpoint(record) is None

    def test_restore_missing_meta_raises(self, tmp_path):
        reg = SketchRegistry(checkpoint_dir=str(tmp_path))
        record = reg.create("g", {"n": 8})
        ingest_edges(reg, record, [(0, 1)])
        reg.checkpoint(record)
        # Corrupt: rewrite the checkpoint without the service config.
        from repro.engine.checkpoint import Checkpoint, CheckpointManager

        mgr = CheckpointManager(str(tmp_path / "g"), interval=1, keep=2)
        ck = mgr.load_latest()
        mgr.save(Checkpoint(offset=ck.offset + 1, shard_blobs=ck.shard_blobs, meta={}))
        fresh = SketchRegistry(checkpoint_dir=str(tmp_path))
        with pytest.raises(CheckpointError, match="service config"):
            fresh.restore_all()

    def test_restore_all_empty_directory(self, tmp_path):
        reg = SketchRegistry(checkpoint_dir=str(tmp_path / "nothing"))
        assert reg.restore_all() == []


class TestAudit:
    def test_clean_sketch_audits_ok(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 8})
        ingest_edges(reg, record, [(0, 1), (1, 2)])
        report = reg.audit(record)
        assert report["ok"] is True
        assert report["grids_audited"] >= 1
        assert record.audits == 1
        ingest_edges(reg, record, [(2, 3)])
        assert reg.audit(record)["ok"] is True

    def test_one_row_sketch_audit_is_refused(self):
        reg = SketchRegistry()
        record = reg.create("g", {"n": 8, "rows": 1})
        with pytest.raises(BadRequestError, match="one-row"):
            reg.audit(record)

    def test_first_audit_after_restore_reports_a_flip(self, tmp_path):
        """No baseline is needed: a bit flipped in a restored sketch
        before its first audit is reported by it.  And an audit leaves
        nothing behind: ingest after it ends byte-identical to an
        unaudited twin."""
        reg = SketchRegistry(checkpoint_dir=str(tmp_path))
        record = reg.create("g", {"n": 16})
        ingest_edges(reg, record, [(0, 1), (1, 2), (2, 9), (5, 11)])
        reg.checkpoint(record)

        def restored():
            fresh = SketchRegistry(checkpoint_dir=str(tmp_path))
            assert fresh.restore_all() == ["g"]
            return fresh, fresh.get("g")

        damaged_reg, damaged = restored()
        damaged.sketch.grid._s[1, 2, 0, 1, 3] ^= 1 << 44
        report = damaged_reg.audit(damaged)
        assert report["ok"] is False
        assert report["findings"] and damaged.audits == 1

        audited_reg, audited = restored()
        twin_reg, twin = restored()
        assert audited_reg.audit(audited)["ok"] is True
        more = [(3, 4), (1, 2), (7, 15)]
        ingest_edges(audited_reg, audited, more)
        ingest_edges(twin_reg, twin, more)
        assert dump_sketch(audited.sketch) == dump_sketch(twin.sketch)


class TestDescribe:
    def test_table_bytes_reports_the_attached_tables(self):
        """``describe()`` (and so ``list`` / ``stats``) says whether
        the sketch is served from placement tables."""
        reg = SketchRegistry()
        try:
            served = reg.create("g", {"n": 256})
            assert served.describe()["table_bytes"] > 0
            # A rank-3 edge space of 4.5M coordinates: its tables would
            # need ~870 MiB, past the 256 MiB cap, so none are attached.
            big = reg.create("h", {"n": 300, "r": 3, "rounds": 2})
            assert big.describe()["table_bytes"] == 0
        finally:
            clear_hash_cache_pool()
