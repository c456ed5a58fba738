"""The named-sketch registry behind the server.

Each registered name owns one sketch (spanning-forest or k-skeleton),
an :class:`asyncio.Lock` serialising its mutating commands, an ingest
metrics object, and an epoch-tagged *decoded snapshot*.  The snapshot
is the serving trick that makes query tails flat: because updates are
linear, the decode of the sketch at event offset ``t`` is a pure
function of the ingested prefix, so the registry decodes once per
change epoch (on demand for ``fresh`` queries, or from the server's
background refresher for ``snapshot`` ones) and every read in between
is a dictionary lookup.  Every query answer carries the ``as_of``
offset it was decoded at, so consistency is visible to clients, and a
``fresh`` answer at offset ``t`` is bit-identical to a serial replay
of the first ``t`` events — the property the service test-suite
asserts under concurrent interleaved traffic.

Checkpoints reuse the engine's :class:`~repro.engine.checkpoint.
CheckpointManager`, one subdirectory per sketch name; the checkpoint
meta embeds the sketch's construction config, so a restart can rebuild
and restore every sketch (crash-safe resume) without any side channel.

Durability beyond the checkpoint cadence comes from the per-sketch
:class:`~repro.service.wal.WriteAheadLog` (``<ckpt-dir>/<name>/wal``):
every applied ingest batch is logged (payload verbatim + the
``(client, request)`` stamp) before its ack, checkpoint meta records
the covered WAL sequence number plus the dedup window, and
:meth:`SketchRegistry.restore_all` replays the WAL tail after
restoring the newest checkpoint — bit-identical to the uninterrupted
run, because the sketches are linear.  The per-sketch
:class:`~repro.service.wal.DedupWindow` turns a retried
(timed-out-but-applied) batch into a duplicate ack instead of a
double fold: exactly-once ingest across crashes and reconnects.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.checkpoint import Checkpoint, CheckpointManager
from ..engine.metrics import IngestMetrics
from ..errors import (
    BadRequestError,
    CheckpointError,
    IncompatibleSketchError,
    NoSuchSketchError,
    PayloadCorruptionError,
    SketchExistsError,
    WALError,
    WALFullError,
)
from ..util.clock import SYSTEM_CLOCK, Clock
from ..util.fs import REAL_FS, Filesystem
from ..graph.union_find import UnionFind
from ..sketch.serialization import (
    dump_sketch,
    iter_grids,
    load_sketch,
    sketch_fingerprint,
)
from ..sketch.skeleton import SkeletonSketch
from ..sketch.spanning_forest import SpanningForestSketch
from .protocol import decode_pairs
from .wal import (
    KIND_CREATE,
    KIND_PAIRS,
    KIND_UPDATES,
    DedupWindow,
    WriteAheadLog,
    wipe_wal,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Most pairs :meth:`SketchRegistry.ingest_batch` folds per kernel
#: call: it bounds the fold's temporaries on a big batch.
FOLD_CHUNK = 8192

#: Construction parameters a ``create`` request may set, with defaults.
_CONFIG_DEFAULTS = {
    "kind": "forest",
    "n": None,
    "r": 2,
    "k": 2,
    "seed": 0,
    "rounds": None,
    "rows": 2,
    "buckets": 8,
    "levels": None,
}


def normalize_config(args: Dict[str, object]) -> Dict[str, object]:
    """Validate and normalise a sketch construction config."""
    unknown = set(args) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise BadRequestError(f"unknown sketch parameters {sorted(unknown)}")
    config = dict(_CONFIG_DEFAULTS)
    config.update(args)
    if config["kind"] not in ("forest", "skeleton"):
        raise BadRequestError(
            f"kind must be 'forest' or 'skeleton', got {config['kind']!r}"
        )
    if not isinstance(config["n"], int) or config["n"] < 2:
        raise BadRequestError("sketch config needs an integer n >= 2")
    return config


def build_sketch(config: Dict[str, object]):
    """Construct a sketch from a normalised config dict."""
    kwargs = dict(
        n=config["n"],
        r=config["r"],
        seed=config["seed"],
        rounds=config["rounds"],
        rows=config["rows"],
        buckets=config["buckets"],
        levels=config["levels"],
    )
    if config["kind"] == "skeleton":
        return SkeletonSketch(k=config["k"], **kwargs)
    return SpanningForestSketch(**kwargs)


class SketchRecord:
    """One served sketch: state, lock, metrics, snapshot, durability."""

    def __init__(self, name: str, config: Dict[str, object], sketch,
                 wal: Optional[WriteAheadLog] = None,
                 dedup: Optional[DedupWindow] = None,
                 clock: Clock = SYSTEM_CLOCK):
        self.name = name
        self.config = config
        self.sketch = sketch
        self.lock = asyncio.Lock()
        self.created_at = clock.wall()
        #: Edge events ingested (the stream offset checkpoints record).
        self.events = 0
        self.ingest = IngestMetrics(shards=1, backend="service", batch_size=0)
        #: Latest decoded snapshot (None until first decode) — a dict
        #: with ``offset``, ``connected``, ``components``, ``edges`` and
        #: ``decoded_at``.
        self.snapshot: Optional[Dict[str, object]] = None
        self.last_checkpoint_events = -1
        self.audits = 0
        #: Write-ahead log (None when durability is disabled) and the
        #: last WAL sequence number assigned to this sketch.
        self.wal = wal
        self.seq = 0
        #: WAL sequence covered by the newest checkpoint.
        self.last_checkpoint_seq = 0
        #: Exactly-once memory for stamped ingest batches.
        self.dedup = dedup if dedup is not None else DedupWindow()
        #: Batches re-folded from the WAL tail by the last restore.
        self.replayed = 0
        #: Set when a WAL append failed after a fold: the sketch holds
        #: an unlogged batch, so further mutations are refused until an
        #: operator intervenes (restart replays to a consistent state).
        self.wal_broken = False
        #: Set while the WAL's disk is full (ENOSPC): the last mutation
        #: was rolled back with its linear inverse and refused with the
        #: retryable ``wal_full`` error.  Self-clearing — the flag drops
        #: on the next append that reaches the log.
        self.wal_full = False
        #: Migration freeze: mutations answer the typed ``frozen``
        #: error while the sketch's state is being dumped/shipped.
        self.frozen = False
        #: Anti-entropy bookkeeping (surfaced by ``health``): when this
        #: replica last took part in a digest round or repair, and how
        #: many repair copies it received.
        self.last_antientropy: Optional[float] = None
        self.repairs = 0

    @property
    def wal_lag(self) -> int:
        """WAL records not yet covered by a checkpoint (replay cost)."""
        return max(0, self.seq - self.last_checkpoint_seq)

    @property
    def vertices(self) -> Tuple[int, ...]:
        sk = self.sketch
        return sk.vertices if hasattr(sk, "vertices") else sk.layers[0].vertices

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": dict(self.config),
            "events": self.events,
            "space_bytes": self.sketch.space_bytes(),
            "snapshot_offset": (
                self.snapshot["offset"] if self.snapshot else None
            ),
            "last_checkpoint_events": self.last_checkpoint_events,
            "created_at": self.created_at,
            "wal_seq": self.seq,
            "wal_lag": self.wal_lag,
            "frozen": self.frozen,
            "table_bytes": sum(g.table_bytes for g in iter_grids(self.sketch)),
        }


class SketchRegistry:
    """Registry of named sketches plus their checkpoint managers.

    Every created or restored sketch gets the placement-table ingest
    fast path when its tables fit
    (:meth:`~repro.sketch.bank.SamplerGrid.attach_hash_cache`); the
    tables are pooled per (seed, geometry), so many sketches of the
    same shape share one set.
    """

    def __init__(
        self,
        checkpoint_dir: Optional[str] = None,
        keep: int = 2,
        wal: bool = True,
        wal_segment_bytes: int = 4 << 20,
        wal_fsync: str = "always",
        dedup_window: int = 4096,
        fs: Filesystem = REAL_FS,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.checkpoint_dir = checkpoint_dir
        self.keep = keep
        self.fs = fs
        self.clock = clock
        #: WAL durability is on whenever a checkpoint directory exists
        #: (there is nowhere to log without one).
        self.wal_enabled = wal and checkpoint_dir is not None
        self.wal_segment_bytes = wal_segment_bytes
        self.wal_fsync = wal_fsync
        self.dedup_window = dedup_window
        self._records: Dict[str, SketchRecord] = {}
        self._managers: Dict[str, CheckpointManager] = {}

    # -- lookup ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def names(self) -> List[str]:
        return sorted(self._records)

    def records(self) -> List[SketchRecord]:
        return [self._records[name] for name in self.names()]

    def get(self, name: str) -> SketchRecord:
        record = self._records.get(name)
        if record is None:
            raise NoSuchSketchError(f"no sketch named {name!r}")
        return record

    # -- lifecycle ------------------------------------------------------

    def create(self, name: str, args: Dict[str, object]) -> SketchRecord:
        """Register a new named sketch built from ``args``."""
        config = self.validate_create(name, args)
        sketch = self.prepare_sketch(config)
        return self.admit(name, config, sketch)

    def validate_create(
        self, name: str, args: Dict[str, object]
    ) -> Dict[str, object]:
        """Cheap create-time checks: name syntax, uniqueness, config."""
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise BadRequestError(
                f"invalid sketch name {name!r} (want [A-Za-z0-9][A-Za-z0-9_.-]*, "
                "max 64 chars)"
            )
        if name in self._records:
            raise SketchExistsError(f"sketch {name!r} already exists")
        return normalize_config(args)

    def prepare_sketch(self, config: Dict[str, object]):
        """Build a sketch and attach its serving accelerators.

        This is the expensive half of ``create`` (placement tables can
        take hundreds of milliseconds); the server runs it on a worker
        thread so the event loop keeps serving.
        """
        sketch = build_sketch(config)
        sketch.attach_hash_cache()
        return sketch

    def _wal_dir(self, name: str) -> Optional[str]:
        if not self.wal_enabled:
            return None
        return os.path.join(self.checkpoint_dir, name, "wal")

    def _open_wal(self, name: str) -> Optional[WriteAheadLog]:
        directory = self._wal_dir(name)
        if directory is None:
            return None
        return WriteAheadLog(
            directory,
            segment_bytes=self.wal_segment_bytes,
            fsync=self.wal_fsync,
            fs=self.fs,
        )

    def admit(
        self, name: str, config: Dict[str, object], sketch
    ) -> SketchRecord:
        """Register an already-prepared sketch under ``name``.

        A *fresh* create over leftover on-disk state (checkpoints or
        WAL segments from a previous incarnation of the name that was
        not resumed) wipes that state first — the old lineage is dead,
        and restoring or replaying it into the new sketch would be
        corruption, not durability.  With the WAL enabled, record 1 of
        the new log is a ``create`` record carrying the construction
        config, so the sketch is recoverable from the log alone even
        if it crashes before its first checkpoint.
        """
        if name in self._records:
            raise SketchExistsError(f"sketch {name!r} already exists")
        wal = None
        if self.checkpoint_dir is not None:
            self.manager_for(name).wipe()
            wal_dir = self._wal_dir(name)
            if wal_dir is not None:
                wipe_wal(wal_dir, fs=self.fs)
            wal = self._open_wal(name)
        record = SketchRecord(
            name, config, sketch, wal=wal,
            dedup=DedupWindow(capacity=self.dedup_window),
            clock=self.clock,
        )
        if wal is not None:
            record.seq = 1
            wal.append(record.seq, KIND_CREATE, dict(config))
        self._records[name] = record
        return record

    # -- ingest ---------------------------------------------------------

    def validate_pairs(self, record: SketchRecord, us, vs, signs) -> None:
        """Reject an invalid pair batch *before* any fold or WAL write.

        The kernels validate too, but they validate per chunk — a bad
        chunk after good ones would leave a partially applied batch.
        Checking the whole batch upfront makes ingest all-or-nothing:
        a batch either folds completely (and is logged, and replays
        identically) or touches nothing.
        """
        u = np.asarray(us)
        v = np.asarray(vs)
        s = np.asarray(signs)
        n = record.config["n"]
        if not (u.shape == v.shape == s.shape) or u.ndim != 1:
            raise BadRequestError("pair batch arrays must be equal-length 1-D")
        if u.size == 0:
            return
        if (np.abs(s) != 1).any():
            raise BadRequestError("pair batch signs must be +1 or -1")
        if int(u.min()) < 0 or int(v.min()) < 0 or \
                int(u.max()) >= n or int(v.max()) >= n:
            raise BadRequestError(
                f"pair batch mentions a vertex outside [0, {n})"
            )
        if (u == v).any():
            raise BadRequestError("pair batch contains a self-loop")

    def validate_updates(self, record: SketchRecord, updates) -> List:
        """Parse and fully validate a JSON hyperedge batch.

        Returns the ``[(edge_tuple, sign), ...]`` batch the sketch
        consumes.  Same rationale as :meth:`validate_pairs`: the
        scalar update loop applies event by event, so domain errors
        must be caught before the first one."""
        n = record.config["n"]
        r = record.config["r"]
        try:
            batch = [(tuple(int(v) for v in edge), int(sign))
                     for sign, edge in updates]
        except (TypeError, ValueError) as exc:
            raise BadRequestError(
                f"malformed updates payload: {exc}"
            ) from exc
        for edge, sign in batch:
            if sign not in (1, -1):
                raise BadRequestError(f"update sign must be +1 or -1, got {sign}")
            if len(set(edge)) != len(edge):
                raise BadRequestError(f"hyperedge {edge} has repeated vertices")
            if not 2 <= len(edge) <= r:
                raise BadRequestError(
                    f"hyperedge of {len(edge)} vertices violates 2 <= |e| <= {r}"
                )
            if any(v < 0 or v >= n for v in edge):
                raise BadRequestError(
                    f"hyperedge {edge} mentions a vertex outside [0, {n})"
                )
        return batch

    def ingest_pairs(self, record: SketchRecord, us, vs, signs) -> int:
        """Fold a packed rank-2 batch into a record's sketch.

        Must run under ``record.lock``.  Returns the number of edge
        events applied and advances the record's stream offset.
        """
        t0 = time.perf_counter()
        record.sketch.update_batch_pairs(us, vs, signs)
        count = int(len(us))
        record.events += count
        record.ingest.observe_batch(0, count, time.perf_counter() - t0)
        return count

    def ingest_updates(self, record: SketchRecord, updates) -> int:
        """Fold a general hyperedge batch ``[[sign, [v...]], ...]``."""
        batch = self.validate_updates(record, updates)
        t0 = time.perf_counter()
        record.sketch.update_batch(batch)
        count = len(batch)
        record.events += count
        record.ingest.observe_batch(0, count, time.perf_counter() - t0)
        return count

    def wal_commit(
        self,
        record: SketchRecord,
        kind: int,
        payload: bytes,
        client: Optional[str],
        request: Optional[int],
        count: int,
    ) -> int:
        """Log an applied batch and remember its ack (exactly-once).

        Runs under ``record.lock``, *after* the fold and *before* the
        ack leaves the server: a crash before this call loses only an
        unacknowledged batch (the client retries into an empty dedup
        slot); a crash after it replays the batch and answers the
        retry from the rebuilt dedup window.  Returns the assigned
        sequence number (0 when durability is disabled — the dedup
        window still protects against double folds within the process
        lifetime).
        """
        meta = {"client": client, "request": request, "count": int(count)}
        if record.wal is not None:
            try:
                record.wal.append(record.seq + 1, kind, meta, payload)
            except WALFullError:
                # Disk full, but the log itself is intact (the torn
                # append was physically truncated away).  Unfold the
                # batch with its linear inverse so memory matches the
                # log: the updates live in a module over Z, so ``+x``
                # then ``-x`` returns every cell to its exact prior
                # value (Thm 2's linearity).  Then refuse the ingest
                # with the typed retryable error: the client may
                # re-send the same stamp once space frees up
                # (checkpoint-driven truncation keeps running and is
                # what frees it).
                events = record.events - int(count)
                try:
                    self._fold_payload(record, kind, payload, sign=-1)
                except Exception:  # pragma: no cover - inverse folds are pure
                    # The unfold itself failed: state is now unknowable,
                    # which is exactly what wal_broken means.
                    record.wal_broken = True
                    raise
                # The unfold went through the ingest path, which counts
                # events forward; the batch never happened.
                record.events = events
                record.snapshot = None
                record.wal_full = True
                raise
            except Exception:
                # The fold landed but the log did not, and the failure
                # is not a recognised transient: acking would promise
                # durability we cannot deliver, and letting a retry in
                # would double-fold.  Freeze mutations on this sketch
                # until an operator intervenes.
                record.wal_broken = True
                raise
            record.seq += 1
            record.wal_full = False
        record.dedup.add(client, request, count, record.events)
        return record.seq

    def ingest_batch(
        self,
        record: SketchRecord,
        payload: bytes,
        updates,
        client: Optional[str],
        request: Optional[int],
    ) -> Tuple[int, int]:
        """One ``ingest-batch``: decode, validate, fold and log it.

        The server runs this as the batch's single worker-thread hop,
        under ``record.lock``.  A JSON ``updates`` batch is encoded as
        the payload it is logged as; either payload then goes through
        :meth:`_fold_payload`, which validates the whole batch before
        its first fold, and :meth:`wal_commit` runs last, so an invalid
        batch folds nothing and a folded batch is logged before it is
        acked.  Returns ``(count, seq)``.
        """
        if updates is not None:
            kind, payload = KIND_UPDATES, json.dumps(updates).encode("utf-8")
        else:
            kind = KIND_PAIRS
        count = self._fold_payload(record, kind, payload)
        seq = self.wal_commit(record, kind, payload, client, request, count)
        return count, seq

    def _fold_payload(
        self, record: SketchRecord, kind: int, payload: bytes, sign: int = 1
    ) -> int:
        """Fold one WAL payload, every edge's sign times ``sign``.

        The one place a ``KIND_PAIRS`` or ``KIND_UPDATES`` payload
        becomes sketch updates: ingest and WAL replay fold with ``+1``,
        and a rollback folds ``-1``, the batch's linear inverse.  The
        whole batch is validated before its first fold, packed pairs
        fold :data:`FOLD_CHUNK` at a time through :meth:`ingest_pairs`
        and JSON updates through :meth:`ingest_updates`.  Both advance
        the stream offset by the batch's edge count, which is returned.
        Must run under ``record.lock``.
        """
        if kind == KIND_PAIRS:
            us, vs, signs = decode_pairs(payload)
            self.validate_pairs(record, us, vs, signs)
            if sign != 1:
                signs = np.negative(signs)
            return sum(
                self.ingest_pairs(record, us[start:start + FOLD_CHUNK],
                                  vs[start:start + FOLD_CHUNK],
                                  signs[start:start + FOLD_CHUNK])
                for start in range(0, len(us), FOLD_CHUNK)
            )
        if kind == KIND_UPDATES:
            updates = json.loads(payload.decode("utf-8"))
            if sign != 1:
                updates = [[-s, e] for s, e in updates]
            return self.ingest_updates(record, updates)
        raise WALError(f"WAL for {record.name!r} holds record kind {kind}, "
                       "not an edge batch")

    # -- snapshots (the query path) -------------------------------------

    def refresh_snapshot(self, record: SketchRecord) -> Dict[str, object]:
        """Decode the record's sketch at its current offset.

        Must run under ``record.lock``: the decode only reads the
        counters, but a concurrent fold on the worker thread would
        change them mid-decode.  No-op when the snapshot is current.  The
        snapshot's ``decoded_at`` is the registry clock's
        ``monotonic()`` at the decode.
        """
        snap = record.snapshot
        if snap is not None and snap["offset"] == record.events:
            return snap
        sketch = record.sketch
        if isinstance(sketch, SkeletonSketch):
            layers = sketch.decode_layers()
            edges = sorted(
                {tuple(e) for forest in layers for e in forest.edges()}
            )
            layer_edges = [sorted(tuple(e) for e in f.edges()) for f in layers]
        else:
            forest = sketch.decode()
            edges = sorted(tuple(e) for e in forest.edges())
            layer_edges = None
        vertices = record.vertices
        uf = UnionFind(record.config["n"])
        for e in edges:
            uf.union_many(list(e))
        groups: Dict[int, List[int]] = {}
        for v in vertices:
            groups.setdefault(uf.find(v), []).append(v)
        components = sorted(sorted(g) for g in groups.values())
        snap = {
            "offset": record.events,
            "connected": len(components) == 1,
            "components": components,
            "edges": edges,
            "decoded_at": self.clock.monotonic(),
        }
        if layer_edges is not None:
            snap["layers"] = layer_edges
        record.snapshot = snap
        return snap

    # -- checkpoints -----------------------------------------------------

    def manager_for(self, name: str) -> Optional[CheckpointManager]:
        if self.checkpoint_dir is None:
            return None
        mgr = self._managers.get(name)
        if mgr is None:
            import os

            mgr = CheckpointManager(
                os.path.join(self.checkpoint_dir, name),
                interval=1,
                keep=self.keep,
                fs=self.fs,
            )
            self._managers[name] = mgr
        return mgr

    def checkpoint(self, record: SketchRecord) -> Optional[str]:
        """Persist a record's state (under its lock); returns the path.

        No-op (returns None) without a checkpoint directory or when
        nothing changed since the last save.  The checkpoint meta
        records the covered WAL sequence number and the dedup window,
        so a resume that starts from this checkpoint replays exactly
        the WAL records after ``seq`` and still answers retried
        stamps correctly; dead WAL segments are truncated after the
        save lands.
        """
        mgr = self.manager_for(record.name)
        if mgr is None or (
            record.events == record.last_checkpoint_events
            and record.seq == record.last_checkpoint_seq
        ):
            return None
        t0 = time.perf_counter()
        blob = dump_sketch(record.sketch)
        seq = record.seq
        ck = Checkpoint(
            offset=record.events,
            shard_blobs=[blob],
            meta={
                "service": dict(record.config),
                "saved_at": self.clock.wall(),
                "wal": {"seq": seq, "dedup": record.dedup.to_list()},
            },
        )
        path = mgr.save(ck)
        record.last_checkpoint_events = record.events
        record.last_checkpoint_seq = seq
        if record.wal is not None:
            record.wal.truncate_through(seq)
        record.ingest.checkpoint.observe(len(blob), time.perf_counter() - t0)
        return path

    def restore_all(self) -> List[str]:
        """Rebuild every sketch found under the checkpoint directory.

        Used by ``serve --resume``: each subdirectory is one sketch
        name.  Per name, recovery is *checkpoint + WAL tail*:

        1. load the latest loadable checkpoint (generation fallback);
           when none exists, fall back to the WAL's ``create`` record
           (the sketch crashed before its first checkpoint);
        2. restore the covered WAL sequence number and the dedup
           window from the checkpoint meta;
        3. replay every WAL record after the covered sequence through
           the normal ingest path — bit-identical to having never
           crashed, because updates are linear — re-adding each
           record's ``(client, request)`` stamp to the dedup window.

        A torn final WAL record (the crash artifact of an interrupted,
        hence unacknowledged, append) is truncated by the WAL open;
        interior corruption raises
        :class:`~repro.errors.WALCorruptionError` rather than silently
        dropping acknowledged history.  Returns the restored names.
        """
        if self.checkpoint_dir is None or not self.fs.isdir(self.checkpoint_dir):
            return []
        restored = []
        for name in sorted(self.fs.listdir(self.checkpoint_dir)):
            sub = os.path.join(self.checkpoint_dir, name)
            if not self.fs.isdir(sub) or not _NAME_RE.match(name):
                continue
            mgr = self.manager_for(name)
            ck = mgr.load_latest()
            wal = self._open_wal(name)
            record = self._restore_one(name, ck, wal)
            if record is not None:
                self._records[name] = record
                restored.append(name)
        return restored

    def _restore_one(
        self,
        name: str,
        ck: Optional[Checkpoint],
        wal: Optional[WriteAheadLog],
    ) -> Optional[SketchRecord]:
        """Checkpoint + WAL-tail recovery of one name; None = nothing."""
        config = None
        if ck is not None:
            meta = ck.meta.get("service")
            if not isinstance(meta, dict):
                raise CheckpointError(
                    f"checkpoint for {name!r} lacks service config meta"
                )
            config = normalize_config(meta)
        elif wal is not None and wal.last_seq > 0:
            for rec in wal.replay(after_seq=0):
                if rec.kind == KIND_CREATE:
                    config = normalize_config(rec.meta)
                break
            if config is None:
                raise CheckpointError(
                    f"WAL for {name!r} does not begin with a create record"
                )
        if config is None:
            return None
        sketch = self.prepare_sketch(config)
        base_seq = 0
        dedup = DedupWindow(capacity=self.dedup_window)
        if ck is not None:
            load_sketch(sketch, ck.shard_blobs[0])
            wal_meta = ck.meta.get("wal")
            if isinstance(wal_meta, dict):
                base_seq = int(wal_meta.get("seq", 0))
                dedup = DedupWindow.from_list(
                    wal_meta.get("dedup", ()), capacity=self.dedup_window
                )
            elif wal is not None:
                # Pre-WAL checkpoint next to a log: coverage unknown,
                # so trust the checkpoint and skip the replay.
                base_seq = wal.last_seq
        record = SketchRecord(name, config, sketch, wal=wal, dedup=dedup,
                              clock=self.clock)
        record.events = ck.offset if ck is not None else 0
        record.last_checkpoint_events = record.events if ck is not None else -1
        record.seq = base_seq
        record.last_checkpoint_seq = base_seq
        if wal is not None:
            for rec in wal.replay(after_seq=base_seq):
                if rec.kind == KIND_CREATE:
                    record.seq = rec.seq
                    continue
                count = self._fold_payload(record, rec.kind, rec.payload)
                record.seq = rec.seq
                record.replayed += 1
                record.dedup.add(
                    rec.meta.get("client"), rec.meta.get("request"),
                    count, record.events,
                )
        return record

    # -- audits ----------------------------------------------------------

    def audit(self, record: SketchRecord) -> Dict[str, object]:
        """Run an integrity audit over the record's sketch.

        Reads the counters' own cross-row redundancy
        (:func:`~repro.audit.integrity.audit_sketch`), so the first
        audit already reports damage done before it, and nothing is
        kept or maintained afterwards: ingest costs the same audited
        or not.  A sketch with one hash row has nothing to check and
        is refused (:class:`~repro.errors.BadRequestError`).  Must run
        under ``record.lock``.
        """
        from ..audit.integrity import audit_sketch

        try:
            report = audit_sketch(
                record.sketch, label=record.name, metrics=record.ingest
            )
        except IncompatibleSketchError as exc:
            raise BadRequestError(str(exc)) from exc
        record.audits += 1
        return {
            "ok": report.ok,
            "grids_audited": report.grids_audited,
            "findings": [f.describe() for f in report.findings],
        }

    # -- replication / anti-entropy support ------------------------------

    def is_live(self, record: SketchRecord) -> bool:
        """True while ``record`` is still the registered owner of its name.

        Handlers that looked a record up and then awaited its lock must
        re-check: a ``forget`` (migration completing) may have removed
        the name in between, and folding into an orphaned sketch would
        ack work into state nobody serves.
        """
        return self._records.get(record.name) is record

    def digest(self, record: SketchRecord) -> Dict[str, object]:
        """The anti-entropy probe: offsets plus a counter fingerprint.

        Two replicas whose fingerprints and event offsets match hold
        byte-identical dumps (up to SHA-256 collisions).  Must run under
        ``record.lock``.
        """
        record.last_antientropy = self.clock.wall()
        return {
            "events": record.events,
            "seq": record.seq,
            "fingerprint": sketch_fingerprint(record.sketch),
        }

    def repair_sketch(
        self, record: SketchRecord, blob: bytes, events: int
    ) -> None:
        """Overwrite a divergent replica's sketch with a peer's dump.

        The receiving half of anti-entropy's copy stage: the blob
        replaces the counters verbatim (replace, not add — the source
        replica is the truth; :func:`~repro.sketch.serialization.
        load_sketch` checks every grid header before it writes any),
        the event offset is aligned with the source's, the serving
        snapshot is dropped, and the repaired state is checkpointed
        *before* the ack so a crash cannot roll the replica back behind
        what anti-entropy was told it holds (repairs bypass the WAL;
        the checkpoint is their durability).  Must run under
        ``record.lock``.
        """
        try:
            load_sketch(record.sketch, blob)
        except (IncompatibleSketchError, PayloadCorruptionError) as exc:
            raise BadRequestError(f"repair-sketch blob rejected: {exc}") from exc
        record.events = int(events)
        record.snapshot = None
        record.repairs += 1
        record.last_antientropy = self.clock.wall()
        # Force the checkpoint: the offsets may be unchanged even
        # though the counters moved.
        record.last_checkpoint_events = -1
        self.checkpoint(record)

    def wal_tail(
        self,
        record: SketchRecord,
        after_seq: int = 0,
        limit: int = 256,
        max_bytes: int = 16 << 20,
    ) -> Tuple[List[Dict[str, object]], List[bytes]]:
        """The retained ingest records after ``after_seq``.

        Returns ``(metas, payloads)``; each meta carries the record's
        ``seq``, ``kind``, original ``(client, request)`` stamp, and
        count, so a coordinator can re-send the batch to a lagging
        replica through the normal ingest path — the stamp makes the
        re-send exactly-once.  Bounded by ``limit`` records and
        ``max_bytes`` of payload (``truncated`` in the last meta says
        more remain).  Must run under ``record.lock``.
        """
        metas: List[Dict[str, object]] = []
        payloads: List[bytes] = []
        if record.wal is None:
            return metas, payloads
        total = 0
        for rec in record.wal.replay(after_seq=after_seq):
            if rec.kind not in (KIND_PAIRS, KIND_UPDATES):
                continue
            if len(metas) >= limit or total + len(rec.payload) > max_bytes:
                if metas:
                    metas[-1]["truncated"] = True
                break
            metas.append(
                {
                    "seq": rec.seq,
                    "kind": rec.kind,
                    "client": rec.meta.get("client"),
                    "request": rec.meta.get("request"),
                    "count": rec.meta.get("count"),
                }
            )
            payloads.append(rec.payload)
            total += len(rec.payload)
        return metas, payloads

    def restore_blob(
        self,
        name: str,
        args: Dict[str, object],
        blob: bytes,
        events: int,
    ) -> SketchRecord:
        """Admit a sketch arriving as ``(config, dump blob, offset)``.

        The receiving half of hot-sketch migration: build the sketch
        from its config, load the shipped state, register it, and
        checkpoint immediately — the WAL's ``create`` record alone
        cannot rebuild shipped state, so the checkpoint is what makes
        the migrated sketch crash-safe from its first second.
        """
        config = self.validate_create(name, args)
        sketch = self.prepare_sketch(config)
        try:
            load_sketch(sketch, blob)
        except (IncompatibleSketchError, PayloadCorruptionError) as exc:
            raise BadRequestError(f"restore-sketch blob rejected: {exc}") from exc
        record = self.admit(name, config, sketch)
        record.events = int(events)
        record.last_checkpoint_events = -1
        self.checkpoint(record)
        return record

    def forget(self, name: str, wipe: bool = True) -> None:
        """Unregister a sketch (the sending half of migration).

        With ``wipe`` (the default) its on-disk lineage — checkpoints
        and WAL segments — is deleted too, so a later ``--resume``
        cannot resurrect a sketch that now lives elsewhere (the
        split-brain a half-done migration would otherwise leave).
        """
        record = self.get(name)
        if record.wal is not None:
            record.wal.close_segment()
        del self._records[name]
        if wipe and self.checkpoint_dir is not None:
            mgr = self.manager_for(name)
            if mgr is not None:
                mgr.wipe()
            wal_dir = self._wal_dir(name)
            if wal_dir is not None:
                wipe_wal(wal_dir, fs=self.fs)
        self._managers.pop(name, None)
