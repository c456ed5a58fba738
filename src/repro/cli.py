"""Command-line interface: run sketches over stream files.

Usage (after installation)::

    python -m repro connectivity STREAM_FILE [--seed S]
    python -m repro query STREAM_FILE --remove 3,7 [--k K] [--seed S]
    python -m repro edge-connectivity STREAM_FILE [--k-max K] [--seed S]
    python -m repro sparsify STREAM_FILE [--epsilon E --k K --levels L]
    python -m repro reconstruct STREAM_FILE --d D [--seed S]
    python -m repro ingest STREAM_FILE [--shards N --batch-size B]
                    [--checkpoint-dir D [--resume]] [--metrics-json PATH]
                    [--retries N [--replay-limit E --replay-spill-dir DIR]]
                    [--verify]
    python -m repro referee STREAM_FILE [--loss L --dup D --reorder R
                    --corrupt C --delay Y --retries N --chaos-seed S]
                    [--certify] [--degraded-ok] [--metrics-json PATH]
    python -m repro audit CKPT_FILE_OR_DIR [...]
    python -m repro generate {gnp,harary,hypergraph} ... -o STREAM_FILE

Stream files use the text format of :mod:`repro.stream.file_io`.
Every command prints a small human-readable report and exits 0 on
success; malformed inputs exit 2 with a diagnostic.  Robustness flags
(available on the stream-consuming commands): ``--on-bad-update
{strict,quarantine,drop}`` with ``--quarantine-file`` governs malformed
input lines; ``--retries N`` (ingest) supervises shard workers with
checkpoint-replay recovery; ``--degraded-ok`` (query,
edge-connectivity) accepts weaker answers on sketch decode failure,
clearly marked ``DEGRADED``.  Integrity flags: ``--certify``
(connectivity, edge-connectivity) re-verifies the answer's witness
independently of the decode; ``--amplify R`` majority-votes over R
independent sketches with reported confidence; ``ingest --verify``
checks shard merges and barrier dumps; the ``audit`` subcommand
verifies checkpoints at rest.  Performance flags: ``ingest
--no-decode`` skips the post-ingest decode, and ``--metrics-json``
exports the decode :class:`~repro.engine.query.QueryMetrics` alongside
any engine metrics.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.connectivity_query import VertexConnectivityQuerySketch
from .core.edge_connectivity_sketch import EdgeConnectivitySketch
from .core.hyper_connectivity import HypergraphConnectivitySketch
from .core.light_edges import LightEdgeRecoverySketch
from .core.params import Params
from .core.sparsifier import HypergraphSparsifierSketch
from .errors import ReproError
from .stream.file_io import load_stream_file, save_stream_file
from .stream.generators import insert_only
from .stream.quarantine import Quarantine


def _params(name: str) -> Params:
    return {
        "theory": Params.theory(),
        "practical": Params.practical(),
        "fast": Params.fast(),
    }[name]


def _feed(sketch, updates) -> None:
    for u in updates:
        sketch.update(u.edge, u.sign)


def _load(args):
    """Load the stream under the command's bad-update policy.

    With ``--on-bad-update strict`` (the default) this is the classic
    fail-fast parse.  Under ``quarantine``/``drop``, malformed lines —
    including balance violations, which the non-strict path also
    checks — are diverted (to ``--quarantine-file`` when given) and a
    one-line summary is printed.
    """
    policy = getattr(args, "on_bad_update", "strict")
    if policy == "strict":
        return load_stream_file(args.stream)
    qpath = getattr(args, "quarantine_file", None)
    with Quarantine(qpath) as q:
        n, r, updates = load_stream_file(
            args.stream, on_bad_line=policy, quarantine=q, check_balance=True
        )
        diverted = len(q) + q.dropped
        if diverted:
            where = f" -> {qpath}" if qpath and policy == "quarantine" else ""
            print(f"bad updates: {diverted} {policy}d{where}")
    return n, r, updates


def _write_metrics_json(path: str, sections) -> None:
    """Export named metrics sections in the shared envelope schema."""
    from .engine.metrics import write_metrics_json

    write_metrics_json(path, sections)


def _cmd_connectivity(args) -> int:
    n, r, updates = _load(args)
    if args.amplify:
        from .audit.amplify import run_amplified

        result = run_amplified(
            lambda seed: HypergraphConnectivitySketch(
                n, r=r, seed=seed, params=_params(args.params)
            ),
            updates,
            lambda s: s.is_connected(),
            repetitions=args.amplify,
            base_seed=args.seed,
        )
        print(f"n={n} r={r} events={len(updates)}")
        print(result.summary())
        print(f"connected: {result.value} (confidence {result.confidence:.3f})")
        return 0
    sketch = HypergraphConnectivitySketch(n, r=r, seed=args.seed, params=_params(args.params))
    _feed(sketch, updates)
    comps = sketch.components()
    print(f"n={n} r={r} events={len(updates)}")
    print(f"connected: {len(comps) == 1}")
    print(f"components ({len(comps)}): {comps}")
    print(f"sketch: {sketch.space_counters()} counters")
    if args.certify:
        from .audit.certify import certify_connectivity

        cert = certify_connectivity(sketch._sketch)
        print(cert.summary())
        if not cert.verified:
            return 1
    return 0


def _cmd_query(args) -> int:
    n, r, updates = _load(args)
    removed = [int(x) for x in args.remove.split(",") if x != ""]
    k = args.k if args.k is not None else max(1, len(removed))
    sketch = VertexConnectivityQuerySketch(
        n, k=k, r=r, seed=args.seed, params=_params(args.params)
    )
    _feed(sketch, updates)
    print(f"n={n} r={r} events={len(updates)} k={k} R={sketch.repetitions}")
    if args.degraded_ok:
        result = sketch.disconnects_degraded(removed)
        verdict = result.value
        if result.degraded:
            print(f"DEGRADED ({result.mode}): {result.detail}")
    else:
        verdict = sketch.disconnects(removed)
    print(f"removing {removed} disconnects the graph: {verdict}")
    return 0


def _cmd_edge_connectivity(args) -> int:
    n, r, updates = _load(args)
    if args.amplify:
        from .audit.amplify import run_amplified

        result = run_amplified(
            lambda seed: EdgeConnectivitySketch(
                n, k_max=args.k_max, r=r, seed=seed, params=_params(args.params)
            ),
            updates,
            lambda s: s.estimate(),
            repetitions=args.amplify,
            base_seed=args.seed,
        )
        lam = result.value
        print(f"n={n} r={r} events={len(updates)}")
        print(result.summary())
        suffix = " (at least; saturated the cap)" if lam == args.k_max else ""
        print(f"edge connectivity estimate: {lam}{suffix} "
              f"(confidence {result.confidence:.3f})")
        return 0
    sketch = EdgeConnectivitySketch(
        n, k_max=args.k_max, r=r, seed=args.seed, params=_params(args.params)
    )
    _feed(sketch, updates)
    if args.certify:
        from .audit.certify import certify_edge_connectivity

        cert = certify_edge_connectivity(sketch)
        lam = cert.value
        suffix = " (at least; saturated the cap)" if lam == args.k_max else ""
        print(f"n={n} r={r} events={len(updates)}")
        print(cert.summary())
        print(f"edge connectivity estimate: {lam}{suffix}")
        return 0 if cert.verified else 1
    if args.degraded_ok:
        result = sketch.estimate_degraded()
        lam = result.value
        if result.degraded:
            print(f"DEGRADED ({result.mode}): {result.detail}")
    else:
        lam = sketch.estimate()
    suffix = " (at least; saturated the cap)" if lam == args.k_max else ""
    print(f"n={n} r={r} events={len(updates)}")
    print(f"edge connectivity estimate: {lam}{suffix}")
    return 0


def _cmd_sparsify(args) -> int:
    n, r, updates = _load(args)
    sketch = HypergraphSparsifierSketch(
        n,
        r=r,
        epsilon=args.epsilon,
        seed=args.seed,
        params=_params(args.params),
        k=args.k,
        levels=args.levels,
    )
    _feed(sketch, updates)
    sp, complete = sketch.decode()
    print(f"n={n} r={r} events={len(updates)} k={sketch.k} levels={sketch.levels}")
    print(f"sparsifier: {sp.num_edges} weighted hyperedges, complete={complete}")
    for e in sp.edges():
        print(f"  {' '.join(str(v) for v in e)}  w={sp.weight(e):g}")
    return 0


def _cmd_reconstruct(args) -> int:
    n, r, updates = _load(args)
    sketch = LightEdgeRecoverySketch(
        n, k=args.d, r=r, seed=args.seed, params=_params(args.params)
    )
    _feed(sketch, updates)
    rec = sketch.reconstruct()
    print(f"n={n} r={r} events={len(updates)} d={args.d}")
    if rec is None:
        print("reconstruction: FAILED (graph not d-cut-degenerate, or decode fell short)")
        return 1
    print(f"reconstruction: {rec.num_edges} edges")
    for e in rec.edges():
        print(f"  {' '.join(str(v) for v in e)}")
    return 0


def _cmd_ingest(args) -> int:
    from .engine.checkpoint import CheckpointManager
    from .engine.shard import ShardedIngestEngine
    from .engine.supervisor import RetryPolicy
    from .sketch.skeleton import SkeletonSketch
    from .sketch.spanning_forest import SpanningForestSketch

    n, r, updates = _load(args)
    if args.sketch == "skeleton":
        prototype = SkeletonSketch(n, k=args.k, r=r, seed=args.seed)
    else:
        prototype = SpanningForestSketch(n, r=r, seed=args.seed)
    manager = None
    if args.checkpoint_dir:
        manager = CheckpointManager(
            args.checkpoint_dir, interval=args.checkpoint_interval
        )
    elif args.resume:
        print("error: --resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    supervision = None
    if args.retries > 0:
        supervision = RetryPolicy(max_restarts=args.retries)
    engine = ShardedIngestEngine(
        prototype,
        shards=args.shards,
        batch_size=args.batch_size,
        backend=args.backend,
        partition_seed=args.seed,
        checkpoint=manager,
        supervision=supervision,
        replay_limit=args.replay_limit,
        replay_spill_dir=args.replay_spill_dir,
        verify_merges=args.verify,
        verify_dumps=args.verify,
    )
    result = engine.ingest(updates, resume=args.resume)
    metrics = result.metrics
    print(f"n={n} r={r} events={len(updates)}")
    if result.resumed_from is not None:
        print(f"resumed from checkpoint offset {result.resumed_from}")
    print(metrics.summary())
    if args.decode:
        sketch = result.sketch
        decoded = sketch.decode()
        label = "skeleton edges" if args.sketch == "skeleton" else "spanning edges"
        print(f"decode: {decoded.num_edges} {label}")
    if args.metrics_json:
        _write_metrics_json(
            args.metrics_json,
            {"ingest": metrics, "query": args._query_metrics},
        )
    return 0


def _cmd_referee(args) -> int:
    """Distributed referee protocol over a (possibly lossy) channel.

    Materializes the streamed graph, hands each vertex its local
    adjacency as a player input, and runs the fault-tolerant
    multi-round referee exchange with the requested chaos profile.
    Exit codes: 0 complete (or degraded with ``--degraded-ok``), 1
    degraded answer or failed certification, 2 bad input.
    """
    from .comm.referee import RefereeSession
    from .comm.simultaneous import SpanningForestProtocol
    from .comm.transport import FaultProfile
    from .engine.supervisor import RetryPolicy
    from .stream.updates import materialize

    n, r, updates = _load(args)
    h = materialize(n, updates, r=r)
    profile = FaultProfile(
        loss=args.loss,
        duplicate=args.dup,
        reorder=args.reorder,
        corrupt=args.corrupt,
        delay=args.delay,
    )
    proto = SpanningForestProtocol(n, r=r, seed=args.seed, params=_params(args.params))
    session = RefereeSession(
        proto,
        profile=profile,
        policy=RetryPolicy(max_restarts=args.retries,
                           backoff_base=0.0, jitter=0.0),
        chaos_seed=args.chaos_seed,
        max_rounds=args.max_rounds,
        certify=args.certify,
    )
    result = session.run(h)
    print(f"n={n} r={r} events={len(updates)} players={n}")
    print(result.summary())
    print(session.metrics.summary())
    if args.metrics_json:
        _write_metrics_json(
            args.metrics_json,
            {"comm": session.metrics, "query": args._query_metrics},
        )
    if result.certificate is not None and not result.certificate.verified:
        return 1
    if result.degraded and not args.degraded_ok:
        return 1
    return 0


def _cmd_audit(args) -> int:
    """Verify checkpoint/sketch blobs on disk without deserializing.

    Walks each path (files, or directories scanned for ``ckpt-*.rpck``),
    verifies the checkpoint envelope CRC and every constituent sketch
    blob's payload CRC, and reports per file.  Exit codes: 0 all clean,
    1 corruption found, 2 nothing to audit / unreadable input.
    """
    import os

    from .engine.checkpoint import decode_checkpoint
    from .sketch.serialization import verify_sketch_blob

    files: List[str] = []
    for path in args.paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.startswith("ckpt-") and name.endswith(".rpck")
            )
        else:
            files.append(path)
    if not files:
        print("error: no checkpoint files to audit", file=sys.stderr)
        return 2
    corrupt = 0
    for path in files:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            print(f"{path}: UNREADABLE ({exc})")
            corrupt += 1
            continue
        try:
            if data[:4] == b"RPSK":
                grids = verify_sketch_blob(data)
                print(f"{path}: OK (sketch blob, {grids} grids verified)")
            else:
                ck = decode_checkpoint(data)
                grids = 0
                for shard, blob in enumerate(ck.shard_blobs):
                    grids += verify_sketch_blob(blob)
                print(
                    f"{path}: OK (offset {ck.offset}, {ck.shards} shards, "
                    f"{grids} grids verified)"
                )
        except ReproError as exc:
            print(f"{path}: CORRUPT ({exc})")
            corrupt += 1
    if corrupt:
        print(f"audit: {corrupt} of {len(files)} files failed verification")
        return 1
    print(f"audit: all {len(files)} files verified")
    return 0


def _cmd_serve(args) -> int:
    """Run the long-lived sketch server (:mod:`repro.service`).

    Binds, prints a ``serving on HOST:PORT`` ready line, and serves
    until drained — by SIGTERM/SIGINT or a ``drain``/``shutdown``
    command.  Drain lets in-flight requests complete, answers new
    mutating requests with the typed ``draining`` error, writes a final
    checkpoint per sketch, and exits 0; ``--resume`` restores every
    sketch from its latest checkpoint on the way up.
    """
    import asyncio

    from .service.registry import SketchRegistry
    from .service.server import SketchServer

    if args.resume and not args.checkpoint_dir:
        print("error: --resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    registry = SketchRegistry(
        checkpoint_dir=args.checkpoint_dir,
        keep=args.keep,
        hash_cache=args.hash_cache,
        wal=args.wal,
        wal_segment_bytes=args.wal_segment_bytes,
        wal_fsync=args.wal_fsync,
        dedup_window=args.dedup_window,
    )
    server = SketchServer(
        registry,
        host=args.host,
        port=args.port,
        checkpoint_interval=args.checkpoint_interval,
        snapshot_interval=args.snapshot_interval,
        resume=args.resume,
        max_in_flight=args.max_in_flight,
        role=args.role,
    )

    def ready(srv):
        restored = (
            f" (restored {len(srv.restored)} sketches)" if srv.restored else ""
        )
        print(f"serving on {srv.host}:{srv.port}{restored}", flush=True)

    asyncio.run(server.run(ready=ready))
    m = server.metrics
    print(
        f"drained: {m.requests_total} requests, "
        f"{m.sessions_opened} sessions, "
        f"{m.rejected_draining} draining rejections"
    )
    return 0


def _cmd_loadgen(args) -> int:
    """Drive a running server (or replica set) with mixed load."""
    import asyncio

    from .service.loadgen import LoadConfig, run_loadgen

    endpoints = None
    if args.endpoints:
        from .service.replication import parse_endpoints

        endpoints = parse_endpoints(args.endpoints)
    elif args.port is None:
        print("error: loadgen needs --port or --endpoints", file=sys.stderr)
        return 2
    config = LoadConfig(
        host=args.host,
        port=args.port or 0,
        sketches=args.sketches,
        kind=args.sketch,
        n=args.n,
        k=args.k,
        seed=args.seed,
        connections=args.connections,
        batches=args.batches,
        batch_size=args.batch_size,
        delete_fraction=args.delete_fraction,
        queries_per_batch=args.queries_per_batch,
        fresh_fraction=args.fresh_fraction,
        ramp_seconds=args.ramp,
        create=args.create,
        timeout=args.timeout,
        retries=args.retries,
        endpoints=endpoints,
        write_quorum=args.write_quorum,
    )
    report = asyncio.run(run_loadgen(config))
    lat = report["latency"]
    print(
        f"loadgen: {report['events']} events + {report['queries']} queries "
        f"over {report['connections']} connections in "
        f"{report['wall_seconds']:.2f}s"
    )
    print(
        f"throughput: {report['ops_per_second']:,.0f} ops/s "
        f"({report['events_per_second']:,.0f} events/s)"
    )
    for kind in ("ingest_batch", "query_snapshot", "query_fresh"):
        s = lat[kind]
        if s["count"]:
            print(
                f"{kind}: p50 {s['p50_seconds'] * 1e3:.2f}ms "
                f"p99 {s['p99_seconds'] * 1e3:.2f}ms (n={s['count']})"
            )
    if report["draining_rejections"] or report["disconnected"]:
        print(
            f"drain: {report['draining_rejections']} typed rejections, "
            f"{report['disconnected']} connections closed"
        )
    if report["retries"] or report["errors_by_code"]:
        codes = ", ".join(
            f"{code}={hits}"
            for code, hits in sorted(report["errors_by_code"].items())
        ) or "none"
        print(
            f"resilience: {report['retries']} retries, "
            f"{report['reconnects']} reconnects, "
            f"{report['duplicate_acks']} duplicate acks, "
            f"errors: {codes}"
        )
    if report.get("replication"):
        rep = report["replication"]
        flat = rep["failover_latency"]
        median = (
            f", failover p50 {flat['p50_seconds'] * 1e3:.0f}ms"
            if flat["count"]
            else ""
        )
        print(
            f"replication: {len(rep['endpoints'])} endpoints, "
            f"quorum {rep['write_quorum'] or 'majority'}, "
            f"{rep['failovers']} failovers, "
            f"{rep['quorum_failures']} quorum failures{median}"
        )
    if args.metrics_json:
        _write_metrics_json(
            args.metrics_json,
            {"loadgen": report, "query": args._query_metrics},
        )
    return 0


def _ctl_health_all(args) -> int:
    """``ctl health --all``: one table over every replica endpoint.

    Each row aggregates one replica's health (worst WAL lag and dedup
    occupancy across its sketches, most recent anti-entropy probe) and
    a cross-endpoint divergence count: for every sketch the digest
    fingerprints of all reachable holders are compared, and a replica
    is charged one divergence per sketch where it disagrees with the
    cohort (or is missing the sketch entirely).  Exit 1 if any replica
    is degraded, draining, diverged, or unreachable.
    """
    import asyncio
    import time as _time

    from .errors import ServiceError
    from .service.replication import ReplicaSet, parse_endpoints

    endpoints = parse_endpoints(args.endpoints)

    async def probe(rs):
        rows = []
        healths = await asyncio.gather(
            *(c.health() for c in rs.clients), return_exceptions=True
        )
        # Union of sketch names across the replicas that answered.
        names = sorted(
            {
                name
                for h in healths
                if isinstance(h, dict)
                for name in h.get("sketches", {})
            }
        )
        # fingerprints[name][i] = digest fingerprint at replica i (or
        # None when the sketch is missing / the replica is down).
        fingerprints = {}
        for name in names:
            digests = await asyncio.gather(
                *(c.digest(name) for c in rs.clients),
                return_exceptions=True,
            )
            fingerprints[name] = [
                d.get("fingerprint") if isinstance(d, dict) else None
                for d in digests
            ]
        for i, (host, port) in enumerate(endpoints):
            row = {"endpoint": f"{host}:{port}"}
            h = healths[i]
            if not isinstance(h, dict):
                row.update(
                    role="-", status="unreachable", wal_lag="-",
                    dedup="-", last_ae="-", divergent="-",
                )
                rows.append(row)
                continue
            sketches = h.get("sketches", {})
            lags = [s.get("wal_lag") or 0 for s in sketches.values()]
            occ = [
                s.get("dedup_occupancy") or 0.0 for s in sketches.values()
            ]
            probes = [
                s.get("last_antientropy")
                for s in sketches.values()
                if s.get("last_antientropy")
            ]
            divergent = 0
            for name in names:
                prints = fingerprints[name]
                cohort = {p for p in prints if p is not None}
                if prints[i] is None or len(cohort) > 1:
                    divergent += 1
            row.update(
                role=h.get("role", "-"),
                status=h.get("status", "-"),
                wal_lag=max(lags) if lags else 0,
                dedup=f"{max(occ):.0%}" if occ else "0%",
                last_ae=(
                    f"{_time.time() - max(probes):.0f}s ago"
                    if probes
                    else "never"
                ),
                divergent=divergent,
            )
            rows.append(row)
        return rows

    async def go():
        async with ReplicaSet(endpoints, timeout=args.timeout) as rs:
            return await probe(rs)

    try:
        rows = asyncio.run(go())
    except ServiceError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    columns = (
        ("endpoint", "ENDPOINT"), ("role", "ROLE"), ("status", "STATUS"),
        ("wal_lag", "WAL-LAG"), ("dedup", "DEDUP"),
        ("last_ae", "LAST-AE"), ("divergent", "DIVERGENT"),
    )
    widths = {
        key: max(len(title), *(len(str(r[key])) for r in rows))
        for key, title in columns
    }
    print("  ".join(t.ljust(widths[k]) for k, t in columns))
    for row in rows:
        print("  ".join(str(row[k]).ljust(widths[k]) for k, _ in columns))
    degraded = any(
        row["status"] != "ok"
        or (isinstance(row["divergent"], int) and row["divergent"])
        for row in rows
    )
    return 1 if degraded else 0


def _cmd_ctl(args) -> int:
    """One-shot control commands against a running server.

    Exit codes: 0 success; 1 a typed server error (the error code and
    message are printed to stderr), a failed audit, or a degraded /
    diverged replica; 2 usage or transport problems.  ``--timeout``
    bounds each request — a hung or overloaded server turns into a
    clean ``timeout`` error, never a hung ctl process.

    Replica-set actions: ``health --all --endpoints`` renders the
    aggregate replica table, ``repair --endpoints`` runs anti-entropy
    to convergence (exit 1 if it cannot converge), and ``migrate
    --name --target-host --target-port`` moves one sketch off the
    ``--port`` server with a bounded freeze window.
    """
    import asyncio
    import json

    from .errors import ReplicationError, ServiceError
    from .service.client import ServiceClient

    if args.action == "health" and args.all:
        if not args.endpoints:
            print("error: ctl health --all needs --endpoints",
                  file=sys.stderr)
            return 2
        return _ctl_health_all(args)
    if args.action == "repair":
        if not args.endpoints:
            print("error: ctl repair needs --endpoints", file=sys.stderr)
            return 2

        from .service.replication import ReplicaSet, parse_endpoints

        async def repair():
            async with ReplicaSet(
                parse_endpoints(args.endpoints),
                write_quorum=args.write_quorum,
                timeout=args.timeout,
            ) as rs:
                if args.name:
                    reports = {args.name: await rs.anti_entropy(args.name)}
                else:
                    reports = await rs.anti_entropy_all()
                return {
                    "repair": reports,
                    "replication": rs.metrics.to_dict(),
                }

        try:
            result = asyncio.run(repair())
        except (ReplicationError, ServiceError) as exc:
            print(f"error[{exc.code}]: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if args.action == "migrate":
        if not args.name or args.target_port is None or args.port is None:
            print(
                "error: ctl migrate needs --port, --name and --target-port",
                file=sys.stderr,
            )
            return 2

        from .service.replication import migrate_sketch

        async def migrate():
            async with await ServiceClient.connect(
                args.host, args.port, timeout=args.timeout
            ) as source:
                async with await ServiceClient.connect(
                    args.target_host, args.target_port,
                    timeout=args.timeout,
                ) as target:
                    return await migrate_sketch(
                        source, target, args.name,
                        keep_source=args.keep_source,
                    )

        try:
            result = asyncio.run(migrate())
        except ServiceError as exc:
            print(f"error[{exc.code}]: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0

    if args.port is None:
        print("error: ctl needs --port (or --endpoints for the "
              "replica-set actions)", file=sys.stderr)
        return 2

    async def go():
        async with await ServiceClient.connect(
            args.host, args.port, timeout=args.timeout
        ) as c:
            if args.action == "stats":
                return await c.stats()
            if args.action == "health":
                return await c.health()
            if args.action == "list":
                return {"sketches": await c.list()}
            if args.action == "checkpoint":
                return {"paths": await c.checkpoint(args.name)}
            if args.action == "audit":
                if not args.name:
                    raise ReproError("ctl audit needs --name")
                return {"report": await c.audit(args.name)}
            if args.action == "query":
                if not args.name:
                    raise ReproError("ctl query needs --name")
                return await c.query(
                    args.name, op=args.op, consistency=args.consistency
                )
            if args.action == "drain":
                await c.drain()
                return {"draining": True}
            await c.shutdown()
            return {"draining": True, "stopping": True}

    try:
        result = asyncio.run(go())
    except ServiceError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.action == "audit" and not result["report"]["ok"]:
        return 1
    if args.action == "health" and result.get("status") == "degraded":
        return 1
    return 0


def _cmd_sim(args) -> int:
    """Deterministic simulation sweep over seeded fault schedules.

    Each schedule runs the whole 3-replica fleet in-process on a
    virtual clock, network, and disk, interleaves quorum-stamped
    writes with seeded faults (kills, power losses, stalls,
    partitions, resets, full disks), and checks the invariants: zero
    acked-write loss, exactly-once folding, byte-identical convergence
    to a serial replay, no frozen or broken sketches.  Failures print
    their violations and (unless ``--no-shrink``) a ddmin-minimised
    schedule as JSON — rerun it with ``--replay FILE``.  Exit 0 only
    if every schedule passes.
    """
    import json
    import time

    from .service.sim import FaultSchedule, run_many, run_one, shrink_failure

    if args.replay:
        with open(args.replay) as fh:
            schedule = FaultSchedule.from_json(fh.read())
        report = run_one(schedule.seed, schedule=schedule)
        print(f"seed {report.seed}: "
              f"{'ok' if report.ok else 'FAIL'} "
              f"({report.batches_acked}/{report.batches_sent} acked, "
              f"{report.virtual_seconds:.1f}s virtual)")
        for violation in report.violations:
            print(f"  violation: {violation}")
        return 0 if report.ok else 1

    def progress(done, report):
        if args.progress and done % args.progress == 0:
            print(f"  {done}/{args.schedules} schedules "
                  f"({'ok' if report.ok else 'FAIL'} seed {report.seed})")

    start = time.perf_counter()
    reports = run_many(
        range(args.seed, args.seed + args.schedules),
        progress=progress,
        replicas=args.replicas,
    )
    wall = time.perf_counter() - start

    failures = [r for r in reports if not r.ok]
    acked = sum(r.batches_acked for r in reports)
    sent = sum(r.batches_sent for r in reports)
    virtual = sum(r.virtual_seconds for r in reports)
    print(f"{len(reports)} schedules in {wall:.1f}s "
          f"({len(reports) / wall:.1f}/s), "
          f"{virtual:,.0f}s virtual time, "
          f"{acked}/{sent} batches acked, "
          f"{len(reports) - len(failures)}/{len(reports)} passed")

    for report in failures:
        print(f"\nFAIL seed {report.seed}:")
        for violation in report.violations:
            print(f"  violation: {violation}")
        if not args.no_shrink:
            minimal = shrink_failure(report)
            blob = minimal.to_json()
            path = f"sim-repro-{report.seed}.json"
            with open(path, "w") as fh:
                fh.write(blob)
            print(f"  minimal reproducer ({len(minimal.events)} events) "
                  f"-> {path}")
            print(f"  replay: python -m repro sim --replay {path}")
            print(f"  {blob}")
    return 0 if not failures else 1


def _cmd_generate(args) -> int:
    from .graph.generators import gnp_graph, harary_graph, random_hypergraph

    if args.family == "gnp":
        g = gnp_graph(args.n, args.p, seed=args.seed)
        n, r = args.n, 2
    elif args.family == "harary":
        g = harary_graph(args.k, args.n)
        n, r = args.n, 2
    else:
        g = random_hypergraph(args.n, args.m, r=args.rank, seed=args.seed)
        n, r = args.n, args.rank
    count = save_stream_file(args.output, n, insert_only(g, shuffle_seed=args.seed), r=r)
    print(f"wrote {count} events to {args.output} (n={n}, r={r})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic graph stream sketches (Guha-McGregor-Tench, PODS 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("stream", help="stream file (see repro.stream.file_io)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--params",
            choices=["theory", "practical", "fast"],
            default="practical",
        )
        p.add_argument(
            "--on-bad-update",
            choices=["strict", "quarantine", "drop"],
            default="strict",
            help="malformed stream lines: fail fast (strict), divert with "
                 "provenance (quarantine), or skip silently (drop)",
        )
        p.add_argument(
            "--quarantine-file", default=None, metavar="PATH",
            help="JSONL file for quarantined lines (--on-bad-update quarantine)",
        )
        p.add_argument(
            "--metrics-json", default=None, metavar="PATH",
            help="write the metrics report (including decode QueryMetrics) "
                 "as JSON ('-' for stdout)",
        )

    p = sub.add_parser("connectivity", help="is the streamed (hyper)graph connected?")
    common(p)
    p.add_argument("--certify", action="store_true",
                   help="re-verify the answer independently of the decode "
                        "(witness edges + boundary-zero checks); exits 1 if "
                        "verification fails")
    p.add_argument("--amplify", type=int, default=0, metavar="R",
                   help="majority-vote over R independently seeded sketches "
                        "and report the empirical confidence")
    p.set_defaults(func=_cmd_connectivity)

    p = sub.add_parser("query", help="does removing a vertex set disconnect it?")
    common(p)
    p.add_argument("--remove", required=True, help="comma-separated vertex ids")
    p.add_argument("--k", type=int, default=None, help="query-size bound (default: |remove|)")
    p.add_argument("--degraded-ok", action="store_true",
                   help="answer from surviving instances on decode failure "
                        "(reported as DEGRADED) instead of erroring")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("edge-connectivity", help="estimate λ up to a cap")
    common(p)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--degraded-ok", action="store_true",
                   help="fall back to a connectivity-only answer on decode "
                        "failure (reported as DEGRADED) instead of erroring")
    p.add_argument("--certify", action="store_true",
                   help="re-verify every skeleton layer independently of the "
                        "decode; exits 1 if verification fails")
    p.add_argument("--amplify", type=int, default=0, metavar="R",
                   help="majority-vote over R independently seeded sketches "
                        "and report the empirical confidence")
    p.set_defaults(func=_cmd_edge_connectivity)

    p = sub.add_parser("sparsify", help="decode a (1+ε) cut sparsifier")
    common(p)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("reconstruct", help="reconstruct a d-cut-degenerate graph")
    common(p)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser(
        "ingest",
        help="high-throughput batched/sharded ingestion (repro.engine)",
    )
    p.add_argument("stream", help="stream file (see repro.stream.file_io)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sketch", choices=["forest", "skeleton"], default="forest")
    p.add_argument("--k", type=int, default=2, help="skeleton layers (sketch=skeleton)")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--backend", choices=["serial", "process", "shm"], default="serial")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--checkpoint-interval", type=int, default=10_000)
    p.add_argument("--resume", action="store_true",
                   help="resume from the latest checkpoint in --checkpoint-dir")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="write the IngestMetrics report as JSON ('-' for stdout)")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="supervise shard workers: restart a dead/hung worker "
                        "up to N times, restoring from the last barrier and "
                        "replaying the suffix (0 = unsupervised)")
    p.add_argument("--replay-limit", type=int, default=250_000,
                   help="max in-memory replay-log events under --retries")
    p.add_argument("--replay-spill-dir", default=None, metavar="DIR",
                   help="spill replay-log segments to DIR instead of forcing "
                        "early barriers when --replay-limit is hit")
    p.add_argument("--on-bad-update",
                   choices=["strict", "quarantine", "drop"], default="strict",
                   help="malformed stream lines: fail fast, divert, or skip")
    p.add_argument("--quarantine-file", default=None, metavar="PATH",
                   help="JSONL file for quarantined lines")
    p.add_argument("--verify", action="store_true",
                   help="integrity mode: verify every shard merge against "
                        "the linearity invariant and (under --retries) "
                        "CRC-check every barrier dump before trusting it")
    p.add_argument("--decode", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="decode the merged sketch after ingest "
                        "(--no-decode to skip)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "referee",
        help="distributed referee protocol over a lossy channel (repro.comm)",
    )
    common(p)
    p.add_argument("--loss", type=float, default=0.0,
                   help="per-copy message loss rate in [0, 1]")
    p.add_argument("--dup", type=float, default=0.0,
                   help="message duplication rate in [0, 1]")
    p.add_argument("--reorder", type=float, default=0.0,
                   help="per-round delivery reordering rate in [0, 1]")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="per-copy single-bit corruption rate in [0, 1]")
    p.add_argument("--delay", type=float, default=0.0,
                   help="per-copy extra-round delay rate in [0, 1]")
    p.add_argument("--retries", type=int, default=8, metavar="N",
                   help="per-player retransmit budget before the referee "
                        "answers in degraded mode from the survivors")
    p.add_argument("--max-rounds", type=int, default=None, metavar="R",
                   help="round deadline: hard cap on protocol rounds")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="seed of the deterministic fault schedule")
    p.add_argument("--certify", action="store_true",
                   help="re-verify the final answer's witness independently "
                        "of the decode; exits 1 if verification fails")
    p.add_argument("--degraded-ok", action="store_true",
                   help="exit 0 even when the answer is degraded (missing "
                        "players are always reported)")
    p.set_defaults(func=_cmd_referee)

    p = sub.add_parser(
        "audit",
        help="verify checkpoint/sketch blobs on disk (CRC + structure)",
    )
    p.add_argument("paths", nargs="+",
                   help="checkpoint files or directories of ckpt-*.rpck")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "serve",
        help="run the long-lived async sketch server (repro.service)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral; the bound port is printed)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="directory for per-sketch checkpoint subdirectories")
    p.add_argument("--resume", action="store_true",
                   help="restore every sketch from its latest checkpoint")
    p.add_argument("--checkpoint-interval", type=float, default=5.0,
                   metavar="SECONDS",
                   help="checkpoint cron period (0 disables the cron; the "
                        "final drain checkpoint still runs)")
    p.add_argument("--snapshot-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="snapshot cron period: how often stale serving "
                        "snapshots are re-decoded (0 disables; snapshot "
                        "queries then trail until a fresh query decodes)")
    p.add_argument("--keep", type=int, default=2,
                   help="checkpoint generations retained per sketch")
    p.add_argument("--hash-cache", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="attach the placement-table ingest fast path to "
                        "every sketch (--no-hash-cache to save memory)")
    p.add_argument("--wal", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="write-ahead-log every ingest batch before its ack "
                        "(needs --checkpoint-dir; --no-wal trades crash "
                        "durability for throughput)")
    p.add_argument("--wal-fsync", choices=["always", "os", "none"],
                   default="always",
                   help="WAL durability: fsync per batch (always, survives "
                        "power loss), flush to the kernel (os, survives any "
                        "process crash), or buffer (none, fastest)")
    p.add_argument("--wal-segment-bytes", type=int, default=4 << 20,
                   help="WAL segment rotation threshold; checkpoints "
                        "truncate dead segments")
    p.add_argument("--dedup-window", type=int, default=4096,
                   help="remembered (client, request) acks per sketch for "
                        "exactly-once retried ingest")
    p.add_argument("--max-in-flight", type=int, default=64,
                   help="concurrent expensive requests before new ones are "
                        "shed with the typed 'overloaded' error")
    p.add_argument("--role", choices=["primary", "replica"],
                   default="replica",
                   help="label reported in hello/health so operators can "
                        "tell the preferred read target apart; writes are "
                        "quorum-fanned to every replica regardless")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a running sketch server with mixed ingest/query load",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="single-server target (or use --endpoints)")
    p.add_argument("--endpoints", default=None, metavar="HOST:PORT,...",
                   help="replica-set mode: quorum-fan every ingest batch "
                        "to these replicas and fail queries over between "
                        "them (overrides --host/--port)")
    p.add_argument("--write-quorum", type=int, default=None, metavar="N",
                   help="acks required per replicated write "
                        "(default: majority)")
    p.add_argument("--sketches", type=int, default=1)
    p.add_argument("--sketch", choices=["forest", "skeleton"], default="forest")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--connections", type=int, default=4)
    p.add_argument("--batches", type=int, default=50,
                   help="ingest batches per connection")
    p.add_argument("--batch-size", type=int, default=2048)
    p.add_argument("--delete-fraction", type=float, default=0.2,
                   help="fraction of each batch that deletes live edges")
    p.add_argument("--queries-per-batch", type=float, default=1.0)
    p.add_argument("--fresh-fraction", type=float, default=0.005,
                   help="fraction of queries demanding a fresh decode")
    p.add_argument("--ramp", type=float, default=0.0, metavar="SECONDS",
                   help="stagger connection starts over this period")
    p.add_argument("--create", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="create the target sketches first (--no-create when "
                        "the server already has them)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-request deadline (default: wait forever)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="transparent retry budget for transient failures "
                        "(overloaded, reconnects, timeouts); stamped ingest "
                        "makes retrying exactly-once safe (0 disables)")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="write the client-side report as JSON ('-' for stdout)")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "ctl",
        help="one-shot control commands against a running sketch server",
    )
    p.add_argument("action",
                   choices=["stats", "health", "list", "checkpoint", "audit",
                            "query", "drain", "shutdown", "repair",
                            "migrate"])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="single-server target (replica-set actions take "
                        "--endpoints instead)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-request deadline; expiry exits 1 with the "
                        "typed 'timeout' error instead of hanging")
    p.add_argument("--name", default=None,
                   help="target sketch (audit/query/migrate; optional for "
                        "checkpoint and repair)")
    p.add_argument("--op", default="connected",
                   choices=["connected", "components", "edges", "layers"])
    p.add_argument("--consistency", default="fresh",
                   choices=["fresh", "snapshot"])
    p.add_argument("--all", action="store_true",
                   help="health: aggregate every --endpoints replica into "
                        "one table (exit 1 if any is degraded or diverged)")
    p.add_argument("--endpoints", default=None, metavar="HOST:PORT,...",
                   help="replica-set endpoints for health --all and repair")
    p.add_argument("--write-quorum", type=int, default=None, metavar="N",
                   help="acks required per repair write (default: majority)")
    p.add_argument("--target-host", default="127.0.0.1",
                   help="migrate: destination server host")
    p.add_argument("--target-port", type=int, default=None,
                   help="migrate: destination server port")
    p.add_argument("--keep-source", action="store_true",
                   help="migrate: thaw and keep the source copy instead of "
                        "forgetting it (leaves a replica, not a move)")
    p.set_defaults(func=_cmd_ctl)

    p = sub.add_parser(
        "sim",
        help="deterministic simulation: sweep seeded fault schedules "
             "over an in-process replica fleet on a virtual clock, "
             "network, and disk",
    )
    p.add_argument("--schedules", type=int, default=100, metavar="N",
                   help="how many seeded schedules to run (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed; the sweep runs seed..seed+N-1")
    p.add_argument("--replicas", type=int, default=3,
                   help="fleet size per world (default 3)")
    p.add_argument("--progress", type=int, default=0, metavar="EVERY",
                   help="print a progress line every EVERY schedules")
    p.add_argument("--no-shrink", action="store_true",
                   help="on failure, skip the ddmin shrink pass and "
                        "just print the violations")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="replay one saved schedule JSON (as written by "
                        "a failing sweep) instead of sweeping")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("generate", help="write a workload stream file")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g1 = gen_sub.add_parser("gnp")
    g1.add_argument("--n", type=int, required=True)
    g1.add_argument("--p", type=float, required=True)
    g2 = gen_sub.add_parser("harary")
    g2.add_argument("--n", type=int, required=True)
    g2.add_argument("--k", type=int, required=True)
    g3 = gen_sub.add_parser("hypergraph")
    g3.add_argument("--n", type=int, required=True)
    g3.add_argument("--m", type=int, required=True)
    g3.add_argument("--rank", type=int, default=3)
    for gp in (g1, g2, g3):
        gp.add_argument("-o", "--output", required=True)
        gp.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Decode-side :class:`~repro.engine.query.QueryMetrics` are collected
    for the whole command and exported through ``--metrics-json``
    (commands with engine metrics of their own nest them under
    ``"query"``).
    """
    from .engine.query import collect_query_metrics

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with collect_query_metrics() as qm:
            args._query_metrics = qm
            code = args.func(args)
        path = getattr(args, "metrics_json", None)
        if path and args.command not in ("ingest", "referee", "loadgen"):
            _write_metrics_json(path, {"query": qm})
        return code
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
