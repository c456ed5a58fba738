"""The three in-process workloads: bulk forest, sharded forest, vertex query.

Each workload class has ``setup(clock)`` (timed by the caller; input
generation is excluded through ``clock.pause()``), ``run()`` — the
end-to-end measurement, tracing off — and ``run_traced(tracer)``, which
drives the same kind of input piecewise through each layer's public
functions under the span recorder and returns the per-layer metrics.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List, NamedTuple

import numpy as np

from repro.engine.batch import expand_pair_batch
from repro.engine.query import QueryMetrics, collect_query_metrics
from repro.graph.traversal import hypergraph_is_connected_excluding
from repro.graph.union_find import UnionFind
from repro.sketch.bank import SummedBatch, hash_cache_pool_bytes
from repro.sketch.serialization import dump_sketch
from repro.sketch.spanning_forest import SpanningForestSketch

from . import check
from .machine import MachineClock, Samples
from .spec import SKETCH_SEED, median, percentile
from .trace import NullTracer, Tracer
from .workloads import (
    ChurnStream,
    EdgeUniverse,
    SeparatorGraph,
    as_edge_updates,
    coalesce_counts,
)

MS = 1e3


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(machine: MachineClock, batch: Samples,
                    fresh: Samples) -> Dict[str, float]:
    batch_s, fresh_s = batch.seconds(machine), fresh.seconds(machine)
    return {
        "ingest_batch_p50_ms": median(batch_s) * MS,
        "ingest_batch_p95_ms": percentile(batch_s, 95) * MS,
        "query_fresh_p50_ms": median(fresh_s) * MS,
    }


def piecewise_decode(sketch: SpanningForestSketch, tracer, counts) -> list:
    """``SpanningForestSketch.decode`` re-driven from outside, one span
    per layer call: ``summed_many`` -> ``sample_many`` -> ``UnionFind``.
    Returns the forest's edges; must equal the one-call decode's."""
    grid, scheme = sketch.grid, sketch.scheme
    members = len(sketch.vertices)
    member_of = {v: i for i, v in enumerate(sketch.vertices)}
    uf = UnionFind(members)
    by_root = {i: [i] for i in range(members)}
    edges = []
    with tracer.span("forest.decode_piecewise"):
        for group in range(sketch.rounds):
            if uf.components == 1:
                break
            counts["rounds"] += 1
            with tracer.span("bank.summed_many"):
                batch = grid.summed_many(group, list(by_root.values()))
            with tracer.span("bank.sample_many"):
                outcomes = batch.sample_many()
            merged = False
            for status, payload in outcomes:
                counts[status] += 1
                if status != SummedBatch.OK:
                    continue
                edge = scheme.edge_of(payload[0])
                if uf.union_many([member_of[v] for v in edge]):
                    merged = True
                    edges.append(tuple(edge))
            if not merged:
                break
            by_root = {}
            for i in range(members):
                by_root.setdefault(uf.find(i), []).append(i)
    return edges


def decode_layer_metrics(tracer: Tracer, counts, sink: QueryMetrics,
                         decodes: int) -> Dict[str, float]:
    """The ``sketch.bank`` decode metrics every traced workload shares."""
    d = tracer.durations
    summed, sample = sum(d("bank.summed_many")), sum(d("bank.sample_many"))
    rounds = max(1, counts["rounds"])
    lookups = sink.cache_hits + sink.cache_misses
    return {
        "bank.summed_many_ms_per_round": summed / rounds * MS,
        "bank.sample_many_ms_per_round": sample / rounds * MS,
        "bank.decode_rounds": counts["rounds"] / max(1, decodes),
        "bank.sample_ok": counts["ok"],
        "bank.sample_zero": counts["zero"],
        "bank.sample_failed": counts["failed"],
        "bank.cells_decoded": sink.cells_decoded,
        "bank.summed_cache_hit_rate":
            sink.cache_hits / lookups if lookups else 0.0,
        "forest.decode_self_ms":
            (sum(d("forest.decode_piecewise")) - summed - sample)
            / max(1, decodes) * MS,
    }


def new_counts() -> Dict[str, int]:
    return {"rounds": 0, "ok": 0, "zero": 0, "failed": 0}


# -- forest workloads (n = 1024) ---------------------------------------------

N_FOREST = 1024
LIVE = 16384
BATCH = 4096
FLAPS = BATCH // 8          # 512 insert+delete pairs = 25% of the batch
CHURN = (BATCH - 2 * FLAPS) // 2
EPOCH_BATCHES = 6
SNAPSHOT_QUERIES = 16


class ForestFeed:
    """One churn stream plus the exact state it implies."""

    def __init__(self, seed: int, stream: int = 0):
        self.stream = ChurnStream(
            EdgeUniverse(N_FOREST), LIVE, seed, stream=stream
        )

    def preload(self) -> list:
        return as_edge_updates(*self.stream.preload())

    def next_events(self):
        pairs = self.stream.next_batch(CHURN, FLAPS)
        return pairs, as_edge_updates(*pairs)

    def live(self):
        return self.stream.pairs(self.stream.live_ids())

    def forest_errors(self, forest) -> int:
        return check.forest_errors(N_FOREST, forest.edges(), *self.live())

    def connected(self) -> bool:
        return check.exact_connected(N_FOREST, *self.live())

    def dump_errors(self, sketch) -> int:
        expected = check.expected_dump(N_FOREST, SKETCH_SEED, *self.live())
        return int(dump_sketch(sketch) != expected)


class Workload:
    """What ``child`` drives: ``setup(clock)``, then ``run()`` or
    ``run_traced(tracer)``, then ``teardown()``.  ``failed`` counts every
    wrong answer, error or refusal among ``attempted`` operations."""

    name = ""
    probe_interval = 0.05

    def __init__(self, seed: int, seconds: float):
        self.seed, self.seconds = seed, seconds
        self.machine = MachineClock(self.probe_interval)
        self.failed = 0
        self.attempted = 0

    def teardown(self) -> None:
        pass


class BulkForest(Workload):
    """``SpanningForestSketch(1024).update_batch`` + periodic ``decode()``."""

    name = "bulk_forest_n1024"

    def setup(self, clock) -> None:
        with clock.pause():
            self.feed = ForestFeed(self.seed)
            preload = self.feed.preload()
        self.sketch = SpanningForestSketch(N_FOREST, seed=SKETCH_SEED)
        self.machine.tick()
        t0 = time.perf_counter()
        self.sketch.attach_hash_cache()
        self.attach_span = (t0, time.perf_counter())
        for start in range(0, len(preload), BATCH):
            self.machine.tick()
            self.sketch.update_batch(preload[start:start + BATCH])
        self.failed += check.preflight(self.seed)
        self.attempted += 1

    def snapshot_queries(self, feed, forest) -> None:
        """Reads of the decoded forest, as a caller between two decodes
        makes them; checked, not timed (sub-millisecond calls do not
        repeat to within any useful bound on a shared machine)."""
        truth = feed.connected()
        for _ in range(SNAPSHOT_QUERIES):
            got = hypergraph_is_connected_excluding(forest, ())
            self.failed += int(got != truth)
        self.attempted += SNAPSHOT_QUERIES

    def result(self, metrics, sketch) -> Dict[str, object]:
        metrics["sketch_mb"] = sketch.space_bytes() / 1e6
        return {"metrics": metrics, "attempted": self.attempted,
                "failed": self.failed}

    def run(self) -> Dict[str, object]:
        feed, sketch, machine = self.feed, self.sketch, self.machine
        batch, fresh = Samples(), Samples()
        events = 0
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            for _ in range(EPOCH_BATCHES):
                _pairs, updates = feed.next_events()
                machine.tick()
                t0 = time.perf_counter()
                sketch.update_batch(updates)
                batch.add(t0, time.perf_counter())
                events += len(updates)
            machine.tick()
            t0 = time.perf_counter()
            forest = sketch.decode()
            fresh.add(t0, time.perf_counter())
            self.failed += feed.forest_errors(forest)
            self.snapshot_queries(feed, forest)
        machine.tick()
        metrics = latency_metrics(machine, batch, fresh)
        metrics["ingest_events_per_s"] = events / sum(batch.seconds(machine))
        metrics["peak_rss_mb"] = self_rss_mb()  # before the checker's copy
        self.failed += feed.dump_errors(sketch)
        self.attempted += len(batch) + len(fresh) + 1
        return self.result(metrics, sketch)

    def run_traced(self, tracer: Tracer) -> Dict[str, float]:
        """One-call path on the set-up sketch, piecewise path on a copy."""
        feed, one = self.feed, self.sketch
        piece = one.copy()
        lut = np.arange(N_FOREST, dtype=np.int64)
        # Untraced reference pass (a third of the window): the base of
        # the tracing-overhead share.
        machine = self.machine
        ref, ref_events = Samples(), 0
        deadline = time.perf_counter() + self.seconds / 3
        while time.perf_counter() < deadline:
            pairs, updates = feed.next_events()
            machine.tick()
            t0 = time.perf_counter()
            one.update_batch(updates)
            ref.add(t0, time.perf_counter())
            piece.update_batch_pairs(*pairs)
            ref_events += len(updates)
        raw_rows = net_rows = events = epochs = 0
        counts, sink = new_counts(), QueryMetrics()
        identical = True
        deadline = time.perf_counter() + self.seconds / 3
        while time.perf_counter() < deadline or epochs == 0:
            for _ in range(EPOCH_BATCHES):
                pairs, updates = feed.next_events()
                raw, net = coalesce_counts(*pairs)
                raw_rows, net_rows = raw_rows + raw, net_rows + net
                events += len(updates)
                machine.tick()
                with tracer.span("forest.update_batch", request=events):
                    one.update_batch(updates)
                with tracer.span("forest.update_batch_pairs", request=events):
                    with tracer.span("batch.expand_pairs"):
                        rows = expand_pair_batch(piece.scheme, lut, *pairs)
                    with tracer.span("batch.fold"):
                        piece.grid.update_batch(*rows)
            epochs += 1
            machine.tick()
            with tracer.span("forest.decode", request=-epochs):
                forest = one.decode()
            with collect_query_metrics(sink):
                edges = piecewise_decode(piece, tracer, counts)
            identical &= sorted(edges) == sorted(map(tuple, forest.edges()))
            self.failed += feed.forest_errors(forest)
        machine.tick()
        identical &= dump_sketch(one) == dump_sketch(piece)
        self.failed += int(not identical) + feed.dump_errors(one)
        self.attempted += epochs + 2

        d = tracer.durations
        traced_rate = events / sum(d("forest.update_batch"))
        out = decode_layer_metrics(tracer, counts, sink, epochs)
        out.update({
            "batch.expand_pairs_ms_per_batch":
                median(d("batch.expand_pairs")) * MS,
            "batch.fold_ms_per_batch": median(d("batch.fold")) * MS,
            "batch.fold_events_per_s": events / sum(d("batch.fold")),
            "batch.coalesce_ratio": net_rows / raw_rows,
            "batch.rows_per_event": raw_rows / events,
            "bank.attach_hash_cache_s":
                float(machine.nominal(*self.attach_span)),
            "bank.table_mb": hash_cache_pool_bytes() / 1e6,
            "forest.update_batch_ms_per_batch":
                median(d("forest.update_batch")) * MS,
            "forest.update_batch_pairs_ms_per_batch":
                median(d("forest.update_batch_pairs")) * MS,
            "forest.decode_ms": median(d("forest.decode")) * MS,
            "forest.edges_recovered": forest.num_edges,
            "trace.overhead_share":
                1.0 - traced_rate / (ref_events / sum(ref.seconds(machine))),
        })
        return out


# Events per second of window the one-shot sharded stream is sized for:
# a constant, so the same seed always gives the same stream.
SHARDED_EVENTS_PER_SECOND = 20_000
# One shard worker beside the dispatching parent: two busy processes on
# the two cores the benchmark is given.  The parent's per-event dispatch
# loop is as busy as a worker, so two workers make three processes, and
# what was measured then was the scheduler: the same code read 41k-66k
# events/s over eight runs, against 37.3k-40.5k with one worker.
SHARDS = 1
FRESH_DECODES = 10
# The worker builds its placement tables while the first batches queue
# in its pipe; the parent sees that as one long stall somewhere in its
# first five dispatches.  Timing starts at the sixth.
WARMUP_DISPATCHES = 6
# Dispatches leave in pairs (a pipe holds one batch in flight, so every
# other send returns at once and the next waits out a whole fold): single
# gaps are half ~25 ms, half ~150 ms, with the median on the edge between
# them.  The time per batch is read over each pair of consecutive
# dispatches; no wider, so that one stall of the host touches two of the
# ~50 readings and stays beyond their 95th percentile.
DISPATCH_WINDOW = 2


class EngineRun(NamedTuple):
    """One ``ShardedIngestEngine.ingest()`` call, in nominal seconds."""

    result: object
    stamps: list        # (shard, perf_counter) of every batch dispatch
    steady_events: int  # events dispatched once the workers were warm ...
    steady_s: float     # ... and from then until every worker's last fold
    factor: float       # nominal / raw, for the engine's own raw timings


class ShardedForest(BulkForest):
    """The bulk event list, one shot, through ``ShardedIngestEngine``."""

    name = "sharded_forest_n1024"

    def setup(self, clock) -> None:
        with clock.pause():
            self.feed = ForestFeed(self.seed)
        # No attach here: like ``python -m repro ingest``, the engine is
        # handed a bare prototype and each worker builds its own tables.
        self.prototype = SpanningForestSketch(N_FOREST, seed=SKETCH_SEED)
        self.failed += check.preflight(self.seed)
        self.attempted += 1

    @staticmethod
    def event_list(feed: ForestFeed, seconds: float) -> list:
        batches = max(WARMUP_DISPATCHES + 2 * DISPATCH_WINDOW,
                      round(seconds * SHARDED_EVENTS_PER_SECOND / BATCH))
        events = feed.preload()
        for _ in range(batches):
            events.extend(feed.next_events()[1])
        return events

    def ingest(self, events, backend="shm", shards=SHARDS) -> "EngineRun":
        from repro.engine.shard import ShardedIngestEngine

        machine = self.machine
        stamps: list = []

        # The only outside seam inside ``ingest()``: called before each
        # batch dispatch.  It probes the machine and stamps the dispatch.
        def hook(shard, _index):
            machine.tick()
            stamps.append((shard, time.perf_counter()))

        engine = ShardedIngestEngine(
            self.prototype, shards=shards, batch_size=BATCH,
            backend=backend, partition_seed=SKETCH_SEED, fault_hook=hook,
        )
        machine.tick()
        t0 = time.perf_counter()
        result = engine.ingest(events)
        t1 = time.perf_counter()
        machine.tick()
        self.failed += int(result.events != len(events))
        self.attempted += result.metrics.batches
        # ingest() = pool start-up | dispatch + workers' folds | merge.
        # The engine reports its merge time; every dispatch before the
        # last flush carries a full batch, so the steady stretch starts a
        # known number of events in.
        warm = min(WARMUP_DISPATCHES, len(stamps) - 1)
        folded = t1 - result.metrics.merge_seconds
        return EngineRun(
            result=result,
            stamps=stamps,
            steady_events=len(events) - warm * BATCH,
            steady_s=float(machine.nominal(stamps[warm][1], folded)),
            factor=float(machine.nominal(t0, t1)) / (t1 - t0),
        )

    def run(self) -> Dict[str, object]:
        feed, machine = self.feed, self.machine
        events = self.event_list(feed, self.seconds)
        run = self.ingest(events)
        merged = run.result.sketch
        fresh, batch = Samples(), Samples(per=DISPATCH_WINDOW)
        for _ in range(FRESH_DECODES):
            machine.tick()
            t0 = time.perf_counter()
            forest = merged.decode()
            fresh.add(t0, time.perf_counter())
            self.failed += feed.forest_errors(forest)
        self.snapshot_queries(feed, forest)
        machine.tick()
        own_rss = self_rss_mb()  # before the checker's copy
        self.failed += feed.dump_errors(merged)
        self.attempted += FRESH_DECODES + 1
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        # The time between dispatches to the same shard is what the
        # stream's producer sees as a batch's latency: the worker pipes
        # push back.
        for shard in range(SHARDS):
            mine = [t for s, t in run.stamps if s == shard]
            mine = mine[WARMUP_DISPATCHES:]
            batch.starts += mine[:-DISPATCH_WINDOW]
            batch.ends += mine[DISPATCH_WINDOW:]
        metrics = latency_metrics(machine, batch, fresh)
        # Pool start-up, the workers' table builds and the merge are
        # first-touch-memory bound and, on a shared host, swing by seconds
        # from one minute to the next: the rate covers the steady stretch
        # between them, and they are per-layer metrics
        # (``pool.startup_s``, ``bank.attach_hash_cache_s``,
        # ``shard.merge_s``).
        metrics["ingest_events_per_s"] = run.steady_events / run.steady_s
        # Workers are symmetric; RUSAGE_CHILDREN reports the largest one.
        metrics["peak_rss_mb"] = own_rss + SHARDS * children
        return self.result(metrics, merged)

    def run_traced(self, tracer: Tracer) -> Dict[str, float]:
        from repro.engine.pool import make_pool
        from repro.engine.shard import zero_clone

        # Two engine runs over two independent streams of the seed, each a
        # third of the window: sharded and serial.  The dispatch stamps
        # are the untraced run's too, so there is no tracing overhead to
        # measure here (``trace.overhead_share`` stays 0).
        share = self.seconds / 3
        with tracer.span("engine.ingest"):
            traced = self.ingest(self.event_list(self.feed, share))
        stamps = traced.stamps
        for k in range(1, len(stamps)):
            tracer.add(f"shard.dispatch_to_{stamps[k][0]}", stamps[k - 1][1],
                       stamps[k][1], parent=0, request=k)
        self.failed += self.feed.dump_errors(traced.result.sketch)
        serial_events = self.event_list(ForestFeed(self.seed, stream=1), share)
        with tracer.span("engine.ingest_serial1"):
            serial = self.ingest(serial_events, backend="serial", shards=1)
        with tracer.span("pool.startup"):
            pool = make_pool("shm", lambda: zero_clone(self.prototype), SHARDS)
        pool.close(force=True)
        # What every worker pays on its first batch.
        scratch = SpanningForestSketch(N_FOREST, seed=SKETCH_SEED + 1)
        with tracer.span("bank.attach_hash_cache"):
            table_bytes = scratch.attach_hash_cache()
        self.machine.tick()
        self.attempted += 1
        m, factor = traced.result.metrics, traced.factor
        d = tracer.durations
        busy = [s.seconds * factor for s in m.per_shard]
        per_shard = [s.events for s in m.per_shard]
        return {
            "bank.attach_hash_cache_s": d("bank.attach_hash_cache")[0],
            "bank.table_mb": table_bytes / 1e6,
            "pool.startup_s": d("pool.startup")[0],
            "shard.dispatch_s": m.dispatch_seconds * factor,
            "shard.merge_s": m.merge_seconds * factor,
            "shard.worker_busy_s_max": max(busy),
            "shard.worker_busy_s_min": min(busy),
            "shard.partition_skew": max(per_shard) / (sum(per_shard) / SHARDS),
            "shard.max_queue_depth": m.max_queue_depth,
            "shard.restarts": m.restarts,
            "shard.serial1_events_per_s":
                serial.steady_events / serial.steady_s,
        }


# -- vertex-connectivity query structure (n = 128, k = 2) ---------------------

N_VERTEX = 128
K_VERTEX = 2
CHUNK = 8                  # scalar updates per timed "batch"
# The first chunks into a newly built structure touch its 294 MB for the
# first time and cost 35-80 ms against 20 ms once warm.  They are
# set-up: timed, they were 7% of the samples and sat on the 95th
# percentile; the next dozen still read 25-29 ms.
WARM_CHUNKS = 32
DECOYS_PER_CHUNK = CHUNK // 2
INGEST_SHARE = 0.30        # of --seconds: graph inserts, then decoy churn;
#                            the rest: rounds of {8 updates, disconnects(S)}
MIN_ROUNDS = 3
CACHED_QUERIES = 500       # answers from the cached certificate


class VertexQuery(Workload):
    """Theorem 4's ``VertexConnectivityQuerySketch`` on its scalar path."""

    name = "vertex_query_n128"

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.live: set = set()

    def setup(self, clock) -> None:
        from repro.core.connectivity_query import VertexConnectivityQuerySketch

        with clock.pause():
            self.graph = SeparatorGraph(N_VERTEX, self.seed)
        self.sketch = VertexConnectivityQuerySketch(
            N_VERTEX, K_VERTEX, seed=SKETCH_SEED
        )
        chunks = self.graph_chunks()
        self.warm, self.chunks = chunks[:WARM_CHUNKS], chunks[WARM_CHUNKS:]
        for chunk in self.warm:
            self.apply(self.sketch.update, chunk, Samples())
        self.failed += check.preflight(self.seed)
        self.attempted += 1

    def apply(self, update, events, batch: Samples) -> int:
        self.machine.tick()
        t0 = time.perf_counter()
        for edge, sign in events:
            update(edge, sign)
        batch.add(t0, time.perf_counter())
        for (u, v), sign in events:
            (self.live.add if sign > 0 else self.live.discard)(
                u + v * (v - 1) // 2
            )
        return len(events)

    def graph_chunks(self) -> list:
        ids = self.graph.graph_ids
        return [
            [(self.graph.edge(i), 1) for i in ids[start:start + CHUNK]]
            for start in range(0, len(ids), CHUNK)
        ]

    def decoy_chunks(self):
        """Insert 4 decoys, delete the previous chunk's 4: at most 8 live."""
        decoys, previous = self.graph.decoy_ids, []
        for start in range(0, len(decoys) - DECOYS_PER_CHUNK, DECOYS_PER_CHUNK):
            fresh = [self.graph.edge(i)
                     for i in decoys[start:start + DECOYS_PER_CHUNK]]
            yield [(e, 1) for e in fresh] + [(e, -1) for e in previous]
            previous = fresh

    def truth(self):
        adj = check.adjacency(
            N_VERTEX, [self.graph.edge(i) for i in self.live]
        )
        return lambda S: check.exact_disconnects(N_VERTEX, adj, S)

    def run(self) -> Dict[str, object]:
        sk, machine = self.sketch, self.machine
        batch, fresh = Samples(), Samples()
        start = time.perf_counter()
        # Phase A: the rest of the planted graph, then decoy churn until
        # the share of the window is used; the last decoys are deleted
        # again, so the live graph is exactly the planted one whatever the
        # timing.
        events = 0
        for chunk in self.chunks:
            events += self.apply(sk.update, chunk, batch)
        pending: list = []
        for chunk in self.decoy_chunks():
            if time.perf_counter() >= start + INGEST_SHARE * self.seconds:
                break
            events += self.apply(sk.update, chunk, batch)
            pending = [(e, -1) for e, s in chunk if s > 0]
        if pending:
            events += self.apply(sk.update, pending, batch)
        sk.certificate()
        # Phase B: monitoring rounds, each one fresh answer.
        query_sets = self.graph.query_sets(256)
        deadline = start + self.seconds
        rounds = 0
        while time.perf_counter() < deadline or rounds < MIN_ROUNDS:
            updates = self.graph.monitoring_round(self.live, CHUNK)
            S = query_sets[rounds]
            machine.tick()
            t0 = time.perf_counter()
            for edge, sign in updates:
                sk.update(edge, sign)
            got = sk.disconnects(S)
            fresh.add(t0, time.perf_counter())
            self.failed += int(got != self.truth()(S))
            rounds += 1
        machine.tick()
        # Phase C: answers from the cached certificate; checked, not
        # timed (the traced run reports ``query.disconnects_cached_us``).
        truth = self.truth()
        expected = {S: truth(S) for S in set(query_sets)}
        for q in range(CACHED_QUERIES):
            S = query_sets[q % len(query_sets)]
            self.failed += int(sk.disconnects(S) != expected[S])
        self.attempted += len(batch) + rounds + CACHED_QUERIES
        metrics = latency_metrics(machine, batch, fresh)
        metrics["ingest_events_per_s"] = events / sum(batch.seconds(machine))
        metrics["peak_rss_mb"] = self_rss_mb()
        metrics["sketch_mb"] = sk.space_bytes() / 1e6
        return {"metrics": metrics, "attempted": self.attempted,
                "failed": self.failed}

    def run_traced(self, tracer: Tracer) -> Dict[str, float]:
        """The wrapper's one-call path beside a ``SampledForestUnion``
        routed from outside through its public ``membership`` array."""
        from repro.core._sampled import SampledForestUnion
        from repro.core.params import DEFAULT_PARAMS

        one = self.sketch
        piece = SampledForestUnion(
            N_VERTEX, K_VERTEX,
            DEFAULT_PARAMS.query_repetitions(N_VERTEX, K_VERTEX),
            seed=SKETCH_SEED,
        )
        hits: List[int] = []
        dirty: set = set()
        forests: Dict[int, set] = {}
        counts, sink = new_counts(), QueryMetrics()
        decodes = 0

        def routed_update(edge, sign, tr):
            with tr.span("sampled.update_piecewise"):
                hit = np.flatnonzero(
                    piece.membership[:, list(edge)].all(axis=1)
                ).tolist()
                for i in hit:
                    with tr.span("forest.update_scalar"):
                        piece.sketches[i].update(edge, sign)
            dirty.update(hit)
            hits.append(len(hit))

        def both(edge, sign):
            with tracer.span("sampled.update"):
                one.update(edge, sign)
            routed_update(edge, sign, tracer)

        def piecewise_union() -> set:
            nonlocal decodes
            with tracer.span("sampled.decode_union_piecewise"):
                with collect_query_metrics(sink):
                    for i in sorted(dirty):
                        forests[i] = set(piecewise_decode(
                            piece.sketches[i], tracer, counts
                        ))
                decodes += len(dirty)
                dirty.clear()
                return set().union(*forests.values())

        def certificate_edges() -> set:
            return {tuple(e) for e in one.certificate().edges()}

        # Untraced reference: the first third of the graph through the
        # one-call path only (replayed, with the set-up's warm-up chunks,
        # into the piecewise copy afterwards, off the clock and the trace).
        chunks = self.chunks
        cut = len(chunks) // 3
        ref = Samples()
        for chunk in chunks[:cut]:
            self.apply(one.update, chunk, ref)
        for chunk in self.warm + chunks[:cut]:
            for edge, sign in chunk:
                routed_update(edge, sign, NullTracer())
        hits.clear()
        batch = Samples()
        for chunk in chunks[cut:]:
            self.apply(both, chunk, batch)
        with tracer.span("sampled.decode_union"):
            cert = one.certificate()
        identical = piecewise_union() == certificate_edges()
        query_sets = self.graph.query_sets(64)
        dirty_counts: List[int] = []
        deadline = time.perf_counter() + self.seconds / 3
        rounds = 0
        while time.perf_counter() < deadline or rounds < 2:
            self.machine.tick()
            for edge, sign in self.graph.monitoring_round(self.live, CHUNK):
                both(edge, sign)
            dirty_counts.append(len(dirty))
            self.machine.tick()
            S = query_sets[rounds]
            with tracer.span("query.disconnects_fresh", request=rounds):
                got = one.disconnects(S)
            self.failed += int(got != self.truth()(S))
            identical &= piecewise_union() == certificate_edges()
            rounds += 1
        for q in range(CACHED_QUERIES):
            self.machine.tick()
            with tracer.span("query.disconnects_cached"):
                one.disconnects(query_sets[q % len(query_sets)])
        # Byte identity needs the wrapper's instances; that one private
        # attribute is read for this check only, never for a number.
        inner = getattr(one, "_union", None)
        if inner is not None:
            identical &= all(
                dump_sketch(inner.sketches[i]) == dump_sketch(piece.sketches[i])
                for i in piece.sketches
            )
        self.failed += int(not identical)
        self.attempted += len(ref) + len(batch) + rounds + 1
        grid = next(iter(piece.sketches.values())).grid.copy()
        with tracer.span("bank.scalar_update_x200"):
            for k in range(200):
                grid.update(k % grid.members, k % grid.domain, 1)
        self.machine.tick()

        d = tracer.durations
        one_update = d("sampled.update")
        traced_rate = len(one_update) / sum(one_update)
        ref_rate = cut * CHUNK / sum(ref.seconds(self.machine))
        out = decode_layer_metrics(tracer, counts, sink, decodes)
        out.update({
            "bank.scalar_update_us":
                d("bank.scalar_update_x200")[0] / 200 * 1e6,
            "forest.decode_ms": median(d("forest.decode_piecewise")) * MS,
            "forest.edges_recovered": cert.num_edges,
            "sampled.update_us_per_edge": median(one_update) * 1e6,
            "sampled.instances_hit_per_edge": sum(hits) / len(hits),
            "sampled.decode_union_ms": d("sampled.decode_union")[0] * MS,
            "sampled.dirty_instances_per_query": median(dirty_counts),
            "query.disconnects_cached_us":
                median(d("query.disconnects_cached")) * 1e6,
            "trace.overhead_share": 1.0 - traced_rate / ref_rate,
        })
        return out


WORKLOADS = {cls.name: cls for cls in (BulkForest, ShardedForest, VertexQuery)}
