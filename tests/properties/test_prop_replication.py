"""Replication convergence properties, in-process (no sockets).

The replicated service's correctness rests on two mechanisms that are
pure state-machine logic, testable without a single socket:

* **Exactly-once ingest** — every stamped batch folds at most once per
  replica no matter how many times it is delivered (client retries,
  coordinator re-sends, anti-entropy cross-resends all reuse the
  original stamp, and the dedup window answers the duplicates).
* **Column repair** — a divergent replica overwritten with the
  source's divergent member columns becomes bit-identical to it.

Both reduce to the same property: for ANY random update stream split
across replicas in ANY pattern — batches dropped at some replicas,
duplicated at others — once anti-entropy finishes, every replica's
serialized state is byte-identical to a single node that folded each
batch exactly once.  Linearity does the heavy lifting (updates commute
and associate exactly), so the test only has to prove the delivery
machinery neither loses nor double-folds anything.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit.repair import divergent_members, table_fingerprint
from repro.service.registry import SketchRegistry
from repro.service.wal import KIND_UPDATES
from repro.sketch.serialization import dump_sketch

N = 16
CONFIG = {"kind": "forest", "n": N, "seed": 7}


def edges():
    return st.tuples(
        st.integers(0, N - 1), st.integers(0, N - 1)
    ).filter(lambda e: e[0] != e[1])


def batches():
    """Stamped batches: each is a nonempty list of signed edges.

    Deletions need not match prior inserts — the sketch is linear, so
    byte-identity to the single node holds for any update multiset,
    and that is exactly the property under test.
    """
    update = st.tuples(st.sampled_from([1, -1]), edges())
    return st.lists(
        st.lists(update, min_size=1, max_size=6), min_size=1, max_size=10
    )


def as_updates(batch):
    return [[sign, [u, v]] for sign, (u, v) in batch]


def make_replica():
    registry = SketchRegistry()
    record = registry.create("prop", dict(CONFIG))
    return registry, record


def deliver(registry, record, batch, stamp_request):
    """The server's under-lock stamped ingest sequence, sans socket."""
    if record.dedup.check("prop-client", stamp_request) is not None:
        return
    updates = as_updates(batch)
    registry.ingest_updates(record, updates)
    registry.wal_commit(
        record, KIND_UPDATES, b"", "prop-client", stamp_request, len(updates)
    )


def single_node_state(all_batches) -> bytes:
    registry, record = make_replica()
    for i, batch in enumerate(all_batches):
        deliver(registry, record, batch, i)
    return dump_sketch(record.sketch)


class TestExactlyOnceConvergence:
    @given(
        batches(),
        st.integers(2, 4),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_cross_resend_converges_bit_identically(
        self, all_batches, replicas, data
    ):
        """Arbitrary delivery pattern + duplicate re-sends, then a full
        cross-resend (the WAL anti-entropy stage): every replica ends
        byte-identical to the single node, and nothing double-folds."""
        nodes = [make_replica() for _ in range(replicas)]
        for i, batch in enumerate(all_batches):
            subset = data.draw(
                st.lists(
                    st.integers(0, replicas - 1),
                    min_size=1, max_size=replicas, unique=True,
                ),
                label=f"recipients of batch {i}",
            )
            dups = data.draw(
                st.integers(1, 3), label=f"deliveries of batch {i}"
            )
            for r in subset:
                for _ in range(dups):
                    deliver(*nodes[r], batch, i)
        # Anti-entropy's WAL stage: re-send EVERY batch to EVERY
        # replica with its original stamp.  Dedup must absorb the ones
        # that already landed.
        for registry, record in nodes:
            for i, batch in enumerate(all_batches):
                deliver(registry, record, batch, i)
        expected = single_node_state(all_batches)
        for registry, record in nodes:
            assert dump_sketch(record.sketch) == expected
            assert record.events == sum(len(b) for b in all_batches)

    @given(batches(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_duplicate_only_delivery_is_exactly_once(
        self, all_batches, data
    ):
        """One replica, every batch delivered 1-4 times: the state and
        the event offset match a single clean delivery."""
        registry, record = make_replica()
        for i, batch in enumerate(all_batches):
            for _ in range(data.draw(st.integers(1, 4), label=f"b{i}")):
                deliver(registry, record, batch, i)
        assert dump_sketch(record.sketch) == single_node_state(all_batches)
        assert record.events == sum(len(b) for b in all_batches)


class TestColumnRepairConvergence:
    @given(
        batches(),
        st.integers(2, 4),
        # delivered[i][r - 1]: does batch i reach replica r?  (Sized
        # for the largest draw: 10 batches, replicas 1..3.)
        st.lists(
            st.lists(st.booleans(), min_size=3, max_size=3),
            min_size=10, max_size=10,
        ),
    )
    # Offset-only divergence: the batch replica 1 misses nets to zero,
    # so its counters (and fingerprint) match the source's while its
    # event offset lags — repair must still align the offset.
    @example(
        all_batches=[[(1, (0, 1)), (-1, (0, 1))]],
        replicas=2,
        delivered=[[False] * 3] * 10,
    )
    @settings(max_examples=25, deadline=None)
    def test_repair_from_complete_source_converges(
        self, all_batches, replicas, delivered
    ):
        """Replica 0 holds everything; the rest hold random subsets.
        Digest-diff column repair from 0 makes every replica
        byte-identical to the single node, shipping only the member
        columns whose digests diverged."""
        nodes = [make_replica() for _ in range(replicas)]
        for i, batch in enumerate(all_batches):
            deliver(*nodes[0], batch, i)
            for r in range(1, replicas):
                if delivered[i][r - 1]:
                    deliver(*nodes[r], batch, i)
        src_registry, src_record = nodes[0]
        src_table = src_registry.digest_table(src_record)
        for r in range(1, replicas):
            dst_registry, dst_record = nodes[r]
            dst_table = dst_registry.digest_table(dst_record)
            if dst_table["fingerprint"] == src_table["fingerprint"]:
                # ReplicaSet._column_stage: no column to ship, but a
                # lagging offset is aligned with the source's.
                if dst_record.events != src_record.events:
                    dst_registry.repair_members(
                        dst_record, 0, [], events=src_record.events
                    )
                continue
            for g in range(len(src_table["grids"])):
                members = divergent_members(
                    src_registry.member_digests(src_record, g),
                    dst_registry.member_digests(dst_record, g),
                )
                if not members:
                    continue
                blobs = src_registry.fetch_member_blobs(
                    src_record, g, members
                )
                dst_registry.repair_members(
                    dst_record, g, blobs, events=src_record.events
                )
        expected = single_node_state(all_batches)
        assert dump_sketch(src_record.sketch) == expected
        for r in range(1, replicas):
            _, record = nodes[r]
            assert dump_sketch(record.sketch) == expected
            assert record.events == src_record.events
        # The digest agrees after repair: recomputing every table
        # yields one fingerprint across the set.
        prints = {
            table_fingerprint(reg.digest_table(rec)["grids"])
            for reg, rec in nodes
        }
        assert len(prints) == 1
