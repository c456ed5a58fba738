"""Input quarantine: bad updates are diverted with provenance, not fatal.

The acceptance bar: feeding a stream with malformed updates under
``--on-bad-update quarantine`` must complete and produce a quarantine
file listing every bad line with its line number.
"""

import io
import json

import pytest

from repro.errors import StreamError
from repro.stream.file_io import read_stream, write_stream
from repro.stream.quarantine import BadUpdate, Quarantine, check_policy
from repro.stream.updates import EdgeUpdate, materialize

DIRTY = (
    "n 6\n"
    "+ 0 1\n"          # 2: ok
    "+ 0 x\n"          # 3: parse (non-integer)
    "+ 0 9\n"          # 4: domain (vertex outside [0, 6))
    "+ 3\n"            # 5: rank (singleton)
    "+ 0 1\n"          # 6: balance (double insertion)
    "- 4 5\n"          # 7: balance (deletion of absent edge)
    "+ 2 3\n"          # 8: ok
)


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(StreamError, match="unknown bad-update policy"):
            check_policy("lenient")

    def test_strict_is_default_and_raises(self):
        with pytest.raises(StreamError, match="line 3"):
            read_stream(io.StringIO(DIRTY))

    def test_quarantine_requires_sink(self):
        with pytest.raises(StreamError, match="needs a Quarantine"):
            read_stream(io.StringIO(DIRTY), on_bad_line="quarantine")


class TestReadStreamQuarantine:
    def test_every_bad_line_recorded_with_line_number(self):
        q = Quarantine()
        n, r, updates = read_stream(
            io.StringIO(DIRTY), on_bad_line="quarantine", quarantine=q,
        )
        assert n == 6
        assert [u.edge for u in updates] == [(0, 1), (2, 3)]
        assert [b.line for b in q.records] == [3, 4, 5, 6, 7]
        reasons = [b.reason for b in q.records]
        assert reasons == [
            "parse", "domain", "rank",
            "balance-double-insert", "balance-absent-delete",
        ]
        # Raw offending text is preserved for provenance.
        assert q.records[0].raw == "+ 0 x"

    def test_drop_skips_and_counts(self):
        q = Quarantine()
        _, _, updates = read_stream(
            io.StringIO(DIRTY), on_bad_line="drop", quarantine=q,
        )
        assert len(updates) == 2
        assert q.dropped == 5
        assert q.records == []

    def test_drop_without_sink_is_silent(self):
        _, _, updates = read_stream(io.StringIO(DIRTY), on_bad_line="drop")
        assert len(updates) == 2

    def test_rank_bound_enforced(self):
        q = Quarantine()
        read_stream(
            io.StringIO("n 6 r 2\n+ 0 1 2\n"),
            on_bad_line="quarantine", quarantine=q,
        )
        assert q.records[0].reason == "rank"
        assert "rank bound" in q.records[0].detail


class TestRunnerQuarantine:
    """Offline replay: events written out and read back, so the reader's
    stream-model check decides what reaches the sketches."""

    def replay(self, **policy):
        events = [
            EdgeUpdate.insert((0, 1)),   # line 2
            EdgeUpdate.insert((0, 1)),   # line 3: double insertion
            EdgeUpdate.insert((1, 2)),   # line 4
            EdgeUpdate.delete((3, 4)),   # line 5: absent deletion
        ]
        buf = io.StringIO()
        write_stream(buf, 6, events)
        buf.seek(0)
        return read_stream(buf, **policy)

    def test_strict_default_raises(self):
        with pytest.raises(StreamError, match="line 3: double insertion"):
            self.replay()

    def test_quarantine_diverts_with_stream_position(self):
        q = Quarantine()
        n, r, updates = self.replay(on_bad_line="quarantine", quarantine=q)
        assert len(updates) == 2
        assert len(q) == 2 and q.dropped == 0
        assert [b.line for b in q.records] == [3, 5]
        assert [b.reason for b in q.records] == [
            "balance-double-insert", "balance-absent-delete",
        ]
        assert all(b.source == "file" for b in q.records)
        # The live graph only saw the good events.
        assert materialize(n, updates, r).num_edges == 2

    def test_drop_counts_in_report(self):
        q = Quarantine()
        _, _, updates = self.replay(on_bad_line="drop", quarantine=q)
        assert len(updates) == 2
        assert q.dropped == 2
        assert len(q) == 0

    def test_sketches_never_see_diverted_events(self):
        class Recorder:
            def __init__(self):
                self.seen = []

            def update(self, edge, sign):
                self.seen.append((edge, sign))

        rec = Recorder()
        _, _, updates = self.replay(
            on_bad_line="quarantine", quarantine=Quarantine(),
        )
        for u in updates:
            rec.update(u.edge, u.sign)
        assert rec.seen == [((0, 1), 1), ((1, 2), 1)]


class TestQuarantineFile:
    def test_jsonl_file_lists_every_bad_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with Quarantine(path) as q:
            read_stream(io.StringIO(DIRTY), on_bad_line="quarantine",
                        quarantine=q)
        lines = [json.loads(l) for l in open(path) if l.strip()]
        assert [rec["line"] for rec in lines] == [3, 4, 5, 6, 7]
        assert all("reason" in rec and "raw" in rec for rec in lines)

    def test_read_back_round_trip(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with Quarantine(path) as q:
            q.record(BadUpdate(line=9, reason="parse", detail="d", raw="+ z"))
        back = Quarantine.read(path)
        assert back == [BadUpdate(line=9, reason="parse", detail="d", raw="+ z")]
