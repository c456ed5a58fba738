"""Tests for the stream file format."""

import io

import pytest

from repro.errors import StreamError
from repro.graph.generators import cycle_graph, random_hypergraph
from repro.stream.file_io import read_stream, write_stream
from repro.stream.generators import insert_only
from repro.stream.updates import EdgeUpdate, materialize


def roundtrip(n, updates, r=2):
    buf = io.StringIO()
    write_stream(buf, n, updates, r=r)
    buf.seek(0)
    return read_stream(buf)


class TestRoundtrip:
    def test_graph_stream(self):
        g = cycle_graph(6)
        updates = insert_only(g)
        n, r, back = roundtrip(6, updates)
        assert (n, r) == (6, 2)
        assert back == updates

    def test_hypergraph_stream(self):
        h = random_hypergraph(8, 6, r=3, seed=1)
        updates = insert_only(h)
        n, r, back = roundtrip(8, updates, r=3)
        assert r == 3
        assert materialize(n, back, r=3).edge_set() == h.edge_set()

    def test_deletions_preserved(self):
        updates = [
            EdgeUpdate.insert((0, 1)),
            EdgeUpdate.insert((1, 2)),
            EdgeUpdate.delete((0, 1)),
        ]
        _, _, back = roundtrip(4, updates)
        assert [u.sign for u in back] == [1, 1, -1]


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        text = "# hello\n\nn 4\n+ 0 1\n# mid\n- 0 1\n"
        n, r, updates = read_stream(io.StringIO(text))
        assert n == 4 and r == 2 and len(updates) == 2

    def test_header_with_rank(self):
        n, r, _ = read_stream(io.StringIO("n 5 r 4\n+ 0 1 2 3\n"))
        assert (n, r) == (5, 4)

    def test_missing_header(self):
        with pytest.raises(StreamError):
            read_stream(io.StringIO("+ 0 1\n"))

    def test_no_header_at_all(self):
        with pytest.raises(StreamError):
            read_stream(io.StringIO("# nothing\n"))

    def test_duplicate_header(self):
        with pytest.raises(StreamError):
            read_stream(io.StringIO("n 4\nn 5\n"))

    def test_unknown_op(self):
        with pytest.raises(StreamError):
            read_stream(io.StringIO("n 4\n* 0 1\n"))

    def test_bad_vertex(self):
        with pytest.raises(StreamError):
            read_stream(io.StringIO("n 4\n+ 0 x\n"))

    def test_vertex_out_of_range(self):
        with pytest.raises(StreamError):
            read_stream(io.StringIO("n 4\n+ 0 4\n"))

    def test_singleton_edge(self):
        with pytest.raises(StreamError):
            read_stream(io.StringIO("n 4\n+ 2\n"))


class TestPathologicalInputs:
    """Each malformed shape gets its own line-numbered diagnostic."""

    def message(self, text, **kwargs):
        with pytest.raises(StreamError) as info:
            read_stream(io.StringIO(text), **kwargs)
        return str(info.value)

    def test_empty_file(self):
        msg = self.message("")
        assert msg == "stream file is empty (no 'n' header)"

    def test_whitespace_and_comments_only(self):
        # Comment-only files are "empty" too — nothing was parseable.
        msg = self.message("# just a comment\n\n   \n")
        assert msg == "stream file is empty (no 'n' header)"

    def test_events_but_no_header(self):
        # Distinct from the empty case: there WAS content, out of order.
        msg = self.message("+ 0 1\n")
        assert msg == "line 1: event before 'n' header"

    def test_header_only_token(self):
        msg = self.message("n\n")
        assert msg.startswith("line 1: bad header")
        assert "'n'" in msg

    def test_header_with_non_integer_count(self):
        msg = self.message("n five\n")
        assert msg.startswith("line 1: bad header")

    @pytest.mark.parametrize("header", ["n -3", "n 4 r 1"])
    def test_header_outside_the_model(self, header):
        msg = self.message(f"{header}\n+ 0 1\n")
        assert msg == f"line 1: bad header {header!r}"

    def test_repeated_vertex(self):
        msg = self.message("n 4\n+ 3 3\n")
        assert msg == "line 2: hyperedge (3, 3) has repeated vertices"

    def test_duplicate_insert_with_balance_check(self):
        msg = self.message("n 4\n+ 0 1\n+ 1 0\n")
        assert msg == "line 3: double insertion of (0, 1)"

    def test_delete_before_insert_with_balance_check(self):
        msg = self.message("n 4\n- 2 3\n")
        assert msg == "line 2: deletion of absent edge (2, 3)"

    def test_non_integer_tokens(self):
        msg = self.message("n 4\n+ 0 x\n")
        assert msg == "line 2: bad vertex in '+ 0 x'"

    def test_all_messages_distinct(self):
        """The five pathologies map to five different diagnostics."""
        cases = {
            "empty": self.message(""),
            "header-only": self.message("n\n"),
            "dup-insert": self.message("n 4\n+ 0 1\n+ 0 1\n"),
            "del-before-ins": self.message("n 4\n- 0 1\n"),
            "non-integer": self.message("n 4\n+ 0 x\n"),
        }
        assert len(set(cases.values())) == len(cases)
        for name, msg in cases.items():
            if name != "empty":
                assert "line " in msg, f"{name} lacks a line number: {msg}"
