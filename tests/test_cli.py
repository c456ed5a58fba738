"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import cycle_graph, planted_separator_graph, random_tree
from repro.stream.file_io import save_stream_file
from repro.stream.generators import insert_only


@pytest.fixture
def cycle_stream(tmp_path):
    path = tmp_path / "cycle.stream"
    save_stream_file(str(path), 8, insert_only(cycle_graph(8)))
    return str(path)


class TestConnectivity:
    def test_connected(self, cycle_stream, capsys):
        assert main(["connectivity", cycle_stream, "--params", "fast"]) == 0
        out = capsys.readouterr().out
        assert "connected: True" in out

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "two.stream"
        path.write_text("n 4\n+ 0 1\n+ 2 3\n")
        assert main(["connectivity", str(path), "--params", "fast"]) == 0
        assert "connected: False" in capsys.readouterr().out


class TestQuery:
    def test_separator_detected(self, tmp_path, capsys):
        g, sep = planted_separator_graph(5, 2, seed=1)
        path = tmp_path / "sep.stream"
        save_stream_file(str(path), g.n, insert_only(g))
        code = main(
            [
                "query",
                str(path),
                "--remove",
                ",".join(str(v) for v in sep),
                "--params",
                "practical",
            ]
        )
        assert code == 0
        assert "disconnects the graph: True" in capsys.readouterr().out


class TestEdgeConnectivity:
    def test_cycle_lambda_two(self, cycle_stream, capsys):
        assert main(["edge-connectivity", cycle_stream, "--k-max", "4"]) == 0
        assert "estimate: 2" in capsys.readouterr().out


class TestSparsify:
    def test_small_sparsifier(self, cycle_stream, capsys):
        code = main(
            ["sparsify", cycle_stream, "--k", "3", "--levels", "4", "--params", "fast"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "complete=True" in out


class TestReconstruct:
    def test_tree_reconstructs(self, tmp_path, capsys):
        g = random_tree(10, seed=2)
        path = tmp_path / "tree.stream"
        save_stream_file(str(path), 10, insert_only(g))
        assert main(["reconstruct", str(path), "--d", "1"]) == 0
        out = capsys.readouterr().out
        assert f"reconstruction: {g.num_edges} edges" in out

    def test_failure_exit_code(self, tmp_path, capsys):
        from repro.graph.generators import complete_graph

        g = complete_graph(7)
        path = tmp_path / "k7.stream"
        save_stream_file(str(path), 7, insert_only(g))
        assert main(["reconstruct", str(path), "--d", "1"]) == 1


class TestGenerate:
    def test_generate_then_run(self, tmp_path, capsys):
        out_path = tmp_path / "gen.stream"
        assert (
            main(
                [
                    "generate",
                    "harary",
                    "--n",
                    "10",
                    "--k",
                    "3",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        assert main(["connectivity", str(out_path), "--params", "fast"]) == 0
        assert "connected: True" in capsys.readouterr().out

    def test_generate_hypergraph(self, tmp_path):
        out_path = tmp_path / "h.stream"
        code = main(
            [
                "generate",
                "hypergraph",
                "--n",
                "9",
                "--m",
                "7",
                "--rank",
                "3",
                "-o",
                str(out_path),
            ]
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("n 9 r 3")


class TestIngest:
    def test_basic_ingest(self, cycle_stream, capsys):
        code = main(["ingest", cycle_stream, "--shards", "2", "--batch-size", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events=8" in out
        assert "shards=2" in out
        assert "decode:" in out

    def test_metrics_json_stdout(self, cycle_stream, capsys):
        import json

        assert main(["ingest", cycle_stream, "--metrics-json", "-"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert data["schema"] == "repro-metrics/1"
        assert data["sections"]["ingest"]["events"] == 8
        assert data["sections"]["ingest"]["shards"] == 1
        assert "query" in data["sections"]

    def test_metrics_json_file(self, cycle_stream, tmp_path, capsys):
        import json

        dest = tmp_path / "metrics.json"
        assert main(["ingest", cycle_stream, "--metrics-json", str(dest)]) == 0
        data = json.loads(dest.read_text())
        assert data["sections"]["ingest"]["events"] == 8
        assert "written to" in capsys.readouterr().out

    def test_skeleton_sketch(self, cycle_stream, capsys):
        code = main(["ingest", cycle_stream, "--sketch", "skeleton", "--k", "2"])
        assert code == 0
        assert "skeleton edges" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["serial", "shm"])
    def test_checkpoint_then_resume(self, cycle_stream, tmp_path, capsys,
                                    backend):
        ck = str(tmp_path / "ck")
        args = ["ingest", cycle_stream, "--checkpoint-dir", ck,
                "--checkpoint-interval", "3", "--backend", backend]
        assert main(args) == 0
        assert "checkpoints:" in capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert "resumed from checkpoint offset" in capsys.readouterr().out

    def test_resume_without_dir_is_error(self, cycle_stream, capsys):
        assert main(["ingest", cycle_stream, "--resume"]) == 2
        assert "checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--backend", "process"],
                                       ["--retries", "1"]])
    def test_removed_flags_are_usage_errors(self, cycle_stream, flags):
        with pytest.raises(SystemExit) as info:
            main(["ingest", cycle_stream] + flags)
        assert info.value.code == 2


class TestReferee:
    def test_clean_run_is_complete(self, cycle_stream, capsys):
        assert main(["referee", cycle_stream]) == 0
        out = capsys.readouterr().out
        assert "players=8" in out
        assert "connected: True" in out
        assert "components (1)" in out

    def test_certified_run(self, cycle_stream, capsys):
        assert main(["referee", cycle_stream, "--certify"]) == 0
        assert "VERIFIED (spanning-forest)" in capsys.readouterr().out

    def test_refuted_certificate_exits_1(self, cycle_stream, capsys,
                                         monkeypatch):
        import dataclasses

        from repro.audit import certify

        real = certify.certify_spanning_forest
        monkeypatch.setattr(
            certify, "certify_spanning_forest",
            lambda sketch: dataclasses.replace(
                real(sketch), verified=False, failures=("forced",)
            ),
        )
        assert main(["referee", cycle_stream, "--certify"]) == 1
        assert "NOT VERIFIED" in capsys.readouterr().out

    def test_metrics_json_file(self, cycle_stream, tmp_path, capsys):
        import json

        dest = tmp_path / "referee.json"
        assert main(["referee", cycle_stream,
                     "--metrics-json", str(dest)]) == 0
        data = json.loads(dest.read_text())
        assert list(data["sections"]) == ["query"]
        assert data["sections"]["query"]["sample_ok"] > 0
        assert "written to" in capsys.readouterr().out

    def test_removed_channel_flag_is_usage_error(self, cycle_stream, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["referee", cycle_stream, "--loss", "0.2"])
        assert exc.value.code == 2
        assert "--loss" in capsys.readouterr().err


class TestAudit:
    """``repro audit`` reports damage per file instead of crashing."""

    def blob(self) -> bytes:
        from repro.sketch.serialization import dump_sketch
        from repro.sketch.spanning_forest import SpanningForestSketch

        sketch = SpanningForestSketch(6, seed=3)
        sketch.insert((0, 1))
        return dump_sketch(sketch)

    def write(self, tmp_path, blob: bytes, kind: str) -> str:
        from repro.engine.checkpoint import Checkpoint, CheckpointManager

        if kind == "rpsk":
            path = tmp_path / "sketch.rpsk"
            path.write_bytes(blob)
            return str(path)
        return CheckpointManager(str(tmp_path)).save(
            Checkpoint(offset=1, shard_blobs=[blob])
        )

    def test_clean_files_and_v1_checkpoint_verify(self, tmp_path, capsys):
        from .engine.test_checkpoint import V1_FIXTURE

        paths = [self.write(tmp_path, self.blob(), kind)
                 for kind in ("rpsk", "rpck")]
        assert main(["audit", *paths, str(V1_FIXTURE)]) == 0
        assert capsys.readouterr().out.count(": OK (") == 3

    @pytest.mark.parametrize("kind", ["rpsk", "rpck"])
    def test_damaged_header_byte_is_corrupt(self, tmp_path, capsys, kind):
        blob = self.blob()
        damaged = bytearray(blob)
        damaged[blob.index(b'"buckets"') + 1] = 0xFF  # not UTF-8
        path = self.write(tmp_path, bytes(damaged), kind)
        assert main(["audit", path]) == 1
        assert f"{path}: CORRUPT" in capsys.readouterr().out


# ROADMAP's probe: two disjoint 6-vertex paths on n = 12, then a delete
# of the never-inserted edge (5, 6) on line 12.
PROBE = (
    "n 12\n"
    + "".join(f"+ {v} {v + 1}\n" for v in range(5))
    + "".join(f"+ {v} {v + 1}\n" for v in range(6, 11))
    + "- 5 6\n"
)


@pytest.fixture
def probe_stream(tmp_path):
    path = tmp_path / "probe.stream"
    path.write_text(PROBE)
    return str(path)


class TestStreamModel:
    """The reader enforces the dynamic model on every subcommand."""

    @pytest.mark.parametrize("argv", [
        ["connectivity"],
        ["query", "--remove", "0"],
        ["edge-connectivity"],
        ["sparsify"],
        ["reconstruct", "--d", "1"],
        ["ingest", "--decode"],
        ["referee"],
    ], ids=lambda argv: argv[0])
    def test_absent_delete_refused_by_default(self, probe_stream, argv, capsys):
        assert main([argv[0], probe_stream, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "line 12: deletion of absent edge (5, 6)" in err

    def test_dropped_absent_delete_leaves_two_components(self, probe_stream,
                                                         capsys):
        for seed in ("0", "1", "2"):
            assert main(["connectivity", probe_stream, "--seed", seed,
                         "--on-bad-update", "drop"]) == 0
            out = capsys.readouterr().out
            assert "bad updates: 1 dropped" in out
            assert "components (2)" in out

    def test_quarantine_count_reaches_metrics_json(self, probe_stream,
                                                   tmp_path, capsys):
        import json

        dest = tmp_path / "m.json"
        assert main(["ingest", probe_stream, "--on-bad-update", "quarantine",
                     "--metrics-json", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "bad updates: 1 quarantined" in out
        assert "robustness: 1 quarantined" in out
        ingest = json.loads(dest.read_text())["sections"]["ingest"]
        assert ingest["quarantined"] == 1
        assert ingest["events"] == 10
        assert "degraded_queries" not in ingest


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["connectivity", "/nonexistent.stream"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_stream(self, tmp_path, capsys):
        path = tmp_path / "bad.stream"
        path.write_text("+ 0 1\n")
        assert main(["connectivity", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "70000"],
        ["ctl", "stats", "--port", "70000"],
        ["ctl", "stats", "--port", "-1"],
        ["ctl", "migrate", "--port", "1", "--name", "x",
         "--target-port", "65536"],
    ])
    def test_out_of_range_port_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "0-65535" in capsys.readouterr().err


_REPO = Path(__file__).resolve().parent.parent
_DOCS = ["README.md", "docs/*.md", "scripts/*.sh", "examples/*",
         ".claude/skills/verify/SKILL.md"]
# A command ends at a closing backtick or paren, a pipe, `;`, `&` or `#`;
# placeholders such as `<cmd>` or `{a,b}` are not commands.
_INVOCATION = re.compile(r"python3? -m repro +([a-z][^`|;&#)\n]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _doc_invocations():
    """(file, command text) of every ``python -m repro`` in the docs."""
    for pattern in _DOCS:
        for path in sorted(_REPO.glob(pattern)):
            text = path.read_text().replace("\\\n", " ")
            for match in _INVOCATION.finditer(text):
                yield path.relative_to(_REPO), match.group(1)


def _options(parser):
    return {o for action in parser._actions for o in action.option_strings}


def _subparsers(parser):
    for action in parser._actions:
        if action.choices and hasattr(action, "add_parser"):
            return action.choices
    return {}


class TestDocsMatchParser:
    """Every documented ``python -m repro <cmd> --flag`` must parse."""

    def test_documented_commands_and_flags_exist(self):
        commands = _subparsers(build_parser())
        bad, flags = [], 0
        for where, command in _doc_invocations():
            words = command.split()
            sub = commands.get(words[0]) if words else None
            if sub is None:
                bad.append(f"{where}: unknown command in {command!r}")
                continue
            known = _options(sub)
            nested = _subparsers(sub)
            if nested and len(words) > 1 and words[1] in nested:
                known |= _options(nested[words[1]])
            for flag in _FLAG.findall(command):
                flags += 1
                if flag.split("=")[0] not in known:
                    bad.append(f"{where}: {words[0]} has no {flag}")
        assert not bad, "\n".join(bad)
        assert flags > 100  # the scan reached the docs

