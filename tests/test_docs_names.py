"""Every dotted ``repro.*`` name and ``--flag`` the documentation cites
must exist.

Each name resolves to a module, or to an attribute chain under its
longest importable module prefix.  Each flag is an option of some
``repro`` subcommand, or one of a few other tools' flags listed in
``OTHER_TOOLS_FLAGS``.  EXPERIMENTS.md is exempt: it is a ledger that
records retired modules and flags by name.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    "README.md",
    "DESIGN.md",
    "PAPER.md",
    *sorted(str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")),
    ".claude/skills/verify/SKILL.md",
]
NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# Flags the docs cite for tools other than the ``repro`` CLI.
OTHER_TOOLS_FLAGS = {
    "--workload",  # benchmarks/perf/run.py
    "--trace",  # benchmarks/perf/run.py
    "--no-build-isolation",  # pip install
    "--benchmark-only",  # pytest-benchmark
    "--retries",  # verify skill: a flag repro deliberately lacks
    "--loss",  # verify skill: a flag repro deliberately lacks
}


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def stale_names(text: str):
    """``(line, name)`` of every cited name that does not resolve."""
    return [
        (line, m.group())
        for line, row in enumerate(text.splitlines(), start=1)
        for m in NAME.finditer(row)
        if not resolves(m.group())
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_cited_names_resolve(doc):
    assert stale_names((ROOT / doc).read_text(encoding="utf-8")) == []


def test_stale_name_is_caught():
    text = "see `repro.sketch.bank.SamplerGrid`\nand `repro.sketch.onesparse`\n"
    assert stale_names(text) == [(2, "repro.sketch.onesparse")]


def repro_flags(parser: argparse.ArgumentParser) -> set:
    """Every ``--option`` of ``parser`` and of its nested subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= repro_flags(sub)
    return flags


def unknown_flags(text: str, known: set):
    """``(line, flag)`` of every cited flag not in ``known``."""
    return [
        (line, m.group())
        for line, row in enumerate(text.splitlines(), start=1)
        for m in FLAG.finditer(row)
        if m.group() not in known
    ]


def test_cited_cli_flags_exist():
    from repro.cli import build_parser

    known = repro_flags(build_parser()) | OTHER_TOOLS_FLAGS
    unknown = [
        (doc, *hit)
        for doc in DOCS
        for hit in unknown_flags((ROOT / doc).read_text(encoding="utf-8"), known)
    ]
    assert unknown == []
    assert unknown_flags("run `repro connectivity x --no-such-flag`", known) == [
        (1, "--no-such-flag")
    ]
