"""Every dotted ``repro.*`` name, backticked class-style name and
``--flag`` the documentation cites must exist.

Each dotted name resolves to a module, or to an attribute chain under
its longest importable module prefix.  Each backticked CapWords name
(`` `SpanningForestSketch` ``) is defined by some ``repro`` module or
by a class in one, or is a builtin.  Each flag is an option of some
``repro`` subcommand, or one of a few other tools' flags listed in
``OTHER_TOOLS_FLAGS``.  EXPERIMENTS.md is exempt: it is a ledger that
records retired modules and flags by name.
"""

import argparse
import builtins
import importlib
import inspect
import pkgutil
import re
from functools import lru_cache
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
# A backticked name in CapWords, bare or as the head of a call or an
# attribute chain: `Name`, `Name(...)`, `Name.attr`.
CAPWORDS = re.compile(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?=[`(.])")
# Cited CapWords names that are not library names.
OTHER_CAPWORDS = {
    "TestDecodeAtScale",  # tests/sketch: the n = 1024 decode fixture
}
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


@lru_cache(maxsize=None)
def defined_names() -> frozenset:
    """Every name a ``repro`` module or a class in one defines, plus
    the builtins."""
    import repro

    names = set(dir(builtins)) | OTHER_CAPWORDS
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":  # importing it runs the CLI
            continue
        for name, obj in vars(importlib.import_module(info.name)).items():
            names.add(name)
            if inspect.isclass(obj):
                names.update(vars(obj))
    return frozenset(names)


def stale_names(text: str):
    """``(line, name)`` of every cited name that does not resolve."""
    rows = list(enumerate(text.splitlines(), start=1))
    dotted = [
        (line, m.group())
        for line, row in rows
        for m in NAME.finditer(row)
        if not resolves(m.group())
    ]
    bare = [
        (line, m.group(1))
        for line, row in rows
        for m in CAPWORDS.finditer(row)
        if m.group(1) not in defined_names()
    ]
    return sorted(dotted + bare)


@pytest.mark.parametrize("doc", DOCS)
def test_cited_names_resolve(doc):
    assert stale_names((ROOT / doc).read_text(encoding="utf-8")) == []


def test_stale_name_is_caught():
    text = (
        "see `repro.sketch.bank.SamplerGrid`\nand `repro.sketch.onesparse`\n"
        "| `SpanningForestSketch(n, r)` | `ValueError` |\n"
        "| `NoSuchSketch` | `SampledForestUnion.decode_union` |\n"
        "a ZERO round, `DEGRADED`, `TestDecodeAtScale`\n"
    )
    assert stale_names(text) == [
        (2, "repro.sketch.onesparse"),
        (4, "NoSuchSketch"),
    ]


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
