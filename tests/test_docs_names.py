"""Every dotted ``repro.*`` name the documentation cites must exist.

Each name resolves to a module, or to an attribute chain under its
longest importable module prefix.  EXPERIMENTS.md is exempt: it is a
ledger that records retired modules by name.
"""

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
