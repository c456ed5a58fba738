"""Every experiment module under ``benchmarks/`` imports.

The benches run outside the tier-1 suite, so a name they import that
the library no longer defines would otherwise go unnoticed until the
next ``pytest benchmarks/``.  Importing a bench module runs no
experiment: the experiments are its ``bench_*`` functions.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(p.stem for p in BENCHMARKS.glob("bench_*.py"))


def test_benches_found():
    assert len(MODULES) >= 19


@pytest.mark.parametrize("module", MODULES)
def test_bench_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    importlib.import_module(module)
