"""Every module under ``benchmarks/`` imports.

The benches and the ``benchmarks/perf`` harness run outside the tier-1
suite, so a name they import that the library no longer defines would
otherwise go unnoticed until the next ``pytest benchmarks/`` or
``python3 benchmarks/perf/run.py``.  Importing a module runs nothing:
the experiments are a bench's ``bench_*`` functions, and the harness
runs only under ``__main__``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(p.stem for p in BENCHMARKS.glob("bench_*.py"))
PERF_MODULES = sorted(
    p.stem for p in (BENCHMARKS / "perf").glob("*.py") if p.stem != "__init__"
)


def test_benches_found():
    assert len(MODULES) >= 19
    assert len(PERF_MODULES) >= 9


@pytest.mark.parametrize("module", MODULES)
def test_bench_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    importlib.import_module(module)


@pytest.mark.parametrize("module", PERF_MODULES)
def test_perf_module_imports(module, monkeypatch):
    # ``run`` puts ``benchmarks/`` on the path itself; restore it after.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    importlib.import_module(f"perf.{module}")
