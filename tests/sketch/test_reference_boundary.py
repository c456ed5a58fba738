"""The scalar reference decoder stays on the test side of the tree.

:mod:`repro.sketch.reference` is the oracle the batch decode is checked
against; the library itself has one decode path and no switch to the
oracle.  These tests pin that boundary: no library module imports the
oracle, the process-wide path switches are gone, and the CLI offers no
flag for them.
"""

import argparse
import ast
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import cli
from repro.sketch import bank, spanning_forest

SRC = pathlib.Path(repro.__file__).resolve().parent
ORACLE = "repro.sketch.reference"


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(path: pathlib.Path):
    """Every module an import statement of ``path`` names, resolved to
    absolute dotted names (``from pkg import mod`` yields ``pkg.mod``)."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            base = base[: len(base) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_library_module_imports_the_oracle():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if _module_name(path) != ORACLE
        and any(name == ORACLE for name in _imported(path))
    ]
    assert offenders == []


def test_importing_the_whole_library_leaves_the_oracle_unloaded():
    code = (
        "import importlib, pkgutil, sys, repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        f"    if m.name not in ({ORACLE!r}, 'repro.__main__'):\n"
        "        importlib.import_module(m.name)\n"
        f"print({ORACLE!r} in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", [bank, spanning_forest])
@pytest.mark.parametrize(
    "name", ["set_batch_decode", "batch_decode_default", "set_auto_hash_cache"]
)
def test_no_process_wide_decode_or_table_switch(module, name):
    assert not hasattr(module, name)


def test_cli_has_no_scalar_decode_flag():
    parser = cli.build_parser()
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert "connectivity" in commands.choices
    for name, sub in commands.choices.items():
        assert "--scalar-decode" not in sub._option_string_actions, name
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["connectivity", "x.stream", "--scalar-decode"])
    assert exc.value.code == 2
