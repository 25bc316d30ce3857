"""The package's export lists stay consistent with what the modules define.

A name left in an __all__ after its definition is deleted breaks
`from module import *` and every tool that walks __all__ with getattr.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import hopftwistor

PACKAGE = pathlib.Path(hopftwistor.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"hopftwistor.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"hopftwistor.{node.module}")
            exported = getattr(module, "__all__", None)
            if exported is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert unlisted == []


def _unused_imports(path: pathlib.Path) -> list:
    """Names a module imports and never uses; a name in its __all__ and the
    __future__ import count as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_module_keeps_an_unused_import():
    # __init__ only re-exports, so every module but it is checked.
    unused = {name: _unused_imports(PACKAGE / f"{name}.py") for name in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_command_imports_numpy_alone():
    # scipy, mpmath and sympy are installed for tests and scripts; the
    # package and its start-up time depend on numpy only.
    code = (
        "import sys, hopftwistor.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'sympy'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def _calls_passing_a_residual() -> list:
    """module:line of every call in the package that passes residual=,
    outside linalg._judge_rows."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside_judge = set()
        if path.stem == "linalg":
            judge = next(n for n in tree.body if getattr(n, "name", None) == "_judge_rows")
            inside_judge = {id(n) for n in ast.walk(judge)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside_judge:
                if any(k.arg == "residual" for k in node.keywords):
                    sites.append(f"{path.stem}:{node.lineno}")
    return sites


def test_only_the_judge_raises_with_a_residual():
    # Every "residual <= tol, else raise" gate goes through linalg._judge_rows,
    # so that each judges a NaN and words its error the same way.
    assert _calls_passing_a_residual() == []
