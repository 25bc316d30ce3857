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
