"""The library exports only what the program uses.

Every name in a ``patchfem.<module>.__all__`` must be read somewhere in
``src/``, ``demos/`` or ``perfbench/`` (their ``test_*.py`` files aside), as
a bare name or an attribute. A helper that only tests call belongs in
``tests/oracles.py``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path.stem for path in (ROOT / "src" / "patchfem").glob("*.py")
                 if path.stem != "__init__")


@pytest.fixture(scope="module")
def names_read():
    names = set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_used_outside_the_tests(module, names_read):
    exported = importlib.import_module(f"patchfem.{module}").__all__
    unused = [name for name in exported if name not in names_read]
    assert not unused, f"patchfem.{module} exports names only tests use: {unused}"
