"""The library exports and keeps only what the program uses.

Every name in a ``patchfem.<module>.__all__``, every other name a module
defines at its top level, and every public method of its classes must be
read somewhere in ``src/``, ``demos/`` or ``perfbench/`` (their ``test_*.py``
files aside), as a bare name or an attribute. A helper or a table that only
tests read belongs in ``tests/oracles.py``.
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


def defined_names(module):
    """The names ``patchfem.<module>`` defines at its top level (dunders
    aside), and the public methods of its top-level classes."""
    tree = ast.parse((ROOT / "src" / "patchfem" / f"{module}.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return [name for name in names if not name.startswith("__")]


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_read_outside_the_tests(module, names_read):
    unread = [name for name in defined_names(module) if name not in names_read]
    assert not unread, f"patchfem.{module} defines names only tests read: {unread}"
