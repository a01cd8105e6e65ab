"""Every name a src module imports at top level is read there, or is one
that perfbench/tracing.py patches on that module (its callers resolve the
name through the module, so the import must stay). Every private name a src
module defines at top level is read there too, so a refactor leaves no
helper without a caller."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "simcse_forge").glob("*.py"))


def _patched_names() -> set[tuple[str, str]]:
    name = "perfbench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "tracing.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return {(owner, attr) for _, owner, attr, _ in sys.modules[name].PATCHES}


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports and never read in it."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [name for name in bound if name not in read]


def unread_private_names(source: str) -> list[str]:
    """Private names (``_name``, dunders excluded) bound at the module's top
    level by a def, class or assignment and never read in it."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [name for name in bound if name.startswith("_") and name not in read
            and not (name.startswith("__") and name.endswith("__"))]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom .a import b, c as d\n"
              "def f(x: b) -> None:\n    return np.sum(x)\n")
    assert unread_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_imports_only_what_it_reads_or_perfbench_patches(path):
    patched = _patched_names()
    owner = path.stem
    dead = [name for name in unread_imports(path.read_text(encoding="utf-8"))
            if (owner, name) not in patched]
    assert dead == [], f"{path.name} imports but never reads {dead}"


def test_unread_private_names_are_found():
    source = ("_USED, _SPARE = 1, 2\n__all__ = []\nPUBLIC = 3\n_note: int = 4\n"
              "def _helper():\n    return _USED\n"
              "class _Kept:\n    pass\n"
              "def f(k=_Kept):\n    return _helper()\n"
              "def _orphan():\n    pass\n")
    assert unread_private_names(source) == ["_SPARE", "_note", "_orphan"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_reads_every_private_name_it_defines(path):
    dead = unread_private_names(path.read_text(encoding="utf-8"))
    assert dead == [], f"{path.name} defines but never reads {dead}"
