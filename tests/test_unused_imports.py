"""Every name a `src/vqse` module imports is used in that module (the package's `__init__` re-exports by design),
and every private name the package defines at module or class level is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vqse"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_a_stray_import():
    source = "from __future__ import annotations\nimport os\nimport os.path as osp\nimport a.b\nfrom m import x, y as z\nz(a.b.c, x)\n"
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` of each private name (`_x`, not a dunder) that a source defines at
    module or class level and no source reads.  A read is a `Name` load, an
    attribute load or the name of an import alias."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for body in [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
                else:
                    continue
                defined.update((module, n) for n in names if n.startswith("_") and not n.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_the_check_finds_a_stray_private_name():
    sources = {
        "a": "_used, _stray = 1, 2\n_ANNOTATED: int = 3\ndef _helper(): pass\n"
             "class C:\n    _level = 0\n    def __init__(self): self._only_written = self._method()\n"
             "    def _method(self): return _helper()\n    def _blocks(self): pass\n",
        "b": "from a import _used\nfrom a import C\nC()._level\n",
    }
    assert unused_private_names(sources) == ["a._ANNOTATED", "a._blocks", "a._stray"]


def test_package_reads_every_private_name():
    assert unused_private_names({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []
