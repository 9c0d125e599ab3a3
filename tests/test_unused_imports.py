"""Every name a `src/vqse` module imports is used in that module (the package's `__init__` re-exports by design),
every private name the package defines at module or class level is read somewhere in the package, and a private
module-level name that its own module never reads is read by at least two others (one reader is its home)."""

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


def private_names(body) -> set[str]:
    """Private names (`_x`, not a dunder) that the statements of one body define."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def names_read(tree) -> set[str]:
    """Names a module reads: each `Name` load, attribute load and import alias name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
    return read


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` of each private name that a source defines at module or class level and no source reads."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for body in [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            defined.update((module, n) for n in private_names(body))
        read |= names_read(tree)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def private_names_with_one_home_elsewhere(sources: dict[str, str]) -> list[str]:
    """`module.name` of each private module-level name that its own module never reads and fewer than
    two other modules read: it belongs in its one reader."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {module: names_read(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for name in private_names(tree.body) - reads[module]:
            if sum(name in read for other, read in reads.items() if other != module) < 2:
                found.append(f"{module}.{name}")
    return sorted(found)


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


def test_the_check_finds_a_private_name_with_one_reader_elsewhere():
    sources = {
        "a": "def _own(): pass\ndef _shared(): pass\ndef _one_reader(): pass\n_CONST = 1\n"
             "class C:\n    def _method(self): return _own()\n",
        "b": "from a import _shared, _one_reader\nimport a\na._CONST\n",
        "c": "from a import _shared\n",
    }
    assert private_names_with_one_home_elsewhere(sources) == ["a._CONST", "a._one_reader"]


def test_private_helpers_live_with_their_one_reader():
    assert private_names_with_one_home_elsewhere({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []
