"""The `src/vqse` modules import each other in layers: `qmath` at the bottom, then
`hamiltonians`, `ansatz` and `metrics` on it alone, `solver` on those four, and
`experiments` on everything but `cli`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vqse"
MODULES = {p.stem for p in SRC.glob("*.py")}

ALLOWED = {
    "qmath": set(),
    "hamiltonians": {"qmath"},
    "ansatz": {"qmath"},
    "metrics": {"qmath"},
    "solver": {"qmath", "hamiltonians", "ansatz", "metrics"},
    "experiments": {"qmath", "hamiltonians", "ansatz", "metrics", "solver"},
}


def package_imports(source: str, modules: set[str]) -> set[str]:
    """The package modules that `source` imports anywhere, by relative or absolute name.

    A name imported from the package itself (`from . import __version__`) counts
    as its `__init__`.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["vqse" if node.level else None, node.module]))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (path.split(".") for path in paths):
            if parts[0] == "vqse":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return found


def test_the_check_finds_every_form_of_import():
    source = (
        "from __future__ import annotations\nimport numpy as np\nimport vqse.solver\n"
        "from . import __version__, qmath\nfrom .ansatz import x\nfrom vqse.metrics import y\n"
        "def f():\n    from .cli import main\n"
    )
    modules = {"qmath", "ansatz", "metrics", "solver", "cli"}
    assert package_imports(source, modules) == {"solver", "__init__", "qmath", "ansatz", "metrics", "cli"}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_lower_layers(module):
    imported = package_imports((SRC / f"{module}.py").read_text(), MODULES)
    assert imported <= ALLOWED[module], sorted(imported - ALLOWED[module])
