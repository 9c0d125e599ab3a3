"""The package's one runtime dependency is numpy: every `src/vqse` module imports only the
standard library (`sys.stdlib_module_names`), numpy and vqse itself, at any depth."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vqse"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vqse"}


def top_level_imports(source: str) -> set[str]:
    """The top-level module of every absolute import anywhere in `source`; a relative import is the package's own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_check_finds_an_import_from_outside():
    source = (
        "from __future__ import annotations\nimport numpy as np\nimport os.path\nfrom . import qmath\n"
        "from .solver import x\nfrom vqse.metrics import y\ndef f():\n    import concurrent.futures as cf\n"
        "    from scipy import linalg\n"
    )
    assert top_level_imports(source) == {"__future__", "numpy", "os", "vqse", "concurrent", "scipy"}
    assert top_level_imports(source) - ALLOWED == {"scipy"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_only_numpy_and_the_standard_library(module):
    outside = top_level_imports((SRC / module).read_text()) - ALLOWED
    assert not outside, sorted(outside)
