"""Import rules for the package: no private cross-module names, and no scipy."""

from __future__ import annotations

import ast
from pathlib import Path

import queryshift

SRC = Path(queryshift.__file__).parent

# (importing module, source module, name); keep this set empty
KNOWN: set[tuple[str, str, str]] = set()


def _import_nodes():
    """(module stem, node) for every import statement in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.stem, node


def _private_imports() -> set[tuple[str, str, str]]:
    return {
        (stem, node.module, alias.name)
        for stem, node in _import_nodes()
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_cross_module_private_imports_are_the_known_ones():
    assert _private_imports() == KNOWN


def test_no_module_imports_scipy():
    # the tests use scipy as an independent oracle, so the package must not lean on it
    found = []
    for stem, node in _import_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module] if node.level == 0 else []
        found += [(stem, name) for name in names if name.split(".")[0] == "scipy"]
    assert found == []
