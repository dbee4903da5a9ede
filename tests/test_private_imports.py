"""A ratchet on private names that one module of the package imports from another."""

from __future__ import annotations

import ast
from pathlib import Path

import queryshift

SRC = Path(queryshift.__file__).parent

# (importing module, source module, name); keep this set empty
KNOWN: set[tuple[str, str, str]] = set()


def _private_imports() -> set[tuple[str, str, str]]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found |= {
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    return found


def test_cross_module_private_imports_are_the_known_ones():
    assert _private_imports() == KNOWN
