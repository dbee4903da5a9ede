"""A ratchet on private names that one module of the package imports from another."""

from __future__ import annotations

import ast
from pathlib import Path

import queryshift

SRC = Path(queryshift.__file__).parent

# (importing module, source module, name); shrink this set, never grow it
KNOWN = {
    ("cli", "synth", "_check_keys"),
    ("cli", "synth", "_json_value"),
    ("cli", "synth", "_load_json"),
    ("synth", "core", "_freeze"),
    ("synth", "core", "_view"),
    ("synth", "matching", "_permutation_rows"),
}


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
