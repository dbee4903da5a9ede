"""A ratchet on the length of the package's source lines."""

from __future__ import annotations

from pathlib import Path

import queryshift

SRC = Path(queryshift.__file__).parent

MAX_LINE = 100


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
