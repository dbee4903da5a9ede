"""Ratchets on the package's source: the length of each line and the count of all of them."""

from __future__ import annotations

from pathlib import Path

import queryshift

SRC = Path(queryshift.__file__).parent

MAX_LINE = 100
MAX_LINES = 2125  # the line budget in ROADMAP.md


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_source_stays_within_the_line_budget():
    counts = {path.name: len(path.read_text().splitlines()) for path in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= MAX_LINES, counts
