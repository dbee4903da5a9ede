"""The README's Library example runs and prints what its comments say."""

from __future__ import annotations

import builtins
import contextlib
import io
import re
from pathlib import Path

import numpy as np

import queryshift

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_prints_its_comments():
    block = _library_block()
    # each print line ends in a comment with the output it should give
    promised = re.findall(r"^print\(.*#\s*(.*?)\s*$", block, re.MULTILINE)
    assert promised == ["1.0", "(4, 8, 32) (8, 32)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == promised


def _span_names() -> list[str]:
    # an inline code span names what it starts with: `SceneSpec(t_len, ...)` names SceneSpec
    return re.findall(r"`([A-Za-z_]\w*)[^`\n]*`", README.read_text())


def test_readme_names_every_public_name():
    spans = _span_names()
    missing = [name for name in queryshift.__all__ if name != "__version__" and name not in spans]
    assert missing == []


def test_readme_names_no_class_outside_the_public_api():
    # catches the name of a class, or a called function, that was renamed or deleted
    known = set(queryshift.__all__) | set(dir(builtins)) | {"Fraction", "NaN"}
    stale = sorted({name for name in _span_names() if name[0].isupper() and name not in known})
    assert stale == []
    public = (getattr(queryshift, name) for name in queryshift.__all__)
    known |= {attr for obj in public if isinstance(obj, type) for attr in dir(obj)}
    calls = re.findall(r"`([A-Za-z_]\w*)\(", README.read_text())  # `name(...)`
    stale = sorted({name for name in calls if name not in known and not hasattr(np, name)})
    assert stale == []
