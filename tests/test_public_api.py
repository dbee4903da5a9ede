"""The package's public names: each module's ``__all__``, re-exported once by the package."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import queryshift

# the modules whose __all__ the package re-exports; cli is the command line, not the API
MODULES = ("core", "matching", "metrics", "pipeline", "rng", "shift", "synth")


def test_package_all_lists_each_name_once():
    assert len(queryshift.__all__) == len(set(queryshift.__all__))


def test_every_package_name_resolves():
    missing = [name for name in queryshift.__all__ if not hasattr(queryshift, name)]
    assert missing == []


def test_package_namespace_is_its_all_and_its_modules():
    # in a fresh process, so a module the tests loaded (cli) is not in the namespace;
    # a name bound in __init__.py outside __all__ (an import of np or math) shows here
    code = "import queryshift; print(*sorted(n for n in dir(queryshift) if n[0] != '_'))"
    env = {**os.environ, "PYTHONPATH": str(Path(queryshift.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    want = set(queryshift.__all__) - {"__version__"} | set(MODULES)
    assert done.stdout.split() == sorted(want)


def test_every_module_name_is_a_package_name():
    unexported = [
        f"{stem}.{name}"
        for stem in MODULES
        for name in importlib.import_module(f"queryshift.{stem}").__all__
        if name not in queryshift.__all__
    ]
    assert unexported == []
