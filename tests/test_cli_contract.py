"""The command line contract under one drawn input mutation per example.

Every ``synth``/``run``/``match``/``sweep`` call on a small scene, with one
input or its argv broken in a drawn way, must end in exit code 0, 1, 2 or 3,
never let a traceback out of ``main``, leave exactly one stderr line when it
fails, and leave its ``--out`` as it found it when it fails: no partial CSV,
no new file or directory.  A broken argv is a usage error: exit 1.  A JSON
object that repeats a key, and a binary file with bytes after its end, are
broken input: exit 2.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, note, settings
from hypothesis import strategies as st

from queryshift.cli import main

_SCENE = dict(
    t_len=2, n_tracks=2, n_queries=3, dim=8, num_classes=3, grid=[6, 5],
    noise_sigma=0.1, permute_per_frame=True, motion=1, seed=3,
)
_JSON_INPUTS = {
    "spec.json": _SCENE,
    "cfg.json": {"fraction": "1/4", "matching": True, "boundary": "hold"},
    "sweep.json": {"scene": _SCENE, "fractions": ["0", "1/4"], "matching": [True, False]},
}
_OUT = {"synth": "new_scene", "run": "report.json", "match": "alignment.json", "sweep": "grid.csv"}
_REQUIRED = {
    "synth": ["--spec", "--out"],
    "run": ["--scene", "--config"],
    "match": ["--queries"],
    "sweep": ["--spec", "--out"],
}
_INT_FLAGS = {"synth": ["--seed-override"], "sweep": ["--seed-override", "--parallel"]}

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),  # small, so no drawn size or repeat count asks for much memory or time
    st.sampled_from([0.0, -0.0, 0.5, 1.5, 1e308, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["", "0", "1/3", "-1/8", "on", "hold", "x", "1e400", "9" * 40]),
)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["spec", "grid", "fraction", "x"]), kids, max_size=2),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """The unmutated inputs: the JSON files and the scene ``synth`` makes of spec.json."""
    base = tmp_path_factory.mktemp("contract")
    for name, payload in _JSON_INPUTS.items():
        (base / name).write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--spec", str(base / "spec.json"), "--out", str(base / "scene")]) == 0
    return base


def _argv(command: str, d: Path, out: Path) -> list[str]:
    out = ["--out", str(out)]
    if command == "synth":
        return ["synth", "--spec", str(d / "spec.json"), *out]
    if command == "run":
        return ["run", "--scene", str(d / "scene"), "--config", str(d / "cfg.json"), *out]
    if command == "match":
        return ["match", "--queries", str(d / "scene" / "queries.qtn"), *out]
    return ["sweep", "--spec", str(d / "sweep.json"), *out]


def _inputs(command: str) -> dict[str, list[str]]:
    """The JSON and the binary inputs of ``command``, relative to the example's directory."""
    scene = ["scene/queries.qtn", "scene/pixels.qtn", "scene/labels_0.pgm", "scene/labels_1.pgm"]
    return {
        "synth": {"json": ["spec.json"], "binary": []},
        "run": {"json": ["scene/tracks.json", "cfg.json"], "binary": scene},
        "match": {"json": [], "binary": ["scene/queries.qtn"]},
        "sweep": {"json": ["sweep.json"], "binary": []},
    }[command]


def _paths(value, at=()):
    """Every path into a parsed JSON value, the root included."""
    yield at
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, (*at, key))


def _at(value, path):
    return functools.reduce(operator.getitem, path, value)


def _replace(value, path, new):
    if not path:
        return new
    value[path[0]] = _replace(value[path[0]], path[1:], new)
    return value


def _break_argv(data, command: str, argv: list[str]) -> list[str]:
    """``argv`` with one usage error: a required flag gone, an unknown flag, a bad flag value."""
    edits = ["drop", "unknown"] + ["int"] * (command in _INT_FLAGS)
    edits += ["boundary"] * (command in ("run", "sweep"))
    edit = data.draw(st.sampled_from(edits), label="argv edit")
    if edit == "drop":
        at = argv.index(data.draw(st.sampled_from(_REQUIRED[command]), label="flag"))
        return argv[:at] + argv[at + 2 :]
    if edit == "unknown":  # anywhere, even between a flag and its value; -h/--help exits itself
        at = data.draw(st.integers(0, len(argv)), label="at")
        return argv[:at] + [data.draw(st.sampled_from(["--bogus", "--bogus=1", "-z"]))] + argv[at:]
    if edit == "int":
        flag = data.draw(st.sampled_from(_INT_FLAGS[command]), label="flag")
        value = data.draw(st.sampled_from(["", "x", "1.5", "1e3", "0x10", "-x"]), label="value")
    else:
        flag = "--boundary"
        value = data.draw(st.sampled_from(["", "Zero", "wrap", "hold "]), label="value")
    return [*argv, flag, value]


def _kinds(command: str) -> list[str]:
    """The kinds of break ``_mutate`` can make to ``command``'s inputs or argv."""
    inputs = _inputs(command)
    kinds = ["remove", "out_is_dir"] + ["json", "json_dup"] * bool(inputs["json"])
    kinds += ["truncate", "overwrite", "grow"] * bool(inputs["binary"])
    return kinds + ["argv", "out_in_missing_dir"]


def _mutate(data, d: Path, command: str, kind: str) -> tuple[list[str], Path]:
    """Make a ``kind`` break to one input or the argv of ``command`` under ``d``.

    Returns the argv to run and the path a failed run must leave as it found it.
    """
    inputs = _inputs(command)
    out = d / _OUT[command]
    if kind == "argv":
        argv = _break_argv(data, command, _argv(command, d, out))
        note(f"argv {argv[1:]}")
        return argv, out
    if kind == "out_in_missing_dir":
        note(kind)
        return _argv(command, d, d / "missing" / _OUT[command]), d / "missing"
    if kind == "out_is_dir":  # synth writes into a directory, so its --out becomes a file
        if command == "synth":
            out.write_text("in the way\n")
        else:
            out.mkdir()
        note(kind)
    elif kind == "remove":
        name = data.draw(st.sampled_from([*inputs["json"], *inputs["binary"], "scene"]))
        target = d / name
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink()
        if data.draw(st.booleans(), label="a directory in its place"):
            target.mkdir()
        note(f"remove {name}")
    elif kind == "json":
        name = data.draw(st.sampled_from(inputs["json"]), label="file")
        value = json.loads((d / name).read_text())
        path = data.draw(st.sampled_from(list(_paths(value))), label="path")
        new = data.draw(_JSON_VALUES, label="value")
        (d / name).write_text(json.dumps(_replace(value, path, new)))
        note(f"{name} at {path} := {new!r}")
    elif kind == "json_dup":
        name = data.draw(st.sampled_from(inputs["json"]), label="file")
        value = json.loads((d / name).read_text())
        objects = [p for p in _paths(value) if isinstance(_at(value, p), dict) and _at(value, p)]
        path = data.draw(st.sampled_from(objects), label="object")
        obj = _at(value, path)
        key = data.draw(st.sampled_from(sorted(obj)), label="key")
        again = data.draw(st.just(obj[key]) | _JSON_VALUES, label="value")
        pairs = [json.dumps(k) + ": " + json.dumps(v) for k, v in [*obj.items(), (key, again)]]
        marker = "repeated key goes here"
        text = json.dumps(_replace(value, path, marker))
        (d / name).write_text(text.replace(json.dumps(marker), "{" + ", ".join(pairs) + "}"))
        note(f"{name} at {path} repeats {key!r} as {again!r}")
    else:
        name = data.draw(st.sampled_from(inputs["binary"]), label="file")
        raw = (d / name).read_bytes()
        if kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        elif kind == "overwrite":
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            patch = data.draw(st.binary(min_size=1, max_size=12), label="bytes")
            raw = raw[:at] + patch + raw[at + len(patch) :]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=12), label="bytes")
        (d / name).write_bytes(raw)
        note(f"{kind} {name}")
    return _argv(command, d, out), out


def _state(path: Path):
    """What is at ``path``: nothing, a file's bytes, or a directory's listing."""
    if path.is_dir():
        return sorted(p.name for p in path.iterdir())
    return path.read_bytes() if path.exists() else None


# every kind of break runs for every command: 28 pairs of 16 examples each
@pytest.mark.parametrize("command, kind", [(c, k) for c in sorted(_OUT) for k in _kinds(c)])
@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_mutated_input_keeps_the_cli_contract(base_dir, command, kind, data):
    with tempfile.TemporaryDirectory(dir=base_dir) as tmp:
        d = Path(tmp)
        for item in base_dir.iterdir():
            if item.name in ("scene", *_JSON_INPUTS):
                copy = shutil.copytree if item.is_dir() else shutil.copyfile
                copy(item, d / item.name)
        argv, out = _mutate(data, d, command, kind)
        before = _state(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)  # an exception here is a traceback escaping
        err = stderr.getvalue()
        note(f"exit {code}: {err!r}")
        event(f"{command} {kind} exit {code}")
        assert code in {"argv": (1,), "json_dup": (2,), "grow": (2,)}.get(kind, (0, 1, 2, 3))
        assert [str(w.message) for w in caught] == []
        assert "Traceback" not in err
        if code == 0:
            assert err == "" and _state(out) is not None
        else:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert _state(out) == before
