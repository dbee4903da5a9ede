"""Byte-identity gate: SHA-256 of every CLI output for two specs, and of an edited scene's run.

``sweep`` is pinned twice: its CSV and the summary it prints to stdout.  A
one-frame sweep pins the path where temporal consistency is undefined.

A refactor must leave these bytes unchanged.  Criterion 6 compares two runs
of the same build, which a change that moves every output in the same way
would still pass; these hashes were taken from a known-good build instead.
Change a pin only in a commit whose purpose is to change that output, and
say so in that commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import struct

import numpy as np
import pytest


# the README scene, noiseless
README_SCENE = {
    "t_len": 6, "n_tracks": 8, "n_queries": 8, "dim": 64, "num_classes": 9,
    "grid": [64, 64], "noise_sigma": 0.0, "permute_per_frame": True,
    "motion": 2, "seed": 0,
}
# noisy, with surplus no-object queries and a non-square grid
NOISY_SCENE = {
    "t_len": 5, "n_tracks": 4, "n_queries": 6, "dim": 32, "num_classes": 5,
    "grid": [24, 32], "noise_sigma": 0.2, "permute_per_frame": True,
    "motion": 1, "seed": 7,
}

CASES = {
    "readme": (README_SCENE, {"fraction": "1/4", "matching": True}, ["--boundary", "hold"]),
    "noisy": (NOISY_SCENE, {"fraction": "1/8", "matching": False, "boundary": "zero"}, []),
}

PINS = {
    "readme": {
        "synth": {
            "labels_0.pgm": "ff26ebd5ddec52ed909ec3ed3883c244125a08e5cd6814c37c4a890d69919a46",
            "labels_1.pgm": "2cabe134d0130dd664dedb1ea5b45b45a00ce7f5b052d80b3ee5194cdf64c7be",
            "labels_2.pgm": "63efb1c93dfc1123e38e569a9f3a6403f23e2364aa7f39a3f4004806aebdaa09",
            "labels_3.pgm": "e2c45308b6452a81e3d74eae75d67c56aa63499877a7005daa8167e6c0cbf6d8",
            "labels_4.pgm": "a943bccba948b39db9051e2b3dbd74a35f739ec140a5fa3e5ab2537513a10637",
            "labels_5.pgm": "bdb76e7e2e8990ef57ff9fb4b6d68150bfd108409c26985a999641123dab9d63",
            "pixels.qtn": "8f8852f476163e3798bcd390287c47a322dd84bc16330616f21ffb955166671e",
            "queries.qtn": "d7d81f3afcc2269321e525047a1c065e5d939ed0085cccb1f0784022f2147f09",
            "tracks.json": "7e7238b92fc9b3366ea793d6fe9ec6c7a18c17d821d599798b5df65c46c3e532",
        },
        "run": "435c851ca7e37cec2e86585f4fb81f45ad35a6d761c7d216e53c7543823842ad",
        "match": "49e1a73ee81bc39f15a6fe51a50efdda7516cfff2def143786fed0fa22a703f4",
        "sweep": "7d593310d44105ebcfc78ad5c67fcc4dbec9374975162d9fe10633b1ce711715",
        "sweep_stdout": "6e22138e1f970840daeb1af79226f2a411ef4e1024e1f4c12c7d34ec1e610375",
    },
    "noisy": {
        "synth": {
            "labels_0.pgm": "0789f5c61f02bfa0b9a4830050ddd2448eed0132f64260f36e5107674060bdba",
            "labels_1.pgm": "fa6c0dcecc5dc3ac268db2578c5f6a724b938b8e778dd4bf8852b49946f608de",
            "labels_2.pgm": "929231790d95edf7e7dc536dd761e7f2c4d042e9cca38f7f5549547f152fabea",
            "labels_3.pgm": "4741def438cdac0ceb061cc33af20f2124f6d0e873e05d424e323fd2891c4b29",
            "labels_4.pgm": "069a4d58bcfdae3c69250a392229831f0ca1dbd9d0e2328761b739b19d7b9b5a",
            "pixels.qtn": "986966c50bbfbce12ee5df72944c191f0b627866e14b3e4fb6d3b2a01d535911",
            "queries.qtn": "57c6af42cbb447cf7ffb90711e3b5db400a84bde0df1b78713214c99fe26325a",
            "tracks.json": "eb3160ea42e391bd3fbb8422798018df4ddb85722cf91cb2aaec76bb464dc3c5",
        },
        "run": "9cbf58bc2db1d0e897c02832442f61edbd6d24478071e8fcc2b6ef30924fde01",
        "match": "708c61fb85edfc2ed8c9fa7d1611ac48a1383a623a45320f99b5860fe11a8009",
        "sweep": "7d7c7d1733c6466382fdf38515350e45741d72d54307fa43d512c53639d27f03",
        "sweep_stdout": "87d3182a1dc3ac69c58a858902d96559ad38373ce959d841ed7b9f74f5bf2da9",
    },
}


# the README scene with one pixels.qtn value moved off the palette: frame 2,
# pixel (0, 0), channel 0 set to 3.0, so frame 2 decodes over its own rows
EDITED_RUN_PIN = "03390378911d24011ec97ba37e0d6fd404e110efd55dfe7d74cf06aac54186b0"


# the README scene cut to one frame: every consistency cell is empty, "n/a" in the summary
ONE_FRAME_SWEEP = {"scene": README_SCENE | {"t_len": 1}, "repeats": 2, "fractions": ["0", "1/8"]}
ONE_FRAME_SWEEP_PINS = {
    "csv": "7f610f249674bf974327bf47398a3518b6655cf636dbc5ac59a0d287b42c5c8f",
    "stdout": "5bfa4669b5142b1d2c71f2857bd0cfe32282e357e4a5aee53164944e8eaa6f73",
}


# the paper's configuration: 90 tracks in 100 queries of 256 channels, 20 classes, a 256 x 512 grid
PAPER_SCENE = {
    "t_len": 6, "n_tracks": 90, "n_queries": 100, "dim": 256, "num_classes": 20,
    "grid": [256, 512], "noise_sigma": 0.1, "permute_per_frame": True,
    "motion": 1, "seed": 0,
}
PAPER_PINS = {
    "csv": "5e9f309fdc08a7345dc714d1e82f26d337d71581e947ab98aaaf4beb48c441eb",
    "stdout": "1c66c90fe88a81c27f3bdc743c620981df7c00a652ce3e709a1d093d01a1d860",
    "match": "06be905aeb2bfb1c833d1a2e622e232c0ae3328b0274e077527d39ae32ea3a22",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path, payload) -> str:
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def outputs(case: str, tmp_path) -> dict:
    """Run synth, run, match and sweep (serial and --parallel 2); hash what they write.

    A sweep's stdout summary is hashed too, under ``sweep_stdout_parallel1``/``2``.
    """
    # looked up per call: a suite that re-imports queryshift leaves a stale module-level
    # import, whose functions the --parallel sweep could not pickle
    main = importlib.import_module("queryshift.cli").main
    scene, config, run_flags = CASES[case]
    spec = _write_json(tmp_path / "spec.json", scene)
    scene_dir = tmp_path / "scene"
    assert main(["synth", "--spec", spec, "--out", str(scene_dir)]) == 0
    got = {"synth": {p.name: _sha(p.read_bytes()) for p in sorted(scene_dir.iterdir())}}

    cfg = _write_json(tmp_path / "cfg.json", config)
    report = tmp_path / "report.json"
    argv = ["run", "--scene", str(scene_dir), "--config", cfg, "--out", str(report)]
    assert main(argv + run_flags) == 0
    got["run"] = _sha(report.read_bytes())

    alignment = tmp_path / "alignment.json"
    argv = ["match", "--queries", str(scene_dir / "queries.qtn"), "--out", str(alignment)]
    assert main(argv) == 0
    got["match"] = _sha(alignment.read_bytes())

    sweep = _write_json(tmp_path / "sweep.json", {"scene": scene, "repeats": 2})
    for parallel in ("1", "2"):
        table = tmp_path / f"table{parallel}.csv"
        argv = ["sweep", "--spec", sweep, "--out", str(table), "--parallel", parallel]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        got[f"sweep_parallel{parallel}"] = _sha(table.read_bytes())
        got[f"sweep_stdout_parallel{parallel}"] = _sha(stdout.getvalue().encode())
    return got


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pins(case, tmp_path, capsys):
    got = outputs(case, tmp_path)
    capsys.readouterr()
    want = PINS[case]
    assert got["synth"] == want["synth"]
    assert got["run"] == want["run"]
    assert got["match"] == want["match"]
    assert got["sweep_parallel1"] == want["sweep"]
    assert got["sweep_parallel2"] == want["sweep"]
    assert got["sweep_stdout_parallel1"] == want["sweep_stdout"]
    assert got["sweep_stdout_parallel2"] == want["sweep_stdout"]


def test_edited_scene_run_matches_pin(tmp_path, capsys):
    main = importlib.import_module("queryshift.cli").main
    scene, config, run_flags = CASES["readme"]
    scene_dir = tmp_path / "scene"
    spec = _write_json(tmp_path / "spec.json", scene)
    assert main(["synth", "--spec", spec, "--out", str(scene_dir)]) == 0
    pixels = scene_dir / "pixels.qtn"
    data = bytearray(pixels.read_bytes())
    (h, w), d = scene["grid"], scene["dim"]
    struct.pack_into("<d", data, 20 + 8 * (2 * h * w * d), 3.0)  # after the 20-byte header
    pixels.write_bytes(bytes(data))
    loaded = importlib.import_module("queryshift.synth").load_scene(scene_dir)
    assert [len(p.palette) for p in loaded.pixels] == [9, 9, h * w, 9, 9, 9]  # frame 2 falls back
    report = tmp_path / "report.json"
    cfg = _write_json(tmp_path / "cfg.json", config)
    argv = ["run", "--scene", str(scene_dir), "--config", cfg, "--out", str(report)]
    assert main(argv + run_flags) == 0
    capsys.readouterr()
    assert _sha(report.read_bytes()) == EDITED_RUN_PIN


def test_noisy_scene_predicts_no_background_pixel():
    # the sigma > 0 class head has a zero background column by design, so every
    # background pixel goes to some rectangle class: the noisy pin's low pixel
    # accuracy is that constant penalty, which cancels in matched-vs-unmatched deltas
    synth = importlib.import_module("queryshift.synth")
    scene = synth.generate_scene(synth.SceneSpec.from_dict(NOISY_SCENE))
    shift = importlib.import_module("queryshift.shift").ShiftConfig("0")
    alignment = importlib.import_module("queryshift.matching").align_clip(scene.queries)
    rows, classes = importlib.import_module("queryshift.pipeline").run_clip(
        scene, [shift], [alignment]
    )
    background = scene.spec.num_classes - 1
    assert np.any(scene.gt_labels == background)
    assert not np.any(classes[0, 0][rows] == background)


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_one_frame_sweep_matches_pin(tmp_path, parallel):
    main = importlib.import_module("queryshift.cli").main
    table = tmp_path / "table.csv"
    argv = ["sweep", "--spec", _write_json(tmp_path / "sweep.json", ONE_FRAME_SWEEP)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out", str(table), "--parallel", parallel]) == 0
    assert ",,1.0\n" in table.read_text()  # no temporal consistency with one frame
    assert _sha(table.read_bytes()) == ONE_FRAME_SWEEP_PINS["csv"]
    assert _sha(stdout.getvalue().encode()) == ONE_FRAME_SWEEP_PINS["stdout"]


def test_paper_sized_sweep_and_match_match_pins(tmp_path):
    main = importlib.import_module("queryshift.cli").main
    synth = importlib.import_module("queryshift.synth")
    table = tmp_path / "table.csv"
    argv = ["sweep", "--spec", _write_json(tmp_path / "sweep.json", {"scene": PAPER_SCENE})]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out", str(table)]) == 0
    # the queries alone: synth would also write a 1.6 GB pixels.qtn at this grid
    queries = tmp_path / "queries.qtn"
    scene = synth.generate_scene(synth.SceneSpec.from_dict(PAPER_SCENE))
    importlib.import_module("queryshift.core").write_tensor(scene.queries, queries)
    alignment = tmp_path / "alignment.json"
    assert main(["match", "--queries", str(queries), "--out", str(alignment)]) == 0
    got = {
        "csv": _sha(table.read_bytes()),
        "stdout": _sha(stdout.getvalue().encode()),
        "match": _sha(alignment.read_bytes()),
    }
    assert got == PAPER_PINS
