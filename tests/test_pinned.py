"""Byte-identity gate: SHA-256 of every CLI output for two fixed specs.

A refactor must leave these bytes unchanged.  Criterion 6 compares two runs
of the same build, which a change that moves every output in the same way
would still pass; these hashes were taken from a known-good build instead.
Change a pin only in a commit whose purpose is to change that output, and
say so in that commit.
"""

from __future__ import annotations

import hashlib
import importlib
import json

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
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path, payload) -> str:
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def outputs(case: str, tmp_path) -> dict:
    """Run synth, run, match and sweep (serial and --parallel 2); hash what they write."""
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
        assert main(argv) == 0
        got[f"sweep_parallel{parallel}"] = _sha(table.read_bytes())
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
