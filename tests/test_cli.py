"""End-to-end tests of the command line front end (in-process)."""

from __future__ import annotations

import concurrent.futures
import json
import struct
import time
import types

import numpy as np
import pytest

from queryshift import cli
from queryshift.cli import main
from queryshift.core import ClipQueryTensor, write_labelmap, write_tensor

CSV_HEADER = (
    "fraction,channels_shifted,matching,seed,"
    "miou,pixel_accuracy,temporal_consistency,recovery"
)


def _write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def _scene_spec(**kw):
    base = dict(
        t_len=3,
        n_tracks=4,
        n_queries=4,
        dim=64,
        num_classes=5,
        grid=(16, 16),
        noise_sigma=0.0,
        permute_per_frame=True,
        motion=1,
        seed=0,
    )
    base.update(kw)
    base["grid"] = list(base["grid"])
    return base


@pytest.fixture()
def scene_dir(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", _scene_spec())
    out = tmp_path / "scene"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
    capsys.readouterr()  # drop the synth path listing
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_minimal_inventory(tmp_path, capsys):
    spec = _write_json(
        tmp_path / "spec.json",
        _scene_spec(t_len=2, n_tracks=1, n_queries=1, dim=2, num_classes=2, grid=[4, 4]),
    )
    out = tmp_path / "scene"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "labels_0.pgm",
        "labels_1.pgm",
        "pixels.qtn",
        "queries.qtn",
        "tracks.json",
    ]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 5
    for line in printed:
        assert line.startswith(str(out))


def test_synth_deterministic_bytes(tmp_path):
    spec = _write_json(tmp_path / "spec.json", _scene_spec(noise_sigma=0.3, seed=5))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--spec", spec, "--out", str(a)]) == 0
    assert main(["synth", "--spec", spec, "--out", str(b)]) == 0
    for name in ("queries.qtn", "pixels.qtn", "tracks.json", "labels_0.pgm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_seed_override_changes_bytes(tmp_path):
    spec = _write_json(tmp_path / "spec.json", _scene_spec())
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--spec", spec, "--out", str(a)]) == 0
    assert main(["synth", "--spec", spec, "--out", str(b), "--seed-override", "9"]) == 0
    assert (a / "queries.qtn").read_bytes() != (b / "queries.qtn").read_bytes()
    meta = json.loads((b / "tracks.json").read_text())
    assert meta["spec"]["seed"] == 9


def test_synth_infeasible_spec_exits_3(tmp_path, capsys):
    spec = _write_json(
        tmp_path / "spec.json", _scene_spec(n_tracks=3, n_queries=3, dim=2)
    )
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "x")]) == 3
    assert "separability" in capsys.readouterr().err


def test_synth_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err


def test_synth_missing_file_exits_2(tmp_path):
    assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 2


def _assert_one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 TiB for an array", ""])
@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, message):
    # a huge grid fails to allocate inside generate_scene; no real allocation here
    def exhausted(spec):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate_scene", exhausted)
    scene = _scene_spec(grid=[100000, 100000])
    payload = scene if command == "synth" else {"scene": scene}
    spec = _write_json(tmp_path / "spec.json", payload)
    assert main([command, "--spec", spec, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys, message or "MemoryError")


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_noise_overflow_exits_2_with_one_line(tmp_path, capsys, command):
    # sigma * noise overflows to inf; the clip's finite scan reports it, numpy warns nothing
    scene = _scene_spec(noise_sigma=1e308)
    payload = scene if command == "synth" else {"scene": scene}
    spec = _write_json(tmp_path / "spec.json", payload)
    assert main([command, "--spec", spec, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys, "clip query tensor contains non-finite values")


@pytest.mark.parametrize(
    "dim, fragment",
    [(2**62, "array is too big"), (2**63, "array is too big"), (2**64, "too large to convert")],
    ids=["2**62", "2**63", "2**64"],
)
@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_huge_dim_fails_fast_with_one_line(tmp_path, capsys, command, dim, fragment):
    # every draw is sized before the first one, and numpy rejects these sizes allocating nothing
    scene = _scene_spec(t_len=1, n_tracks=1, n_queries=1, dim=dim, num_classes=2, grid=[4, 4])
    payload = scene if command == "synth" else {"scene": scene}
    spec = _write_json(tmp_path / "spec.json", payload)
    start = time.perf_counter()
    assert main([command, "--spec", spec, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    _assert_one_line_error(capsys, fragment)


@pytest.mark.parametrize(
    "change, fragment",
    [
        ({"noise_sigam": 0.1}, "unknown scene spec key(s): noise_sigam"),
        ({"t_len": 2.9}, "t_len must be of type int"),
        ({"dim": True}, "dim must be of type int"),
        ({"grid": [16, 16.0]}, "grid cols must be of type int"),
        ({"permute_per_frame": "false"}, "permute_per_frame must be of type bool"),
        ({"noise_sigma": "0.1"}, "noise_sigma must be of type int or float"),
        ({"noise_sigma": 10**400}, "too large"),
        ({"noise_sigma": float("nan")}, "noise_sigma must be finite, got nan"),
        ({"noise_sigma": float("inf")}, "noise_sigma must be finite, got inf"),
        ({"noise_sigma": float("-inf")}, "noise_sigma must be finite, got -inf"),
    ],
    ids=["misspelled_key", "float_int", "bool_int", "float_grid", "string_bool", "string_sigma",
         "huge_sigma", "nan_sigma", "inf_sigma", "neg_inf_sigma"],
)
def test_synth_rejects_inexact_spec(tmp_path, capsys, change, fragment):
    spec = _write_json(tmp_path / "spec.json", {**_scene_spec(), **change})
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "x")]) == 2
    _assert_one_line_error(capsys, fragment)
    assert not (tmp_path / "x").exists()


def test_synth_negative_sigma_is_infeasible(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", _scene_spec(noise_sigma=-0.5))
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "x")]) == 3
    assert "bad noise_sigma -0.5" in capsys.readouterr().err


def test_synth_accepts_integer_noise_sigma(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", _scene_spec(noise_sigma=0))
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "x")]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "x" / "tracks.json").read_text())["spec"]["noise_sigma"] == 0.0


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--nope", "x"]) == 1
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_report_and_summary(scene_dir, tmp_path, capsys):
    cfg = _write_json(
        tmp_path / "cfg.json", {"fraction": "1/4", "matching": True, "boundary": "hold"}
    )
    report_path = tmp_path / "report.json"
    assert main(
        ["run", "--scene", str(scene_dir), "--config", cfg, "--out", str(report_path)]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["miou"] == 1.0
    assert report["pixel_accuracy"] == 1.0
    assert report["recovery"] == 1.0
    assert report["config"]["fraction"] == "1/4"
    assert report["config"]["channels_shifted"] == 16
    assert report["config"]["boundary"] == "hold"
    out = capsys.readouterr().out
    assert "miou=1.000000" in out
    assert str(report_path) in out


def test_run_report_json_field_names(tmp_path, capsys):
    # one frame: no transition, so temporal consistency is undefined and written as null
    spec = _write_json(tmp_path / "spec.json", _scene_spec(t_len=1))
    scene = tmp_path / "scene"
    assert main(["synth", "--spec", spec, "--out", str(scene)]) == 0
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/8"})
    out = tmp_path / "r.json"
    assert main(["run", "--scene", str(scene), "--config", cfg, "--out", str(out)]) == 0
    assert "temporal_consistency=n/a" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert sorted(report) == [
        "config",
        "miou",
        "pixel_accuracy",
        "recovery",
        "temporal_consistency",
    ]
    assert report["temporal_consistency"] is None
    assert report["config"]["fraction"] == "1/8"


def test_run_stdout_when_no_out(scene_dir, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "0"})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["channels_shifted"] == 0
    assert report["miou"] == 1.0


def test_run_byte_identical_reports(scene_dir, tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/8", "boundary": "hold"})
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert main(["run", "--scene", str(scene_dir), "--config", cfg, "--out", str(p1)]) == 0
    assert main(["run", "--scene", str(scene_dir), "--config", cfg, "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_run_matching_off_degrades_at_large_fraction(scene_dir, tmp_path, capsys):
    on = _write_json(
        tmp_path / "on.json", {"fraction": "1/4", "matching": True, "boundary": "hold"}
    )
    off = _write_json(
        tmp_path / "off.json", {"fraction": "1/4", "matching": False, "boundary": "hold"}
    )
    assert main(["run", "--scene", str(scene_dir), "--config", on]) == 0
    r_on = json.loads(capsys.readouterr().out)
    assert main(["run", "--scene", str(scene_dir), "--config", off]) == 0
    r_off = json.loads(capsys.readouterr().out)
    assert r_on["miou"] == 1.0
    assert r_off["miou"] < 1.0


def test_run_boundary_flag_overrides_config(scene_dir, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/4", "boundary": "zero"})
    assert main(
        ["run", "--scene", str(scene_dir), "--config", cfg, "--boundary", "hold"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["boundary"] == "hold"


def test_run_missing_scene_exits_2(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "0"})
    assert main(["run", "--scene", str(tmp_path / "ghost"), "--config", cfg]) == 2
    capsys.readouterr()


def test_run_bad_fraction_exits_2(scene_dir, tmp_path, capsys):
    for fraction, fragment in (
        ("3/4", "shift fraction must lie in [0, 1/2], got 3/4"),
        ("1/0", "bad shift fraction '1/0'"),
    ):
        cfg = _write_json(tmp_path / "cfg.json", {"fraction": fraction})
        assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 2
        _assert_one_line_error(capsys, fragment)


@pytest.mark.parametrize(
    "fraction",
    ["1e-5000", "1e5000", "1e9999999", "1e-10000000", "0." + "0" * 3000 + "1e-1000"],
    ids=["tiny", "huge", "huge_slow", "tiny_slow", "long_mantissa"],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_huge_fraction_exponent_fails_fast_with_one_line(scene_dir, tmp_path, capsys, command,
                                                         fraction):
    if command == "run":
        cfg = _write_json(tmp_path / "cfg.json", {"fraction": fraction})
        argv = ["run", "--scene", str(scene_dir), "--config", cfg]
    else:
        spec = _write_json(tmp_path / "sweep.json", _sweep_spec(fractions=["0", fraction]))
        argv = ["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv")]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    _assert_one_line_error(capsys, "bad shift fraction")


def test_fraction_at_the_exponent_bound_runs(scene_dir, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1e-1000"})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["fraction"] == "1/1" + "0" * 1000
    assert report["config"]["channels_shifted"] == 0


def test_run_rejects_removed_mask_threshold(scene_dir, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/4", "mask_threshold": 0.5})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 2
    _assert_one_line_error(capsys, "unknown pipeline config key(s): mask_threshold")


def _edit_tracks(scene_dir, edit):
    path = scene_dir / "tracks.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


def _set_row(t, row):
    def edit(meta):
        meta["per_frame_tracks"][t] = row(meta["per_frame_tracks"][t])
    return edit


def _set(**fields):
    return lambda meta: meta.update(fields)


def _surplus(no_object):
    """Declare the last of the 4 tracks a surplus query, with ``no_object`` for it."""
    def edit(meta):
        meta["spec"].update(n_tracks=3, num_classes=4)
        meta.update(
            track_classes=meta["track_classes"][:3],
            prototypes=meta["prototypes"][:3],
            no_object=no_object,
        )
    return edit


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_set_row(1, lambda row: [0, 1]), "per_frame_tracks"),
        (_set_row(1, lambda row: [x + 0.5 for x in row]), "per_frame_tracks"),
        (_set_row(1, lambda row: [False, True, True, True]), "per_frame_tracks"),
        (_set_row(1, lambda row: [x if x > 1 else bool(x) for x in row]), "per_frame_tracks"),
        (lambda meta: meta["per_frame_tracks"].pop(), "per_frame_tracks"),
        (
            lambda meta: meta.update(per_frame_tracks=[r[:3] for r in meta["per_frame_tracks"]]),
            "per_frame_tracks",
        ),
        (_set_row(2, lambda row: [row[0]] * 2 + row[2:]), "per_frame_tracks"),
        (lambda meta: meta.update(per_frame_tracks=7), "per_frame_tracks"),
        (_set(track_classes=[0.9, 1.5, 2, 3]), "track_classes"),
        (_set(track_classes=[True, 1, 2, 3]), "track_classes"),
        (_set(track_classes=[0, 1, 2, 99]), "track_classes"),
        (_set(track_classes=[-1, 0, 1, 2]), "track_classes"),
        (_set(track_classes=[0, 1, 2]), "track_classes"),
        (_set(track_classes="0123"), "track_classes"),
        (_set(signature_scale="abc"), "signature_scale"),
        (_set(signature_scale=0), "signature_scale"),
        (_set(signature_scale=-0.5), "signature_scale"),
        (_set(signature_scale=True), "signature_scale"),
        (_set(signature_scale=float("nan")), "signature_scale"),
        (lambda meta: meta["prototypes"].pop(), "prototypes"),
        (lambda meta: meta.update(prototypes=meta["prototypes"][:2]), "prototypes"),
        (lambda meta: meta["prototypes"][1].pop(), "prototypes"),
        (lambda meta: meta["prototypes"][1].__setitem__(0, "0.5"), "prototypes"),
        (lambda meta: meta["prototypes"][1].__setitem__(0, True), "prototypes"),
        (lambda meta: meta["prototypes"][1].__setitem__(0, float("nan")), "prototypes"),
        (_set(prototypes=None), "prototypes"),
        (_set(no_object=[0.0] * 64), "no_object"),
        (_surplus(None), "no_object"),
        (_surplus([0.0]), "no_object"),
        (_surplus([0.0] * 63 + [float("inf")]), "no_object"),
        (_set(prototypez=1), "unknown tracks.json key"),
        (lambda meta: meta.pop("signature_scale"), "signature_scale"),
    ],
    ids=[
        "ragged",
        "float",
        "bool",
        "bool_mixed_with_ints",
        "row_count",
        "short_rows",
        "repeated_index",
        "not_a_list",
        "float_classes",
        "bool_class",
        "class_out_of_range",
        "negative_class",
        "class_count",
        "string_classes",
        "string_scale",
        "zero_scale",
        "negative_scale",
        "bool_scale",
        "nan_scale",
        "prototype_rows_3",
        "prototype_rows_2",
        "prototype_short_row",
        "prototype_string",
        "prototype_bool",
        "prototype_nan",
        "prototypes_null",
        "no_object_without_surplus",
        "no_object_null_with_surplus",
        "no_object_one_element",
        "no_object_inf",
        "unknown_key",
        "missing_key",
    ],
)
def test_run_rejects_malformed_tracks(scene_dir, tmp_path, capsys, edit, fragment):
    _edit_tracks(scene_dir, edit)
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/4"})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 2
    _assert_one_line_error(capsys, fragment)


def test_run_names_a_label_map_of_the_wrong_size(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", _scene_spec(grid=[6, 5]))
    scene = tmp_path / "scene"
    assert main(["synth", "--spec", spec, "--out", str(scene)]) == 0
    write_labelmap(np.zeros((5, 6), dtype=np.uint8), scene / "labels_1.pgm")  # as many pixels
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/4"})
    capsys.readouterr()
    assert main(["run", "--scene", str(scene), "--config", cfg]) == 2
    _assert_one_line_error(capsys, "labels_1.pgm is (5, 6), not the 6x5 grid")


@pytest.mark.parametrize("text", ["[]", '"spec"', "7"], ids=["list", "string", "number"])
def test_run_rejects_tracks_json_that_is_not_an_object(scene_dir, tmp_path, capsys, text):
    (scene_dir / "tracks.json").write_text(text)
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/4"})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 2
    _assert_one_line_error(capsys, "tracks.json: expected a JSON object at top level")


@pytest.mark.parametrize(
    "data", [b'{"spec": {', b"\xff\xfe{}", b"[" * 100_000], ids=["truncated", "not_utf8", "too_deep"]
)
def test_run_names_tracks_json_when_it_does_not_parse(scene_dir, tmp_path, capsys, data):
    (scene_dir / "tracks.json").write_bytes(data)
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/4"})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 2
    _assert_one_line_error(capsys, "tracks.json is not valid JSON")


def test_run_rejects_non_finite_sigma_in_tracks(scene_dir, tmp_path, capsys):
    _edit_tracks(scene_dir, lambda meta: meta["spec"].update(noise_sigma=float("inf")))
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "1/4"})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 2
    _assert_one_line_error(capsys, "noise_sigma must be finite")


def test_run_corrupt_tensor_exits_2(scene_dir, tmp_path, capsys):
    (scene_dir / "queries.qtn").write_bytes(b"garbage")
    cfg = _write_json(tmp_path / "cfg.json", {"fraction": "0"})
    assert main(["run", "--scene", str(scene_dir), "--config", cfg]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def test_match_identical_frames(tmp_path, capsys):
    frame = np.random.default_rng(0).standard_normal((3, 8))
    qtn = tmp_path / "q.qtn"
    write_tensor(ClipQueryTensor(np.stack([frame] * 4)), qtn)
    assert main(["match", "--queries", str(qtn)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t_len"] == 4
    assert payload["n_queries"] == 3
    for mapping in payload["per_frame"] + payload["adjacent"]:
        assert mapping == [0, 1, 2]
    for total in payload["pair_totals"]:
        assert total == pytest.approx(3.0, abs=1e-9)


def test_match_recovers_scatter_permutations(tmp_path, capsys):
    protos = np.eye(5)
    pis = [
        [0, 1, 2, 3, 4],
        [2, 0, 4, 1, 3],
        [1, 3, 0, 4, 2],
    ]
    frames = []
    for pi in pis:
        frame = np.empty((5, 5))
        frame[pi] = protos
        frames.append(frame)
    qtn = tmp_path / "q.qtn"
    write_tensor(ClipQueryTensor(np.stack(frames)), qtn)
    assert main(["match", "--queries", str(qtn)]) == 0
    payload = json.loads(capsys.readouterr().out)
    for t, pi in enumerate(pis):
        assert payload["per_frame"][t] == [pi.index(i) for i in range(5)]


def test_match_single_frame(tmp_path, capsys):
    qtn = tmp_path / "q.qtn"
    write_tensor(ClipQueryTensor(np.ones((1, 2, 3))), qtn)
    assert main(["match", "--queries", str(qtn)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["per_frame"] == [[0, 1]]
    assert payload["adjacent"] == []


def test_match_corrupt_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.qtn"
    bad.write_bytes(b"QTNv9999" + bytes(28))
    assert main(["match", "--queries", str(bad)]) == 2
    capsys.readouterr()


def test_match_oversized_header_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "huge.qtn"
    bad.write_bytes(b"QTNv0001" + struct.pack("<III", *[0xFFFFFFFF] * 3) + bytes(16))
    assert main(["match", "--queries", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: header declares") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture()
def scene_calls(monkeypatch):
    """Seeds of the scenes the CLI generates in this process, in call order."""
    calls = []
    generate = cli.generate_scene

    def counted(spec):
        calls.append(spec.seed)
        return generate(spec)

    monkeypatch.setattr(cli, "generate_scene", counted)
    return calls


@pytest.fixture()
def align_calls(monkeypatch):
    """Frame counts of the clips the CLI aligns in this process, in call order."""
    calls = []
    align = cli.align_clip

    def counted(clip):
        calls.append(clip.t_len)
        return align(clip)

    monkeypatch.setattr(cli, "align_clip", counted)
    return calls


def _sweep_spec(**kw):
    base = dict(
        scene=_scene_spec(grid=[12, 12], t_len=3),
        fractions=["0", "1/8"],
        matching=["off", "on"],
        repeats=2,
        boundary="hold",
    )
    base.update(kw)
    return base


def test_sweep_csv_shape_and_header(tmp_path, capsys):
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec())
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2
    summary = capsys.readouterr().out
    assert "summary" in summary
    assert "fraction 1/8" in " ".join(summary.split())
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[2] in ("on", "off")


def test_sweep_channel_column_for_dim_256(tmp_path, capsys):
    scene = _scene_spec(dim=256, grid=[8, 8], t_len=2)
    spec = _write_json(
        tmp_path / "sweep.json",
        dict(scene=scene, matching=["on"], repeats=1, boundary="hold"),
    )
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    channels = [int(r[1]) for r in rows]
    assert channels == [0, 2, 4, 8, 16, 32, 64]
    fractions = [r[0] for r in rows]
    assert fractions == ["0", "1/128", "1/64", "1/32", "1/16", "1/8", "1/4"]


def test_sweep_matched_beats_unmatched_at_zero_noise(tmp_path, capsys):
    spec = _write_json(
        tmp_path / "sweep.json",
        _sweep_spec(fractions=["1/4"], repeats=3),
    )
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_mode = {"on": [], "off": []}
    for r in rows:
        by_mode[r[2]].append(float(r[4]))
    assert all(v == 1.0 for v in by_mode["on"])
    for on, off in zip(by_mode["on"], by_mode["off"]):
        assert on >= off
    assert sum(by_mode["off"]) < 3.0


def test_sweep_deterministic_bytes(tmp_path, capsys):
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec())
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--spec", spec, "--out", str(a)]) == 0
    assert main(["sweep", "--spec", spec, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_parallel_equals_serial(tmp_path, capsys):
    # three seeds over two workers must come back in the serial row order
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(repeats=3))
    serial = tmp_path / "serial.csv"
    par = tmp_path / "par.csv"
    assert main(["sweep", "--spec", spec, "--out", str(serial)]) == 0
    assert main(["sweep", "--spec", spec, "--out", str(par), "--parallel", "2"]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == par.read_bytes()


def test_sweep_generates_each_seed_once(tmp_path, capsys, scene_calls):
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(repeats=3))
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    assert scene_calls == [0, 1, 2]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    cells = [(f, m) for f in ("0", "1/8") for m in ("off", "on")]
    assert [(r[0], r[2]) for r in rows] == [cell for cell in cells for _ in range(3)]
    assert [r[3] for r in rows] == ["0", "1", "2"] * len(cells)


def test_sweep_aligns_each_seed_once(tmp_path, capsys, align_calls):
    # 2 fractions x 2 matchings x 3 seeds: one alignment per seed serves
    # every matched cell of that seed's grid
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(repeats=3))
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "on.csv")]) == 0
    assert align_calls == [3, 3, 3]
    align_calls.clear()
    spec = _write_json(tmp_path / "off.json", _sweep_spec(matching=["off"], repeats=3))
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "off.csv")]) == 0
    capsys.readouterr()
    assert align_calls == []


def test_sweep_one_seed_runs_in_process(tmp_path, capsys, scene_calls):
    # --parallel 2 with a single seed starts no pool
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(repeats=1))
    par = tmp_path / "par.csv"
    serial = tmp_path / "serial.csv"
    assert main(["sweep", "--spec", spec, "--out", str(par), "--parallel", "2"]) == 0
    assert scene_calls == [0]
    assert main(["sweep", "--spec", spec, "--out", str(serial)]) == 0
    capsys.readouterr()
    assert par.read_bytes() == serial.read_bytes()


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every pool the sweep opens; the pool runs in-process."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def map(self, fn, *iterables):
            # like Executor.map: every item is submitted before the first result is taken
            futures = [self.submit(fn, *args) for args in zip(*iterables)]
            return (future.result() for future in futures)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.mark.parametrize(
    "cpus, parallel, want",
    [(2, 5000, [2]), (8, 5000, [4]), (8, 3, [3]), (None, 5000, [])],
    ids=["cpus", "seeds", "parallel", "cpu_count_unknown"],
)
def test_sweep_workers_capped_at_cpus_and_seeds(
    tmp_path, capsys, monkeypatch, pool_sizes, cpus, parallel, want
):
    # a pool starts all its workers at once, so --parallel 5000 must not ask for 5000
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(repeats=4))
    serial = tmp_path / "serial.csv"
    assert main(["sweep", "--spec", spec, "--out", str(serial)]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    par = tmp_path / "par.csv"
    assert main(["sweep", "--spec", spec, "--out", str(par), "--parallel", str(parallel)]) == 0
    capsys.readouterr()
    assert pool_sizes == want
    assert par.read_bytes() == serial.read_bytes()


def test_sweep_unwritable_out_fails_before_generating(tmp_path, capsys, scene_calls):
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec())
    out = tmp_path / "missing" / "grid.csv"
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "grid.csv")
    assert scene_calls == []


def test_sweep_builds_each_seed_spec_only_when_it_runs(tmp_path, capsys, monkeypatch):
    # a failing first seed ends the sweep before the other 999 specs exist
    built = []
    replace = cli.dataclasses.replace

    def counted_replace(obj, **changes):
        built.append(changes)
        return replace(obj, **changes)

    def failing_seed(spec, shifts, matchings):
        raise ValueError(f"seed {spec.seed} failed")

    monkeypatch.setattr(cli, "dataclasses", types.SimpleNamespace(replace=counted_replace))
    monkeypatch.setattr(cli, "_sweep_seed", failing_seed)
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(repeats=1000))
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "grid.csv")]) == 2
    _assert_one_line_error(capsys, "seed 0 failed")
    assert built == [{"seed": 0}]


def test_parallel_sweep_submits_a_bounded_window_of_seeds(
    tmp_path, capsys, monkeypatch, pool_sizes
):
    # two workers keep at most four seeds submitted; the failing first seed ends the sweep
    built = []
    replace = cli.dataclasses.replace

    def counted_replace(obj, **changes):
        built.append(changes)
        return replace(obj, **changes)

    def failing_seed(spec, shifts, matchings):
        if spec.seed == 0:
            raise ValueError(f"seed {spec.seed} failed")
        return []

    monkeypatch.setattr(cli, "dataclasses", types.SimpleNamespace(replace=counted_replace))
    monkeypatch.setattr(cli, "_sweep_seed", failing_seed)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(repeats=1000))
    args = ["sweep", "--spec", spec, "--out", str(tmp_path / "grid.csv"), "--parallel", "2"]
    assert main(args) == 2
    _assert_one_line_error(capsys, "seed 0 failed")
    assert pool_sizes == [2]
    assert 1 <= len(built) <= 4


def test_sweep_seed_column_tracks_repeats(tmp_path, capsys):
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(fractions=["0"], matching=["on"], repeats=3))
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--spec", spec, "--out", str(out), "--seed-override", "100"]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == ["100", "101", "102"]


def test_sweep_rejects_bad_parallel(tmp_path, capsys):
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec())
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv"), "--parallel", "0"]) == 1
    capsys.readouterr()


def test_sweep_missing_scene_key_exits_2(tmp_path, capsys):
    spec = _write_json(tmp_path / "sweep.json", {"fractions": ["0"]})
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "change, fragment",
    [
        ({"matchng": ["on"]}, "unknown sweep spec key(s): matchng"),
        ({"repeats": 1.5}, "repeats must be of type int"),
        ({"scene": [1, 2]}, "scene spec must be a JSON object"),
        ({"scene": _scene_spec(t_len=2.9)}, "t_len must be of type int"),
        ({"fractions": 5}, "fractions must be of type list"),
        ({"fractions": None}, "fractions must be of type list"),
        ({"fractions": "0"}, "fractions must be of type list"),
        ({"fractions": []}, "fractions must be a non-empty list"),
        ({"matching": 1}, "matching must be of type list"),
        ({"matching": []}, "matching must be a non-empty list"),
        ({"fractions": ["1/8", 0.125]}, "fractions lists one value twice: '1/8' and 0.125"),
        ({"fractions": ["0", "1/4", 0]}, "fractions lists one value twice: '0' and 0"),
        ({"matching": ["on", "on"]}, "matching lists one value twice: 'on' and 'on'"),
        ({"matching": [True, "on"]}, "matching lists one value twice: True and 'on'"),
        ({"scene": _scene_spec(noise_sigma=float("nan"))}, "noise_sigma must be finite"),
        ({"scene": _scene_spec(noise_sigma=float("-inf"))}, "noise_sigma must be finite"),
    ],
    ids=["misspelled_key", "float_repeats", "scene_not_object", "float_scene_int",
         "int_fractions", "null_fractions", "string_fractions", "empty_fractions",
         "int_matching", "empty_matching", "repeated_fraction", "repeated_zero_fraction",
         "repeated_matching", "bool_and_string_matching", "nan_sigma", "neg_inf_sigma"],
)
def test_sweep_rejects_inexact_spec(tmp_path, capsys, scene_calls, change, fragment):
    spec = _write_json(tmp_path / "sweep.json", _sweep_spec(**change))
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2
    _assert_one_line_error(capsys, fragment)
    assert not (tmp_path / "x.csv").exists()
    assert scene_calls == []


def test_sweep_infeasible_scene_exits_3(tmp_path, capsys):
    spec = _write_json(
        tmp_path / "sweep.json",
        dict(scene=_scene_spec(n_tracks=9, n_queries=9, dim=4)),
    )
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 3
    assert "separability" in capsys.readouterr().err
