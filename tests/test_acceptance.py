"""Acceptance gate: seven release criteria, one test each.

Each test prints a single ``[PASS] criterion N`` line on success; with
``pytest -v`` the per-test PASSED/FAILED lines double as the criterion
scoreboard.  Tolerances and runtime budgets are pinned in the asserts and
must not be loosened without a recorded decision.

Scope note on criterion 6: byte-level determinism is asserted across two
runs on this machine.  The cross-platform half of the claim rests on the
package's design (fixed PRNG, pure-python prototype arithmetic, explicit
little-endian formats) and cannot be exercised from a single host.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

from queryshift.cli import main
from queryshift.matching import (
    ClipAlignment,
    align_clip,
    optimal_match,
)
from queryshift.core import ClipQueryTensor
from queryshift.pipeline import run_clip
from queryshift.shift import ShiftConfig, feature_shift
from queryshift.synth import SceneSpec, generate_scene, recovery_rate

from oracles import accumulate, brute_force_match, miou, temporal_consistency
from test_metrics import _score_maps

ZERO = "zero"
HOLD = "hold"


# ---------------------------------------------------------------------------
# criterion 1: assignment oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(1000):
        sim = rng.uniform(-1.0, 1.0, size=(8, 8))
        p_fast, t_fast = optimal_match(sim)
        p_slow, t_slow = brute_force_match(sim)
        assert np.array_equal(p_fast, p_slow)
        assert abs(t_fast - t_slow) <= 1e-9
        checked += 1
    for n in range(1, 9):
        for _ in range(50):
            sim = rng.uniform(-1.0, 1.0, size=(n, n))
            p_fast, t_fast = optimal_match(sim)
            p_slow, t_slow = brute_force_match(sim)
            assert np.array_equal(p_fast, p_slow)
            assert abs(t_fast - t_slow) <= 1e-9
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 runtime budget exceeded: {elapsed:.1f}s"
    print(f"[PASS] criterion 1: oracle equivalence on {checked} matrices ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: shift correctness against a naive transcription
# ---------------------------------------------------------------------------


def _naive_shift_lists(z, d_f, d_b, hold):
    """Cell-by-cell transcription of the shift rule on nested lists."""
    t_len = len(z)
    n = len(z[0])
    d = len(z[0][0])
    out = [[[0.0] * d for _ in range(n)] for _ in range(t_len)]
    for t in range(t_len):
        for i in range(n):
            for c in range(d):
                if c < d_f:
                    if t >= 1:
                        out[t][i][c] = z[t - 1][i][c]
                    else:
                        out[t][i][c] = z[t][i][c] if hold else 0.0
                elif c >= d - d_b:
                    if t < t_len - 1:
                        out[t][i][c] = z[t + 1][i][c]
                    else:
                        out[t][i][c] = z[t][i][c] if hold else 0.0
                else:
                    out[t][i][c] = z[t][i][c]
    return out


def test_criterion_2_shift_matches_naive_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for clip_index in range(200):
        t = int(rng.integers(1, 9))
        n = int(rng.integers(1, 65))
        d = int(rng.integers(2, 257))
        arr = rng.standard_normal((t, n, d))
        clip = ClipQueryTensor(arr)
        frac = Fraction(int(rng.integers(0, 257)), 512)
        for boundary in (ZERO, HOLD):
            cfg = ShiftConfig(frac, boundary)
            got = feature_shift(clip, cfg, ClipAlignment.identity(t, n)).data
            want = np.array(
                _naive_shift_lists(
                    arr.tolist(), cfg.d_forward(d), cfg.d_forward(d), boundary == HOLD
                )
            )
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                f"clip {clip_index}: shape {(t, n, d)}, fraction {frac}, {boundary}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 runtime budget exceeded: {elapsed:.1f}s"
    print(f"[PASS] criterion 2: 200 clips bit-exact, both boundaries ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: exact recovery at zero noise
# ---------------------------------------------------------------------------

_RECOVERY_FRACTIONS = ("1/128", "1/64", "1/32", "1/16", "1/8", "1/4")


def _clip_miou(scene, rows, classes):
    """The per-pixel oracle's mIoU of one row of ``run_clip``'s classes, gathered through rows."""
    c = scene.spec.num_classes
    counts = np.zeros((c, c), dtype=np.int64)
    for gt, pred in zip(scene.gt_labels, classes[rows]):
        counts = accumulate(counts, pred, gt)
    return miou(counts)


def test_criterion_3_exact_recovery_experiment():
    start = time.perf_counter()
    for seed in range(20):
        scene = generate_scene(
            SceneSpec(
                t_len=6,
                n_tracks=8,
                n_queries=8,
                dim=64,
                num_classes=9,
                grid=(64, 64),
                noise_sigma=0.0,
                permute_per_frame=True,
                motion=2,
                seed=seed,
            )
        )
        for frac in _RECOVERY_FRACTIONS:
            shift = ShiftConfig(Fraction(frac), HOLD)
            alignment = align_clip(scene.queries)
            rows, classes = run_clip(scene, [shift], [alignment, ClipAlignment.identity(6, 8)])
            assert recovery_rate(alignment, scene) == 1.0, (seed, frac)
            miou_on = _clip_miou(scene, rows, classes[0, 0])
            assert miou_on == 1.0, (seed, frac, miou_on)
            if Fraction(frac) >= Fraction(1, 32):
                miou_off = _clip_miou(scene, rows, classes[0, 1])
                assert miou_off < miou_on, (seed, frac, miou_off)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 runtime budget exceeded: {elapsed:.1f}s"
    print(f"[PASS] criterion 3: 20 seeds, recovery and mIoU exact ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: qualitative table shape under noise
# ---------------------------------------------------------------------------


def test_criterion_4_noisy_sweep_table_shape(tmp_path, capsys):
    start = time.perf_counter()
    sweep = {
        "scene": {
            "t_len": 6,
            "n_tracks": 4,
            "n_queries": 4,
            "dim": 128,
            "num_classes": 5,
            "grid": [64, 64],
            "noise_sigma": 0.3,
            "permute_per_frame": True,
            "motion": 2,
            "seed": 0,
        },
        "repeats": 50,
        "boundary": "hold",
    }
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(sweep))
    out = tmp_path / "table.csv"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()

    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 7 * 2 * 50
    means: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        means.setdefault((row[0], row[2]), []).append(float(row[4]))
    for cell in means.values():
        assert len(cell) == 50
    for frac in ("1/64", "1/32", "1/16", "1/8"):
        mean_on = sum(means[(frac, "on")]) / 50
        mean_off = sum(means[(frac, "off")]) / 50
        assert mean_on > mean_off, (frac, mean_on, mean_off)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 4 runtime budget exceeded: {elapsed:.1f}s"
    print(f"[PASS] criterion 4: matching flips the sweep ordering ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: metric hand-values
# ---------------------------------------------------------------------------


def test_criterion_5_metric_correctness():
    # mIoU: gt half/half, pred all class 0, scored by evaluate_clip
    gt = np.array([[0, 0], [1, 1]])
    pred = np.zeros((2, 2), dtype=np.int64)
    scores = _score_maps([gt], [pred], 2)
    assert abs(scores["miou"] - 0.25) <= 1e-12
    assert abs(scores["pixel_accuracy"] - 0.5) <= 1e-12

    # perfect prediction
    scores = _score_maps([gt], [gt], 2)
    assert abs(scores["miou"] - 1.0) <= 1e-12
    assert abs(scores["pixel_accuracy"] - 1.0) <= 1e-12

    # temporal consistency: 2 static pixels, 2 transitions, one flip
    f0 = np.array([[0, 0]])
    f1 = np.array([[0, 1]])
    static = np.ones((1, 2), dtype=bool)
    assert abs(temporal_consistency([f0, f1, f1], static) - 0.75) <= 1e-12

    # accumulation order independence: 100 shuffles, exact counts
    rng = np.random.default_rng(1005)
    frames = [
        (
            rng.integers(0, 5, size=(8, 8)),
            rng.integers(0, 5, size=(8, 8)),
        )
        for _ in range(10)
    ]
    reference = None
    for shuffle in range(100):
        order = rng.permutation(10)
        cm_total = np.zeros((5, 5), dtype=np.int64)
        for idx in order:
            pred_f, gt_f = frames[idx]
            cm_total = accumulate(cm_total, pred_f, gt_f)
        if reference is None:
            reference = cm_total
        assert np.array_equal(cm_total, reference), f"shuffle {shuffle}"
    print("[PASS] criterion 5: metric hand-values exact to 1e-12")


# ---------------------------------------------------------------------------
# criterion 6: determinism of the command line pipeline
# ---------------------------------------------------------------------------


def test_criterion_6_cli_determinism(tmp_path, capsys):
    spec = {
        "t_len": 3,
        "n_tracks": 4,
        "n_queries": 5,
        "dim": 64,
        "num_classes": 5,
        "grid": [16, 16],
        "noise_sigma": 0.2,
        "permute_per_frame": True,
        "motion": 1,
        "seed": 7,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fraction": "1/8", "boundary": "hold"}))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(
        json.dumps({"scene": spec, "fractions": ["0", "1/8"], "repeats": 2})
    )

    for r in ("1", "2"):
        scene_dir = tmp_path / f"scene{r}"
        assert main(["synth", "--spec", str(spec_path), "--out", str(scene_dir)]) == 0
        assert main(
            [
                "run",
                "--scene",
                str(scene_dir),
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / f"report{r}.json"),
            ]
        ) == 0
        assert main(
            ["sweep", "--spec", str(sweep_path), "--out", str(tmp_path / f"grid{r}.csv")]
        ) == 0
    capsys.readouterr()

    files1 = sorted(p.name for p in (tmp_path / "scene1").iterdir())
    assert files1 == sorted(p.name for p in (tmp_path / "scene2").iterdir())
    for name in files1:
        assert (tmp_path / "scene1" / name).read_bytes() == (
            tmp_path / "scene2" / name
        ).read_bytes(), name
    assert (tmp_path / "report1.json").read_bytes() == (tmp_path / "report2.json").read_bytes()
    assert (tmp_path / "grid1.csv").read_bytes() == (tmp_path / "grid2.csv").read_bytes()
    print("[PASS] criterion 6: synth, run and sweep byte-identical across runs")


# ---------------------------------------------------------------------------
# criterion 7: similarity-scale invariance of alignment
# ---------------------------------------------------------------------------


def test_criterion_7_scale_invariance():
    rng = np.random.default_rng(1007)
    scales = np.array([1e-3, 1.0, 1e3])
    for _ in range(100):
        t = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        d = int(rng.integers(n, 33))
        arr = rng.standard_normal((t, n, d))
        base = align_clip(ClipQueryTensor(arr))
        frame_scales = scales[rng.integers(0, 3, size=t)]
        scaled = align_clip(
            ClipQueryTensor(arr * frame_scales[:, None, None])
        )
        assert np.array_equal(base.per_frame, scaled.per_frame)
        assert np.array_equal(base.adjacent, scaled.adjacent)
    print("[PASS] criterion 7: alignment invariant to positive query scaling")
