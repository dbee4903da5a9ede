"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bench
import spans

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_fast_mode_runs_every_workload(workload, tmp_path):
    done = bench.run(workload, bench.DEFAULT_SEED, 30.0, False, tmp_path, fast=True)
    result = done["result"]
    assert result["correct"], done["meta"]["failures"]
    assert result["attempted"] == 4 and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert done["meta"]["fail_ratio"] == 0.0


def test_corrupted_pin_fails_every_op(tmp_path):
    pins = copy.deepcopy(bench.load_pins())
    for fingerprint in pins["scene-io"]:
        digest = fingerprint["files"]["pixels.qtn"]
        fingerprint["files"]["pixels.qtn"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    done = bench.run("scene-io", bench.DEFAULT_SEED, 30.0, False, tmp_path, pins=pins, fast=True)
    assert done["result"]["correct"] is False
    assert done["result"]["failed"] == done["result"]["attempted"] == 4
    assert done["meta"]["fail_ratio"] == 1.0
    assert "pinned" in done["meta"]["failures"][0]


def test_timed_loop_keeps_no_outputs(tmp_path):
    class Big(bench.Workload):
        name = "big"
        n_inputs = 2

        def op(self, j):
            return self.step("make", bytes, 1 << 20)

    tracemalloc.start()
    try:
        tally = bench.timed_ops(Big(None, 1, tmp_path), 60.0, 40, None)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tally.attempted == 40 and tally.failed == 0
    assert len(tally.plain_ns) == 40 and len(tally.first_digest) == 2
    assert held < 4 << 20  # 40 MiB if every 1 MiB output were kept


def test_traced_self_times_sum_to_op_duration(tmp_path):
    done = bench.run("scene-io", bench.DEFAULT_SEED, 30.0, True, tmp_path, fast=True)
    assert done["result"]["correct"]
    recorder = done["recorder"]
    ops = spans.per_op(recorder.spans)
    assert sorted(ops) == [1, 3]  # every second op is traced
    for op in ops.values():
        assert sum(stats[1] for stats in op["names"].values()) == op["duration_ns"]
    assert set(ops[1]["names"]) == set(spans.TRACED) | {spans.ROOT_SPAN}
    metrics = done["result"]["metrics"]
    assert list(metrics) == [name for name, _ in bench.PER_LAYER]
    assert 0.9 < sum(metrics[f"{m}.share"]["value"] for m in bench.MODULES) <= 1.0
    # computed counts follow from the scene shape: 6 frames of 64x64, 8 queries, 64 channels
    assert metrics["pipeline.decode_masks.flops"]["value"] == 6 * 2 * 8 * 64 * 64 * 64
    assert metrics["core.read_tensor.bytes"]["value"] == 2 * 28 + 8 * 6 * 64 * (8 + 64 * 64)


def test_uninstall_restores_every_import_site():
    cli = bench.import_queryshift()
    synth = sys.modules["queryshift.synth"]
    undo = spans.install(spans.Recorder())
    assert hasattr(cli.main, "__wrapped__") and hasattr(synth.read_tensor, "__wrapped__")
    spans.uninstall(undo)
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(synth.read_tensor, "__wrapped__")
    assert not hasattr(sys.modules["queryshift.rng"].Rng.gauss_vector, "__wrapped__")


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(bench.END_TO_END)
    assert layer == list(bench.PER_LAYER)
    names = [name for name, _ in e2e + layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    # match-dense runs by hand only; BENCHMARK.json says why it is not listed
    assert [w["name"] for w in spec["workloads"]] == [w for w in bench.WORKLOADS
                                                     if w != "match-dense"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scene-io", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
