"""Workloads, output checks, metrics and run metadata of the queryshift benchmark.

Every operation goes through the user's entry point, ``queryshift.cli.main``,
called in-process by one closed-loop caller: the next operation starts only
after the previous one returned.  A run is split over a few fresh processes
that run one after the other, see :func:`run`.  Inputs are derived from the workload seed;
the program only sees the generated spec and data files.

``run.py`` is the command line; this module is importable for the tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS_PATH = Path(__file__).resolve().parent / "pinned.json"
DEFAULT_SEED = 0
PROCESSES = 4
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

MODULES = ("rng", "synth", "matching", "shift", "pipeline", "metrics", "core", "cli")
_CALLS = (
    "rng.gauss_vector",
    "synth.generate_scene",
    "matching.align_clip",
    "matching.optimal_match",
    "matching.cosine_similarity",
    "pipeline.decode_masks",
)
# computed work counts: metric name -> (traced function, unit)
_WORK = {
    "rng.gauss_draws": ("rng.gauss_vector", "count"),
    "shift.feature_shift.bytes": ("shift.feature_shift", "B"),
    "pipeline.decode_masks.flops": ("pipeline.decode_masks", "flop"),
    "core.write_tensor.bytes": ("core.write_tensor", "B"),
    "core.read_tensor.bytes": ("core.read_tensor", "B"),
}
PER_LAYER = (
    [(f"{fn}.calls", "count") for fn in _CALLS]
    + [(f"{fn}.self_ms", "ms") for fn in spans.TRACED]
    + [(name, unit) for name, (_, unit) in _WORK.items()]
    + [(f"{mod}.share", "ratio") for mod in MODULES]
    + [
        ("trace.overhead_ms", "ms"),
        ("synth_ms.p50", "ms"),
        ("run_ms.p50", "ms"),
    ]
)
# exact counts derived from shapes, not timings
COMPUTED = [f"{fn}.calls" for fn in _CALLS] + list(_WORK)


class OpFailed(Exception):
    """An operation exited non-zero or its output failed a check."""


def import_queryshift():
    """(Re-)import queryshift from this checkout's ``src/``; return its cli module."""
    for name in [n for n in sys.modules if n == "queryshift" or n.startswith("queryshift.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("queryshift.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"queryshift imported from {cli.__file__}, not from {SRC}")
    return cli


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One kind of operation over ``n_inputs`` seed-derived inputs.

    ``op(j)`` runs operation inputs ``j`` and returns its output;
    ``digest`` identifies an output for the repeat check, ``fingerprint``
    is what ``pinned.json`` holds for the default seed, and ``check``
    raises :class:`OpFailed` when an invariant does not hold.
    """

    name = ""
    items = ""
    items_per_op = 0
    n_inputs = 1

    def __init__(self, cli, seed: int, work: Path, n_inputs: int | None = None):
        self.cli = cli
        self.seed = seed
        self.work = work
        if n_inputs is not None:
            self.n_inputs = n_inputs
        self.recorder: spans.Recorder | None = None
        self.step_ns: dict[str, int] = {}

    def input_seed(self, j: int) -> int:
        return self.seed * 1000 + j

    def step(self, label: str, fn, *args):
        """Run one timed step of the current operation."""
        rec = self.recorder
        t0 = perf_counter_ns()
        idx = rec.open(spans.ROOT_SPAN) if rec else -1
        try:
            return fn(*args)
        finally:
            if rec:
                rec.close(idx)
            self.step_ns[label] = self.step_ns.get(label, 0) + perf_counter_ns() - t0

    def main(self, label: str, *argv) -> None:
        """Call ``queryshift.cli.main`` as one timed step; fail on a non-zero exit."""
        argv = [str(a) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # looked up per call, so an installed trace wrapper is used
            code = self.step(label, lambda: self.cli.main(argv))
        if code != 0:
            raise OpFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def op(self, j: int):
        raise NotImplementedError

    def digest(self, output) -> str:
        return sha256(output)

    def fingerprint(self, output):
        return self.digest(output)

    def check(self, j: int, output) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep-serial
# ---------------------------------------------------------------------------

SWEEP_SCENE = {
    "t_len": 6, "n_tracks": 4, "n_queries": 4, "dim": 128, "num_classes": 5,
    "grid": [64, 64], "noise_sigma": 0.3, "permute_per_frame": True, "motion": 2, "seed": 0,
}
SWEEP_FRACTIONS = ("0", "1/128", "1/64", "1/32", "1/16", "1/8", "1/4")
CSV_HEADER = (
    "fraction,channels_shifted,matching,seed,miou,pixel_accuracy,temporal_consistency,recovery"
)


def _channels_shifted(fraction: str, dim: int) -> int:
    num, _, den = fraction.partition("/")
    budget = int(num) * dim // int(den or 1)
    return budget - budget % 2


def check_sweep_csv(data: bytes, seed: int) -> None:
    """Invariants of a one-seed sweep CSV over the default fraction x matching grid."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise OpFailed("sweep CSV header differs")
    rows = [line.split(",") for line in lines[1:]]
    expected = [(f, m, str(seed)) for f in SWEEP_FRACTIONS for m in ("off", "on")]
    if [(r[0], r[2], r[3]) for r in rows] != expected:
        raise OpFailed("sweep CSV rows are not the fraction x matching grid")
    for r in rows:
        if int(r[1]) != _channels_shifted(r[0], SWEEP_SCENE["dim"]):
            raise OpFailed(f"channels_shifted {r[1]} wrong for fraction {r[0]}")
        if not all(0.0 <= float(v) <= 1.0 for v in r[4:]):
            raise OpFailed(f"sweep metric out of [0, 1]: {r}")
    # a zero-channel shift is the identity whether or not slots were aligned
    if rows[0][4:7] != rows[1][4:7]:
        raise OpFailed("fraction-0 rows differ with matching off and on")


class SweepSerial(Workload):
    name = "sweep-serial"
    items = "sweep cells"
    items_per_op = len(SWEEP_FRACTIONS) * 2
    n_inputs = 4

    def prepare(self) -> None:
        super().prepare()
        spec = {"scene": SWEEP_SCENE, "repeats": 1, "boundary": "hold"}
        (self.work / "sweep.json").write_text(json.dumps(spec))

    def op(self, j: int) -> bytes:
        out = self.work / "table.csv"
        self.main("sweep", "sweep", "--spec", self.work / "sweep.json", "--out", out,
                  "--seed-override", self.input_seed(j))
        return out.read_bytes()

    def check(self, j: int, output: bytes) -> None:
        check_sweep_csv(output, self.input_seed(j))


# ---------------------------------------------------------------------------
# match-dense
# ---------------------------------------------------------------------------

MATCH_SCENE = {
    "t_len": 6, "n_tracks": 90, "n_queries": 100, "dim": 256, "num_classes": 9,
    "grid": [8, 8], "noise_sigma": 0.1, "permute_per_frame": True, "motion": 2, "seed": 0,
}


def read_qtn(path: Path) -> np.ndarray:
    """Independent .qtn reader: magic, T/N/D as u32 LE, float64 LE payload."""
    raw = path.read_bytes()
    t, n, d = struct.unpack_from("<3I", raw, 8)
    return np.frombuffer(raw, dtype="<f8", count=t * n * d, offset=20).reshape(t, n, d)


def cosine_matrices(frames: np.ndarray) -> list[np.ndarray]:
    unit = frames / np.linalg.norm(frames, axis=2, keepdims=True)
    return [unit[t] @ unit[t + 1].T for t in range(len(frames) - 1)]


def _is_permutation(mapping, n: int) -> bool:
    return sorted(mapping) == list(range(n))


class MatchDense(Workload):
    name = "match-dense"
    items = "adjacent frame pairs aligned"
    items_per_op = MATCH_SCENE["t_len"] - 1
    n_inputs = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sims: dict[int, list[np.ndarray]] = {}

    def queries(self, j: int) -> Path:
        return self.work / f"clip{j}" / "queries.qtn"

    def prepare(self) -> None:
        super().prepare()
        spec = self.work / "clip.json"
        spec.write_text(json.dumps(MATCH_SCENE))
        for j in range(self.n_inputs):
            self.main("synth", "synth", "--spec", spec, "--out", self.work / f"clip{j}",
                      "--seed-override", self.input_seed(j))

    def op(self, j: int) -> bytes:
        out = self.work / "alignment.json"
        self.main("match", "match", "--queries", self.queries(j), "--out", out)
        return out.read_bytes()

    def check(self, j: int, output: bytes) -> None:
        t, n = MATCH_SCENE["t_len"], MATCH_SCENE["n_queries"]
        got = json.loads(output)
        if (got["t_len"], got["n_queries"]) != (t, n):
            raise OpFailed("alignment shape differs from the clip")
        per_frame, adjacent = got["per_frame"], got["adjacent"]
        if len(per_frame) != t or len(adjacent) != t - 1 or len(got["pair_totals"]) != t - 1:
            raise OpFailed("alignment has the wrong number of mappings")
        if not all(_is_permutation(m, n) for m in per_frame + adjacent):
            raise OpFailed("a match mapping is not a permutation")
        if per_frame[0] != list(range(n)):
            raise OpFailed("frame 0 is not the identity anchor")
        for k in range(t - 1):
            if any(per_frame[k + 1][adjacent[k][i]] != per_frame[k][i] for i in range(n)):
                raise OpFailed(f"per_frame[{k + 1}] is not per_frame[{k}] o adjacent[{k}]^-1")
        if j not in self.sims:
            self.sims[j] = cosine_matrices(read_qtn(self.queries(j)))
        for k, (sim, total) in enumerate(zip(self.sims[j], got["pair_totals"])):
            expect = float(sim[np.arange(n), adjacent[k]].sum())
            if abs(expect - total) > 1e-9:
                raise OpFailed(f"pair_totals[{k}] = {total!r}, numpy gives {expect!r}")


# ---------------------------------------------------------------------------
# scene-io
# ---------------------------------------------------------------------------

IO_SCENE = {
    "t_len": 6, "n_tracks": 8, "n_queries": 8, "dim": 64, "num_classes": 9,
    "grid": [64, 64], "noise_sigma": 0.0, "permute_per_frame": True, "motion": 2, "seed": 0,
}
IO_FILES = ["labels_%d.pgm" % t for t in range(IO_SCENE["t_len"])] + [
    "pixels.qtn", "queries.qtn", "tracks.json"]
REPORT_FIELDS = ("miou", "pixel_accuracy", "temporal_consistency", "recovery")


class SceneIO(Workload):
    name = "scene-io"
    items = "scene frames written and read back"
    items_per_op = IO_SCENE["t_len"]
    n_inputs = 4

    def prepare(self) -> None:
        super().prepare()
        (self.work / "scene.json").write_text(json.dumps(IO_SCENE))
        (self.work / "run.json").write_text(json.dumps({"fraction": "1/4", "matching": True}))

    def op(self, j: int) -> dict:
        scene = self.work / "scene"
        report = self.work / "report.json"
        self.main("synth", "synth", "--spec", self.work / "scene.json", "--out", scene,
                  "--seed-override", self.input_seed(j))
        self.main("run", "run", "--scene", scene, "--config", self.work / "run.json",
                  "--boundary", "hold", "--out", report)
        files, sizes = {}, {}
        for path in sorted(scene.iterdir()):
            data = path.read_bytes()
            files[path.name], sizes[path.name] = sha256(data), len(data)
        self.step("rm", shutil.rmtree, scene)
        return {"files": files, "sizes": sizes, "report": report.read_bytes()}

    def digest(self, output: dict) -> str:
        return sha256(json.dumps(output["files"], sort_keys=True).encode() + output["report"])

    def fingerprint(self, output: dict) -> dict:
        report = json.loads(output["report"])
        return {"files": output["files"], "report": {k: report[k] for k in REPORT_FIELDS}}

    def check(self, j: int, output: dict) -> None:
        if sorted(output["files"]) != sorted(IO_FILES):
            raise OpFailed(f"synth wrote {sorted(output['files'])}")
        h, w = IO_SCENE["grid"]
        want = 28 + 8 * IO_SCENE["t_len"] * h * w * IO_SCENE["dim"]
        if output["sizes"]["pixels.qtn"] != want:
            raise OpFailed(f"pixels.qtn is {output['sizes']['pixels.qtn']} bytes, not {want}")
        report = json.loads(output["report"])
        # sigma 0 is the oracle case: exact recovery, perfect segmentation
        if report["miou"] != 1.0 or report["recovery"] != 1.0:
            raise OpFailed(
                f"noiseless scene gave miou {report['miou']}, recovery {report['recovery']}"
            )


WORKLOADS = {w.name: w for w in (SweepSerial, MatchDense, SceneIO)}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


class Tally:
    """What the timed loop keeps: op times, failure counts, first messages.

    Each output is checked as soon as its op returns, outside the timed
    steps, and then dropped; only its digest is kept, one per input, so the
    memory held does not grow with the number of ops.
    """

    def __init__(self, wl: Workload, pins: dict | None):
        self.wl = wl
        self.pinned = pins.get(wl.name) if pins and wl.seed == pins.get("seed") else None
        self.first_digest: dict[int, str] = {}
        self.plain_ns = array("q")  # untraced op times, in op order
        self.traced_ns = array("q")  # traced op times; pair k follows plain k
        self.step_ns: dict[str, array] = {}  # untraced op time per step label
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few messages

    def check(self, j: int, output) -> None:
        """Raise :class:`OpFailed` when the output of input ``j`` fails a check."""
        wl = self.wl
        wl.check(j, output)
        digest = wl.digest(output)
        if self.first_digest.setdefault(j, digest) != digest:
            raise OpFailed(f"output for input {j} differs from its first run")
        if self.pinned is not None and wl.fingerprint(output) != self.pinned[j]:
            raise OpFailed(f"output for input {j} differs from the pinned digest")

    def add(self, index: int, j: int, traced: bool, steps: dict[str, int], error: str | None):
        self.attempted += 1
        if traced:
            self.traced_ns.append(sum(steps.values()))
        else:
            self.plain_ns.append(sum(steps.values()))
            for label, ns in steps.items():
                self.step_ns.setdefault(label, array("q")).append(ns)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {index} (input {j}): {error}")


def timed_ops(wl: Workload, seconds: float, max_ops: int | None, pins: dict | None,
              recorder: spans.Recorder | None = None) -> Tally:
    """Closed loop for ``seconds``: inputs cycle, each op timed step by step.

    With a recorder every input runs twice in a row, once untraced and once
    traced, so drift in machine speed touches both sets of op times alike.
    The traced op comes second in even pairs and first in odd ones, because
    the second run of an input is a few percent faster.  Wrappers are
    installed only around traced ops, outside their timed steps.
    """
    tally = Tally(wl, pins)
    least = 2 if recorder else 1  # one untraced/traced pair at least
    deadline = perf_counter() + seconds
    while max_ops is None or tally.attempted < max_ops:
        if perf_counter() >= deadline and tally.attempted >= least:
            break
        index = tally.attempted
        traced = recorder is not None and index % 2 != (index // 2) % 2
        j = (index // 2 if recorder else index) % wl.n_inputs
        wl.step_ns = {}
        undo = []
        if traced:
            recorder.op = index
            wl.recorder = recorder
            undo = spans.install(recorder)
        try:
            output = wl.op(j)
        except OpFailed as exc:
            error = str(exc)
        except Exception as exc:  # a crash in the program is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            spans.uninstall(undo)
            wl.recorder = None
        steps = wl.step_ns
        if error is None:
            try:
                tally.check(j, output)
            except OpFailed as exc:
                error = str(exc)
            except Exception as exc:  # malformed output the checks could not parse
                error = f"check raised {type(exc).__name__}: {exc}"
            del output
        tally.add(index, j, traced, steps, error)
    return tally


def tail(values: list[float]) -> tuple[float, float]:
    """The value with ten samples beyond it, and its percentile.

    That is the highest percentile with at least ten samples beyond it; it
    moves smoothly with the sample count instead of jumping between fixed
    percentiles.  Fewer than eleven samples give the maximum.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(recorder: spans.Recorder) -> dict[str, float]:
    ops = list(spans.per_op(recorder.spans).values())

    def median_of(fn: str, field: int) -> float:
        return statistics.median(o["names"].get(fn, (0, 0, 0))[field] for o in ops)

    out = {f"{fn}.calls": median_of(fn, 0) for fn in _CALLS}
    out.update({f"{fn}.self_ms": median_of(fn, 1) / 1e6 for fn in spans.TRACED})
    out.update({name: median_of(fn, 2) for name, (fn, _) in _WORK.items()})
    total = sum(o["duration_ns"] for o in ops)
    for mod in MODULES:
        own = sum(s[1] for o in ops for n, s in o["names"].items() if n.split(".")[0] == mod)
        out[f"{mod}.share"] = own / total
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str,
            pins: dict | None, fast: bool) -> dict:
    """One process's part of a run: set up once, then the timed loop.

    Set-up is importing queryshift, making the inputs and one warm-up op.
    Returns plain data, so the part can run in a process of its own.
    """
    t0 = perf_counter()
    wl = WORKLOADS[workload](import_queryshift(), seed, Path(work), 2 if fast else None)
    wl.prepare()
    wl.op(0)
    setup_s = perf_counter() - t0
    recorder = spans.Recorder() if trace else None
    jiffies = _cpu_jiffies()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    tally = timed_ops(wl, seconds, 2 if fast else None, pins, recorder)
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = tally.attempted
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "plain_ns": tally.plain_ns.tolist(),
        "traced_ns": tally.traced_ns.tolist(),
        "step_ns": {label: ns.tolist() for label, ns in tally.step_ns.items()},
        "attempted": n,
        "failed": tally.failed,
        "failures": tally.failures,
        "minor_faults_per_op": (after.ru_minflt - usage.ru_minflt) / n,
        "user_cpu_ms_per_op": 1e3 * (after.ru_utime - usage.ru_utime) / n,
        "sys_cpu_ms_per_op": 1e3 * (after.ru_stime - usage.ru_stime) / n,
        "jiffies": [b - a for a, b in zip(jiffies, _cpu_jiffies())],
        "spans": recorder.spans if recorder else None,
    }


def measure_in_process(work: Path, timeout: float, **kwargs) -> dict:
    """Run :func:`measure` in a fresh Python process and wait for it."""
    work.mkdir(parents=True, exist_ok=True)
    args, out = work / "args.json", work / "part.json"
    args.write_text(json.dumps({**kwargs, "work": str(work / "data"), "out": str(out)}))
    subprocess.run([sys.executable, __file__, str(args)], check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        pins: dict | None = None, fast: bool = False) -> dict:
    """Set up, measure and check one workload; return result, meta and spans.

    The run is split over :data:`PROCESSES` fresh processes, one after the
    other, each setting up once and measuring its share of ``seconds``.
    glibc's dynamic mmap threshold makes the page faults of a process's large
    arrays bimodal (``sweep-serial``: ~73k or ~133k per op, by process), so
    one process would report one of two speeds at random.  ``op_ms.p50`` is
    the mean of the processes' medians; the pooled metrics use every op.
    """
    pins = load_pins() if pins is None else pins
    n_parts = 2 if fast else PROCESSES
    parts = [
        measure_in_process(work / f"part{k}", (seconds + 150) / n_parts, workload=workload,
                           seed=seed, seconds=seconds / n_parts, trace=trace, pins=pins,
                           fast=fast)
        for k in range(n_parts)
    ]
    wl_cls = WORKLOADS[workload]
    n_inputs = 2 if fast else wl_cls.n_inputs
    op_ms = [ns / 1e6 for part in parts for ns in part["plain_ns"]]
    tail_ms, tail_p = tail(op_ms)
    p50 = statistics.fmean(statistics.median(part["plain_ns"]) / 1e6 for part in parts)
    items_per_s = wl_cls.items_per_op * len(op_ms) / (sum(op_ms) / 1e3)
    n = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    steal, total = (sum(part["jiffies"][i] for part in parts) for i in (0, 1))
    # untraced op k of a process ran input k % inputs
    by_input = [[ns / 1e6 for part in parts for ns in part["plain_ns"][j::n_inputs]]
                for j in range(n_inputs)]

    meta = run_metadata()
    meta.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "fast": fast,
        "caller": "one in-process closed-loop caller of queryshift.cli.main, "
                  f"in {n_parts} processes one after the other",
        "items": wl_cls.items, "items_per_op": wl_cls.items_per_op, "inputs": n_inputs,
        "setup_s_each": [part["setup_s"] for part in parts],
        "ops_untraced": len(op_ms), "ops_traced": sum(len(p["traced_ns"]) for p in parts),
        "op_ms.p50": p50, "op_ms.p50_pooled": statistics.median(op_ms), "op_ms.tail": tail_ms,
        "tail_percentile": tail_p, "tail_samples_beyond": sum(v > tail_ms for v in op_ms),
        # how much of the op time the input decides
        "op_ms.p50_by_input": [statistics.median(v) for v in by_input if v],
        "fail_ratio": failed / n,
        "failures": [f for part in parts for f in part["failures"]][:5],
        "items_per_s": items_per_s,
        # per process: its page-fault mode and what it cost
        "processes": [
            {key: part[key] for key in ("attempted", "setup_s", "peak_rss_mb",
                                        "minor_faults_per_op", "user_cpu_ms_per_op",
                                        "sys_cpu_ms_per_op")}
            | {"op_ms.p50": statistics.median(part["plain_ns"]) / 1e6}
            for part in parts
        ],
        # share of CPU time the hypervisor gave to others while we measured
        "host_steal_share": steal / total if total else 0.0,
    })
    if wl_cls is SceneIO:
        for step in ("synth", "run"):
            meta[f"{step}_ms.p50"] = statistics.median(
                ns / 1e6 for part in parts for ns in part["step_ns"][step])
    recorder = None
    if trace:
        recorder = spans.Recorder()
        offset = 0
        for part in parts:
            recorder.add(part["spans"], offset)
            offset += part["attempted"]
        traced_ms = [ns / 1e6 for part in parts for ns in part["traced_ns"]]
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        metrics.update(layer_metrics(recorder))
        metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(op_ms)
        for name in ("synth_ms.p50", "run_ms.p50"):
            metrics[name] = meta.get(name, 0.0)
        meta["op_ms.traced_p50"] = statistics.median(traced_ms)
        units = dict(PER_LAYER)
        meta["computed"] = COMPUTED
    else:
        metrics = {
            "setup_s": statistics.median(meta["setup_s_each"]),
            "op_ms.p50": p50,
            "op_ms.tail": tail_ms,
            "items_per_s": items_per_s,
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"result": result, "meta": meta, "recorder": recorder}


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def _cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs, or zeros where /proc/stat is missing."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def run_metadata() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sources:
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        or "default (one per core)",
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_", "default"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


if __name__ == "__main__":
    # one part of a run, started by measure_in_process
    kwargs = json.loads(Path(sys.argv[1]).read_text())
    out = Path(kwargs.pop("out"))
    out.write_text(json.dumps(measure(**kwargs)))
