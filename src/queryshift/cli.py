"""Command line front end.

Subcommands:

* ``synth``  -- materialise a scene spec (JSON) into a scene directory
* ``run``    -- process a scene directory with a pipeline config, emit a report
* ``match``  -- align a raw query tensor, emit the per-frame mappings as JSON
* ``sweep``  -- run a fraction x matching grid over fresh scenes, emit CSV

Exit codes: 0 success, 1 usage error, 2 broken input data or file format,
3 infeasible scene spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from .core import TensorFormatError, read_tensor
from .matching import align_clip
from .metrics import evaluate_clip
from .pipeline import PipelineConfig, run_clip
from .shift import BoundaryPolicy, plan_shift
from .synth import (
    InfeasibleSceneError,
    SceneSpec,
    _check_keys,
    _json_value,
    class_head_for,
    generate_scene,
    load_scene,
    recovery_rate,
    save_scene,
)

__all__ = ["main", "build_parser"]

_DEFAULT_FRACTIONS = ("0", "1/128", "1/64", "1/32", "1/16", "1/8", "1/4")
_CSV_HEADER = (
    "fraction,channels_shifted,matching,seed,"
    "miou,pixel_accuracy,temporal_consistency,recovery"
)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            loaded = json.load(f)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise DataError(f"expected a file, got a directory: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise DataError(f"{path}: expected a JSON object at top level")
    return loaded


def _parse_matching(value) -> bool:
    if isinstance(value, bool):
        return value
    if value in ("on", "off"):
        return value == "on"
    raise DataError(f"matching must be true/false or 'on'/'off', got {value!r}")


def _parse_boundary(value) -> BoundaryPolicy:
    try:
        return BoundaryPolicy(value)
    except ValueError:
        raise DataError(f"boundary must be 'zero' or 'hold', got {value!r}") from None


def _pipeline_config(cfg: dict, dim: int) -> PipelineConfig:
    _check_keys("pipeline config", cfg, ("fraction", "matching", "boundary"))
    if "fraction" not in cfg:
        raise DataError("pipeline config needs a 'fraction' field")
    shift = plan_shift(cfg["fraction"], dim, _parse_boundary(cfg.get("boundary", "zero")))
    return PipelineConfig(shift=shift, matching=_parse_matching(cfg.get("matching", True)))


def _grid_axis(sweep: dict, key: str, default: Sequence) -> Sequence:
    """A sweep grid axis: a non-empty JSON list, or ``default`` when absent."""
    if key not in sweep:
        return default
    values = _json_value(key, sweep[key], list)
    if not values:
        raise DataError(f"{key} must be a non-empty list")
    return values


def _scene_spec(scene, seed: int | None) -> SceneSpec:
    """Parse a scene spec object; ``seed``, when given, replaces its seed."""
    spec = SceneSpec.from_dict(scene)
    return spec if seed is None else dataclasses.replace(spec, seed=seed)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    scene = generate_scene(_scene_spec(_load_json(args.spec), args.seed_override))
    for path in save_scene(scene, args.out):
        print(path)
    return 0


def _cmd_run(args) -> int:
    scene = load_scene(args.scene)
    cfg = _load_json(args.config)
    if args.boundary is not None:
        cfg["boundary"] = args.boundary
    config = _pipeline_config(cfg, scene.spec.dim)
    preds, alignment = run_clip(scene, config)
    recovery = recovery_rate(alignment, scene)
    echo = {
        "scene": scene.spec.to_dict(),
        "fraction": str(config.shift.fraction),
        "channels_shifted": config.shift.channels_shifted,
        "boundary": config.shift.boundary.value,
        "matching": config.matching,
    }
    report = evaluate_clip(scene.gt_labels, preds, recovery, echo)
    _write_text(args.out, report.to_json())
    if args.out is not None:
        tc = report.temporal_consistency
        print(
            f"miou={report.miou:.6f} pixel_accuracy={report.pixel_accuracy:.6f} "
            f"temporal_consistency={'n/a' if tc is None else format(tc, '.6f')} "
            f"recovery={report.recovery:.6f} -> {args.out}"
        )
    return 0


def _cmd_match(args) -> int:
    clip = read_tensor(args.queries)
    alignment = align_clip(clip)
    payload = {
        "t_len": alignment.t_len,
        "n_queries": alignment.n_queries,
        "per_frame": [list(p.mapping) for p in alignment.per_frame],
        "adjacent": [list(p.mapping) for p in alignment.adjacent],
        "pair_totals": list(alignment.pair_totals),
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


def _sweep_seed(spec: SceneSpec, configs: list[PipelineConfig]) -> list[list[str]]:
    """One seed: generate its scene once, then one CSV row per grid cell."""
    scene = generate_scene(spec)
    head = class_head_for(scene)
    rows = []
    for config in configs:
        preds, alignment = run_clip(scene, config, head)
        recovery = recovery_rate(alignment, scene)
        report = evaluate_clip(scene.gt_labels, preds, recovery, {})
        tc = report.temporal_consistency
        rows.append([
            str(config.shift.fraction),
            str(config.shift.channels_shifted),
            "on" if config.matching else "off",
            str(spec.seed),
            repr(report.miou),
            repr(report.pixel_accuracy),
            "" if tc is None else repr(tc),
            repr(report.recovery),
        ])
    return rows


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _sweep_summary(rows: list[list[str]]) -> str:
    """Per-cell means with deltas against the fraction-0 cell of the same mode."""
    cells: dict[tuple[str, str], dict[str, list[float]]] = {}
    order: list[tuple[str, str]] = []
    for row in rows:
        key = (row[0], row[2])
        if key not in cells:
            cells[key] = {"miou": [], "tc": []}
            order.append(key)
        cells[key]["miou"].append(float(row[4]))
        if row[6] != "":
            cells[key]["tc"].append(float(row[6]))
    lines = ["summary (means over seeds):"]
    for frac, mode in order:
        vals = cells[(frac, mode)]
        base = cells.get(("0", mode))
        parts = [f"fraction {frac:>5}", f"matching={mode:<3}"]
        for name, key in (("miou", "miou"), ("consistency", "tc")):
            mean = _mean(vals[key])
            if mean is None:
                parts.append(f"{name}=n/a")
                continue
            text = f"{name}={mean:.6f}"
            if base is not None and frac != "0":
                base_mean = _mean(base[key])
                if base_mean is not None:
                    text += f" ({mean - base_mean:+.6f})"
            parts.append(text)
        lines.append("  " + "  ".join(parts))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    sweep = _load_json(args.spec)
    _check_keys("sweep spec", sweep, ("scene", "fractions", "matching", "repeats", "boundary"))
    if "scene" not in sweep:
        raise DataError("sweep spec needs a 'scene' object")
    base_spec = _scene_spec(sweep["scene"], args.seed_override)

    fractions = _grid_axis(sweep, "fractions", _DEFAULT_FRACTIONS)
    matchings = [_parse_matching(m) for m in _grid_axis(sweep, "matching", (False, True))]
    repeats = _json_value("repeats", sweep.get("repeats", 1), int)
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    if args.parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {args.parallel}")
    boundary = _parse_boundary(args.boundary or sweep.get("boundary", "zero"))

    configs = [
        PipelineConfig(shift=plan_shift(frac, base_spec.dim, boundary), matching=matching)
        for frac in fractions
        for matching in matchings
    ]
    specs = [dataclasses.replace(base_spec, seed=base_spec.seed + r) for r in range(repeats)]
    workers = min(args.parallel, repeats)
    with open(args.out, "w") as f:
        f.write(_CSV_HEADER + "\n")
        if workers == 1:
            per_seed = list(map(_sweep_seed, specs, [configs] * repeats))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                per_seed = list(pool.map(_sweep_seed, specs, [configs] * repeats))
        # per_seed is seed-major; the CSV lists fraction, then matching, then seed
        rows = [row for cell in zip(*per_seed) for row in cell]
        f.writelines(",".join(row) + "\n" for row in rows)
    sys.stdout.write(_sweep_summary(rows))
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="queryshift",
        description="Temporal channel shift with cross-frame query matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a scene directory from a JSON spec")
    p.add_argument("--spec", required=True, help="scene spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed-override", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the pipeline on a scene directory")
    p.add_argument("--scene", required=True, help="scene directory (from synth)")
    p.add_argument("--config", required=True, help="pipeline config JSON file")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.add_argument("--boundary", choices=("zero", "hold"), default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("match", help="align a query tensor across frames")
    p.add_argument("--queries", required=True, help="query tensor file")
    p.add_argument("--out", default=None, help="alignment JSON path (default: stdout)")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("sweep", help="fraction x matching grid, CSV output")
    p.add_argument("--spec", required=True, help="sweep spec JSON file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--seed-override", type=int, default=None)
    p.add_argument("--boundary", choices=("zero", "hold"), default=None)
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleSceneError as exc:
        print(f"infeasible scene: {exc}", file=sys.stderr)
        return 3
    except (DataError, TensorFormatError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
