"""Command line front end.

Subcommands:

* ``synth``  -- materialise a scene spec (JSON) into a scene directory
* ``run``    -- process a scene directory with a pipeline config, emit a report
* ``match``  -- align a raw query tensor, emit the per-frame mappings as JSON
* ``sweep``  -- run a fraction x matching grid over fresh scenes, emit CSV

Exit codes: 0 success, 1 usage error, 2 broken input data or file format, or
a request too large for memory, 3 infeasible scene spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

from .core import ClipQueryTensor, read_tensor
from .matching import ClipAlignment, align_clip
from .metrics import evaluate_clip, tally_clip
from .pipeline import run_clip
from .shift import BoundaryPolicy, ShiftConfig, plan_shift
from .synth import (
    InfeasibleSceneError,
    SceneSpec,
    _check_keys,
    _json_value,
    _load_json,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_matching(value) -> bool:
    if isinstance(value, bool):
        return value
    if value in ("on", "off"):
        return value == "on"
    raise ValueError(f"matching must be true/false or 'on'/'off', got {value!r}")


def _parse_boundary(value) -> BoundaryPolicy:
    try:
        return BoundaryPolicy(value)
    except ValueError:
        raise ValueError(f"boundary must be 'zero' or 'hold', got {value!r}") from None


def _pipeline_config(cfg: dict, dim: int) -> tuple[ShiftConfig, bool]:
    """A ``run`` config file as its shift plan and matching flag."""
    _check_keys("pipeline config", cfg, ("fraction", "matching", "boundary"))
    if "fraction" not in cfg:
        raise ValueError("pipeline config needs a 'fraction' field")
    shift = plan_shift(cfg["fraction"], dim, _parse_boundary(cfg.get("boundary", "zero")))
    return shift, _parse_matching(cfg.get("matching", True))


def _alignment(queries: ClipQueryTensor, matching: bool) -> ClipAlignment:
    """The clip's matched alignment, or the identity when matching is off."""
    if matching:
        return align_clip(queries)
    return ClipAlignment.identity(queries.t_len, queries.n_queries)


def _grid_axis(sweep: dict, key: str, default: Sequence, parse: Callable) -> list:
    """A sweep grid axis, parsed: a non-empty JSON list, or ``default`` when absent.

    Two entries that parse to the same value would run one cell twice, so
    they are an error.
    """
    values = default
    if key in sweep:
        values = _json_value(key, sweep[key], list)
        if not values:
            raise ValueError(f"{key} must be a non-empty list")
    seen = {}
    for value in values:
        parsed = parse(value)
        if parsed in seen:
            raise ValueError(f"{key} lists one value twice: {seen[parsed]!r} and {value!r}")
        seen[parsed] = value
    return list(seen)


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
    shift, matching = _pipeline_config(cfg, scene.spec.dim)
    alignment = _alignment(scene.queries, matching)
    tally = tally_clip(scene.gt_labels, [p.index for p in scene.pixels], scene.spec.num_classes)
    scores = evaluate_clip(tally, run_clip(scene, shift, alignment))
    recovery = recovery_rate(alignment, scene)
    echo = {
        "scene": scene.spec.to_dict(),
        "fraction": str(shift.fraction),
        "channels_shifted": shift.channels_shifted,
        "boundary": shift.boundary.value,
        "matching": matching,
    }
    report = scores | {"recovery": recovery, "config": echo}
    _write_text(args.out, json.dumps(report, sort_keys=True, indent=1) + "\n")
    if args.out is not None:
        tc = scores["temporal_consistency"]
        print(
            f"miou={scores['miou']:.6f} pixel_accuracy={scores['pixel_accuracy']:.6f} "
            f"temporal_consistency={'n/a' if tc is None else format(tc, '.6f')} "
            f"recovery={recovery:.6f} -> {args.out}"
        )
    return 0


def _cmd_match(args) -> int:
    clip = read_tensor(args.queries)
    alignment = align_clip(clip)
    payload = {
        "t_len": alignment.t_len,
        "n_queries": alignment.n_queries,
        "per_frame": alignment.per_frame.tolist(),
        "adjacent": alignment.adjacent.tolist(),
        "pair_totals": list(alignment.pair_totals),
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


def _sweep_seed(
    spec: SceneSpec, shifts: list[ShiftConfig], matchings: list[bool]
) -> list[list[str]]:
    """One seed: scene, pixel tally, alignments and recoveries once, then a CSV row per cell."""
    scene = generate_scene(spec)
    head = class_head_for(scene)
    tally = tally_clip(scene.gt_labels, [p.index for p in scene.pixels], scene.spec.num_classes)
    alignments = {m: _alignment(scene.queries, m) for m in matchings}
    recoveries = {m: recovery_rate(a, scene) for m, a in alignments.items()}
    rows = []
    for shift in shifts:
        for matching in matchings:
            scores = evaluate_clip(tally, run_clip(scene, shift, alignments[matching], head))
            tc = scores["temporal_consistency"]
            rows.append([
                str(shift.fraction),
                str(shift.channels_shifted),
                "on" if matching else "off",
                str(spec.seed),
                repr(scores["miou"]),
                repr(scores["pixel_accuracy"]),
                "" if tc is None else repr(tc),
                repr(recoveries[matching]),
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
        raise ValueError("sweep spec needs a 'scene' object")
    base_spec = _scene_spec(sweep["scene"], args.seed_override)

    boundary = _parse_boundary(args.boundary or sweep.get("boundary", "zero"))
    shifts = _grid_axis(
        sweep, "fractions", _DEFAULT_FRACTIONS, lambda f: plan_shift(f, base_spec.dim, boundary)
    )
    matchings = _grid_axis(sweep, "matching", (False, True), _parse_matching)
    repeats = _json_value("repeats", sweep.get("repeats", 1), int)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if args.parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {args.parallel}")

    specs = (dataclasses.replace(base_spec, seed=base_spec.seed + r) for r in range(repeats))
    sweep_seed = functools.partial(_sweep_seed, shifts=shifts, matchings=matchings)
    workers = min(args.parallel, repeats, os.cpu_count() or 1)
    with open(args.out, "w") as f:
        f.write(_CSV_HEADER + "\n")
        if workers == 1:
            per_seed = list(map(sweep_seed, specs))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # at most 2 * workers seeds wait in the pool, so a failing seed ends it early
                per_seed, pending = [], []
                for spec in specs:
                    pending.append(pool.submit(sweep_seed, spec))
                    if len(pending) == 2 * workers:
                        per_seed.append(pending.pop(0).result())
                per_seed += [future.result() for future in pending]
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
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
