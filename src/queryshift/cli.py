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
import itertools
import json
import os
import stat
import sys
from pathlib import Path
from typing import Callable, Sequence

from .core import json_value, read_tensor
from .matching import ClipAlignment, align_clip
from .metrics import evaluate_clip
from .pipeline import run_clip
from .shift import ShiftConfig
from .synth import (
    InfeasibleSceneError,
    SceneClip,
    SceneSpec,
    check_keys,
    generate_scene,
    load_json,
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


def _pipeline_config(cfg: dict) -> tuple[ShiftConfig, bool]:
    """A ``run`` config file as its shift and matching flag."""
    check_keys("pipeline config", cfg, ("fraction", "matching", "boundary"), ("fraction",))
    shift = ShiftConfig(cfg["fraction"], cfg.get("boundary", "zero"))
    return shift, _parse_matching(cfg.get("matching", True))


def _grid_axis(sweep: dict, key: str, default: Sequence, parse: Callable) -> list:
    """A sweep grid axis, parsed: a non-empty JSON list, or ``default`` when absent.

    Two entries that parse to the same value would run one cell twice, so
    they are an error.
    """
    values = default
    if key in sweep:
        values = json_value(key, sweep[key], list)
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


def _score(
    scene: SceneClip, shifts: list[ShiftConfig], matchings: list[bool]
) -> list[dict[str, float | None]]:
    """The scores and recovery of every (shift, matching) cell on ``scene``, shift-major.

    The clip is aligned once per matching mode, the identity when matching is
    off, and every cell runs in one ``run_clip`` and scores in one
    ``evaluate_clip`` call.
    """
    q = scene.queries
    alignments = [
        align_clip(q) if m else ClipAlignment.identity(q.t_len, q.n_queries) for m in matchings
    ]
    recoveries = [recovery_rate(a, scene) for a in alignments] * len(shifts)
    rows, classes = run_clip(scene, shifts, alignments)
    flat = classes.reshape(-1, classes.shape[-1])  # shift-major, as the cells are listed
    scores = evaluate_clip(scene.gt_labels, rows, scene.spec.num_classes, flat)
    return [cell | {"recovery": r} for cell, r in zip(scores, recoveries)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    scene = generate_scene(_scene_spec(load_json(args.spec), args.seed_override))
    for path in save_scene(scene, args.out):
        print(path)
    return 0


def _cmd_run(args) -> int:
    scene = load_scene(args.scene)
    cfg = load_json(args.config)
    if args.boundary is not None:
        cfg["boundary"] = args.boundary
    shift, matching = _pipeline_config(cfg)
    (scores,) = _score(scene, [shift], [matching])
    echo = {
        "scene": scene.spec.to_dict(),
        "fraction": str(shift.fraction),
        "channels_shifted": 2 * shift.d_forward(scene.spec.dim),
        "boundary": shift.boundary,
        "matching": matching,
    }
    _write_text(args.out, json.dumps(scores | {"config": echo}, sort_keys=True, indent=1) + "\n")
    if args.out is not None:
        tc = scores["temporal_consistency"]
        print(
            f"miou={scores['miou']:.6f} pixel_accuracy={scores['pixel_accuracy']:.6f} "
            f"temporal_consistency={'n/a' if tc is None else format(tc, '.6f')} "
            f"recovery={scores['recovery']:.6f} -> {args.out}"
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
) -> list[dict[str, float | int | None]]:
    """One seed's scene, every cell scored once by ``_score``; each cell's scores and seed."""
    return [cell | {"seed": spec.seed} for cell in _score(generate_scene(spec), shifts, matchings)]


def _sweep_output(
    shifts: list[ShiftConfig], matchings: list[bool], dim: int, per_seed: list[list[dict]]
) -> tuple[list[str], str]:
    """The CSV lines and the summary of a sweep whose seed r scored cell i as ``per_seed[r][i]``.

    The CSV lists fraction, then matching, then seed.  The summary gives each
    cell's means over seeds, with deltas against the fraction-0 cell of the same mode.
    """
    lines, means = [], {}  # means: (fraction, mode) -> [mean miou, mean consistency or None]
    for (shift, matching), seeds in zip(itertools.product(shifts, matchings), zip(*per_seed)):
        frac, mode = str(shift.fraction), "on" if matching else "off"
        for s in seeds:
            tc = s["temporal_consistency"]
            lines.append(",".join([  # the columns of _CSV_HEADER
                frac, str(2 * shift.d_forward(dim)), mode, str(s["seed"]), repr(s["miou"]),
                repr(s["pixel_accuracy"]), "" if tc is None else repr(tc), repr(s["recovery"]),
            ]) + "\n")
        columns = (
            [s[k] for s in seeds if s[k] is not None] for k in ("miou", "temporal_consistency")
        )
        means[frac, mode] = [sum(v) / len(v) if v else None for v in columns]
    summary = ["summary (means over seeds):"]
    for (frac, mode), pair in means.items():
        base = means.get(("0", mode), [None, None])
        parts = [f"fraction {frac:>5}", f"matching={mode:<3}"]
        for name, mean, base_mean in zip(("miou", "consistency"), pair, base):
            text = "n/a" if mean is None else f"{mean:.6f}"
            if mean is not None and base_mean is not None and frac != "0":
                text += f" ({mean - base_mean:+.6f})"
            parts.append(f"{name}={text}")
        summary.append("  " + "  ".join(parts))
    return lines, "\n".join(summary) + "\n"


def _cmd_sweep(args) -> int:
    sweep = load_json(args.spec)
    keys = ("scene", "fractions", "matching", "repeats", "boundary")
    check_keys("sweep spec", sweep, keys, ("scene",))
    base_spec = _scene_spec(sweep["scene"], args.seed_override)

    boundary = args.boundary or sweep.get("boundary", "zero")
    shifts = _grid_axis(sweep, "fractions", _DEFAULT_FRACTIONS, lambda f: ShiftConfig(f, boundary))
    matchings = _grid_axis(sweep, "matching", (False, True), _parse_matching)
    repeats = json_value("repeats", sweep.get("repeats", 1), int)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if args.parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {args.parallel}")

    specs = (dataclasses.replace(base_spec, seed=base_spec.seed + r) for r in range(repeats))
    sweep_seed = functools.partial(_sweep_seed, shifts=shifts, matchings=matchings)
    workers = min(args.parallel, repeats, os.cpu_count() or 1)
    with open(args.out, "w") as f:
        try:
            if workers == 1:
                per_seed = list(map(sweep_seed, specs))
            else:
                from concurrent.futures import ProcessPoolExecutor  # it loads multiprocessing
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    # at most 2 * workers seeds wait in the pool, so a failing seed ends it early
                    per_seed, pending = [], []
                    for spec in specs:
                        pending.append(pool.submit(sweep_seed, spec))
                        if len(pending) == 2 * workers:
                            per_seed.append(pending.pop(0).result())
                    per_seed += [future.result() for future in pending]
            lines, summary = _sweep_output(shifts, matchings, base_spec.dim, per_seed)
            f.write(_CSV_HEADER + "\n")
            f.writelines(lines)
            f.flush()
        except BaseException:
            # a failed sweep leaves no partial CSV; /dev/null or a FIFO stays in place
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                os.unlink(args.out)
            raise
    sys.stdout.write(summary)
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
    try:  # the parser raises UsageError, as a command may
        args = build_parser().parse_args(argv)
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
