"""queryshift benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 30 --trace 0

Workloads: ``sweep-serial`` and ``scene-io`` (see BENCHMARK.json for why
each was chosen), and ``match-dense``, which is run by hand only (see
README.md).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
every input twice in a row, once untraced and once with spans around each
layer's public functions, and prints the per-layer metrics.

The last line of standard output is the result, a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run metadata.  Both, and the spans of a traced run, are also written
under ``.perfbench/`` at the root of the checkout.  Exit code 0 means a
result was printed (check ``correct``); 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-serial", "match-dense", "scene-io")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "queryshift" / "cli.py").is_file():
        print(f"error: no queryshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import bench

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        done = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if done["recorder"] is not None:
        done["recorder"].dump(out_dir / f"{stem}.spans.jsonl")
    record = {"meta": done["meta"], "result": done["result"]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": done["meta"]}))
    print(json.dumps(done["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
