"""Write pinned.json: output fingerprints of every workload input for the default seed.

    python3 perfbench/pin.py

Run it only when a change is meant to alter output bytes, and say so in the
change: the benchmark fails every default-seed op whose output differs from
these pins.
"""

from __future__ import annotations

import json
import shutil
import sys

import bench


def main() -> int:
    pins = {"seed": bench.DEFAULT_SEED}
    work = bench.ROOT / ".perfbench" / "pin"
    try:
        for name, cls in bench.WORKLOADS.items():
            wl = cls(bench.import_queryshift(), bench.DEFAULT_SEED, work / name)
            wl.prepare()
            pins[name] = []
            for j in range(wl.n_inputs):
                output = wl.op(j)
                wl.check(j, output)
                pins[name].append(wl.fingerprint(output))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {bench.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
