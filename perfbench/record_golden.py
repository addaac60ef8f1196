"""Record the golden output digests of the default seed.

    python3 perfbench/record_golden.py

Runs the first blocks of every workload at seed 0 (more than a default
run completes), requires every task to pass its own checks, and writes
perfbench/golden.json: for each workload, task key -> digest.  run.py
compares every task whose key is listed, on any seed.  Re-record only when
an output is meant to change.
"""

from __future__ import annotations

import json
import sys

import run

GOLDEN_BLOCKS = {"qes_requests": 24, "quad_symbolic": 10, "lame_spectrum": 12}


def main() -> int:
    run._import_engine()
    import workloads
    validator = run._validator()
    golden = {}
    for workload, blocks in GOLDEN_BLOCKS.items():
        make, _ = workloads.BLOCKS[workload]
        table = golden[workload] = {}
        for b in range(blocks):
            for task in make(0, b, validator):
                problems, dg = task.check(task.run())
                if problems:
                    sys.exit(f"{task.key}: {problems}")
                if table.setdefault(task.key, dg) != dg:
                    sys.exit(f"{task.key}: output differs between runs")
        print(f"{workload}: {len(table)} keys", file=sys.stderr)
    with open(run.BENCH / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
