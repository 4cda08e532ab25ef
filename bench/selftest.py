"""Self-test of the traced run: its counts must repeat exactly.

usage: python3 bench/selftest.py [WORKLOAD ...]

For each workload (all three by default) this runs
`bench/run.py --trace 1 --seconds 1 --seed 1` twice and compares every
count among the per-layer metrics (`.calls`, `.yielded`, `.entries`,
`fibers.memo.hits` and `.misses`) between the two runs.  On paving_n4 it
also requires the memo counts of the seed tree: 2,070 misses and 746,861
hits.  Exits 1 on any difference.  A traced paving_n4 run takes about
two minutes on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
EXPECTED = {"paving_n4": {"fibers.memo.misses": 2070, "fibers.memo.hits": 746861}}
COUNTS = (".calls", ".yielded", ".entries", "fibers.memo.hits", "fibers.memo.misses")


def traced_counts(workload: str) -> dict[str, int]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} items failed")
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(COUNTS)
    }


def main(workloads: list[str]) -> int:
    problems = []
    for workload in workloads:
        first, second = traced_counts(workload), traced_counts(workload)
        problems += [
            f"{workload}: {name} read {first[name]}, then {second[name]}"
            for name in first
            if first[name] != second[name]
        ]
        problems += [
            f"{workload}: {name} read {first[name]}, expected {value}"
            for name, value in EXPECTED.get(workload, {}).items()
            if first[name] != value
        ]
        print(f"{workload}: {len(first)} counts compared", flush=True)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["paving_n4", "graded_checks", "classify_census"]))
