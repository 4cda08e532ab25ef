"""The enhcone benchmark: one workload, measured for a fixed time.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
src/.  Each unit of work runs in a fresh interpreter (bench/unit.py), so
the module-level memo tables start empty; units repeat, single-threaded
and one after another, until the next one would end after --seconds.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the
median over units of wall_s and peak_rss_mib, and the median setup_s
over at least five interpreter starts.  wall_s and setup_s are in
reference seconds, rescaled by the host speed measured while they ran
(bench/speed.py); the raw wall-clock times are on the `run` line.
--trace 1 spends half the time on untraced units, then runs one unit
with every layer traced (bench/spans.py) and reports the per-layer
metrics.  Either way the last
line of stdout is one JSON object with correct, attempted, failed and
metrics; the lines before it record the run's parameters and, when
traced, the aggregated spans.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paving_n4", "graded_checks", "classify_census")
SETUP_SAMPLES = 5
UNIT_TIMEOUT_S = 170


class UnitError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one unit in a fresh interpreter and return its JSON record."""
    env = dict(os.environ)
    env.pop("ENHCONE_CACHE_DIR", None)  # the CLI would read a user's cache from it
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    parent_probe_s = speed.probe()
    started = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "unit.py"), workload, str(seed), mode, str(started)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=UNIT_TIMEOUT_S,
    )
    elapsed = (time.monotonic_ns() - started) / 1e9
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise UnitError(f"{mode} unit of {workload} exited {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["elapsed_s"] = elapsed
    record["setup_s"] = speed.rescale(
        record["raw_setup_s"], (parent_probe_s + record["setup_probe_s"]) / 2
    )
    return record


def run_units(workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced units until the next one would end after `seconds`; at least one."""
    deadline = time.monotonic() + seconds
    units = [spawn(workload, seed, "run")]
    while time.monotonic() + statistics.median(u["elapsed_s"] for u in units) <= deadline:
        units.append(spawn(workload, seed, "run"))
    return units


def layer_metrics(names: list[str], trace: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer values by name: `<label>.calls`, `.yielded` and `.self_s`
    for any traced label, plus the derived metrics below."""
    calls, yielded, memo = trace["calls"], trace["yielded"], trace["memo"]
    self_s: dict[str, float] = {}
    for edge in trace["spans"]:
        self_s[edge["name"]] = self_s.get(edge["name"], 0.0) + edge["self_s"]
    lookups = memo["hits"] + memo["misses"]
    derived = {
        "normalform.classify_pair.distinct_ratio": trace["classify_distinct"]
        / max(calls.get("normalform.classify_pair", 0), 1),
        "fibers.memo.hits": memo["hits"],
        "fibers.memo.misses": memo["misses"],
        "fibers.memo.entries": memo["entries"],
        "fibers.memo.hit_ratio": memo["hits"] / max(lookups, 1),
        "fibers.subspaces_per_memo_miss": yielded.get("gflinalg.enumerate_subspaces", 0)
        / max(memo["misses"], 1),
        "fibers.FiberCache.load.entries": trace["loaded_entries"],
        "combinatorics.self_s": sum(
            s for label, s in self_s.items() if label.startswith("combinatorics.")
        ),
        "trace.overhead_s": overhead_s,
    }
    kinds = {"calls": calls, "yielded": yielded, "self_s": self_s}
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        label, _, kind = name.rpartition(".")
        if label not in spans.labels() or kind not in kinds:
            raise ValueError(f"per-layer metric {name} names no traced function")
        out[name] = kinds[kind].get(label, 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "enhcone" / "__init__.py").is_file():
        print(f"bench: no enhcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        if args.trace:
            units = run_units(args.workload, args.seed, args.seconds / 2)
            traced = spawn(args.workload, args.seed, "trace")
        else:
            units = run_units(args.workload, args.seed, args.seconds)
            setups = list(units)
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args.workload, args.seed, "setup"))
    except (UnitError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    done = units + ([traced] if args.trace else [])
    attempted = sum(u["attempted"] for u in done)
    failed = sum(u["failed"] for u in done)
    raw_wall_s = statistics.median(u["raw_wall_s"] for u in units)
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "params": units[0]["params"],
        "items_per_unit": units[0]["attempted"],
        "units": len(done),
        "raw_wall_s_per_unit": [u["raw_wall_s"] for u in units],
        "raw_wall_s": raw_wall_s,
        "failed_frac": failed / attempted,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        overhead_s = traced["wall_s"] - statistics.median(u["wall_s"] for u in units)
        metrics = layer_metrics([m["name"] for m in spec["per_layer"]], traced["trace"], overhead_s)
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(json.dumps({"spans": traced["trace"]["spans"]}))
    else:
        metrics = {
            "wall_s": statistics.median(u["wall_s"] for u in units),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mib": statistics.median(u["peak_rss_mib"] for u in units),
        }
        units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if metrics.keys() != units_of.keys():
            raise ValueError(f"BENCHMARK.json end_to_end names {sorted(units_of)}")
        run["raw_setup_s_samples"] = [s["raw_setup_s"] for s in setups]
    print(json.dumps({"run": run}))
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units_of[name]}")
    print(f"  {'failed_frac':45s} {failed / attempted:14.6g} ({failed} of {attempted} items)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
