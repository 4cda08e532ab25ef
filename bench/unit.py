"""One unit of a benchmark workload, in a fresh interpreter.

usage: python3 bench/unit.py WORKLOAD SEED MODE SPAWN_NS

MODE is `setup` (generate the inputs and stop), `run` (then run every
item) or `trace` (run every item with the layer tracer installed).
SPAWN_NS is the parent's time.monotonic_ns() just before it started this
interpreter, so raw_setup_s covers interpreter start, `import enhcone`
and input generation, up to the first item.  `run` and `trace` units
report their wall time both raw and in reference seconds
(bench/speed.py); in a traced unit the speed probes run inside whichever
span is open.  Prints one JSON line.

Every unit starts with empty module-level memo tables (`fiber_cache()`,
`_classify_cache`, the lru caches), which is why each one is a process
of its own.  An item that raises or returns a wrong result counts as
failed; it does not stop the unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"

import enhcone  # noqa: E402  -- found through PYTHONPATH=<checkout>/src
from enhcone import checks, cli, fibers, normalform  # noqa: E402
from enhcone.combinatorics import bipartitions, format_bipartition  # noqa: E402
from enhcone.gflinalg import MatrixGF  # noqa: E402

import spans  # noqa: E402  -- bench/spans.py, next to this file
import speed  # noqa: E402


def _item_failed(what: str) -> None:
    print(f"item failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class PavingN4:
    """closure_pairs(n) for n = 0..4, then check_polynomial_count on every
    pair; each certificate must pass with the stored fiber polynomial."""

    N = 4

    def __init__(self, seed: int):
        table = json.loads((DATA / "paving_n4.json").read_text())
        self.expected = {(row["big"], row["small"]): row["polynomial"] for row in table}
        self.params = {"n": f"0..{self.N}", "pairs": len(self.expected)}

    def run(self) -> tuple[int, int]:
        seen = set()
        failed = 0
        for n in range(self.N + 1):
            try:
                pairs = fibers.closure_pairs(n)
            except Exception:
                _item_failed(f"closure_pairs({n})")
                continue
            for big, small in pairs:
                key = (format_bipartition(big), format_bipartition(small))
                seen.add(key)
                try:
                    report = checks.check_polynomial_count(big, small)
                    ok = report.passed and report.witness["polynomial"] == self.expected.get(key)
                except Exception:
                    _item_failed(f"check_polynomial_count{key}")
                    ok = False
                failed += not ok
        missing = len(self.expected.keys() - seen)
        return len(seen) + missing, failed + missing


class GradedChecks:
    """Two `check` commands through enhcone.cli.main sharing one fresh
    --cache file: the first writes it, the second reads and rewrites it."""

    COMMANDS = (
        (("check", "--n", "4", "--checks", "distinguished,split,kernel"), 265),
        (("check", "--n", "3", "--checks", "alpha,semismall"), 85),
    )

    def __init__(self, seed: int):
        self.params = {"commands": [" ".join(argv) for argv, _ in self.COMMANDS], "p": 2}

    def run(self) -> tuple[int, int]:
        attempted = failed = 0
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
            cache = str(Path(tmp) / "fiber-counts.jsonl")
            for argv, expected in self.COMMANDS:
                argv = list(argv) + ["--format", "json", "--cache", cache]
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        code = cli.main(argv)
                    summary = json.loads(out.getvalue())["summary"]
                except Exception:
                    _item_failed(" ".join(argv))
                    attempted += expected
                    failed += expected
                    continue
                total = summary["total"]
                bad = total - summary["passed"] + max(expected - total, 0)
                if code != 0 and bad == 0:
                    print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                    bad = 1
                attempted += max(total, expected)
                failed += bad
        return attempted, failed


class ClassifyCensus:
    """classify_pair on K random GL(n, P) conjugates of each normal pair
    with n <= N, then orbit_dimension of each bipartition."""

    N, P, K = 8, 3, 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        dims = json.loads((DATA / "orbit_dims.json").read_text())
        self.bipartitions = [b for n in range(self.N + 1) for b in bipartitions(n)]
        self.orbit_dims = [dims[format_bipartition(b)] for b in self.bipartitions]
        self.pairs = [
            (b, *self._conjugate(normalform.normal_pair(b, self.P), rng))
            for b in self.bipartitions
            for _ in range(self.K)
        ]
        self.params = {"n": f"0..{self.N}", "p": self.P, "k": self.K}

    def _conjugate(self, np_, rng: random.Random) -> tuple[tuple[int, ...], MatrixGF]:
        """(g v, g x g^-1) for g a product of 2 n^2 random elementary
        matrices, each applied together with its known inverse."""
        p, n = self.P, np_.n
        x = [list(row) for row in np_.x.rows]
        v = list(np_.v)
        for _ in range(2 * n * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:  # scale coordinate i by s
                s = rng.randrange(1, p)
                s_inv = pow(s, p - 2, p)
                x[i] = [a * s % p for a in x[i]]
                for row in x:
                    row[i] = row[i] * s_inv % p
                v[i] = v[i] * s % p
            else:  # add c times coordinate j to coordinate i
                c = rng.randrange(1, p)
                x[i] = [(a + c * b) % p for a, b in zip(x[i], x[j])]
                for row in x:
                    row[j] = (row[j] - c * row[i]) % p
                v[i] = (v[i] + c * v[j]) % p
        return tuple(v), MatrixGF(p, tuple(tuple(row) for row in x), n)

    def run(self) -> tuple[int, int]:
        failed = 0
        for b, v, x in self.pairs:
            try:
                ok = normalform.classify_pair(v, x) == b
            except Exception:
                _item_failed(f"classify_pair of a conjugate of {format_bipartition(b)}")
                ok = False
            failed += not ok
        for b, dim in zip(self.bipartitions, self.orbit_dims):
            try:
                ok = fibers.orbit_dimension(b) == dim
            except Exception:
                _item_failed(f"orbit_dimension({format_bipartition(b)})")
                ok = False
            failed += not ok
        return len(self.pairs) + len(self.bipartitions), failed


WORKLOADS = {
    "paving_n4": PavingN4,
    "graded_checks": GradedChecks,
    "classify_census": ClassifyCensus,
}


def main(argv: list[str]) -> int:
    workload, seed, mode, spawn_ns = argv[0], int(argv[1]), argv[2], int(argv[3])
    source = ROOT / "src" / "enhcone"
    if Path(enhcone.__file__).resolve().parent != source:
        raise RuntimeError(f"imported {enhcone.__file__}, expected the package in {source}")
    work = WORKLOADS[workload](seed)
    stats = fibers.fiber_cache().stats
    if any(stats.values()):
        raise RuntimeError(f"fiber cache not empty before the first item: {stats}")
    out = {
        "raw_setup_s": (time.monotonic_ns() - spawn_ns) / 1e9,
        "setup_probe_s": speed.probe(),
        "params": work.params,
    }
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    if mode != "setup":
        with speed.SampledTime() as timed:
            attempted, failed = work.run()
        out["wall_s"], out["raw_wall_s"] = timed.reference_s, timed.raw_s
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"], out["failed"] = attempted, failed
    if tracer is not None:
        out["trace"] = {
            "calls": dict(tracer.calls),
            "yielded": dict(tracer.yielded),
            "classify_distinct": len(tracer.classify_inputs),
            "loaded_entries": tracer.loaded_entries,
            "memo": fibers.fiber_cache().stats,
            "spans": tracer.edges(),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
