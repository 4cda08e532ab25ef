"""Batch command-line front end: census tables, fiber polynomials,
verification suites and the closure order.

Commands emit CSV or JSON on stdout with a versioned schema field.
Only `check` takes a count file (`--cache`): it is loaded before the
suite runs and saved after it, emptied of every count when a check
failed, since a loaded count may be the cause.  Only the alpha check
reads it, for its fiber totals; no other check does.
Exit codes: 0 all requested checks pass, 1 a mathematical check failed
(a falsification witness is in the output), 2 usage or config error,
3 internal error (a library invariant failed; never caused by the input).
An internal error is reported on stderr, and with --format json also as
one JSON object on stdout: {"schema": ..., "error": {"exit_code": 3,
"type": ..., "message": ...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .combinatorics import (
    bipartitions,
    diagram,
    flag_shape,
    format_bipartition,
    is_distinguished,
    parse_bipartition,
)
from .gflinalg import is_prime
from .fibers import closure_contains, fiber_cache, orbit_dimension
from .checks import (
    CHECK_NAMES,
    DEFAULT_BUDGET,
    _bp_json,
    check_polynomial_count,
    suite_instances,
)

SCHEMA = "enhcone/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class ConfigError(Exception):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _validated_primes(primes: tuple[int, ...]) -> None:
    if not primes:
        raise ConfigError("empty prime schedule")
    if len(set(primes)) != len(primes):
        raise ConfigError(f"prime schedule has duplicates: {primes}")
    bad = [p for p in primes if not is_prime(p)]
    if bad:
        raise ConfigError(f"schedule entries are not prime: {bad}")


def _emit_csv(columns: list[str], rows: list[dict], out) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])


def _emit(fmt: str, payload: dict, columns: list[str], rows: list[dict], out) -> None:
    if fmt == "json":
        # json.dumps runs the C encoder; json.dump to a stream never does
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit_csv(columns, rows, out)


def _witness_digest(witness: dict) -> str:
    """The first 12 hex digits of the SHA-256 of the witness's canonical
    JSON.  hashlib is imported here, not at module level: it loads
    OpenSSL's libcrypto, about 3.6 MiB of resident memory, and only the
    CSV rows of `check` read a digest."""
    import hashlib

    blob = json.dumps(witness, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# subcommands


def cmd_orbits(args, out) -> int:
    if args.mu is not None or args.nu is not None:
        mu = _parse_int_list(args.mu or "")
        nu = _parse_int_list(args.nu or "")
        from .combinatorics import bipartition

        try:
            selected = [bipartition(mu, nu)]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if args.n is not None and selected[0].n != args.n:
            raise ConfigError(
                f"--mu/--nu has total size {selected[0].n}, but --n is {args.n}"
            )
    else:
        if args.n is None or args.n < 0:
            raise ConfigError("orbits needs --n >= 0 or --mu/--nu")
        selected = list(bipartitions(args.n))
    rows = []
    json_rows = []
    for b in selected:
        shape = flag_shape(b)
        row = {
            "schema": SCHEMA,
            "bipartition": format_bipartition(b),
            "column_heights": ",".join(map(str, diagram(b).column_heights)),
            "flag_dims": ",".join(map(str, shape.dims)),
            "marker": shape.marker,
            "orbit_dim": orbit_dimension(b),
            "distinguished": int(is_distinguished(b)),
        }
        rows.append(row)
        json_rows.append(
            {
                "mu": list(b.first.parts),
                "nu": list(b.second.parts),
                "column_heights": list(diagram(b).column_heights),
                "flag_dims": list(shape.dims),
                "marker": shape.marker,
                "orbit_dim": row["orbit_dim"],
                "distinguished": bool(row["distinguished"]),
            }
        )
    payload = {"schema": SCHEMA, "command": "orbits", "rows": json_rows}
    columns = [
        "schema",
        "bipartition",
        "column_heights",
        "flag_dims",
        "marker",
        "orbit_dim",
        "distinguished",
    ]
    _emit(args.format, payload, columns, rows, out)
    return EXIT_OK


def _parsed_bipartition(text: str):
    try:
        return parse_bipartition(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_fiber_poly(args, out) -> int:
    big = _parsed_bipartition(args.big)
    small = _parsed_bipartition(args.small)
    if big.n != small.n:
        raise ConfigError(
            f"|big| = {big.n} and |small| = {small.n} must be equal"
        )
    report = check_polynomial_count(big, small)
    witness = report.witness
    counts = witness["counts"]
    display = witness.get("display", "")
    payload = {
        "schema": SCHEMA,
        "command": "fiber-poly",
        "inputs": report.inputs,
        "counts": {str(p): c for p, c in sorted(counts.items())},
        "polynomial": witness.get("polynomial", []),
        "display": display,
        "verdict": report.verdict,
        "witnesses": list(report.notes),
    }
    rows = [
        {
            "schema": SCHEMA,
            "big": format_bipartition(big),
            "small": format_bipartition(small),
            "counts": ";".join(f"{p}:{c}" for p, c in sorted(counts.items())),
            "polynomial": display,
            "verdict": report.verdict,
            "notes": "; ".join(report.notes),
        }
    ]
    columns = ["schema", "big", "small", "counts", "polynomial", "verdict", "notes"]
    _emit(args.format, payload, columns, rows, out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_check(args, out) -> int:
    checks = tuple(args.checks.split(",")) if args.checks is not None else CHECK_NAMES
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ConfigError(
            f"unknown checks {sorted(unknown)}; available: {','.join(CHECK_NAMES)}"
        )
    if args.n is None or args.n < 0:
        raise ConfigError("check needs --n >= 0")
    if args.budget < 1:
        raise ConfigError(f"--budget must be at least 1, got {args.budget}")
    if args.cache == "":
        raise ConfigError("--cache needs a file name")
    recursion_primes = _parse_int_list(args.primes) if args.primes is not None else (2,)
    _validated_primes(recursion_primes)
    instances = suite_instances(
        args.n, checks, budget=args.budget, recursion_primes=recursion_primes
    )
    if args.cache is not None and os.path.exists(args.cache):
        try:
            fiber_cache().load(args.cache)
        except (ValueError, OSError) as exc:
            print(f"warning: ignoring cache {args.cache}: {exc}", file=sys.stderr)
    reports = [thunk() for _, thunk in instances]
    n_fail = sum(r.verdict == "fail" for r in reports)
    n_budget = sum(r.verdict == "budget-exceeded" for r in reports)
    rows = []
    if args.format == "csv":  # a digest costs a json.dumps and a SHA-256 per report
        rows = [
            {
                "schema": SCHEMA,
                "check": report.name,
                "inputs": json.dumps(desc, sort_keys=True),
                "verdict": report.verdict,
                "witness_digest": _witness_digest(report.witness),
                "millis": f"{report.millis:.3f}",
            }
            for (desc, _), report in zip(instances, reports)
        ]
    payload = {
        "schema": SCHEMA,
        "command": "check",
        "summary": {
            "total": len(reports),
            "passed": sum(1 for r in reports if r.passed),
            "failed": n_fail,
            "budget_exceeded": n_budget,
        },
        "reports": [r.to_json_dict() for r in reports],
    }
    columns = ["schema", "check", "inputs", "verdict", "witness_digest", "millis"]
    _emit(args.format, payload, columns, rows, out)
    if args.cache is not None:
        if n_fail:
            fiber_cache().clear()
            print(
                f"warning: cleared cache {args.cache}: a check failed, "
                "and a loaded count may be the cause",
                file=sys.stderr,
            )
        try:
            os.makedirs(os.path.dirname(args.cache) or ".", exist_ok=True)
            fiber_cache().save(args.cache)
        except OSError as exc:
            print(f"warning: could not save cache {args.cache}: {exc}", file=sys.stderr)
    if n_fail or n_budget:
        print(
            f"check: {n_fail} failed, {n_budget} exceeded budget (of {len(reports)})",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_closure_order(args, out) -> int:
    if args.n is None or args.n < 0:
        raise ConfigError("closure-order needs --n >= 0")
    bs = bipartitions(args.n)
    below: dict = {
        big: {small for small in bs if small != big and closure_contains(big, small)}
        for big in bs
    }
    rows = []
    json_edges = []
    for big in bs:
        for small in sorted(below[big], key=lambda b: (b.first.parts, b.second.parts)):
            # transitive reduction: keep only covering relations
            if any(small in below[mid] for mid in below[big] if mid != small):
                continue
            rows.append(
                {
                    "schema": SCHEMA,
                    "big": format_bipartition(big),
                    "small": format_bipartition(small),
                }
            )
            json_edges.append({"big": _bp_json(big), "small": _bp_json(small)})
    payload = {"schema": SCHEMA, "command": "closure-order", "edges": json_edges}
    _emit(args.format, payload, ["schema", "big", "small"], rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enhcone",
        description="Orbit census, fiber point-count polynomials and paving "
        "verifications for the enhanced nilpotent cone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--n": dict(type=int, default=None, help="total size n"),
        "--format": dict(choices=("csv", "json"), default="csv"),
    }

    def common(sp, *names):
        for name in names:
            sp.add_argument(name, **flags[name])

    sp = sub.add_parser("orbits", help="one row per bipartition of n")
    common(sp, "--n", "--format")
    sp.add_argument("--mu", type=str, default=None, help="single bipartition: mu parts")
    sp.add_argument("--nu", type=str, default=None, help="single bipartition: nu parts")
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("fiber-poly", help="certified fiber point-count polynomial")
    common(sp, "--format")
    sp.add_argument("--big", type=str, required=True, help='resolution, e.g. "mu=3,1,1;nu=3,2"')
    sp.add_argument("--small", type=str, required=True, help='orbit point, e.g. "mu=;nu=1,1"')
    sp.set_defaults(func=cmd_fiber_poly)

    sp = sub.add_parser("check", help="run verification suites over sizes 0..n")
    common(sp, "--n", "--format")
    sp.add_argument("--primes", type=str, default=None, help="primes for the recursion checks")
    sp.add_argument("--cache", type=str, default=None, help="fiber-count cache file")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search budget (nodes)")
    sp.add_argument(
        "--checks",
        type=str,
        default=None,
        help=f"comma-separated subset of {','.join(CHECK_NAMES)}",
    )
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("closure-order", help="covering edges of the closure order")
    common(sp, "--n", "--format")
    sp.set_defaults(func=cmd_closure_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # KeyboardInterrupt and SystemExit pass through
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.format == "json":
            error = {"exit_code": EXIT_INTERNAL, "type": type(exc).__name__, "message": str(exc)}
            _emit("json", {"schema": SCHEMA, "error": error}, [], [], sys.stdout)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
