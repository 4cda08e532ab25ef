"""Regenerate the expected results the benchmark checks against.

usage: PYTHONPATH=src python3 bench/make_tables.py

data/paving_n4.json: the fiber polynomial of every closure pair with
n <= 4, taken from certificates that passed (nonnegative coefficients,
held-out prime predicted exactly).

data/orbit_dims.json: the orbit dimension of every bipartition with
n <= 8 from the closed form n^2 - 2 n(mu + nu) - |nu|, where
n(lambda) = sum (i - 1) lambda_i (Achar-Henderson, Orbit closures in the
enhanced nilpotent cone, Adv. Math. 219 (2008)).  The script refuses to
write it unless enhcone.orbit_dimension agrees on every entry.
"""

from __future__ import annotations

import json
from pathlib import Path

from enhcone import bipartitions, closure_pairs, format_bipartition, orbit_dimension
from enhcone.checks import check_polynomial_count

DATA = Path(__file__).resolve().parent / "data"


def closed_form_orbit_dimension(b) -> int:
    mu, nu = b.first.parts, b.second.parts
    rows = [b.first.part(i) + b.second.part(i) for i in range(1, max(len(mu), len(nu)) + 1)]
    return b.n * b.n - 2 * sum(i * r for i, r in enumerate(rows)) - sum(nu)


def paving_table() -> list[dict]:
    rows = []
    for n in range(5):
        for big, small in closure_pairs(n):
            report = check_polynomial_count(big, small)
            if not report.passed:
                raise SystemExit(f"certificate failed for {big} over {small}: {report.witness}")
            rows.append(
                {
                    "big": format_bipartition(big),
                    "small": format_bipartition(small),
                    "polynomial": report.witness["polynomial"],
                }
            )
    return rows


def orbit_dims_table() -> dict[str, int]:
    table = {}
    for n in range(9):
        for b in bipartitions(n):
            dim = closed_form_orbit_dimension(b)
            if orbit_dimension(b) != dim:
                raise SystemExit(f"orbit_dimension({b}) = {orbit_dimension(b)}, closed form {dim}")
            table[format_bipartition(b)] = dim
    return table


def main() -> None:
    DATA.mkdir(exist_ok=True)
    (DATA / "orbit_dims.json").write_text(json.dumps(orbit_dims_table(), indent=0) + "\n")
    (DATA / "paving_n4.json").write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in paving_table()) + "\n]\n"
    )


if __name__ == "__main__":
    main()
