"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact arithmetic, so every tolerance is equality.
"""

import csv
import io
import time

from enhcone.combinatorics import bipartition, bipartitions, flag_shape, is_distinguished
from enhcone.gflinalg import SubspaceGF, enumerate_subspaces
from enhcone.normalform import (
    classify_pair,
    decomposition_failures,
    explicit_decomposition,
    normal_pair,
)
from enhcone.fibers import (
    FiberQuery,
    closure_pairs,
    count_fiber,
    count_fiber_memo,
    interpolate_qpoly,
)
from enhcone.checks import (
    check_alpha_partition,
    check_distinguished_lemma,
    check_kernel_recursion,
    check_polynomial_count,
    check_semismall,
    check_split_product,
)
from enhcone.cli import main as cli_main
from oracles import centralizer_module_span, gaussian_binomial, nonneg_part


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_paving_certificates():
    """Fiber polynomials for every closure pair with n <= 4, assembled in
    Z[q] from validated transition rows: nonnegative integer coefficients,
    degree within the fiber dimension bound, and an exact match with the
    brute-force count over GF(2)."""
    started = time.perf_counter()
    failures = []
    total = 0
    for n in range(5):
        for big, small in closure_pairs(n):
            total += 1
            report = check_polynomial_count(big, small)
            if not report.passed:
                failures.append((str(big), str(small), report.witness))
    elapsed = time.perf_counter() - started
    _verdict(
        "criterion 1: paving certificates",
        not failures,
        f"{total} closure pairs in {elapsed:.1f}s" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_2_birationality():
    """Fiber over the resolution's own orbit point is a single flag."""
    bad = []
    for n in range(5):
        for b in bipartitions(n):
            for p in (2, 3):
                if count_fiber_memo(FiberQuery.over_orbit(b, b, p)) != 1:
                    bad.append((str(b), p))
    _verdict("criterion 2: birationality", not bad, f"n <= 4, p in (2,3)" + (f"; bad: {bad}" if bad else ""))


def test_criterion_3_springer_benchmarks():
    """Exact flag-count benchmarks over the zero and subregular pairs."""
    checks = []
    big2, small2 = bipartition((), (2,)), bipartition((), (1, 1))
    counts2 = {p: count_fiber(FiberQuery.over_orbit(small2, big2, p)) for p in (2, 3)}
    checks.append(counts2[2] == 3)
    checks.append(str(interpolate_qpoly(counts2, 1)) == "q+1")

    big3 = bipartition((), (3,))
    zero3 = bipartition((), (1, 1, 1))
    counts3 = {
        p: count_fiber(FiberQuery.over_orbit(zero3, big3, p)) for p in (2, 3, 5, 7)
    }
    checks.append(counts3[2] == 21 and counts3[3] == 52)
    checks.append(str(interpolate_qpoly(counts3, 3)) == "q^3+2q^2+2q+1")

    subreg = bipartition((), (2, 1))
    counts_s = {
        p: count_fiber(FiberQuery.over_orbit(subreg, big3, p)) for p in (2, 3, 5, 7)
    }
    checks.append(counts_s[2] == 5 and counts_s[3] == 7)
    checks.append(str(interpolate_qpoly(counts_s, 3)) == "2q+1")
    _verdict("criterion 3: springer benchmarks", all(checks), f"{checks}")


def test_criterion_4_distinguished_lemma():
    """Brute-force splitting existence agrees with the predicate over
    GF(2) for n <= 7 and over GF(3) for n <= 6; explicit constructions
    verify for n <= 6."""
    bad = []
    for p, top in ((2, 7), (3, 6)):
        for n in range(top + 1):
            for b in bipartitions(n):
                report = check_distinguished_lemma(b, p)
                if not report.passed:
                    bad.append((str(b), p, report.verdict))
    constructions = 0
    for n in range(7):
        for b in bipartitions(n):
            if is_distinguished(b):
                continue
            constructions += 1
            np_ = normal_pair(b, 2)
            dec = explicit_decomposition(np_)
            if decomposition_failures(np_.pair, dec) or min(dec.v1.dim, dec.v2.dim) < 1:
                bad.append((str(b), "explicit construction invalid"))
    _verdict(
        "criterion 4: distinguished lemma",
        not bad,
        f"search n <= 7 at p=2, n <= 6 at p=3; {constructions} constructions n <= 6" + (f"; bad: {bad}" if bad else ""),
    )


def test_criterion_5_classification_roundtrip():
    """classify(normal pair) is the identity and the nonnegative weight part
    equals the centralizer module, for n <= 6, p in (2, 3)."""
    bad = []
    for n in range(7):
        for b in bipartitions(n):
            for p in (2, 3):
                np_ = normal_pair(b, p)
                if classify_pair(np_.v, np_.x) != b:
                    bad.append(("classify", str(b), p))
                if nonneg_part(np_) != centralizer_module_span(np_.v, np_.x):
                    bad.append(("nonneg", str(b), p))
    _verdict("criterion 5: classification roundtrip", not bad, f"n <= 6, p in (2,3)" + (f"; bad: {bad[:3]}" if bad else ""))


def test_criterion_6_semismallness():
    """2 deg(fiber poly) <= codim of every stratum, n <= 8."""
    bad = []
    for n in range(9):
        for b in bipartitions(n):
            report = check_semismall(b)
            if not report.passed:
                bad.append(str(b))
    _verdict("criterion 6: semismallness", not bad, "n <= 8" + (f"; bad: {bad}" if bad else ""))


def test_criterion_7_structure_recursions():
    """Orbit-profile partition sums and the cell shape of each piece, an
    affine bundle of one rank over its lambda-fixed part at p = 2 and 3
    (n <= 3), and the splitting/kernel recursions."""
    bad = []
    for n in range(4):
        for big, small in closure_pairs(n):
            rep = check_alpha_partition(big, small)
            if not rep.passed:
                bad.append(("alpha", str(big), str(small)))
            elif rep.inputs["primes"] != [2, 3]:
                bad.append(("alpha primes", str(big), str(small)))
            for p in (2, 3):
                if not is_distinguished(small):
                    if not check_split_product(small, big, p).passed:
                        bad.append(("split", str(big), str(small), p))
                elif small.first.length >= 1 and flag_shape(big).marker >= 1:
                    if not check_kernel_recursion(small, flag_shape(big), p).passed:
                        bad.append(("kernel", str(big), str(small), p))
    _verdict("criterion 7: structure recursions", not bad, "n <= 3" + (f"; bad: {bad[:3]}" if bad else ""))


def test_criterion_8_determinism_and_enumeration(capsys):
    """Subspace enumeration counts match Gaussian binomials, and the CLI
    emits identical results when a command is run twice."""
    bad = []
    for p in (2, 3):
        for m in range(6):
            amb = SubspaceGF.full(m, p)
            for d in range(m + 1):
                subs = list(enumerate_subspaces(amb, d))
                if len(subs) != gaussian_binomial(m, d, p) or len(set(subs)) != len(subs):
                    bad.append((m, d, p))

    def run(*args):
        code = cli_main(list(args))
        out = capsys.readouterr().out
        return code, out

    code1, out1 = run("check", "--n", "2")
    code2, out2 = run("check", "--n", "2")
    strip = lambda text: [row[:4] for row in csv.reader(io.StringIO(text))]
    if not (code1 == code2 == 0 and strip(out1) == strip(out2)):
        bad.append("check determinism")
    _, orbits1 = run("orbits", "--n", "4")
    _, orbits2 = run("orbits", "--n", "4")
    if orbits1 != orbits2:
        bad.append("orbits determinism")
    _verdict("criterion 8: determinism and enumeration sanity", not bad, str(bad) if bad else "m <= 5, p in (2,3); check and orbits run twice")
