"""Named verifications of the finite-checkable paving consequences.

Each check runs an exact computation over small prime fields and returns
a CheckReport whose fail verdicts always carry a concrete counterexample
witness.  The checks falsify (or fail to falsify) statements that are
theorems over any field, so a fail on any tested instance signals an
implementation bug, never an acceptable tolerance.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .combinatorics import (
    Bipartition,
    FlagShape,
    bipartitions,
    flag_shape,
    format_bipartition,
    is_distinguished,
)
from .gflinalg import SubspaceGF, enumerate_subspaces, MatrixGF
from .normalform import (
    Decomposition,
    GradedPair,
    decomposition_failures,
    explicit_decomposition,
    graded_kernel_blocks,
    graded_quotient,
    normal_pair,
    restrict_pair,
    weight_blocks,
)
from .fibers import (
    FiberQuery,
    InterpolationError,
    QPolynomial,
    closure_contains,
    closure_pairs,
    count_fiber,
    count_fiber_memo,
    count_lambda_fixed,
    fiber_dimension_bound,
    fiber_polynomial,
    fiber_profiles,
    lambda_fixed_profiles,
    orbit_dimension,
)

DEFAULT_BUDGET = 10**7

PASS = "pass"
FAIL = "fail"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named verification."""

    name: str
    inputs: dict
    verdict: str
    witness: dict
    millis: float
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json_dict(self) -> dict:
        return {
            "check": self.name,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "witness": self.witness,
            "millis": round(self.millis, 3),
            "notes": list(self.notes),
        }


class BudgetExceeded(RuntimeError):
    def __init__(self, nodes: int, limit: int):
        super().__init__(f"search budget exhausted: {nodes} nodes > limit {limit}")
        self.nodes = nodes
        self.limit = limit


class SearchBudget:
    """Node counter for brute-force searches; never silently truncates."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.nodes = 0

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.limit:
            raise BudgetExceeded(self.nodes, self.limit)


def _bp_json(b: Bipartition) -> dict:
    return {"mu": list(b.first.parts), "nu": list(b.second.parts)}


def _report(name, inputs, verdict, witness, started, notes=()) -> CheckReport:
    millis = (time.perf_counter() - started) * 1000.0
    return CheckReport(name, inputs, verdict, witness, millis, tuple(notes))


# ---------------------------------------------------------------------------
# polynomial point counts


def check_polynomial_count(big: Bipartition, small: Bipartition) -> CheckReport:
    """Paving certificate: the fiber polynomial P in Z[q] must have
    nonnegative integer coefficients and degree at most
    fiber_dimension_bound, and P(2) must equal the brute-force count of
    the fiber over GF(2).

    P comes from fiber_polynomial, whose closed-form transition rows are
    each checked against their q-binomial sum as they are built; a row
    that fails it fails the certificate with a note.  The count at p = 2 is
    count_fiber, which classifies no pair and reads no transition row
    and no count table, so it shares no data with P.  Its walker
    memoizes on the exact GF(2) quotient pair, in a fresh memo for this
    one count, so it replays only counts it made itself.  A fail
    carries a note per violated condition."""
    started = time.perf_counter()
    p = 2  # the brute-force count enumerates the fewest flags over GF(2)
    inputs = {"big": _bp_json(big), "small": _bp_json(small), "check_prime": p}
    count = count_fiber(FiberQuery.over_orbit(small, big, p))
    witness: dict = {"counts": {p: count}}
    try:
        poly = fiber_polynomial(big, small)
    except InterpolationError as exc:
        witness["reason"] = str(exc)
        return _report("polynomial-count", inputs, FAIL, witness, started, [str(exc)])
    witness["polynomial"] = list(poly.coeffs)
    witness["display"] = str(poly)
    notes = []
    if poly.is_zero():
        notes.append("empty fiber: small's orbit is not in the resolved closure")
    faults = []
    if any(c < 0 for c in poly.coeffs):
        faults.append("negative coefficient: paving falsified")
    bound = fiber_dimension_bound(flag_shape(big))
    if poly.degree > bound:
        faults.append(f"degree {poly.degree} exceeds the fiber dimension bound {bound}")
    if poly.evaluate(p) != count:
        faults.append(f"p = {p}: the polynomial gives {poly.evaluate(p)}, brute force counts {count}")
    verdict = FAIL if faults else PASS
    return _report("polynomial-count", inputs, verdict, witness, started, notes + faults)


# ---------------------------------------------------------------------------
# alpha-partition by parabolic-orbit profiles


def check_alpha_partition(
    big: Bipartition, small: Bipartition, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """Partition the fiber by the orbit profile dim(W_i intersect V>=w) of
    the parabolic preserving the weight filtration.  Each piece must be a
    Bialynicki-Birula cell, an affine bundle of some rank d over its
    lambda-fixed part, and the pieces must sum to the total.  At p = 2
    and 3 the profile walker counts the pieces (fiber_profiles) and their
    lambda-fixed parts (lambda_fixed_profiles).  A piece passes when it
    and its part are nonempty at both primes, with piece = p^d * part for
    one d in [0, fiber_dimension_bound].  Nothing is interpolated.  The
    total is count_fiber_memo, so a transition row that fails its
    validation fails the check with a note.  The budget caps the nodes
    of both walkers over both primes."""
    started = time.perf_counter()
    primes = (2, 3)  # the cheapest walks that still pin d
    inputs = {"big": _bp_json(big), "small": _bp_json(small), "primes": list(primes)}
    counts: dict = {}  # p -> {profile: points of the piece}
    fixed: dict = {}  # p -> {profile: points of its lambda-fixed part}
    totals: dict = {}
    spent = SearchBudget(budget)
    try:
        for p in primes:
            q = FiberQuery.over_orbit(small, big, p)
            wts = q.weights
            filtrations = [
                SubspaceGF.coordinate([c for c, w in enumerate(wts) if w >= lvl], len(wts), p)
                for lvl in sorted(set(wts), reverse=True)
            ]
            counts[p] = fiber_profiles(q, filtrations, spent.spend)
            fixed[p] = lambda_fixed_profiles(q, filtrations, spent.spend)
            totals[p] = {"enumerated": sum(counts[p].values()), "counted": count_fiber_memo(q)}
    except BudgetExceeded as exc:
        witness = {"nodes": exc.nodes, "limit": exc.limit}
        return _report("alpha-partition", inputs, BUDGET_EXCEEDED, witness, started)
    except InterpolationError as exc:
        witness = {"reason": str(exc)}
        return _report("alpha-partition", inputs, FAIL, witness, started, [str(exc)])
    ok = all(total["enumerated"] == total["counted"] for total in totals.values())
    bound = fiber_dimension_bound(flag_shape(big))
    pieces = {}
    for profile in sorted(set().union(*counts.values(), *fixed.values())):
        piece = {
            "counts": {p: counts[p].get(profile, 0) for p in primes},
            "fixed": {p: fixed[p].get(profile, 0) for p in primes},
        }
        piece.update(_affine_rank(piece["counts"], piece["fixed"], bound))
        ok = ok and "reason" not in piece
        pieces["|".join(",".join(map(str, row)) for row in profile)] = piece
    witness = {"totals": totals, "pieces": pieces}
    return _report("alpha-partition", inputs, PASS if ok else FAIL, witness, started)


def _affine_rank(counts: dict, fixed: dict, bound: int) -> dict:
    """{"affine_rank": d} when counts[p] = p^d * fixed[p] > 0 at every prime
    p, for one d with 0 <= d <= bound; {"reason": why not} otherwise."""
    ranks = {
        p: next((d for d in range(bound + 1) if p**d * fixed[p] == count > 0), None)
        for p, count in counts.items()
    }
    if None in ranks.values() or len(set(ranks.values())) > 1:
        return {"reason": f"no d in [0, {bound}] has piece = p^d * fixed part at every p: {ranks}"}
    return {"affine_rank": ranks[min(ranks)]}


# ---------------------------------------------------------------------------
# distinguished pairs: brute-force splitting search


def _block_transport(pair: GradedPair, coords_from, coords_to) -> MatrixGF:
    rows = tuple(
        tuple(pair.x.rows[r][c] for c in coords_from) for r in coords_to
    )
    return MatrixGF(pair.p, rows, len(coords_from))


def search_decomposition(
    pair: GradedPair, budget: SearchBudget
) -> Decomposition | None:
    """Brute force over graded splittings: each weight space splits
    independently, so search per-block subspaces for V1 (with v's block
    component inside) and per-block complements for V2, both x-stable."""
    n, p = pair.n, pair.p
    if n == 0:
        return None
    blocks = weight_blocks(pair.weights)
    nblocks = len(blocks)
    weight_of = {w: i for i, (w, _) in enumerate(blocks)}
    transports = []
    for i, (w, coords) in enumerate(blocks):
        up = weight_of.get(w + 1)
        transports.append(
            (_block_transport(pair, coords, blocks[up][1]) if up is not None else None, up)
        )
    v_blocks = [tuple(pair.v[c] for c in coords) for _, coords in blocks]
    fulls = [SubspaceGF.full(len(coords), p) for _, coords in blocks]

    def stable(choice: list[SubspaceGF], i: int, sub: SubspaceGF) -> bool:
        transport, up = transports[i]
        if transport is None:
            return True
        target = choice[up]
        return all(target.contains(transport.matvec(row)) for row in sub.basis)

    def embed(choice: list[SubspaceGF]) -> SubspaceGF:
        vecs = []
        for (w, coords), sub in zip(blocks, choice):
            for brow in sub.basis:
                row = [0] * n
                for c, val in zip(coords, brow):
                    row[c] = val
                vecs.append(row)
        return SubspaceGF.span(vecs, n, p)

    def candidates(i: int) -> Iterator[SubspaceGF]:
        k = fulls[i].dim
        for d in range(k + 1):
            yield from enumerate_subspaces(fulls[i], d)

    # blocks are ordered heaviest first, so the x-image constraint on a
    # block refers to an already-chosen one
    def search_v1(i: int, choice: list[SubspaceGF]) -> Iterator[list[SubspaceGF]]:
        if i == nblocks:
            yield choice
            return
        for sub in candidates(i):
            budget.spend()
            if not sub.contains(v_blocks[i]):
                continue
            choice.append(sub)
            if stable(choice, i, sub):
                yield from search_v1(i + 1, choice)
            choice.pop()

    def search_v2(i: int, v1_choice: list[SubspaceGF], choice: list[SubspaceGF]):
        if i == nblocks:
            yield choice
            return
        s = v1_choice[i]
        k = fulls[i].dim
        for sub in candidates(i):
            budget.spend()
            if sub.dim != k - s.dim or sub.intersect(s).dim != 0:
                continue
            choice.append(sub)
            if stable(choice, i, sub):
                yield from search_v2(i + 1, v1_choice, choice)
            choice.pop()

    for v1_choice in search_v1(0, []):
        d1 = sum(s.dim for s in v1_choice)
        if d1 in (0, n):
            continue
        for v2_choice in search_v2(0, v1_choice, []):
            return Decomposition(embed(v1_choice), embed(v2_choice))
    return None


def check_distinguished_lemma(
    b: Bipartition, p: int, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """A nontrivial graded x-stable splitting with v in V1 exists over
    GF(p) exactly when the bipartition is not distinguished; for the
    non-distinguished ones the explicit construction must verify."""
    started = time.perf_counter()
    inputs = {"b": _bp_json(b), "p": p, "budget": budget}
    np_ = normal_pair(b, p)
    predicted = is_distinguished(b)
    try:
        found = search_decomposition(np_.pair, SearchBudget(budget))
    except BudgetExceeded as exc:
        witness = {"nodes": exc.nodes, "limit": exc.limit}
        return _report("distinguished-lemma", inputs, BUDGET_EXCEEDED, witness, started)
    witness: dict = {"predicted_distinguished": predicted, "splitting_found": found is not None}
    ok = (found is not None) == (not predicted)
    if found is not None:
        bad = decomposition_failures(np_.pair, found)
        witness["found"] = {
            "V1": [list(r) for r in found.v1.basis],
            "V2": [list(r) for r in found.v2.basis],
        }
        if bad:
            ok = False
            witness["search_result_invalid"] = bad
    if not predicted:
        dec = explicit_decomposition(np_)
        bad = decomposition_failures(np_.pair, dec)
        witness["explicit_construction"] = {
            "V1": [list(r) for r in dec.v1.basis],
            "V2": [list(r) for r in dec.v2.basis],
            "violations": bad,
        }
        if bad or dec.v1.dim == 0 or dec.v2.dim == 0:
            ok = False
    return _report(
        "distinguished-lemma", inputs, PASS if ok else FAIL, witness, started
    )


# ---------------------------------------------------------------------------
# product splitting along a decomposition


def _dedup_increasing(values: Sequence[int]) -> tuple[int, ...]:
    out = [0]
    for v in values:
        if v != out[-1]:
            out.append(v)
    return tuple(out)


def check_split_product(
    b: Bipartition, big: Bipartition, p: int, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """For a non-distinguished pair split as V1 (+) V2, the graded fiber
    flags that respect the splitting, bucketed by the profile
    dim(W_i intersect V1), must match products of the two factors'
    graded fiber counts with shapes read off the profile.  The profiles
    dim(W_i intersect V1), dim(W_i intersect V2) come from the profile
    walker lambda_fixed_profiles, and a flag respects the splitting
    when they sum to dim W_i.  Each distinct factor query is counted
    once per call.  The budget caps the walker nodes expanded."""
    started = time.perf_counter()
    if is_distinguished(b):
        raise ValueError(f"{b} is distinguished; the splitting step does not apply")
    if b.n != big.n:
        raise ValueError("bipartitions must have equal total size")
    inputs = {"b": _bp_json(b), "big": _bp_json(big), "p": p}
    np_ = normal_pair(b, p)
    dec = explicit_decomposition(np_)
    shape = flag_shape(big)
    j = shape.marker
    q = FiberQuery.of(np_, shape)
    try:
        hist = lambda_fixed_profiles(q, (dec.v1, dec.v2), SearchBudget(budget).spend)
    except BudgetExceeded as exc:
        witness = {"nodes": exc.nodes, "limit": exc.limit}
        return _report("split-product", inputs, BUDGET_EXCEEDED, witness, started)
    buckets: dict[tuple[int, ...], int] = {}
    split_total = 0
    for profile, count in hist.items():
        if any(a + bdim != d for (a, bdim), d in zip(profile, shape.dims[1:])):
            continue
        split_total += count
        dims1 = tuple(a for a, _ in profile)
        buckets[dims1] = buckets.get(dims1, 0) + count
    pair1 = restrict_pair(np_.pair, dec.v1)
    pair2 = restrict_pair(np_.pair, dec.v2)
    factor_counts: dict[FiberQuery, int] = {}

    def factor_count(fq: FiberQuery) -> int:
        # buckets repeat factor shapes; each distinct one is counted once
        if fq not in factor_counts:
            factor_counts[fq] = count_lambda_fixed(fq)
        return factor_counts[fq]

    notes = []
    profile_witness = {}
    ok = True
    product_total = 0
    for profile in sorted(buckets):
        rho1 = _dedup_increasing(profile)
        rho2 = _dedup_increasing(
            tuple(r - a for r, a in zip(shape.dims[1:], profile))
        )
        if j == 0:
            j1 = 0
        else:
            val = profile[j - 1]
            if val == 0:
                j1 = 0
                notes.append(
                    f"profile {profile}: dim(W_j ^ V1) = 0, using marker 0 by convention"
                )
            else:
                j1 = rho1.index(val)
        c1 = factor_count(FiberQuery(pair1.v, pair1.x, FlagShape(rho1, j1), pair1.weights))
        c2 = factor_count(FiberQuery(pair2.v, pair2.x, FlagShape(rho2, 0), pair2.weights))
        expected = c1 * c2
        product_total += expected
        good = buckets[profile] == expected
        ok = ok and good
        profile_witness[",".join(map(str, profile))] = {
            "flags": buckets[profile],
            "factor_v1": c1,
            "factor_v2": c2,
            "product": expected,
        }
    euler_ok = product_total == split_total
    witness = {
        "lambda_fixed_flags": sum(hist.values()),
        "split_flags": split_total,
        "profiles": profile_witness,
        "product_total": product_total,
    }
    verdict = PASS if (ok and euler_ok) else FAIL
    return _report("split-product", inputs, verdict, witness, started, notes)


# ---------------------------------------------------------------------------
# kernel-line recursion for distinguished pairs


def check_kernel_recursion(
    b: Bipartition, shape: FlagShape, p: int, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """For a distinguished pair with nonzero v-part, ker x must split into
    one-dimensional weight lines with distinct weights, and the graded
    fiber count must equal the sum over r_1-subsets of those lines of
    the graded count of the quotient pair with the reduced shape."""
    started = time.perf_counter()
    if not is_distinguished(b) or b.first.length == 0:
        raise ValueError(f"{b} is not a distinguished bipartition with nonzero v-part")
    if shape.marker == 0:
        raise ValueError(
            "marker 0 requires v = 0, which never holds here; the quotient "
            "recursion does not apply to the empty fiber"
        )
    inputs = {"b": _bp_json(b), "shape": list(shape.dims), "j": shape.marker, "p": p}
    np_ = normal_pair(b, p)
    pair = np_.pair
    blocks = graded_kernel_blocks(pair)
    mults = {w: piece.dim for w, _, piece in blocks if piece.dim > 0}
    if any(d > 1 for d in mults.values()):
        witness = {"kernel_weight_multiplicities": mults}
        return _report("kernel-recursion", inputs, FAIL, witness, started)
    lines = [(coords, piece) for _, coords, piece in blocks if piece.dim == 1]
    lhs = count_lambda_fixed(FiberQuery.of(np_, shape))
    r1 = shape.dims[1]
    rest = tuple(r - r1 for r in shape.dims[1:])
    jbar = shape.marker - 1
    terms = []
    spent = SearchBudget(budget)
    try:
        for subset in itertools.combinations(lines, r1):
            spent.spend()
            _, sub = graded_quotient(pair, subset)
            terms.append(
                count_lambda_fixed(
                    FiberQuery(sub.v, sub.x, FlagShape(rest, jbar), sub.weights)
                )
            )
    except BudgetExceeded as exc:
        witness = {"nodes": exc.nodes, "limit": exc.limit}
        return _report("kernel-recursion", inputs, BUDGET_EXCEEDED, witness, started)
    rhs = sum(terms)
    witness = {
        "kernel_weight_multiplicities": mults,
        "lhs": lhs,
        "rhs": rhs,
        "terms": terms,
    }
    return _report(
        "kernel-recursion", inputs, PASS if lhs == rhs else FAIL, witness, started
    )


# ---------------------------------------------------------------------------
# semismallness


def check_semismall(big: Bipartition) -> CheckReport:
    """Twice the fiber polynomial degree over each contained orbit must be
    at most the difference of orbit dimensions.  Each polynomial must pass
    check_polynomial_count; a stratum that fails it carries its notes."""
    return _semismall(big, check_polynomial_count)


def _semismall(
    big: Bipartition, certificate: Callable[[Bipartition, Bipartition], CheckReport]
) -> CheckReport:
    """check_semismall with certificate in place of check_polynomial_count,
    so that a suite can share its certificates."""
    started = time.perf_counter()
    inputs = {"big": _bp_json(big)}
    dim_big = orbit_dimension(big)
    strata = {}
    ok = True
    for small in bipartitions(big.n):
        if not closure_contains(big, small):
            continue
        cert = certificate(big, small)
        if not cert.passed:
            ok = False
            strata[format_bipartition(small)] = {"reason": "; ".join(cert.notes)}
            continue
        degree = QPolynomial(tuple(cert.witness["polynomial"])).degree
        dim_small = orbit_dimension(small)
        good = 2 * degree <= dim_big - dim_small
        ok = ok and good
        strata[format_bipartition(small)] = {
            "fiber_poly": cert.witness["display"],
            "2*deg": 2 * degree,
            "codim": dim_big - dim_small,
            "ok": good,
        }
    witness = {"orbit_dim": dim_big, "strata": strata}
    return _report("semismall", inputs, PASS if ok else FAIL, witness, started)


# ---------------------------------------------------------------------------
# suite assembly (used by the CLI and the acceptance tests)


CHECK_NAMES = (
    "polynomial",
    "alpha",
    "distinguished",
    "split",
    "kernel",
    "semismall",
)


def suite_instances(
    n: int,
    checks: Sequence[str] = CHECK_NAMES,
    budget: int = DEFAULT_BUDGET,
    recursion_primes: Sequence[int] = (2,),
) -> list[tuple[dict, Callable[[], CheckReport]]]:
    """All (description, thunk) pairs of the selected checks over every
    bipartition / closure pair of sizes 0..n, in deterministic order.
    The polynomial and semismall checks share one paving certificate per
    closure pair.  budget caps the nodes of each item: for alpha the
    candidates both profile walks expand at p = 2 and 3, for split those
    of its one walk but not its factor counts, for distinguished the
    candidates of the splitting search, for kernel only the r_1-subsets
    of kernel lines; polynomial and semismall count none."""
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    out: list[tuple[dict, Callable[[], CheckReport]]] = []
    certificate = functools.cache(check_polynomial_count)

    def add(desc: dict, thunk: Callable[[], CheckReport]) -> None:
        out.append((desc, thunk))

    for size in range(n + 1):
        pairs = closure_pairs(size)
        if "polynomial" in checks:
            for big, small in pairs:
                add(
                    {"check": "polynomial", "big": format_bipartition(big), "small": format_bipartition(small)},
                    lambda big=big, small=small: certificate(big, small),
                )
        if "alpha" in checks:
            for big, small in pairs:
                add(
                    {"check": "alpha", "big": format_bipartition(big), "small": format_bipartition(small)},
                    lambda big=big, small=small: check_alpha_partition(big, small, budget=budget),
                )
        if "distinguished" in checks:
            for b in bipartitions(size):
                for p in recursion_primes:
                    add(
                        {"check": "distinguished", "b": format_bipartition(b), "p": p},
                        lambda b=b, p=p: check_distinguished_lemma(b, p, budget),
                    )
        if "split" in checks:
            for big, small in pairs:
                if is_distinguished(small):
                    continue
                for p in recursion_primes:
                    add(
                        {"check": "split", "b": format_bipartition(small), "big": format_bipartition(big), "p": p},
                        lambda small=small, big=big, p=p: check_split_product(small, big, p, budget),
                    )
        if "kernel" in checks:
            for big, small in pairs:
                if not is_distinguished(small) or small.first.length == 0:
                    continue
                shape = flag_shape(big)
                if shape.marker == 0:
                    continue
                for p in recursion_primes:
                    add(
                        {"check": "kernel", "b": format_bipartition(small), "big": format_bipartition(big), "p": p},
                        lambda small=small, shape=shape, p=p: check_kernel_recursion(small, shape, p, budget),
                    )
        if "semismall" in checks:
            for big in bipartitions(size):
                add(
                    {"check": "semismall", "big": format_bipartition(big)},
                    lambda big=big: _semismall(big, certificate),
                )
    return out
