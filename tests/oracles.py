"""Slow, independent implementations kept only to cross-check the library.

classify_by_centralizer reads the orbit of (v, x) off the centralizer
module W = span of y.v over all y commuting with x: the first partition
is the Jordan type of x on W, the second that of the map induced on
V / W.  stabilizer_orbit_dimension is n^2 minus the dimension of the
solution space of y.v = 0, yx = xy at the normal pair, with ranks taken
over two large primes that must agree.  count_by_transitions counts a
fiber by the numeric recursion over orbits, through the enumerated
transition rows, and shares no table with fiber_polynomial.
transitions enumerates those numeric rows T[(b, r1, p)], and hall_row,
x_zero_row and interpolated_row are the symbolic rows fiber polynomials
were assembled from before the closed form of fibers._transition_row:
Macdonald's Hall polynomial for v = 0, two q-binomials for x = 0, and
per-entry interpolation of transitions at primes otherwise.
walk_count counts fiber flags by the first-step recursion of
fibers._profiles, with no memo and no fixed subspaces, and walk_flags
lists them, lifted to the ambient space.  unmemoized_fiber_count and
unmemoized_lambda_fixed_count run walk_count on kernel_step and on
graded_step, two steps as generators that build every candidate
afresh and share no table with the walker.  kernel_step
quotients by every subspace of ker x with its own kernel, quotient_map,
apply and push_matrix and no graded code; its pairs carry the zero
grading (zero_graded) only so that they compare with the walker's.
graded_flag_count counts the flags of the kernel_step walk whose
subspaces all pass graded_by_intersections, for any weights.
closure_by_count decides the closure order by
whether a fiber is nonempty over GF(p), by that count, and
closure_by_parts by the inequalities of fibers.closure_contains, read
part by part as the library read them before a Bipartition stored its
row lengths.  nonneg_part
is the closed form the centralizer module takes at a normal pair, and
orbit_map_tangent_surjective is the tangent-space shadow of the
dense-orbit statement.  prime_schedule and held_out_prime are the
fiber-level sampling policy that fiber polynomials came from before
the symbolic transition table: interpolate the counts at the first
fiber_dimension_bound + 1 primes, which primes_first lists, and
validate at the next prime, which next_prime_after finds.
gaussian_binomial is the product formula for [m choose d]_q at an
integer q, which the number of d-subspaces of GF(q)^m and
fibers.q_binomial are checked against.  flag_histogram buckets
enumerated flags by flag_profile, the dimensions of their
intersections with fixed subspaces in the ambient space: the
histogram that the profile walker fibers._profiles computes without
listing a flag.  The GF(p) kernels
of the walkers before they moved only quotient coordinates are here as
well: reduce_mod and reduce_apply reduce a full-length vector by the
rows of a QuotientMap one after another, push_matrix_by_columns pushes
x column by column through them, rref_patterns and
enumerate_subspaces_by_patterns multiply every RREF coefficient pattern
by the ambient basis, and jordan_type_by_powers reads the ranks of the
matrix powers x^k.  graded_by_intersections is the grading test that
decomposition_failures made before it read the grading off the RREF
basis: the per-weight intersections of a graded subspace add up to its
dimension.  restrict_pair is how the split check built its factors
before it took them as quotients: the pair that x and v induce on an
x-stable graded subspace, in a basis of those intersections.
classify_by_image_chain is how classify_pair read its two rank
sequences before it walked plain rows: it spans each x^(k+1) V as a
SubspaceGF of x applied to the basis of x^k V, starting from the
identity, and re-spans x^k V together with the Krylov vectors at every
level.  It takes the rank on V / F[x]v as dim(x^k V + F[x]v) -
dim F[x]v and so shares nothing with the rule classify_pair reads it
by now, dim x^k V - (m - j_k) for j_k the least j with x^j v in x^k V.
It reads each Jordan type by type_of_ranks, the transpose of the rank
drops, and the orbit by orbit_of_types, from the last row up, so it
shares neither step with classify_pair either.
least_packed_width recomputes the narrowest field that
gflinalg._packed_layout's Barrett proof allows, before the layout rounds
it up to 16, 32 or 64 bits, and width_boundary finds the primes on
either side of one of those widths: the layouts where the rounding and
the switch to the shift loop happen.
dense_add, dense_sub and dense_mul are q-polynomial arithmetic on
plain coefficient lists, index by index, with no trimming: the oracle
that QPolynomial's +, - and * are checked against.  rref, the reduced
row echelon form of a matrix, and contains_subspace, whether one
subspace lies in another, left the library when nothing in it read
them; the tests invert matrices and check enumerations with them.
matmul and invert, the product and the inverse of matrices, left it
for the same reason; the tests conjugate pairs with them.  So did
transpose, the conjugate partition, which type_of_ranks and hall_row
read.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Iterator, Sequence

from enhcone.combinatorics import Bipartition, Partition
from enhcone.fibers import (
    ONE,
    ZERO,
    FiberQuery,
    InterpolationError,
    interpolate_qpoly,
    q_binomial,
    q_power,
)
from enhcone.gflinalg import (
    MatrixGF,
    QuotientMap,
    SubspaceGF,
    _matrix,
    _rref_rows,
    enumerate_subspaces,
    is_prime,
    kernel,
    quotient_map,
    rank,
)
from enhcone.normalform import (
    GradedPair,
    NormalPair,
    centralizer_basis,
    classify_pair,
    enumerate_graded_subspaces,
    graded_kernel_blocks,
    graded_quotient,
    normal_pair,
    weight_blocks,
)


EMPTY = Partition(())


def transpose(p: Partition) -> Partition:
    """Conjugate partition: column counts of the Young diagram.

    >>> transpose(Partition((3, 2))).parts
    (2, 2, 1)
    >>> transpose(Partition((3, 1, 1))).parts
    (3, 1, 1)
    """
    if not p.parts:
        return EMPTY
    cols = [0] * p.parts[0]
    for a in p.parts:
        for c in range(a):
            cols[c] += 1
    return Partition(tuple(cols))


def centralizer_module_span(v: Sequence[int], x: MatrixGF) -> SubspaceGF:
    """The subspace spanned by y.v over a centralizer basis y of x."""
    vecs = [m.matvec(v) for m in centralizer_basis(x)]
    return SubspaceGF.span(vecs, x.nrows, x.p)


def restriction_matrix(x: MatrixGF, w: SubspaceGF) -> MatrixGF:
    """Matrix of x restricted to the x-stable subspace w, in its RREF basis."""
    cols = []
    for row in w.basis:
        img = x.matvec(row)
        if not w.contains(img):
            raise ValueError("subspace is not stable under x")
        cols.append(tuple(img[c] for c in w.pivots))
    rows = tuple(tuple(col[i] for col in cols) for i in range(w.dim))
    return MatrixGF(x.p, rows, w.dim)


def classify_by_centralizer(v: Sequence[int], x: MatrixGF) -> Bipartition:
    """Orbit bipartition of (v, x) through the centralizer module."""
    v = tuple(a % x.p for a in v)
    w = centralizer_module_span(v, x)
    mu = jordan_type_by_powers(restriction_matrix(x, w))
    nu = jordan_type_by_powers(push_matrix_by_columns(quotient_map(w), x))
    assert mu.size + nu.size == x.nrows
    return Bipartition(mu, nu)


def image_chain(x: MatrixGF) -> list[SubspaceGF]:
    """The subspaces x^k V for k = 0, 1, ... down to the zero subspace,
    each the span of x applied to the basis of the one before.  Their
    dimensions strictly fall for nilpotent x; a step that keeps the
    dimension raises ValueError."""
    n, p = x.nrows, x.p
    chain = [SubspaceGF.full(n, p)]
    while chain[-1].dim:
        image = SubspaceGF.span([x.matvec(b) for b in chain[-1].basis], n, p)
        if image.dim == chain[-1].dim:
            raise ValueError("matrix is not nilpotent")
        chain.append(image)
    return chain


def classify_by_image_chain(v: Sequence[int], x: MatrixGF) -> Bipartition:
    """Orbit bipartition of (v, x) from the Jordan types of x and of x on
    V / F[x]v: x^k has rank dim x^k V, and its map on V / F[x]v has rank
    dim(x^k V + F[x]v) - dim F[x]v, both over the subspaces of
    image_chain."""
    if not x.is_square():
        raise ValueError("classify_pair needs a square matrix")
    n = x.nrows
    v = tuple(a % x.p for a in v)
    if len(v) != n:
        raise ValueError("vector length does not match matrix size")
    if not any(v):
        return Bipartition(Partition(()), type_of_ranks([s.dim for s in image_chain(x)]))
    if x.is_zero():
        return Bipartition(Partition((1,) * n), Partition(()))
    krylov = []
    for _ in range(n):
        krylov.append(v)
        v = x.matvec(v)
        if not any(v):
            break
    else:
        raise ValueError("matrix is not nilpotent")
    chain = image_chain(x)
    lam = type_of_ranks([s.dim for s in chain])
    # x is nilpotent here, so its nonzero Krylov vectors are independent
    kappa = type_of_ranks(
        [SubspaceGF.span(s.basis + tuple(krylov), n, x.p).dim - len(krylov) for s in chain]
    )
    return orbit_of_types(lam, kappa)


def type_of_ranks(ranks: Sequence[int]) -> Partition:
    """Jordan type of a nilpotent map whose k-th power has rank ranks[k],
    down to a final 0: the transpose of the partition of its nonzero
    rank drops, which Partition rejects unless they are positive and
    weakly decreasing."""
    return transpose(Partition(tuple(a - b for a, b in zip(ranks, ranks[1:]) if a != b)))


def orbit_of_types(lam: Partition, kappa: Partition) -> Bipartition:
    """The orbit (mu; nu) whose pairs have Jordan type lam on V and kappa on
    V / F[x]v.  At the normal pair lam_i = mu_i + nu_i and kappa_i =
    nu_i + mu_(i+1), so nu_i = kappa_i - mu_(i+1) and mu_i = lam_i - nu_i,
    from the last row of lam up, with mu beyond it 0.  Types that no
    orbit has raise AssertionError."""
    mu: list[int] = []
    nu: list[int] = []
    below = 0  # mu_(i+1)
    for i in range(lam.length, 0, -1):
        nu.insert(0, kappa.part(i) - below)
        mu.insert(0, lam.part(i) - nu[0])
        below = mu[0]
    if kappa.length > lam.length or min(mu + nu, default=0) < 0:
        raise AssertionError(f"no orbit has Jordan types {lam} and {kappa}")

    def trimmed(parts: list[int]) -> Partition:
        while parts and not parts[-1]:
            parts.pop()
        return Partition(tuple(parts))

    return Bipartition(trimmed(mu), trimmed(nu))


def stabilizer_orbit_dimension(b: Bipartition) -> int:
    """Rank of the stabilizer system of b's normal pair, over 101 and 10007."""
    ranks = []
    for p in (101, 10007):
        np_ = normal_pair(b, p)
        n = np_.n
        if n == 0:
            ranks.append(0)
            continue
        nn = n * n
        rows = []
        for r in range(n):
            row = [0] * nn
            for c in range(n):
                row[r * n + c] = np_.v[c]
            rows.append(tuple(row))
        xr = np_.x.rows
        for r in range(n):
            for c in range(n):
                row = [0] * nn
                for k in range(n):
                    row[r * n + k] = (row[r * n + k] + xr[k][c]) % p
                    row[k * n + c] = (row[k * n + c] - xr[r][k]) % p
                rows.append(tuple(row))
        ranks.append(rank(MatrixGF(p, tuple(rows), nn)))
    assert ranks[0] == ranks[1], f"stabilizer rank disagrees between primes for {b}: {ranks}"
    return ranks[0]


def count_by_transitions(q: FiberQuery, memo: dict) -> int:
    """count_fiber by a recursion over orbits: the pair is classified once,
    and then

        count(b, dims, j, p) = sum over b' of T[(b, r_1, p)][b'] * count(b', rest, j - 1, p)

    with the numeric transition rows T of transitions.  memo keeps
    the counts and the rows; share it only between calls of this oracle."""
    b = classify_pair(q.v, q.x)
    return _count_orbit(b, q.shape.dims, q.shape.marker, q.p, memo)


def _count_orbit(b: Bipartition, dims: tuple[int, ...], j: int, p: int, memo: dict) -> int:
    # v = 0 exactly when the orbit's first partition is empty
    if j == 0 and b.first.parts:
        return 0
    if len(dims) == 1:
        return 1
    key = ("count", b, dims, j, p)
    if key not in memo:
        row_key = ("row", b, dims[1], p)
        if row_key not in memo:
            memo[row_key] = transitions(b, dims[1], p)
        rest = tuple(r - dims[1] for r in dims[1:])
        jj = max(j - 1, 0)
        memo[key] = sum(
            mult * _count_orbit(b2, rest, jj, p, memo) for b2, mult in memo[row_key].items()
        )
    return memo[key]


def transitions(b: Bipartition, r1: int, p: int) -> Counter:
    """The numeric row T[(b, r1, p)]: the r1-subspaces W of ker x at b's
    normal pair over GF(p), tallied by the orbit of the induced pair on
    V/W, with one classification per distinct quotient pair."""
    np_ = normal_pair(b, p)
    ker = kernel(np_.x)
    quotients = Counter()
    for w in enumerate_subspaces(ker, r1) if r1 <= ker.dim else ():
        qm = quotient_map(w)
        quotients[qm.apply(np_.v), qm.push_matrix(np_.x)] += 1
    table = Counter()
    for (v, x), mult in quotients.items():
        table[classify_pair(v, x)] += mult
    return table


def hall_row(lam: Partition, r: int) -> dict:
    """T[((); lam), r] for v = 0 and x of Jordan type lam.  An r-subspace W
    of ker x is a submodule of type (1^r), so the W with quotient type
    lam_bar number the Hall polynomial

        G^lam_{lam_bar, (1^r)}(q) = q^(n(lam) - n(lam_bar) - n(1^r))
            * prod_i [lam'_i - lam'_(i+1) choose lam'_i - lam_bar'_i]_(1/q)

    over the lam_bar with lam / lam_bar a vertical r-strip, where
    n(lam) = sum (i - 1) lam_i (Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., ch. II (4.6)).  [m choose k]_(1/q) is
    q^(-k (m - k)) [m choose k]_q."""

    def n_of(parts):
        return sum(i * a for i, a in enumerate(parts))

    cols = transpose(lam).parts + (0,)
    row = {}
    for rows in itertools.combinations(range(lam.length), r):
        parts = [a - (i in rows) for i, a in enumerate(lam.parts)]
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            continue
        bar = Partition(tuple(a for a in parts if a))
        bar_cols = transpose(bar).parts + (0,) * len(cols)
        shift = n_of(lam.parts) - n_of(bar.parts) - r * (r - 1) // 2
        poly = ONE
        for i in range(len(cols) - 1):
            m, k = cols[i] - cols[i + 1], cols[i] - bar_cols[i]
            poly = poly * q_binomial(m, k)
            shift -= k * (m - k)
        row[Bipartition(EMPTY, bar)] = q_power(shift) * poly
    return row


def x_zero_row(n: int, r: int) -> dict:
    """T[((1^n); ()), r] for x = 0 and v != 0: W runs over every
    r-subspace of V.  The [n-1 choose r-1]_q that contain v leave
    ((); (1^(n-r))), and the q^r [n-1 choose r]_q others leave
    ((1^(n-r)); ()); for r = n both are the empty bipartition."""
    low = Bipartition(EMPTY, Partition((1,) * (n - r)))
    high = Bipartition(Partition((1,) * (n - r)), EMPTY)
    row = {low: q_binomial(n - 1, r - 1)}
    row[high] = row.get(high, ZERO) + q_power(r) * q_binomial(n - 1, r)
    return row


def interpolated_row(b: Bipartition, r1: int) -> dict:
    """T[(b, r1)] with each entry interpolated from transitions at the
    first r1 (k - r1) + 1 primes, k = dim ker x, and validated at the next
    prime: a mismatch raises InterpolationError."""
    bound = r1 * max(b.row_count - r1, 0)
    primes = primes_first(bound + 1)
    holdout = next_prime_after(primes[-1])
    tables = {p: transitions(b, r1, p) for p in primes + (holdout,)}
    row = {}
    for b2 in set().union(*tables.values()):
        entry = interpolate_qpoly({p: tables[p].get(b2, 0) for p in primes}, bound)
        counted = tables[holdout].get(b2, 0)
        if entry.evaluate(holdout) != counted:
            raise InterpolationError(
                f"T[{b}, {r1}][{b2}] = {entry} predicts {entry.evaluate(holdout)} "
                f"at held-out prime {holdout}, counted {counted}"
            )
        row[b2] = entry
    return row


def walk_count(step, pair, dims: tuple[int, ...], j: int) -> int:
    """The count of fibers._profiles against no subspaces, without its
    memo: every first subspace that step yields is walked again, however
    often its quotient pair repeats."""
    if j == 0 and any(pair.v):
        return 0
    if len(dims) == 1:
        return 1
    rest = tuple(r - dims[1] for r in dims[1:])
    jj = max(j - 1, 0)
    return sum(walk_count(step, sub, rest, jj) for _, sub in step(pair, dims[1]))


def walk_flags(step, pair, dims: tuple[int, ...], j: int) -> Iterator[tuple[SubspaceGF, ...]]:
    """The flags that walk_count counts, each subspace lifted to the
    ambient space of pair."""
    if j == 0 and any(pair.v):
        return
    if len(dims) == 1:
        yield ()
        return
    rest = tuple(r - dims[1] for r in dims[1:])
    jj = max(j - 1, 0)
    for qm, sub in step(pair, dims[1]):
        w1 = SubspaceGF.span(qm.basis_rows, qm.ambient, qm.p)
        for tail in walk_flags(step, sub, rest, jj):
            yield (w1,) + tuple(qm.preimage(s) for s in tail)


def zero_graded(q: FiberQuery) -> GradedPair:
    """q's pair with weight 0 on every coordinate."""
    return GradedPair(q.x, q.v, (0,) * len(q.v))


def kernel_step(pair: GradedPair, r1: int) -> Iterator[tuple[QuotientMap, GradedPair]]:
    """Every r1-subspace W of ker x, as the quotient map by W together with
    the induced pair on V/W under the zero grading, built afresh on every
    call; pair's own weights play no part."""
    ker = kernel(pair.x)
    if r1 > ker.dim:
        return
    for w in enumerate_subspaces(ker, r1):
        qm = quotient_map(w)
        yield qm, GradedPair(qm.push_matrix(pair.x), qm.apply(pair.v), (0,) * qm.codim)


def unmemoized_fiber_count(q: FiberQuery) -> int:
    """count_fiber by walk_count on kernel_step."""
    return walk_count(kernel_step, zero_graded(q), q.shape.dims, q.shape.marker)


def graded_flag_count(q: FiberQuery, weights: Sequence[int]) -> int:
    """count_lambda_fixed under the given weights, read off the flags of
    the kernel_step walk: those whose every subspace passes
    graded_by_intersections."""
    return sum(
        all(graded_by_intersections(w, weights) for w in flag)
        for flag in walk_flags(kernel_step, zero_graded(q), q.shape.dims, q.shape.marker)
    )


def graded_step(pair: GradedPair, r1: int) -> Iterator[tuple[QuotientMap, GradedPair]]:
    """Every weight-graded r1-subspace of ker x, as the quotient map by it
    together with the induced graded pair on the quotient, built afresh
    on every call."""
    for selection in enumerate_graded_subspaces(graded_kernel_blocks(pair), r1):
        yield graded_quotient(pair, selection)


def unmemoized_lambda_fixed_count(q: FiberQuery) -> int:
    """count_lambda_fixed by walk_count on graded_step."""
    return walk_count(graded_step, q.graded_pair(), q.shape.dims, q.shape.marker)


def flag_profile(
    flag: Sequence[SubspaceGF], subspaces: Sequence[SubspaceGF]
) -> tuple[tuple[int, ...], ...]:
    """profile[i][s] = dim(flag[i] & subspaces[s])."""
    return tuple(tuple(w.intersect(s).dim for s in subspaces) for w in flag)


def flag_histogram(flags, subspaces: Sequence[SubspaceGF]) -> dict:
    """{profile: number of flags} over the flags, by flag_profile.  Many
    flags share a subspace, so each distinct one is intersected once."""
    rows: dict = {}

    def row(w: SubspaceGF) -> tuple[int, ...]:
        if w not in rows:
            rows[w] = flag_profile((w,), subspaces)[0]
        return rows[w]

    return dict(Counter(tuple(map(row, flag)) for flag in flags))


def closure_by_count(big: Bipartition, small: Bipartition, p: int, memo: dict) -> bool:
    """Whether small's orbit lies in the image of big's resolution: the
    fiber over small's normal point has a point over GF(p)."""
    return count_by_transitions(FiberQuery.over_orbit(small, big, p), memo) > 0


def closure_by_parts(big: Bipartition, small: Bipartition) -> bool:
    """The Achar-Henderson inequalities of fibers.closure_contains, read
    part by part through Partition.part and Bipartition.row_length."""
    a_k = b_k = 0
    for k in range(max(big.row_count, small.row_count)):
        if a_k > b_k or a_k + small.first.part(k + 1) > b_k + big.first.part(k + 1):
            return False
        a_k += small.row_length(k + 1)
        b_k += big.row_length(k + 1)
    return True


def nonneg_part(np: NormalPair) -> SubspaceGF:
    """Span of the basis vectors of nonnegative weight.  It equals the
    centralizer module E^x.v = span of y.v over all y commuting with x."""
    coords = [c for c, w in enumerate(np.weights) if w >= 0]
    return SubspaceGF.coordinate(coords, np.n, np.p)


def orbit_map_tangent_surjective(b: Bipartition, p: int = 101) -> bool:
    """Whether y -> (y.v, [y, x]) maps the filtration-preserving matrices
    onto the nonnegative part of V times the weight-raising matrices."""
    np_ = normal_pair(b, p)
    n = np_.n
    wts = np_.weights
    if n == 0:
        return True
    par = [(r, c) for r in range(n) for c in range(n) if wts[r] >= wts[c]]
    target_dim = sum(1 for w in wts if w >= 0) + sum(
        1 for r in range(n) for c in range(n) if wts[r] > wts[c]
    )
    rows = []
    for r, c in par:
        e = MatrixGF(p, tuple(tuple(1 if (i, j) == (r, c) else 0 for j in range(n)) for i in range(n)), n)
        tv = e.matvec(np_.v)
        ex, xe = matmul(e, np_.x), matmul(np_.x, e)
        comm = [(a - b) % p for r1, r2 in zip(ex.rows, xe.rows) for a, b in zip(r1, r2)]
        rows.append(tuple(tv) + tuple(comm))
    m = MatrixGF(p, tuple(rows), n + n * n)
    return rank(m) == target_dim


def primes_first(k: int) -> tuple[int, ...]:
    """The first k primes, ascending."""
    out: list[int] = []
    n = 2
    while len(out) < k:
        if is_prime(n):
            out.append(n)
        n += 1
    return tuple(out)


def prime_schedule(degree_bound: int) -> tuple[int, ...]:
    """Sampling schedule: the first degree_bound + 1 primes."""
    return primes_first(degree_bound + 1)


def next_prime_after(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def held_out_prime(schedule: Sequence[int]) -> int:
    return next_prime_after(max(schedule))


def least_packed_width(n: int, p: int) -> int:
    """The least field width that gflinalg._packed_layout's proof allows
    for vectors of length n over GF(p), before it rounds up to a struct
    width: bits(B m) + 1, with B = max(n (p-1)^2, p^2) + p,
    s = bits(B) + 2 bits(p) and m = ceil(2^s / p)."""
    bound = max(n * (p - 1) ** 2, p * p) + p
    s = bound.bit_length() + 2 * p.bit_length()
    return (bound * -(-(1 << s) // p)).bit_length() + 1


def width_boundary(n: int, bits: int) -> tuple[int, int]:
    """(below, above) for length n: above is the least prime whose least
    packed width exceeds bits, and below the prime before it."""
    below = 2
    while least_packed_width(n, next_prime_after(below)) <= bits:
        below = next_prime_after(below)
    return below, next_prime_after(below)


def gaussian_binomial(m: int, d: int, q: int) -> int:
    """[m choose d]_q at an integer q by the product formula; 0 outside
    0 <= d <= m."""
    if d < 0 or d > m:
        return 0
    num = 1
    den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def dense_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of a + b, padded to the longer length and untrimmed."""
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def dense_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of a - b, padded to the longer length and untrimmed."""
    return dense_add(a, [-c for c in b])


def dense_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of a * b by the schoolbook product, untrimmed."""
    out = [0] * (len(a) + len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return out


def column(m: MatrixGF, c: int) -> tuple[int, ...]:
    return tuple(row[c] for row in m.rows)


def reduce_mod(qm: QuotientMap, v: Sequence[int]) -> tuple[int, ...]:
    """v minus its multiples of the kernel rows of qm, row after row, as a
    full-length vector."""
    p = qm.p
    out = [x % p for x in v]
    for row, c in zip(qm.basis_rows, qm.pivots):
        f = out[c]
        if f:
            out = [(x - f * y) % p for x, y in zip(out, row)]
    return tuple(out)


def reduce_apply(qm: QuotientMap, v: Sequence[int]) -> tuple[int, ...]:
    """QuotientMap.apply through the full-length reduce_mod."""
    reduced = reduce_mod(qm, v)
    return tuple(reduced[c] for c in qm.nonpivots)


def push_matrix_by_columns(qm: QuotientMap, x: MatrixGF) -> MatrixGF:
    """QuotientMap.push_matrix as reduce_apply of each non-pivot column of x."""
    cols = [reduce_apply(qm, column(x, c)) for c in qm.nonpivots]
    rows = tuple(tuple(col[t] for col in cols) for t in range(qm.codim))
    return MatrixGF(qm.p, rows, qm.codim)


def rref(m: MatrixGF) -> MatrixGF:
    """Reduced row echelon form, same shape (zero rows kept at the bottom)."""
    rows, _ = _rref_rows([list(row) for row in m.rows], m.p, m.ncols)
    return _matrix(m.p, tuple(tuple(row) for row in rows), m.ncols)


def matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """The product a b over GF(p), entry by entry."""
    if a.p != b.p or a.ncols != b.nrows:
        raise ValueError("matrix shape/field mismatch")
    cols = [tuple(row[c] for row in b.rows) for c in range(b.ncols)]
    rows = tuple(tuple(sum(map(operator.mul, row, col)) % a.p for col in cols) for row in a.rows)
    return MatrixGF(a.p, rows, b.ncols)


def invert(g: MatrixGF) -> MatrixGF:
    """The inverse of an invertible square g, read off the rref of [g | 1]."""
    n, p = g.nrows, g.p
    unit = [tuple(int(c == r) for c in range(n)) for r in range(n)]
    aug = MatrixGF(p, tuple(map(tuple.__add__, g.rows, unit)), 2 * n)
    return MatrixGF(p, tuple(row[n:] for row in rref(aug).rows), n)


def contains_subspace(big: SubspaceGF, small: SubspaceGF) -> bool:
    """Whether small <= big, both in the same GF(p)^n."""
    big._check_compatible(small)
    return all(big.contains(row) for row in small.basis)


def rref_patterns(k: int, d: int, p: int):
    """All d x k RREF matrices of full row rank, each rowspace once."""
    for pivots in itertools.combinations(range(k), d):
        pivot_set = set(pivots)
        free_positions = [
            (r, c)
            for r in range(d)
            for c in range(pivots[r] + 1, k)
            if c not in pivot_set
        ]
        base = [[0] * k for _ in range(d)]
        for r, c in enumerate(pivots):
            base[r][c] = 1
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [row[:] for row in base]
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            yield tuple(tuple(row) for row in rows)


def enumerate_subspaces_by_patterns(ambient: SubspaceGF, d: int):
    """enumerate_subspaces as each RREF pattern of rref_patterns times the
    ambient RREF basis, one full-length accumulation per pattern row."""
    k, p, n = ambient.dim, ambient.p, ambient.ambient
    if d == 0:
        yield SubspaceGF.zero(n, p)
        return
    for pattern in rref_patterns(k, d, p):
        rows = []
        pivots = []
        for prow in pattern:
            acc = [0] * n
            lead = None
            for s, f in enumerate(prow):
                if f:
                    if lead is None:
                        lead = s
                    acc = [(x + f * y) % p for x, y in zip(acc, ambient.basis[s])]
            rows.append(tuple(acc))
            pivots.append(ambient.pivots[lead])
        yield SubspaceGF(p, n, tuple(rows), tuple(pivots))


def jordan_type_by_powers(x: MatrixGF) -> Partition:
    """Jordan type of a nilpotent matrix via the ranks of its powers."""
    n = x.nrows
    ranks = [n]
    power = x
    for _ in range(n):
        r = rank(power)
        ranks.append(r)
        if r == 0:
            break
        power = matmul(power, x)
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    return type_of_ranks(ranks)


def graded_by_intersections(sub: SubspaceGF, weights: Sequence[int]) -> bool:
    """Whether sub is the sum of its intersections with the weight spaces."""
    return sub.dim == sum(
        sub.intersect(SubspaceGF.coordinate(coords, sub.ambient, sub.p)).dim
        for _, coords in weight_blocks(weights)
    )


def restrict_pair(pair: GradedPair, sub: SubspaceGF) -> GradedPair:
    """Graded pair induced on an x-stable graded subspace, in a
    weight-homogeneous basis (heaviest weight first)."""
    rows: list[tuple[int, ...]] = []
    pivots: list[int] = []
    wts: list[int] = []
    for w, coords in weight_blocks(pair.weights):
        piece = sub.intersect(SubspaceGF.coordinate(coords, pair.n, pair.p))
        for brow, bpiv in zip(piece.basis, piece.pivots):
            rows.append(brow)
            pivots.append(bpiv)
            wts.append(w)
    if len(rows) != sub.dim:
        raise ValueError("subspace is not graded")

    def coeffs(u: Sequence[int]) -> tuple[int, ...]:
        return tuple(u[c] for c in pivots)

    d = len(rows)
    cols = []
    for brow in rows:
        img = pair.x.matvec(brow)
        if not sub.contains(img):
            raise ValueError("subspace is not stable under x")
        cols.append(coeffs(img))
    xmat = MatrixGF(pair.p, tuple(tuple(col[i] for col in cols) for i in range(d)), d)
    vres = coeffs(pair.v) if sub.contains(pair.v) else (0,) * d
    return GradedPair(xmat, vres, tuple(wts))
