"""Exact point counts of resolution fibers over GF(p), and fiber
polynomials in Z[q].

The fiber of the resolution attached to a flag shape (r_0 < ... < r_m, j)
over a pair (v, x) consists of the flags W of that shape with
x(W_i) <= W_{i-1} for all i and v in W_j.  Counting recurses on the
first step: x(W_1) <= W_0 = 0 forces W_1 <= ker x, and the rest of the
flag is a fiber flag for the induced pair on V / W_1 with the shifted
shape and marker j - 1 (a marker of 0 requires v = 0 up front).

One counting walker (_profiles) and one flag walker (_flags) run this
recursion on a GradedPair.  The candidates for W_1 are the
weight-graded r_1-subspaces of ker x, enumerated block by block, each
with the induced graded pair on V / W_1.  count_lambda_fixed,
lambda_fixed_profiles and enumerate_lambda_fixed_flags walk the query's
pair under its own weights.  count_fiber, fiber_profiles and
enumerate_fiber_flags walk it under the zero grading, which has one
block, so that every r_1-subspace of ker x is a candidate.

The counting walker buckets the flags by their profiles dim(W_i & S)
against a tuple of fixed subspaces S, each pushed into V/W_1 along with
the pair: the alpha check by the weight filtrations, the split check
by a splitting V1 (+) V2 over the flags that respect it alone
(split_profiles), and a count is the histogram against no S, summed.
Different first subspaces often leave the same quotient, so a node
walks each distinct child (quotient pair, pushed subspaces, first step)
once, weighted by the number of candidates W_1 that leave it, and the
walker memoizes on (pair, pushed subspaces, dims, j), with pair exact
over GF(p): the matrix of x, v and the weights.  Equal children and
equal keys are equal subproblems, so neither can change a count.  The
walker classifies nothing and reads no transition row and no
FiberCache, so the brute-force count stays independent of the fiber
polynomials that it certifies.  _flags is the oracle that the walker
is tested against.

The checks walk the same small orbits again and again under different
flag shapes, so these tables live for the whole process, or until
FiberCache.clear() empties them: normalform.orbit_pair, the normal
pair of each (b, p) that FiberQuery.over_orbit queries;
_kernel_blocks, the graded pieces of ker x of each (x, weights);
_children, the candidate count and the distinct children, with their
multiplicities, of each (pair, subspaces, r_1), so that a node finds
all its children in one lookup; _push, the canonical push of each
(quotient map, subspace), which many nodes share; _symbolic_row and
_poly_orbit (below); normalform.split_factors, the split check's
set-up of each (b, p); and the _interned dict, which holds each
quotient pair, tuple of pushed subspaces and first step as one object
for all nodes (_intern), so the walker memo finds it by identity.
_children builds an entry in one pass over _step, a generator of the
quotient map and quotient pair of every candidate W_1 that no table
keeps, and _flags reads the same generator: there is one step path,
and no table holds a quotient map but as a key of _push.  A node with
one step left is answered in closed form (_last_step).  normal_pair
itself stays uncached: a census of conjugates builds many normal pairs
and uses each once.  The tables hold exact objects that depend on
their key alone, and no count: every count comes from a memo that
lives for one call, so a walk spends as many nodes on a warm table as
on a cold one.  The n = 7 polynomial sweep leaves 12,598 nodes in
_children, whose 405,998 candidates leave 59,926 distinct children,
answers 1,957 more with one step left, and pushes nothing.

Counts depend only on the orbit of (v, x), and orbits are indexed by
bipartitions, so fiber_polynomial recurses over bipartitions in Z[q],
memoized on (b, dims, j):

    P(b, dims, j) = sum over b' of T[(b, r_1)][b'](q) * P(b', rest, j - 1)

where the transition row T[(b, r_1)] maps the orbit b' of each quotient
of b's normal pair by an r_1-subspace W <= ker x to the number of such
W, as a polynomial in q.  _transition_row counts it in closed form: the
orbit of V/W depends only on the position of W relative to the
subspaces ker x & im x^k and ker x & (im x^k + F[x]v), which a basis of
ker x splits into coordinate subspaces, and the W in each position
number a product of q-binomials and powers of q.  No row reads a prime
field.  A row's entries sum to the q-binomial [dim ker x choose r_1]_q;
a row that does not raises InterpolationError.  A row reads its cells,
its line ranks and the orbit of each pair of rank sequences off the
process tables _schubert_cells, _line_ranks and _row_orbit, keyed by
tuples of small integers.  A count over GF(p) is its polynomial at
q = p: count_fiber_memo classifies the query's pair once and evaluates
P there.  A row that raises is not kept.  The FiberCache of
fiber_cache() holds only the counts of count_fiber_memo, which a count
file saves and loads; its clear() empties them and every table above,
but not the closed-form tables q_binomial, q_power, _schubert_cells,
_line_ranks and _row_orbit: they read no prime field and no pair, and
after the polynomial sweep over n <= 8 the last three hold about
0.5 MiB.  Nor does it empty gflinalg._packed_layout, the packed-vector
layout of each (n, p) that classification reads: one small entry per
size and prime, which holds no pair.

Fiber counts decide only fiber polynomials: closure_contains reads the
closure order off two bipartitions in closed form, and the test suite
checks it against nonempty fibers.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .combinatorics import Bipartition, FlagShape, bipartitions, flag_shape
from .gflinalg import MatrixGF, QuotientMap, SubspaceGF, _subspace
from .normalform import (
    GradedPair,
    NormalPair,
    _orbit_of_ranks,
    classify_pair,
    enumerate_graded_subspaces,
    graded_kernel_blocks,
    graded_quotient,
    orbit_pair,
    split_factors,
)


@dataclass(frozen=True)
class FiberQuery:
    """A pair (v, x) over GF(p) together with a flag shape and marker.

    v is taken by operator.index, like Partition's parts, so a float
    raises TypeError, and reduced mod p on construction; x is kept as
    given, since MatrixGF checks its own entries.  weights, when present,
    grade the coordinates, as the cocharacter does the normal basis, and
    enable fixed-point counting.  They are taken by operator.index too; a
    tuple of ints is kept as given.
    """

    v: tuple[int, ...]
    x: MatrixGF
    shape: FlagShape
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        p = self.x.p
        object.__setattr__(self, "v", tuple([operator.index(a) % p for a in self.v]))
        if not self.x.is_square() or len(self.v) != self.x.ncols:
            raise ValueError("pair dimensions disagree")
        if self.shape.n != self.x.ncols:
            raise ValueError(
                f"shape ends at {self.shape.n} but the ambient space has dim {self.x.ncols}"
            )
        if self.weights is not None:
            weights = tuple(map(operator.index, self.weights))
            if weights != self.weights:
                object.__setattr__(self, "weights", weights)
            if len(weights) != self.x.ncols:
                raise ValueError("one weight per coordinate required")

    @property
    def p(self) -> int:
        return self.x.p

    @classmethod
    def of(cls, np_: NormalPair, shape: FlagShape) -> "FiberQuery":
        return cls(np_.v, np_.x, shape, np_.weights)

    @classmethod
    def over_orbit(cls, small: Bipartition, big: Bipartition, p: int) -> "FiberQuery":
        """Fiber of big's resolution over the normal point of small's orbit."""
        return cls.of(orbit_pair(small, p), flag_shape(big))

    def graded_pair(self) -> GradedPair:
        if self.weights is None:
            raise ValueError("query carries no weights")
        return GradedPair(self.x, self.v, self.weights)


def _zero_graded(q: FiberQuery) -> GradedPair:
    """q's pair under the zero grading: one weight space, so every
    subspace is graded."""
    return GradedPair(q.x, q.v, (0,) * len(q.v))


_interned: dict = {}  # quotient pair, pushed subspaces or first step -> the one object for it


def _intern(value):
    """The one object in _interned equal to value."""
    return _interned.setdefault(value, value)


@functools.lru_cache(maxsize=None)
def _kernel_blocks(x: MatrixGF, weights: tuple[int, ...]) -> tuple:
    """graded_kernel_blocks of every pair with matrix x and these weights,
    which do not read v; built once per (x, weights) in a process."""
    return graded_kernel_blocks(GradedPair(x, (), weights))


def _step(pair: GradedPair, r1: int) -> Iterator[tuple[QuotientMap, GradedPair]]:
    """Every weight-graded r1-subspace W of ker x, as the quotient map by W
    together with the induced graded pair on V/W, which is held as one
    object in _interned; under the zero grading that is every r1-subspace
    of ker x.  Built afresh on every call: only _children and _flags read
    it."""
    for selection in enumerate_graded_subspaces(_kernel_blocks(pair.x, pair.weights), r1):
        qm, sub = graded_quotient(pair, selection)
        yield qm, _intern(sub)


@functools.lru_cache(maxsize=None)
def _push(qm: QuotientMap, s: SubspaceGF) -> SubspaceGF:
    """The image of s in the quotient by qm's kernel, canonical; built once
    per (qm, s) in a process."""
    return SubspaceGF.span([qm.apply(u) for u in s.basis], qm.codim, qm.p)


@functools.lru_cache(maxsize=None)
def _children(pair: GradedPair, subspaces: tuple, r1: int) -> tuple:
    """(candidates, children) of a walker node: the number of weight-graded
    r1-subspaces W_1 of ker x, and one (sub, pushed, first, mult) per
    distinct child, in the order of its first W_1: the quotient pair, the
    subspaces pushed into V/W_1 by _push, the first step first[0][s] =
    dim(W_1 & S_s) = dim S_s - dim(pushed S_s), and the number of W_1
    that leave it.  Built once per key in a process, in one pass over
    _step, and keeps no quotient map; sub, pushed and first are held as
    one object in _interned."""
    mults = Counter(  # in the order of each child's first candidate
        (sub, _intern(tuple([_push(qm, s) for s in subspaces]))) for qm, sub in _step(pair, r1)
    )
    return sum(mults.values()), tuple([
        (sub, pushed, _intern((tuple([s.dim - t.dim for s, t in zip(subspaces, pushed)]),)), mult)
        for (sub, pushed), mult in mults.items()
    ])


def _flags(pair: GradedPair, dims: tuple[int, ...], j: int) -> Iterator[tuple[SubspaceGF, ...]]:
    """The flags that _profiles counts, lifted to the ambient space of pair."""
    if j == 0 and any(pair.v):
        return
    if len(dims) == 1:
        yield ()
        return
    rest = tuple(r - dims[1] for r in dims[1:])
    jj = max(j - 1, 0)
    for qm, sub in _step(pair, dims[1]):
        # qm's kernel is canonical: its rows and pivots are W_1's own
        w1 = _subspace(qm.p, qm.ambient, qm.basis_rows, qm.pivots)
        for tail in _flags(sub, rest, jj):
            yield (w1,) + tuple(qm.preimage(s) for s in tail)


_LEAF = {(): 1}  # the one empty tail of a flag; read, never written


def _profiles(pair: GradedPair, subspaces: tuple, dims: tuple[int, ...], j: int, memo: dict, spend, split) -> dict:
    """Histogram {steps: count} of the fiber flags over pair, with
    steps[i][s] = dim(W_(i+1) & S_s) - dim(W_i & S_s), S = subspaces.
    Each candidate W_1 pushes every S into V/W_1, and its first step is
    dim(W_1 & S) = dim S - dim(pushed S); by the modular law the later
    steps are those of W/W_1 against pushed S.  memo maps (pair,
    subspaces, dims, j) to its histogram, all exact canonical objects
    over GF(p).  A miss reads the node's children from the _children
    table, calls spend(candidates) once with the number of candidates
    W_1, and walks each distinct child once, weighted by the number of
    candidates that leave it; an empty child (v not in W_1 at the
    marker) and the leaf are answered by the guards on entry, and a node
    with one step left by _last_step, with no _children entry.  A split
    walk, S a splitting V1 (+) V2, skips each child whose first step
    does not sum to r_1: a flag respects the splitting exactly when all
    its steps do, and the last one does once the others have."""
    if j == 0 and any(pair.v):
        return {}
    if len(dims) == 1:
        return _LEAF
    key = (pair, subspaces, dims, j)
    hist = memo.get(key)
    if hist is None:
        if len(dims) == 2:
            candidates, hist = _last_step(pair, subspaces)
            spend(candidates)
        else:
            r1 = dims[1]
            rest = tuple(r - r1 for r in dims[1:])
            jj = max(j - 1, 0)
            candidates, children = _children(pair, subspaces, r1)
            spend(candidates)
            hist = {}
            for sub, pushed, first, mult in children:
                if split and sum(first[0]) != r1:
                    continue
                for tail, count in _profiles(sub, pushed, rest, jj, memo, spend, split).items():
                    steps = first + tail
                    hist[steps] = hist.get(steps, 0) + mult * count
        memo[key] = hist
    return hist


def _last_step(pair: GradedPair, subspaces: tuple) -> tuple[int, dict]:
    """(candidates, histogram) of a walker node with one step left, in
    closed form: its only W_1 is V, which lies in ker x only when x = 0,
    and then its one step is dim(V & S_s) = dim S_s.  No quotient is
    formed and nothing is pushed."""
    if pair.x.is_zero():
        return 1, {(tuple([s.dim for s in subspaces]),): 1}
    return 0, {}


def _histogram(pair: GradedPair, q: FiberQuery, subspaces: Sequence[SubspaceGF], spend, split=False) -> dict:
    """_profiles of pair on q's shape with a fresh memo, each key turned
    into the running sums of its steps, profile[i][s] = dim(W_(i+1) & S_s).
    Distinct steps have distinct running sums, so no two keys merge."""
    hist = _profiles(pair, tuple(subspaces), q.shape.dims, q.shape.marker, {}, spend, split)
    return {
        tuple(itertools.accumulate(steps, lambda total, row: tuple(a + b for a, b in zip(total, row)))): count
        for steps, count in hist.items()
    }


def count_fiber(q: FiberQuery) -> int:
    """Exact number of fiber flags over GF(p): fiber_profiles against no
    subspaces, summed."""
    return sum(fiber_profiles(q, ()).values())


def enumerate_fiber_flags(q: FiberQuery) -> Iterator[tuple[SubspaceGF, ...]]:
    """All fiber flags, as tuples of canonical subspaces of the ambient space."""
    yield from _flags(_zero_graded(q), q.shape.dims, q.shape.marker)


def count_lambda_fixed(q: FiberQuery) -> int:
    """Number of fiber flags all of whose subspaces are weight-graded:
    lambda_fixed_profiles against no subspaces, summed."""
    return sum(lambda_fixed_profiles(q, ()).values())


def enumerate_lambda_fixed_flags(q: FiberQuery) -> Iterator[tuple[SubspaceGF, ...]]:
    """All weight-graded fiber flags, lifted to the ambient space."""
    yield from _flags(q.graded_pair(), q.shape.dims, q.shape.marker)


def fiber_profiles(
    q: FiberQuery, subspaces: Sequence[SubspaceGF], spend: Callable[[int], object] = lambda amount: None
) -> dict:
    """{profile: number of fiber flags W with dim(W_(i+1) & subspaces[s]) =
    profile[i][s]}, by the profile walker with a memo of its own; each
    walker node expanded on a memo miss, at any depth, calls spend once
    with its number of candidates W_1, so the amounts sum to the
    candidates expanded."""
    return _histogram(_zero_graded(q), q, subspaces, spend)


def lambda_fixed_profiles(
    q: FiberQuery, subspaces: Sequence[SubspaceGF], spend: Callable[[int], object] = lambda amount: None
) -> dict:
    """fiber_profiles over the weight-graded fiber flags only."""
    return _histogram(q.graded_pair(), q, subspaces, spend)


def split_profiles(
    q: FiberQuery, v1: SubspaceGF, v2: SubspaceGF, spend: Callable[[int], object] = lambda amount: None
) -> dict:
    """lambda_fixed_profiles against a graded splitting v1 (+) v2 of V,
    walking only the flags W_i = (W_i & v1) (+) (W_i & v2)."""
    return _histogram(q.graded_pair(), q, (v1, v2), spend, True)


class FiberCache:
    """The count table: (mu, nu, dims, j, p) to the exact count that
    count_fiber_memo returned, which `save`/`load` persist.  `clear()`
    empties it and the process tables that the module docstring names,
    all but the closed-form ones and gflinalg._packed_layout.  `stats`
    counts lookups in the count table and in _poly_orbit, and their
    entries.
    """

    FORMAT = 1

    def __init__(self):
        self._table: dict = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key):
        value = self._table.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value: int) -> None:
        self._table.setdefault(key, value)

    def clear(self) -> None:
        self._table.clear()
        for table in (
            orbit_pair, _kernel_blocks, _push, _children, _symbolic_row,
            _poly_orbit, split_factors,
        ):
            table.cache_clear()
        _interned.clear()
        self.hits = 0
        self.misses = 0

    @property
    def stats(self) -> dict:
        polys = _poly_orbit.cache_info()
        return {
            "hits": self.hits + polys.hits,
            "misses": self.misses + polys.misses,
            "entries": len(self._table) + polys.currsize,
        }

    def save(self, path) -> None:
        """Write the count table to path atomically: the records go to a
        temporary file in the same directory, which then replaces path, so
        a failed save leaves any previous file intact."""
        path = os.fspath(path)
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=os.path.dirname(path) or ".",
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"cache_format": self.FORMAT}) + "\n")
                for key, count in sorted(self._table.items()):
                    mu, nu, dims, j, p = key
                    record = {"key": [list(mu), list(nu), list(dims), j, p], "count": count}
                    fh.write(json.dumps(record) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load(self, path) -> None:
        """Merge the count table stored at path, all or nothing: a malformed
        header or record raises ValueError before any record is merged."""
        loaded = {}
        with open(path) as fh:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("cache_format") != self.FORMAT:
                raise ValueError(f"unsupported cache format: {header}")
            for lineno, line in enumerate(fh, start=2):
                record = json.loads(line)
                if not _valid_record(record):
                    raise ValueError(f"malformed cache record on line {lineno}: {line.strip()}")
                mu, nu, dims, j, p = record["key"]
                loaded.setdefault((tuple(mu), tuple(nu), tuple(dims), j, p), record["count"])
        self._table = loaded | self._table


def _valid_record(record) -> bool:
    """Whether record is {"key": [mu, nu, dims, j, p], "count": c} with int
    lists mu, nu, dims and ints j, p, c >= 0; `type(a) is int` rejects bool."""
    key, count = (record.get("key"), record.get("count")) if isinstance(record, dict) else (None, None)
    return (
        isinstance(key, list)
        and len(key) == 5
        and all(isinstance(ints, list) and all(type(a) is int for a in ints) for ints in key[:3])
        and all(type(a) is int for a in key[3:] + [count])
        and count >= 0
    )


_default_cache = FiberCache()


def fiber_cache() -> FiberCache:
    return _default_cache


def count_fiber_memo(q: FiberQuery) -> int:
    """Same contract as count_fiber: the pair is classified once, and the
    count is the fiber polynomial of its orbit evaluated at q = p, kept
    in the count table.  Raises InterpolationError when a transition row
    that the polynomial reads fails its q-binomial sum."""
    cache = fiber_cache()
    b = classify_pair(q.v, q.x)
    dims, j = q.shape.dims, q.shape.marker
    key = (b.first.parts, b.second.parts, dims, j, q.p)
    count = cache.get(key)
    if count is None:
        count = _poly_orbit(b, dims, j).evaluate(q.p)
        cache.put(key, count)
    return count


# ---------------------------------------------------------------------------
# q-polynomials


class InterpolationError(ArithmeticError):
    """Samples do not fit an integer polynomial within the degree bound,
    or a symbolic transition row does not sum to its q-binomial.

    This is a falsification signal, not a usage error; callers surface it
    in reports rather than swallowing it.
    """


@dataclass(frozen=True)
class QPolynomial:
    """Polynomial in q with exact integer coefficients c_0..c_d, taken by
    operator.index: a float, Fraction or str raises TypeError.  +, - and
    * skip that check (_canonical)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(list(map(operator.index, self.coeffs))))

    @property
    def degree(self) -> int:
        return max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, q: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * q + c
        return total

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canonical(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return _canonical(out)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b))
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b, i):
                    out[j] += c * d
        return _canonical(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                var = "q" if d == 1 else f"q^{d}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            terms.append(("-" if c < 0 else "+", body))
        sign, first = terms[0]
        out = ("-" if sign == "-" else "") + first
        for sign, body in terms[1:]:
            out += sign + body
        return out


def _trimmed(coeffs: list) -> tuple[int, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _canonical(coeffs: list) -> QPolynomial:
    """The QPolynomial of a list of ints, unchecked."""
    poly = object.__new__(QPolynomial)
    object.__setattr__(poly, "coeffs", _trimmed(coeffs))
    return poly


def interpolate_qpoly(samples: Mapping[int, int], degree_bound: int) -> QPolynomial:
    """The unique polynomial of degree <= degree_bound through the samples,
    solved exactly over the rationals.

    Raises ValueError when fewer than degree_bound + 1 samples are given
    and InterpolationError when the interpolant has non-integral
    coefficients or exceeds the bound -- a falsification signal, never
    swallowed.  fractions is imported here, not at module level: it
    loads decimal too, and nothing in the package calls this function.
    """
    from fractions import Fraction

    points = sorted(samples.items())
    if len(points) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} samples, got {len(points)}"
        )
    if len(set(x for x, _ in points)) != len(points):
        raise ValueError("sample points must be distinct")
    acc = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            term = [Fraction(0)] + term
            for t in range(len(term) - 1):
                term[t] -= term[t + 1] * xk
            denom *= xi - xk
        for t in range(len(term)):
            acc[t] += term[t] / denom
    while acc and acc[-1] == 0:
        acc.pop()
    if len(acc) - 1 > degree_bound:
        raise InterpolationError(
            f"interpolant has degree {len(acc) - 1} > bound {degree_bound}: {acc}"
        )
    if any(c.denominator != 1 for c in acc):
        raise InterpolationError(f"non-integral coefficients: {[str(c) for c in acc]}")
    return QPolynomial(tuple(int(c) for c in acc))


def fiber_dimension_bound(shape: FlagShape) -> int:
    """Dimension of the partial flag variety of the shape: sum over pairs
    of step products; a sound degree cap for fiber polynomials."""
    steps = shape.steps
    total = sum(steps)
    return (total * total - sum(d * d for d in steps)) // 2


ZERO = QPolynomial(())
ONE = QPolynomial((1,))


@functools.lru_cache(maxsize=None)
def q_power(e: int) -> QPolynomial:
    return QPolynomial((0,) * e + (1,))


@functools.lru_cache(maxsize=None)
def q_binomial(m: int, k: int) -> QPolynomial:
    """[m choose k]_q, by [m, k] = [m-1, k-1] + q^k [m-1, k]; 0 outside
    0 <= k <= m.  At q = p it counts the k-subspaces of GF(p)^m.

    >>> q_binomial(2, 1).evaluate(2)
    3
    >>> q_binomial(4, 2).evaluate(2)
    35
    """
    if k < 0 or k > m:
        return ZERO
    if k in (0, m):
        return ONE
    return q_binomial(m - 1, k - 1) + q_power(k) * q_binomial(m - 1, k)


# ---------------------------------------------------------------------------
# fiber polynomials from the symbolic transition table


def fiber_polynomial(big: Bipartition, small: Bipartition) -> QPolynomial:
    """The point count of the fiber of big's resolution over small's orbit,
    as a polynomial in q: a recursion over orbits through the symbolic
    transition table, memoized on (b, dims, j).  Raises ValueError when
    big and small differ in size, and InterpolationError when a row it
    reads fails its q-binomial sum."""
    if big.n != small.n:
        raise ValueError("bipartitions must have equal total size")
    shape = flag_shape(big)
    return _poly_orbit(small, shape.dims, shape.marker)


@functools.lru_cache(maxsize=None)
def _poly_orbit(b: Bipartition, dims: tuple[int, ...], j: int) -> QPolynomial:
    if j == 0 and b.first.parts:
        return ZERO
    if len(dims) == 1:
        return ONE
    rest = tuple(r - dims[1] for r in dims[1:])
    jj = max(j - 1, 0)
    return sum(
        (mult * _poly_orbit(b2, rest, jj) for b2, mult in _symbolic_row(b, dims[1])),
        ZERO,
    )


@functools.lru_cache(maxsize=None)
def _symbolic_row(b: Bipartition, r1: int) -> tuple[tuple[Bipartition, QPolynomial], ...]:
    """T[(b, r1)] as a tuple of (b', polynomial) pairs, kept only once its
    entries sum to [k choose r1]_q, k = dim ker x.  A tuple, so that no
    caller can change the row that every later caller reads."""
    row = _transition_row(b, r1)
    k = b.row_count
    total = sum(row.values(), ZERO)
    if total != q_binomial(k, r1):
        raise InterpolationError(
            f"T[{b}, {r1}] sums to {total}, not [{k} choose {r1}]_q = {q_binomial(k, r1)}"
        )
    return tuple(row.items())


def _transition_row(b: Bipartition, r: int) -> dict:
    """T[(b, r)] in closed form, by the position of W in K = ker x.

    With A_k = K & im x^k and B_k = K & (im x^k + F[x]v), rank x^k drops
    by dim(W & A_k) on V/W, and on V/(W + F[x]v) it is its rank on
    U = V/F[x]v (Jordan type kappa_i = nu_i + mu_(i+1)) minus dim(W & B_k)
    plus dim(W & F[x]v); _orbit_of_ranks reads b' off the two rank sequences.

    A_k and B_k are spanned by basis vectors of K: e_(i,1) for each row i,
    but u_m, the sum of the e_(j,1) over a run of equal mu_j = m > 0, for
    its last row.  A vector lies in A_k for k <= alpha = lambda_i - 1 at
    its row and in B_k for k <= beta = alpha, but for u_m beta is
    m - 1 + nu_j at the row j above the run, or lambda_1 (infinity) for
    m = mu_1.  H is spanned by the vectors with alpha = beta, L by the
    others, whose intervals (alpha, beta] are disjoint, so each L & A_k
    and L & B_k is the span F_t of the first t lines.  W is its projection
    W' to H (_schubert_cells), W_L = W & L and phi: W' -> L/W_L
    (_line_ranks), and dim(W & A_k) = dim(W_L & A_k) + dim(W' & A_k) -
    rank(phi: W' & A_k -> L/(L & A_k + W_L)), and the same for B_k.
    Many rows share their cells, their line ranks and their pairs of
    rank sequences, so all three are read off process tables over
    tuples (_schubert_cells, _line_ranks and _row_orbit)."""
    mu, nu, top = b.first, b.second, b.row_length(1)  # A_top = 0, B_top = K & F[x]v
    rows = range(1, b.row_count + 1)
    h, lines = [0] * top, []
    for i in rows:
        alpha = beta = b.row_length(i) - 1
        if mu.part(i) and mu.part(i + 1) != mu.part(i):
            above = mu.parts.index(mu.part(i))  # 0 when no row is above the run
            beta = mu.part(i) - 1 + nu.part(above) if above else top
        if alpha == beta:
            h[alpha] += 1
        else:
            lines.append((alpha, beta))
    in_a = [sum(alpha >= k for alpha, _ in lines) for k in range(top + 1)]
    in_b = [sum(beta >= k for _, beta in lines) for k in range(top + 1)]
    kappa = [nu.part(i) + mu.part(i + 1) for i in rows]
    rank_v = [sum(max(b.row_length(i) - k, 0) for i in rows) for k in range(top + 1)]
    rank_u = [sum(max(a - k, 0) for a in kappa) for k in range(top + 1)]
    row: dict = {}
    for c, cells in _schubert_cells(tuple(h), r):
        for ranks, maps in _line_ranks(c, len(lines), r - c[0]):
            # ranks[t] = (dim W_L - dim(W_L & F_t), ranks of phi modulo F_t)
            in_w_a, in_w_b = (
                [r - c[0] - ranks[t[k]][0] + c[k] - ranks[t[k]][1][k] for k in range(top + 1)]
                for t in (in_a, in_b)
            )
            b2 = _row_orbit(
                tuple([a - d for a, d in zip(rank_v, in_w_a)]),
                tuple([a - d + in_w_b[-1] for a, d in zip(rank_u, in_w_b)]),
            )
            row[b2] = row.get(b2, ZERO) + cells * maps
    return row


@functools.lru_cache(maxsize=None)
def _row_orbit(ranks: tuple[int, ...], quotient_ranks: tuple[int, ...]) -> Bipartition:
    """_orbit_of_ranks, built once per pair of rank sequences in a process
    for the transition rows.  classify_pair calls _orbit_of_ranks itself,
    so that classification keeps no table."""
    return _orbit_of_ranks(ranks, quotient_ranks)


@functools.lru_cache(maxsize=None)
def _schubert_cells(h: tuple[int, ...], most: int) -> tuple[tuple[tuple[int, ...], QPolynomial], ...]:
    """The subspaces W' of dimension at most `most` of a space with h[k]
    basis vectors at level k, by Schubert cell: (c, count), c[k] =
    dim(W' & levels >= k), count = prod over k of [h_k choose s_k]_q
    q^(s_k (e_(k+1) - c_(k+1))), s_k = c_k - c_(k+1), e_k = h_k + h_(k+1) + ...
    Built once per (h, most) in a process."""
    cells = [((0,), ONE)]
    above = 0  # e_(k+1)
    for k in range(len(h) - 1, -1, -1):
        cells = [
            ((c[0] + s,) + c, count * q_binomial(h[k], s) * q_power(s * (above - c[0])))
            for c, count in cells
            for s in range(min(h[k], most - c[0]) + 1)
        ]
        above += h[k]
    return tuple(cells)


@functools.lru_cache(maxsize=None)
def _line_ranks(c: tuple[int, ...], n_lines: int, n_jumps: int) -> tuple[tuple[tuple, QPolynomial], ...]:
    """The pairs (W_L, phi), dim W_L = n_jumps and dim(W' & A_k) = c[k], by
    position: (ranks, count), ranks[t] = (the pivots of W_L after line t,
    the ranks on each W' & A_k of the rows of phi after line t).  Each
    line, from the last, is a pivot of W_L or a row of phi, free at the
    pivots after it.  A row raises the rank rho_k of the rows after it on
    W' & A_k exactly for the k up to some j, and q^(rho_(j+1) + N -
    c_(j+1)) - q^(rho_j + N - c_j) rows do so, N = dim W'.  Built once per
    (c, n_lines, n_jumps) in a process."""
    paths = [(((0, (0,) * len(c)),), ONE)]
    for _ in range(n_lines):
        grown = []
        for ranks, count in paths:
            after, rho = ranks[0]
            if after < n_jumps:
                grown.append((((after + 1, rho),) + ranks, count))
            lower = ZERO
            for j in range(-1, len(c) - 1):
                upper = q_power(rho[j + 1] + c[0] - c[j + 1])
                if upper != lower:
                    raised = tuple(a + (k <= j) for k, a in enumerate(rho))
                    grown.append((((after, raised),) + ranks, count * q_power(after) * (upper - lower)))
                lower = upper
        paths = grown
    return tuple([(ranks, count) for ranks, count in paths if ranks[0][0] == n_jumps])


# ---------------------------------------------------------------------------
# orbit dimension and the closure order


def orbit_dimension(b: Bipartition) -> int:
    """Dimension of the orbit of b = (mu; nu): n^2 - 2 n(mu + nu) - |nu|,
    where n(lambda) = sum (i - 1) lambda_i and mu + nu has parts
    mu_i + nu_i (Achar-Henderson, Orbit closures in the enhanced nilpotent
    cone, Adv. Math. 219 (2008)).  The test suite checks it against the
    rank of the stabilizer system y.v = 0, yx = xy at the normal pair."""
    rows = (b.row_length(i) for i in range(1, b.row_count + 1))
    return b.n * b.n - 2 * sum(i * r for i, r in enumerate(rows)) - b.second.size


def closure_contains(big: Bipartition, small: Bipartition) -> bool:
    """Whether small's orbit lies in the closure of big's orbit (the image
    of big's resolution), by the Achar-Henderson inequalities, Adv. Math.
    219 (2008): with small = (rho; sigma), big = (mu; nu), A_k the sum of
    rho_i + sigma_i and B_k that of mu_i + nu_i over i <= k, exactly when
    A_k <= B_k and A_k + rho_{k+1} <= B_k + mu_{k+1} for every k >= 0."""
    if big.n != small.n:
        raise ValueError("bipartitions must have equal total size")
    # past the last row both sums are n and both parts are 0
    a_k = b_k = 0
    for k in range(max(big.row_count, small.row_count)):
        if a_k > b_k or a_k + small.first.part(k + 1) > b_k + big.first.part(k + 1):
            return False
        a_k += small.row_length(k + 1)
        b_k += big.row_length(k + 1)
    return True


def closure_pairs(n: int) -> tuple[tuple[Bipartition, Bipartition], ...]:
    """All ordered pairs (big, small) of bipartitions of n with small's
    orbit in the closure of big's."""
    bs = bipartitions(n)
    return tuple(
        (big, small) for big in bs for small in bs if closure_contains(big, small)
    )
