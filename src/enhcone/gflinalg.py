"""Exact linear algebra over prime fields GF(p).

Everything is immutable and hashable: matrices are tuples of row tuples
with entries in [0, p); subspaces are stored in reduced row echelon form
so that equal subspaces have identical representations and can be used
as cache keys.  Enumeration of subspaces walks RREF pivot patterns, so
each subspace appears exactly once.

MatrixGF, SubspaceGF and QuotientMap key the fiber walker's tables, so
each hashes once: the hash of its fields is computed on construction
and stored in a slot, and equality still compares the fields.  They
are slotted, with no __dict__.  The kernels below, SubspaceGF's zero,
full and coordinate, and quotient_map build their results through
unchecked constructors (_matrix, _subspace, _new), which skip the
public constructors' checks: their entries are already reduced and
their bases canonical.

Classification walks its image chain on packed vectors instead: one
int per vector, one bit field per entry, reduced mod p in all fields at
once (PackedLayout, _packed_layout).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from operator import lt, mul
from typing import Iterator, NamedTuple, Sequence


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


@dataclass(frozen=True, slots=True)
class MatrixGF:
    """Dense matrix over GF(p); rows is a tuple of row tuples.

    A modulus that is not prime and a row whose length is not ncols
    raise ValueError.  Entries are
    taken by operator.index, like Partition's parts, so a float raises
    TypeError, and reduced mod p, so every matrix reads the same as its
    reduction.  Int tuples already in [0, p) pass one type test and one
    min/max test over all entries and are kept as given:

    >>> MatrixGF(3, ((3, -1), (0, 3)), 2).rows
    ((0, 2), (0, 0))
    """

    p: int
    rows: tuple[tuple[int, ...], ...]
    ncols: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, rows, ncols = self.p, self.rows, self.ncols
        check_prime(p)
        if not set(map(len, rows)) <= {ncols}:
            raise ValueError(f"ragged rows: every row needs {ncols} entries")
        entries = list(itertools.chain.from_iterable(rows))
        if (
            {type(rows), *map(type, rows)} != {tuple}
            or not set(map(type, entries)) <= {int}
            or min(entries, default=0) < 0
            or max(entries, default=0) >= p
        ):
            rows = tuple(tuple(operator.index(a) % p for a in row) for row in rows)
            object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((p, rows, ncols)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int, ncols: int | None = None) -> "MatrixGF":
        tup = tuple(map(tuple, rows))
        if ncols is None:
            if not tup:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(tup[0])
        return cls(p, tup, ncols)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, p: int) -> "MatrixGF":
        return cls(p, tuple((0,) * ncols for _ in range(nrows)), ncols)

    @classmethod
    def identity(cls, n: int, p: int) -> "MatrixGF":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    def is_zero(self) -> bool:
        return all(not any(row) for row in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError("vector length does not match matrix columns")
        p = self.p
        return tuple(sum(map(mul, row, v)) % p for row in self.rows)

    def mul(self, other: "MatrixGF") -> "MatrixGF":
        if self.p != other.p or self.ncols != other.nrows:
            raise ValueError("matrix shape/field mismatch")
        p = self.p
        cols = list(zip(*other.rows)) if other.rows else []
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
            for row in self.rows
        )
        return _matrix(p, rows, other.ncols)

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        return self.mul(other)

    def sub(self, other: "MatrixGF") -> "MatrixGF":
        if self.p != other.p or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape/field mismatch")
        p = self.p
        rows = tuple(
            tuple((a - b) % p for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        )
        return _matrix(p, rows, self.ncols)

    def transpose(self) -> "MatrixGF":
        if self.rows:
            rows = tuple(tuple(r) for r in zip(*self.rows))
        else:
            rows = tuple(() for _ in range(self.ncols))
        return _matrix(self.p, rows, self.nrows)


_new = object.__new__
_set_mp, _set_mrows, _set_mncols, _set_mhash = (
    d.__set__ for d in (MatrixGF.p, MatrixGF.rows, MatrixGF.ncols, MatrixGF._hash)
)


def _matrix(p: int, rows: tuple[tuple[int, ...], ...], ncols: int) -> MatrixGF:
    """The MatrixGF of rows that are already tuples of ncols ints in
    [0, p), unchecked: the fields go straight into the slots."""
    m = _new(MatrixGF)
    _set_mp(m, p)
    _set_mrows(m, rows)
    _set_mncols(m, ncols)
    _set_mhash(m, hash((p, rows, ncols)))
    return m


def _rref_rows(rows: list[list[int]], p: int, ncols: int) -> tuple[list[list[int]], list[int]]:
    """In-place row reduction; returns (reduced rows, pivot columns)."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, nrows):
            if rows[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        if inv != 1:
            rows[r] = [(x * inv) % p for x in rows[r]]
        lead = rows[r]
        for rr in range(nrows):
            f = rows[rr][c]
            if rr != r and f:
                rows[rr] = [(x - f * y) % p for x, y in zip(rows[rr], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: MatrixGF) -> int:
    rows = [list(row) for row in m.rows]
    _, pivots = _rref_rows(rows, m.p, m.ncols)
    return len(pivots)


class PackedLayout(NamedTuple):
    """Vectors of n entries of GF(p) packed into one int each.  Entry c
    sits in a field of `width` bits at bit offset width * (n - 1 - c), so
    entry 0 is the most significant field and the first nonzero entry of
    a vector is the field of its top bit.  Adding packed ints and
    multiplying them by ints adds and multiplies every field at once,
    with no carry between fields while each stays below 2^width.
    `reduce` takes a packed int whose fields are all below `bound` to
    the packed int of their residues mod p, by one Barrett step with
    `multiplier`, `shift` and `mask`; a hot loop may spell the step out."""

    p: int
    width: int
    bound: int
    multiplier: int
    shift: int
    mask: int

    def pack(self, entries: Sequence[int]) -> int:
        """The packed int of entries, each in [0, p)."""
        packed, width = 0, self.width
        for a in entries:
            packed = packed << width | a
        return packed

    def reduce(self, a: int) -> int:
        """a with every field taken mod p, each field of a below bound."""
        return a - self.p * ((a * self.multiplier >> self.shift) & self.mask)


@lru_cache(maxsize=None)
def _packed_layout(n: int, p: int) -> PackedLayout:
    """The layout of packed vectors of length n over GF(p), built once per
    (n, p) in a process.

    reduce is one Barrett step on all fields at once: a field a becomes
    a - p * floor(a m / 2^s), with m = ceil(2^s / p).  The bound is
    B = max(n (p-1)^2, p^2) + p, above every field that
    normalform._chain_ranks reduces: a row operation, a scaling, and x
    applied to a reduced vector, an echelon row or a Krylov vector, which
    is a sum of n products of entries.  For a < B the error
    a m / 2^s - a / p = a (m p - 2^s) / (p 2^s) is below B / 2^s, and
    s = bits(B) + 2 bits(p) makes that less than 1 / p, the least
    distance from a / p up to the next integer, so the floor is
    floor(a / p).  One multiplication of the packed int by m makes every
    a m, which is below B m < 2^(width - 1) with
    width = bits(B m) + 1, so the products do not overlap.  The shift by
    s leaves floor(a m / 2^s) in the low width - s bits of each field and
    drops the low s bits of a m into the top of the field below, where
    the mask Q of the low width - s bits of every field clears them.
    Each field of p times the masked quotients is at most its a, so the
    subtraction borrows nothing."""
    bound = max(n * (p - 1) ** 2, p * p) + p
    s = bound.bit_length() + 2 * p.bit_length()
    m = -(-(1 << s) // p)
    width = (bound * m).bit_length() + 1
    low = (1 << (width - s)) - 1
    mask = sum(low << (width * c) for c in range(n))
    return PackedLayout(p, width, bound, m, s, mask)


@dataclass(frozen=True, slots=True)
class SubspaceGF:
    """Subspace of GF(p)^n in canonical form: RREF basis + pivot columns.

    The constructor takes only the canonical form, so that equal
    subspaces stay equal values: a modulus that is not prime raises
    ValueError, and so does a basis that is not the RREF basis of its
    span with the given pivots.

    >>> SubspaceGF(3, 2, ((2, 0),), (0,))
    Traceback (most recent call last):
    ...
    ValueError: basis row 0 is not 0 before its pivot, 1 at it and 0 at the other pivots
    """

    p: int
    ambient: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, ambient, basis, pivots = self.p, self.ambient, self.basis, self.pivots
        check_prime(p)
        _check_canonical(p, ambient, basis, pivots)
        object.__setattr__(self, "_hash", hash((p, ambient, basis, pivots)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def span(cls, vectors: Sequence[Sequence[int]], ambient: int, p: int) -> "SubspaceGF":
        check_prime(p)
        rows = [[x % p for x in v] for v in vectors]
        for row in rows:
            if len(row) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        if rows:
            rows, pivots = _rref_rows(rows, p, ambient)
            basis = tuple(tuple(row) for row in rows[: len(pivots)])
        else:
            basis, pivots = (), []
        return _subspace(p, ambient, basis, tuple(pivots))

    @classmethod
    def zero(cls, ambient: int, p: int) -> "SubspaceGF":
        check_prime(p)
        return _subspace(p, ambient, (), ())

    @classmethod
    def full(cls, ambient: int, p: int) -> "SubspaceGF":
        check_prime(p)
        basis = tuple(tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient))
        return _subspace(p, ambient, basis, tuple(range(ambient)))

    @classmethod
    def coordinate(cls, coords: Sequence[int], ambient: int, p: int) -> "SubspaceGF":
        """Span of the standard basis vectors e_c for c in coords, which
        must lie in range(ambient)."""
        check_prime(p)
        cs = tuple(sorted(set(coords)))
        if cs and (cs[0] < 0 or cs[-1] >= ambient):
            raise ValueError(f"coordinates {cs} are not all in range({ambient})")
        basis = tuple(tuple(1 if j == c else 0 for j in range(ambient)) for c in cs)
        return _subspace(p, ambient, basis, cs)

    def _check_compatible(self, other: "SubspaceGF") -> None:
        if self.p != other.p or self.ambient != other.ambient:
            raise ValueError("subspace field/ambient mismatch")

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of v modulo this subspace."""
        p = self.p
        out = [x % p for x in v]
        for row, c in zip(self.basis, self.pivots):
            f = out[c]
            if f:
                out = [(x - f * y) % p for x, y in zip(out, row)]
        return tuple(out)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def sum(self, other: "SubspaceGF") -> "SubspaceGF":
        self._check_compatible(other)
        return SubspaceGF.span(self.basis + other.basis, self.ambient, self.p)

    def intersect(self, other: "SubspaceGF") -> "SubspaceGF":
        """Intersection via the left kernel of the stacked basis matrix."""
        self._check_compatible(other)
        a, b = self.dim, other.dim
        if a == 0 or b == 0:
            return SubspaceGF.zero(self.ambient, self.p)
        stacked = _matrix(self.p, self.basis + other.basis, self.ambient)
        ker = kernel(stacked.transpose())
        vecs = []
        for coeffs in ker.basis:
            v = [0] * self.ambient
            for s in range(a):
                f = coeffs[s]
                if f:
                    v = [(x + f * y) % self.p for x, y in zip(v, self.basis[s])]
            vecs.append(v)
        return SubspaceGF.span(vecs, self.ambient, self.p)


_set_sp, _set_samb, _set_sbasis, _set_spiv, _set_shash = (
    d.__set__ for d in (SubspaceGF.p, SubspaceGF.ambient, SubspaceGF.basis, SubspaceGF.pivots, SubspaceGF._hash)
)


def _check_canonical(p: int, ambient: int, basis: tuple, pivots: tuple) -> None:
    """Raise ValueError unless basis is the RREF basis of its span in
    GF(p)^ambient, with the given pivots: rows of ambient int entries in
    [0, p), strictly increasing pivots, and each row 0 before its pivot,
    1 at it and 0 at every other row's pivot."""
    if type(ambient) is not int or ambient < 0:
        raise ValueError(f"ambient dimension must be a nonnegative int, got {ambient!r}")
    if type(basis) is not tuple or type(pivots) is not tuple or len(basis) != len(pivots):
        raise ValueError("basis and pivots must be tuples of equal length")
    if not (
        set(map(type, pivots)) <= {int}
        and all(map(lt, pivots, pivots[1:]))
        and (not pivots or (pivots[0] >= 0 and pivots[-1] < ambient))
    ):
        raise ValueError(f"pivots must be strictly increasing columns below {ambient}: {pivots}")
    for r, (row, c) in enumerate(zip(basis, pivots)):
        if (
            type(row) is not tuple
            or len(row) != ambient
            or not set(map(type, row)) <= {int}
            or min(row) < 0
            or max(row) >= p
        ):
            raise ValueError(f"basis row {r} is not a tuple of {ambient} ints in [0, {p})")
        # entries are >= 0, so a sum of 1 over the pivots leaves the others 0
        if any(row[:c]) or row[c] != 1 or sum(map(row.__getitem__, pivots)) != 1:
            raise ValueError(
                f"basis row {r} is not 0 before its pivot, 1 at it and 0 at the other pivots"
            )


def _subspace(p: int, ambient: int, basis: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]) -> SubspaceGF:
    """The SubspaceGF of a canonical basis and its pivots, unchecked."""
    s = _new(SubspaceGF)
    _set_sp(s, p)
    _set_samb(s, ambient)
    _set_sbasis(s, basis)
    _set_spiv(s, pivots)
    _set_shash(s, hash((p, ambient, basis, pivots)))
    return s


def kernel(m: MatrixGF) -> SubspaceGF:
    """Null space {u : m u = 0}, canonical."""
    p = m.p
    ncols = m.ncols
    rows = [list(row) for row in m.rows]
    rows, pivots = _rref_rows(rows, p, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vecs = []
    for c in free:
        v = [0] * ncols
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][c]) % p
        vecs.append(v)
    return SubspaceGF.span(vecs, ncols, p)


@dataclass(frozen=True, slots=True)
class QuotientMap:
    """Projection GF(p)^n -> GF(p)^(n-d) whose kernel is the canonical
    subspace with RREF basis basis_rows and pivot columns pivots.  The
    quotient coordinates are the non-pivot coordinates, in ascending
    order.  The constructor checks that contract as SubspaceGF's does: a
    modulus that is not prime, a kernel basis that is not canonical and
    nonpivots other than the complement of pivots in range(ambient)
    raise ValueError.  quotient_map builds one unchecked.

    That contract is why only quotient coordinates move.  Each row is 1
    at its own pivot and 0 at every other row's pivot, so reducing v by
    the rows one after another never changes v at another row's pivot:
    each row is subtracted v[c_r] times, and coordinate t of the image
    is v[N_t] - sum_r v[c_r] * row_r[N_t].  apply and push_matrix build
    the n - d coordinates they return and no full-length vector.

    The nonpivots follow from ambient and pivots, so the stored hash is
    that of the kernel's subspace, and quotient_map copies it.

    >>> QuotientMap(3, 2, ((1, 1),), (0,), (0, 1))
    Traceback (most recent call last):
    ...
    ValueError: nonpivots must be the columns of range(2) outside the pivots (0,), got (0, 1)
    """

    p: int
    ambient: int
    basis_rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    nonpivots: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, ambient, basis_rows, pivots = self.p, self.ambient, self.basis_rows, self.pivots
        check_prime(p)
        _check_canonical(p, ambient, basis_rows, pivots)
        if self.nonpivots != tuple(c for c in range(ambient) if c not in pivots):
            raise ValueError(
                f"nonpivots must be the columns of range({ambient}) outside the pivots {pivots}, "
                f"got {self.nonpivots!r}"
            )
        object.__setattr__(self, "_hash", hash((p, ambient, basis_rows, pivots)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def codim(self) -> int:
        return len(self.nonpivots)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        p, nonpivots = self.p, self.nonpivots
        out = [v[t] % p for t in nonpivots]
        for row, c in zip(self.basis_rows, self.pivots):
            f = v[c] % p
            if f:
                out = [(a - f * row[t]) % p for a, t in zip(out, nonpivots)]
        return tuple(out)

    def push_matrix(self, x: MatrixGF) -> MatrixGF:
        """Induced map on the quotient; requires x(kernel) <= kernel.  Row t
        is x[N_t][N] - sum_r row_r[N_t] * x[c_r][N], N the nonpivots."""
        p, nonpivots, xrows = self.p, self.nonpivots, x.rows
        rows = []
        for t in nonpivots:
            head = xrows[t]
            out = [head[s] for s in nonpivots]
            for row, c in zip(self.basis_rows, self.pivots):
                f = row[t]
                if f:
                    xr = xrows[c]
                    out = [(a - f * xr[s]) % p for a, s in zip(out, nonpivots)]
            rows.append(tuple(out))
        return _matrix(p, tuple(rows), len(nonpivots))

    def lift(self, v: Sequence[int]) -> tuple[int, ...]:
        out = [0] * self.ambient
        for val, c in zip(v, self.nonpivots):
            out[c] = val % self.p
        return tuple(out)

    def preimage(self, sub: SubspaceGF) -> SubspaceGF:
        vecs = [self.lift(row) for row in sub.basis] + list(self.basis_rows)
        return SubspaceGF.span(vecs, self.ambient, self.p)


_set_qp, _set_qamb, _set_qrows, _set_qpiv, _set_qnonpiv, _set_qhash = (
    d.__set__ for d in (
        QuotientMap.p, QuotientMap.ambient, QuotientMap.basis_rows, QuotientMap.pivots,
        QuotientMap.nonpivots, QuotientMap._hash,
    )
)


def quotient_map(w: SubspaceGF) -> QuotientMap:
    """Quotient map by w onto the non-pivot coordinate space of GF(p)^n,
    straight from w's canonical basis, whose pivots are distinct, and
    with w's stored hash, unchecked."""
    qm = _new(QuotientMap)
    _set_qp(qm, w.p)
    _set_qamb(qm, w.ambient)
    _set_qrows(qm, w.basis)
    _set_qpiv(qm, w.pivots)
    _set_qnonpiv(qm, tuple(c for c in range(w.ambient) if c not in w.pivots))
    _set_qhash(qm, w._hash)
    return qm


def _row_options(head: tuple[int, ...], frees: Sequence[tuple[int, ...]], p: int) -> Iterator[tuple[int, ...]]:
    """head plus every combination of the rows frees, their coefficients
    in itertools.product order.  The coefficients run as an odometer, so
    each option after head costs one vector addition: raising a digit
    adds its row to the partial sum once more, and the digits after it
    fall back to 0."""
    coeffs = [0] * len(frees)
    partial = [head] * len(frees)  # head plus the terms up to and including each digit
    row = head
    while True:
        yield row
        t = len(frees) - 1
        while t >= 0 and coeffs[t] == p - 1:
            coeffs[t] = 0
            t -= 1
        if t < 0:
            return
        coeffs[t] += 1
        row = tuple([(a + b) % p for a, b in zip(partial[t], frees[t])])
        partial[t:] = [row] * (len(frees) - t)


def _listed(source: Iterator, into: list) -> Iterator:
    """source's items, each appended to into as it comes."""
    for item in source:
        into.append(item)
        yield item


def _bases(rows: list, i: int, above: tuple) -> Iterator[tuple]:
    """above followed by every choice of one option for each of rows i,
    i + 1, ..., the first slowest.  rows[i] is (the option source of row
    i, the options listed so far): a row's first pass draws from its
    source and lists what it draws, and every later pass reads the
    list."""
    if i == len(rows):
        yield above
        return
    source, listed = rows[i]
    for row in listed or _listed(source, listed):
        yield from _bases(rows, i + 1, above + (row,))


def enumerate_subspaces(ambient: SubspaceGF, d: int) -> Iterator[SubspaceGF]:
    """Every d-dimensional subspace of ambient, exactly once.

    For each choice of d pattern pivots among the ambient RREF basis
    rows, row r of a subspace is the ambient row at its pattern pivot
    plus free coefficients times the later ambient rows that are not
    pattern pivots.  That is an RREF coefficient pattern times an RREF
    basis, which is again RREF, so results are canonical without
    re-reduction.  Pivot choices come in lexicographic order, and within
    one the free coefficients in itertools.product order, row by row,
    each row's coefficients in the order of the ambient rows they scale.

    Each row's options are built as the row first reaches them and kept
    for its later passes, so the first subspace comes at once however
    large p is, and no option is built twice.  The zero subspace (d = 0)
    and ambient itself (d = dim) come at once, with no rows built.
    """
    k, p, n = ambient.dim, ambient.p, ambient.ambient
    if d < 0 or d > k:
        raise ValueError(f"cannot take {d}-dim subspaces of a {k}-dim space")
    if d == 0:
        yield _subspace(p, n, (), ())
        return
    if d == k:
        yield ambient
        return
    amb_rows = ambient.basis
    for pattern in itertools.combinations(range(k), d):
        pivots = tuple(ambient.pivots[s] for s in pattern)
        rows = [
            (_row_options(amb_rows[s], [amb_rows[c] for c in range(s + 1, k) if c not in pattern], p), [])
            for s in pattern
        ]
        for basis in _bases(rows, 0, ()):
            yield _subspace(p, n, basis, pivots)
