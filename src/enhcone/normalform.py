"""Normal-basis pairs (v, x), their weight grading, and orbit classification.

For a bipartition (alpha; beta) the normal pair has one basis vector per
diagram box (i, j), ordered row-major.  The nilpotent x shifts each box
one step left in its row (killing the leftmost box), v is the sum of the
basis vectors at the alpha-boundary boxes (i, alpha_i), and box (i, j)
carries the weight alpha_i - j.  Under this grading v is homogeneous of
weight 0 and x raises weights by exactly 1.  The graded subspaces and
quotients of a GradedPair need neither, so they serve any grading.

Classification of an arbitrary pair (v, x) into its orbit bipartition
reads two Jordan types: lambda, of x, and kappa, of the map x induces on
V / F[x]v, where F[x]v is the span of v, xv, x^2 v, ...  Both are
GL(V)-invariant, and on the normal pair of (mu; nu) they are
lambda_i = mu_i + nu_i and kappa_i = nu_i + mu_{i+1}, which determine
(mu; nu) from the last row upward.  Both come from one forward-elimination
walk down the image chain C_k = x^k V: lambda from the dimensions of the
C_k, and kappa from where F[x]v enters the chain.  F[x]v is cyclic, so
C_k meets it in x^j F[x]v for the least j with x^j v in C_k, and the
rank of x^k on V / F[x]v is dim C_k minus the dimension of that
intersection.  The orbit is read straight off the two rank sequences,
each rank-drop sequence transposed in one pass.

The walk keeps every vector, each Krylov vector x^j v included, as one
packed int (gflinalg.PackedLayout), so that a row operation or a
matrix-vector product acts on all n entries with a few integer
operations and one Barrett step; _chain_ranks says why no field
overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index, mul, sub
from typing import Iterator, NamedTuple, Sequence

from .combinatorics import Bipartition, Partition, is_distinguished
from .gflinalg import (
    MatrixGF,
    QuotientMap,
    SubspaceGF,
    _matrix,
    _packed_layout,
    _subspace,
    check_prime,
    enumerate_subspaces,
    kernel,
    quotient_map,
)


class GradedPair(NamedTuple):
    """A vector/nilpotent pair on a coordinate space with one integer
    weight per coordinate, which x and v need not respect; a tuple, so
    that the fiber walker's tables hash it as one."""

    x: MatrixGF
    v: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.x.p

    @property
    def n(self) -> int:
        return self.x.ncols


@dataclass(frozen=True)
class NormalPair:
    """Normal-basis realization of the orbit pair of a bipartition."""

    bipartition: Bipartition
    p: int
    basis_labels: tuple[tuple[int, int], ...]
    x: MatrixGF
    v: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.bipartition.n

    @property
    def pair(self) -> GradedPair:
        return GradedPair(self.x, self.v, self.weights)

    def to_json_dict(self) -> dict:
        return {
            "mu": list(self.bipartition.first.parts),
            "nu": list(self.bipartition.second.parts),
            "p": self.p,
            "basis": [list(b) for b in self.basis_labels],
            "x": [list(r) for r in self.x.rows],
            "v": list(self.v),
            "weights": list(self.weights),
        }


def normal_pair(b: Bipartition, p: int) -> NormalPair:
    """Normal pair of b over GF(p), basis ordered row-major over the diagram.

    x sends the basis vector of box (i, j) to that of (i, j-1), and to 0
    for j = 1; v is the sum of the vectors at boxes (i, alpha_i).
    """
    check_prime(p)
    alpha, beta = b.first, b.second
    labels = []
    for i in range(1, b.row_count + 1):
        for j in range(1, b.row_length(i) + 1):
            labels.append((i, j))
    n = len(labels)
    index = {box: t for t, box in enumerate(labels)}
    rows = [[0] * n for _ in range(n)]
    for (i, j), t in index.items():
        if j > 1:
            rows[index[(i, j - 1)]][t] = 1
    v = [0] * n
    for i in range(1, alpha.length + 1):
        v[index[(i, alpha.part(i))]] = 1
    weights = tuple(alpha.part(i) - j for (i, j) in labels)
    x = MatrixGF(p, tuple(tuple(r) for r in rows), n)
    return NormalPair(b, p, tuple(labels), x, tuple(v), weights)


def jordan_type(x: MatrixGF) -> Partition:
    """Jordan type of a nilpotent matrix: the transpose of the drops in
    dim x^k V, which is the rank of x^k, down the image chain.

    >>> jordan_type(MatrixGF(2, ((0, 1, 0), (0, 0, 1), (0, 0, 0)), 3))
    Partition(parts=(3,))
    """
    if not x.is_square():
        raise ValueError("jordan_type needs a square matrix")
    return partition_from_ranks(_chain_ranks(x, (0,) * x.nrows)[0])


def _chain_ranks(x: MatrixGF, v: Sequence[int]) -> tuple[list[int], list[int]]:
    """Two rank sequences read off one walk down the image chain
    C_k = x^k V of a square x, from C_0 = V to the zero subspace: dim C_k,
    and dim(C_k + K) - dim K for K = F[x]v, the span of the Krylov
    vectors v, xv, x^2 v, ...  v has n int entries, each taken by
    operator.index and reduced mod p as it is packed, in one pass.  These
    are the ranks of x^k on V and on V / F[x]v.

    Each level is forward elimination in insertion order: a spanning row
    is reduced by the echelon rows before it, one after another, and a
    row that is left nonzero is scaled to 1 at its first nonzero entry,
    its pivot.  Each echelon row is 0 at the pivots before its own, so
    that reduction is a membership test, and no row is back-substituted.
    C_1 is spanned by the columns of x, whose entries MatrixGF keeps
    reduced, and C_(k+1) by x applied to the echelon rows of C_k.

    Every vector is one packed int (gflinalg.PackedLayout), so a row
    operation is a few integer operations on all n entries at once.
    Reducing by an echelon row whose pivot is f in the row adds p - f
    times the echelon row, and scaling multiplies by the pivot's
    inverse; x applied to a vector u, an echelon row or a Krylov vector,
    is the sum over c of u_c times x's packed column c.  One Barrett
    step (layout.reduce, written out inline) then takes every entry back
    into [0, p).  Before it an entry is at most (p-1) + (p-1)^2 < p^2,
    (p-1)^2 or n (p-1)^2, all below the layout's bound
    B = max(n (p-1)^2, p^2) + p, so no field carries into the next and
    the step is exact.  The pivot is the field of the row's top bit, and
    its entry is the row shifted down to that field.

    The Krylov vectors are built first, x^m v = 0 ending them; n of them
    nonzero raise ValueError, since x is then not nilpotent.  K is
    cyclic, so its only x-stable subspaces are the x^j K, and
    C_k & K = x^(j_k) K for j_k the least j with x^j v in C_k.  Hence
    dim(C_k + K) - dim K = dim C_k - (m - j_k).  A Krylov vector out of
    C_k is out of every later level, so j_k never falls as k grows, and
    x^k v lies in C_k: each level tests from j_(k-1) on and stops at the
    first vector in, at most k.  The whole walk reduces at most
    (levels + m) Krylov vectors, each against one level's echelon rows.
    A level that keeps the dimension of the one before raises
    ValueError: x is then not nilpotent either.
    """
    n, p = x.nrows, x.p
    layout = _packed_layout(n, p)
    pack, width = layout.pack, layout.width
    mult, shift, mask = layout.multiplier, layout.shift, layout.mask
    field = (1 << width) - 1
    offsets = range(width * (n - 1), -1, -width)  # of entries 0, 1, ..., n - 1
    columns = [pack(col) for col in zip(*x.rows)]
    krylov, u = [], 0
    for a in v:
        u = u << width | index(a) % p
    while u:
        if len(krylov) == n:
            raise ValueError("matrix is not nilpotent")
        krylov.append(u)
        u = sum(map(mul, [u >> offset & field for offset in offsets], columns))
        u -= p * ((u * mult >> shift) & mask)  # layout.reduce, spelled out
    m, j = len(krylov), 0
    dims, quotient_dims = [n], [n - m]
    level = columns
    while dims[-1]:
        echelon = []
        for row in level:
            for erow, offset in echelon:
                f = row >> offset & field
                if f:
                    row += (p - f) * erow
                    row -= p * ((row * mult >> shift) & mask)
            if row:
                offset = (row.bit_length() - 1) // width * width
                f = row >> offset
                if f != 1:
                    row *= pow(f, -1, p)
                    row -= p * ((row * mult >> shift) & mask)
                echelon.append((row, offset))
        d = len(echelon)
        if d == dims[-1]:
            raise ValueError("matrix is not nilpotent")
        dims.append(d)
        top = min(len(dims) - 1, m)  # x^k v lies in C_k
        while j < top:
            u = krylov[j]
            for erow, offset in echelon:
                f = u >> offset & field
                if f:
                    u += (p - f) * erow
                    u -= p * ((u * mult >> shift) & mask)
            if not u:
                break
            j += 1
        quotient_dims.append(d - m + j)
        level = []
        for erow, _ in echelon:
            u = sum(map(mul, [erow >> offset & field for offset in offsets], columns))
            level.append(u - p * ((u * mult >> shift) & mask))
    return dims, quotient_dims


def partition_from_ranks(ranks: Sequence[int]) -> Partition:
    """Jordan type of a nilpotent map whose k-th power has rank ranks[k],
    down to a final 0: the transpose of the rank drops."""
    return Partition(tuple(_drop_columns(ranks)))


def centralizer_basis(x: MatrixGF) -> tuple[MatrixGF, ...]:
    """Basis of {y : yx = xy} as matrices."""
    if not x.is_square():
        raise ValueError("centralizer_basis needs a square matrix")
    n = x.nrows
    p = x.p
    if n == 0:
        return ()
    nn = n * n
    rows = []
    for r in range(n):
        for c in range(n):
            row = [0] * nn
            for k in range(n):
                row[r * n + k] = (row[r * n + k] + x.rows[k][c]) % p
                row[k * n + c] = (row[k * n + c] - x.rows[r][k]) % p
            rows.append(tuple(row))
    system = MatrixGF(p, tuple(rows), nn)
    basis = []
    for flat in kernel(system).basis:
        mat = tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n))
        basis.append(MatrixGF(p, mat, n))
    return tuple(basis)


def classify_pair(v: Sequence[int], x: MatrixGF) -> Bipartition:
    """The bipartition (mu; nu) of the orbit of the pair (v, x), x nilpotent:
    orbit_of_types of lambda, the Jordan type of x, and kappa, that of x
    on V / F[x]v.  Both come from one walk down the image chain x^k V
    (_chain_ranks), which reduces and packs v in one pass and builds the
    Krylov vectors x^j v on the packed columns of x that the chain uses:
    x^k has rank dim x^k V, and its map on V / F[x]v has rank
    dim x^k V - (m - j_k), with m = dim F[x]v and j_k the least j with
    x^j v in x^k V.  No MatrixGF.matvec and no tuple Krylov vector is
    formed.  _orbit_of_ranks reads (mu; nu) off the two rank sequences.
    The roundtrip classify_pair(normal_pair(b, p)) == b pins this
    contract, and classification is constant on GL(V)-orbits.
    Conjugating the normal pair of ((1); (1)), with v = e_1 and x = E_12,
    by the swap of e_1 and e_2 gives v = e_2 and x = E_21:

    >>> from .combinatorics import format_bipartition
    >>> x = MatrixGF(5, ((0, 0), (1, 0)), 2)
    >>> format_bipartition(classify_pair((0, 1), x))
    'mu=1;nu=1'

    A non-square x, a v of the wrong length and a non-nilpotent x raise
    ValueError.  Entries of v are taken by operator.index, like those of
    x, so a float raises TypeError.
    """
    if not x.is_square():
        raise ValueError("classify_pair needs a square matrix")
    if len(v) != x.nrows:
        raise ValueError("vector length does not match matrix size")
    return _orbit_of_ranks(*_chain_ranks(x, v))


def orbit_of_types(lam: Partition, kappa: Partition) -> Bipartition:
    """The orbit (mu; nu) whose pairs have Jordan type lam on V and kappa on
    V / F[x]v.  With kappa padded to the length of lam, nu_i = kappa_i -
    mu_(i+1) and mu_i = lam_i - nu_i for i from the last row up, with mu
    beyond the last row 0."""
    return _orbit(list(lam.parts), list(kappa.parts))


def _orbit_of_ranks(ranks: Sequence[int], quotient_ranks: Sequence[int]) -> Bipartition:
    """orbit_of_types(partition_from_ranks(ranks),
    partition_from_ranks(quotient_ranks)), with only mu and nu built as
    Partitions: the two types stay lists of the column counts of the
    rank drops."""
    return _orbit(_drop_columns(ranks), _drop_columns(quotient_ranks))


def _orbit(lam: list[int], kappa: list[int]) -> Bipartition:
    """orbit_of_types on the parts of lam and kappa; types that no orbit
    has raise AssertionError."""
    ell = len(lam)
    padded = kappa + [0] * (ell - len(kappa))
    mu = [0] * (ell + 1)
    nu = [0] * ell
    for i in range(ell - 1, -1, -1):
        nu[i] = padded[i] - mu[i + 1]
        mu[i] = lam[i] - nu[i]
    if len(kappa) > ell or min(mu + nu) < 0:
        lam, kappa = Partition(tuple(lam)), Partition(tuple(kappa))
        raise AssertionError(f"no orbit has Jordan types {lam} and {kappa}")
    return Bipartition(_trimmed(mu), _trimmed(nu))


def _drop_columns(ranks: Sequence[int]) -> list[int]:
    """The column counts of the nonzero drops ranks[k] - ranks[k + 1],
    columns[i] = #{drops > i}, built in one pass up the drops from the
    last; drops that are not positive and weakly decreasing raise
    ValueError."""
    drops = [d for d in map(sub, ranks, ranks[1:]) if d]
    columns, below = [], 0
    for count, d in zip(range(len(drops), 0, -1), reversed(drops)):
        if d < below:
            raise ValueError(f"rank drops must be positive and weakly decreasing: {tuple(drops)}")
        columns += [count] * (d - below)  # the drops > i for below <= i < d
        below = d
    return columns


def _trimmed(parts: list[int]) -> Partition:
    while parts and parts[-1] == 0:
        parts.pop()
    return Partition(tuple(parts))


# ---------------------------------------------------------------------------
# weight blocks, graded subspaces and graded quotients


def weight_blocks(weights: Sequence[int]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Coordinates grouped by weight, heaviest first."""
    blocks: dict[int, list[int]] = {}
    for c, w in enumerate(weights):
        blocks.setdefault(w, []).append(c)
    return tuple((w, tuple(blocks[w])) for w in sorted(blocks, reverse=True))


def graded_kernel_blocks(
    pair: GradedPair,
) -> tuple[tuple[int, tuple[int, ...], SubspaceGF], ...]:
    """Per-weight kernel pieces (w, block coords, ker x in block coordinates)."""
    out = []
    for w, coords in weight_blocks(pair.weights):
        sub = _matrix(
            pair.p,
            tuple(tuple(row[c] for c in coords) for row in pair.x.rows),
            len(coords),
        )
        out.append((w, coords, kernel(sub)))
    return tuple(out)


GradedSelection = tuple[tuple[tuple[int, ...], SubspaceGF], ...]


def enumerate_graded_subspaces(
    blocks: Sequence[tuple[int, tuple[int, ...], SubspaceGF]], d: int
) -> Iterator[GradedSelection]:
    """All graded subspaces of the direct sum of the blocks with total
    dimension d, as per-block choices in block coordinates, the first
    block's outermost and largest first."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    last = len(blocks) - 1

    def walk(idx: int, remaining: int) -> Iterator[GradedSelection]:
        _, coords, piece = blocks[idx]
        if idx == last:  # takes what remains, with no level below
            if remaining <= piece.dim:
                for choice in enumerate_subspaces(piece, remaining):
                    yield ((coords, choice),)
            return
        lo = max(0, remaining - sum(b[2].dim for b in blocks[idx + 1 :]))
        for dw in range(min(piece.dim, remaining), lo - 1, -1):
            for choice in enumerate_subspaces(piece, dw):
                for rest in walk(idx + 1, remaining - dw):
                    yield ((coords, choice),) + rest

    if blocks:
        yield from walk(0, d)
    elif d == 0:
        yield ()


def graded_span(selection: GradedSelection, n: int, p: int) -> SubspaceGF:
    """The span of a graded selection, canonical without re-reduction.
    Blocks have disjoint, ascending coordinates, so each embedded block
    RREF row is 0 before its pivot and at every other pivot; sorted by
    pivot, the rows are the RREF basis of their span.  A single block on
    all n coordinates is its own span, as it is."""
    if len(selection) == 1 and len(selection[0][0]) == n:
        return selection[0][1]
    rows = []
    for coords, sub in selection:
        for brow, bpiv in zip(sub.basis, sub.pivots):
            row = [0] * n
            for c, val in zip(coords, brow):
                row[c] = val
            rows.append((coords[bpiv], tuple(row)))
    rows.sort()
    return _subspace(p, n, tuple(row for _, row in rows), tuple(c for c, _ in rows))


def graded_projection(selection: GradedSelection, n: int, p: int) -> QuotientMap:
    """Quotient map by the span of a graded selection; the quotient
    coordinates inherit well-defined weights."""
    return quotient_map(graded_span(selection, n, p))


def quotient_pair(pair: GradedPair, qm: QuotientMap) -> GradedPair:
    """The graded pair induced on the quotient by qm's kernel, which must
    be x-stable and graded; each quotient coordinate keeps its weight."""
    weights = tuple([pair.weights[c] for c in qm.nonpivots])
    return GradedPair(qm.push_matrix(pair.x), qm.apply(pair.v), weights)


def graded_quotient(
    pair: GradedPair, selection: GradedSelection
) -> tuple[QuotientMap, GradedPair]:
    """Quotient map by a graded subspace of ker x, with the induced graded
    pair on the quotient."""
    qm = graded_projection(selection, pair.x.ncols, pair.x.p)
    return qm, quotient_pair(pair, qm)


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class Decomposition:
    """Direct sum V = V1 (+) V2, both x-stable and weight-graded, v in V1."""

    v1: SubspaceGF
    v2: SubspaceGF


def decomposition_failures(pair: GradedPair, dec: Decomposition) -> list[str]:
    """Names of the splitting conditions the decomposition violates.  A
    subspace is graded exactly when each row of its RREF basis lies in
    one weight space: in a graded subspace, the part of a row at the
    weight of its pivot is again a vector of the subspace with the same
    entries at every pivot, so it is the row itself."""
    failures = []
    n = pair.n
    if dec.v1.dim + dec.v2.dim != n or dec.v1.sum(dec.v2).dim != n:
        failures.append("not a direct sum")
    for name, sub in (("V1", dec.v1), ("V2", dec.v2)):
        if not all(sub.contains(pair.x.matvec(row)) for row in sub.basis):
            failures.append(f"{name} not x-stable")
        if any(
            len({pair.weights[c] for c, a in enumerate(row) if a}) > 1 for row in sub.basis
        ):
            failures.append(f"{name} not weight-graded")
    if not dec.v1.contains(pair.v):
        failures.append("v not in V1")
    return failures


def explicit_decomposition(np: NormalPair) -> Decomposition:
    """Nontrivial splitting of a non-distinguished normal pair, by the first
    applicable of three constructions:

    (a) len(beta) > len(alpha): V2 is the row below the alpha rows;
    (b) alpha_l = alpha_{l+1}: V2 is row l, V1 the other rows together
        with the sums of the two rows' vectors up to column
        alpha_{l+1} + beta_{l+1};
    (c) padded beta_l = beta_{l+1}: V2 is row l+1, V1 the other rows
        together with all x-powers of the sum of the two row heads.
    """
    b = np.bipartition
    if is_distinguished(b):
        raise ValueError(f"{b} is distinguished; no nontrivial splitting exists")
    alpha, beta = b.first, b.second
    k = alpha.length
    n, p = np.n, np.p
    index = {box: t for t, box in enumerate(np.basis_labels)}

    def row_coords(i: int) -> list[int]:
        return [index[(i, j)] for j in range(1, b.row_length(i) + 1)]

    def basis_vec(i: int, j: int) -> list[int]:
        e = [0] * n
        e[index[(i, j)]] = 1
        return e

    if beta.length > k:
        l2 = k + 1
        v2 = SubspaceGF.coordinate(row_coords(l2), n, p)
        others = [c for i in range(1, b.row_count + 1) if i != l2 for c in row_coords(i)]
        v1 = SubspaceGF.coordinate(others, n, p)
        return Decomposition(v1, v2)

    for l in range(1, k):
        if alpha.part(l) == alpha.part(l + 1):
            v2 = SubspaceGF.coordinate(row_coords(l), n, p)
            vecs = [
                basis_vec(i, j)
                for i in range(1, b.row_count + 1)
                if i not in (l, l + 1)
                for j in range(1, b.row_length(i) + 1)
            ]
            for j in range(1, alpha.part(l + 1) + beta.part(l + 1) + 1):
                vecs.append([(a + c) % p for a, c in zip(basis_vec(l, j), basis_vec(l + 1, j))])
            return Decomposition(SubspaceGF.span(vecs, n, p), v2)

    for l in range(1, k):
        if beta.part(l) == beta.part(l + 1):
            v2 = SubspaceGF.coordinate(row_coords(l + 1), n, p)
            vecs = [
                basis_vec(i, j)
                for i in range(1, b.row_count + 1)
                if i not in (l, l + 1)
                for j in range(1, b.row_length(i) + 1)
            ]
            head = [
                (a + c) % p
                for a, c in zip(
                    basis_vec(l, alpha.part(l) + beta.part(l)),
                    basis_vec(l + 1, alpha.part(l + 1) + beta.part(l)),
                )
            ]
            u = head
            while any(u):
                vecs.append(u)
                u = list(np.x.matvec(u))
            return Decomposition(SubspaceGF.span(vecs, n, p), v2)

    raise AssertionError(f"no construction applies to non-distinguished {b}")


class SplitFactors(NamedTuple):
    """The normal pair of a non-distinguished bipartition, its explicit
    splitting V1 (+) V2, the splitting conditions that the splitting
    violates (decomposition_failures, as a tuple), and the graded factor
    pairs induced on V / V2 (the factor on V1) and on V / V1 (the factor
    on V2).  A factor pair means something only for a valid splitting,
    so both are None when failures is not empty."""

    normal: NormalPair
    splitting: Decomposition
    failures: tuple[str, ...]
    factor_v1: GradedPair | None
    factor_v2: GradedPair | None


@lru_cache(maxsize=None)
def orbit_pair(b: Bipartition, p: int) -> NormalPair:
    """normal_pair(b, p), built once per (b, p) in a process for the fiber
    queries over an orbit and the graded checks.  normal_pair itself
    stays uncached: a census of conjugates uses each of its pairs once."""
    return normal_pair(b, p)


@lru_cache(maxsize=None)
def split_factors(b: Bipartition, p: int) -> SplitFactors:
    """The split check's set-up for b over GF(p), built once per (b, p) in
    a process: the check splits each small orbit under every big one.
    The splitting is validated here, once, by decomposition_failures,
    and the factor pairs are built only when it passes.  The entry holds
    exact objects that depend on (b, p) alone and no count.  A
    distinguished b raises ValueError, and no entry is kept."""
    np_ = orbit_pair(b, p)
    dec = explicit_decomposition(np_)
    failures = tuple(decomposition_failures(np_.pair, dec))
    if failures:
        return SplitFactors(np_, dec, failures, None, None)
    return SplitFactors(
        np_,
        dec,
        failures,
        quotient_pair(np_.pair, quotient_map(dec.v2)),
        quotient_pair(np_.pair, quotient_map(dec.v1)),
    )
