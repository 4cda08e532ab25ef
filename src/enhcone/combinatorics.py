"""Partitions, bipartitions, back-to-back union diagrams and flag shapes.

A bipartition (mu; nu) of n indexes a GL(V)-orbit on the enhanced
nilpotent cone V x N, dim V = n.  Its diagram has mu_i + nu_i boxes in
row i, with the mu-part right-justified against column mu_1 and the
nu-part left-justified from column mu_1 + 1.  Column counts of the
diagram determine the flag shape of the associated resolution.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class Partition:
    """An integer partition: weakly decreasing tuple of positive parts,
    taken by operator.index, so a float or str raises TypeError."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = self.parts
        if type(parts) is not tuple or not set(map(type, parts)) <= {int}:
            parts = tuple(map(operator.index, parts))
            object.__setattr__(self, "parts", parts)
        if min(parts, default=1) <= 0:
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(map(operator.lt, parts, parts[1:])):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based), 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


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


@dataclass(frozen=True)
class Bipartition:
    """Ordered pair of partitions; |first| + |second| = n."""

    first: Partition
    second: Partition

    @property
    def n(self) -> int:
        return self.first.size + self.second.size

    @property
    def row_count(self) -> int:
        return max(self.first.length, self.second.length)

    def row_length(self, i: int) -> int:
        """Number of boxes mu_i + nu_i in row i (1-based)."""
        return self.first.part(i) + self.second.part(i)

    def __str__(self) -> str:
        return f"({self.first};{self.second})"


def bipartition(first: Sequence[int], second: Sequence[int]) -> Bipartition:
    return Bipartition(Partition(tuple(first)), Partition(tuple(second)))


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in ascending lexicographic order of parts."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(rest: int, cap: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(sorted((Partition(t) for t in gen(n, n)), key=lambda p: p.parts))


def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of n, ordered lexicographically by (|mu|, mu, nu).

    >>> [str(b) for b in bipartitions(1)]
    ['(();(1))', '((1);())']
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for k in range(n + 1):
        for mu in partitions(k):
            for nu in partitions(n - k):
                out.append(Bipartition(mu, nu))
    return tuple(out)


class RowSpan(NamedTuple):
    index: int
    first_col: int
    last_col: int


@dataclass(frozen=True)
class Diagram:
    """Back-to-back union diagram of a bipartition.

    Row i occupies columns mu_1 - mu_i + 1 .. mu_1 + nu_i (rows[i - 1]).
    Box (i, j) (j-th box of row i, 1-based) sits in column
    mu_1 - mu_i + j and carries the weight mu_i - j, which
    normalform.normal_pair gives its basis vector.
    """

    bipartition: Bipartition
    rows: tuple[RowSpan, ...]
    column_heights: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.bipartition.n


def diagram(b: Bipartition) -> Diagram:
    """Diagram of b: row i has mu_i + nu_i boxes; column counts come from
    the transposes of mu and nu laid back to back.

    >>> diagram(bipartition((3, 1, 1), (3, 2))).column_heights
    (1, 1, 3, 2, 2, 1)
    """
    mu1 = b.first.part(1)
    ncols = mu1 + b.second.part(1)
    rows = []
    heights = [0] * ncols
    for i in range(1, b.row_count + 1):
        first_col = mu1 - b.first.part(i) + 1
        last_col = mu1 + b.second.part(i)
        rows.append(RowSpan(i, first_col, last_col))
        for c in range(first_col, last_col + 1):
            heights[c - 1] += 1
    return Diagram(b, tuple(rows), tuple(heights))


@dataclass(frozen=True)
class FlagShape:
    """Strictly increasing dimension sequence 0 = r_0 < ... < r_m = n,
    plus the marker j of the flag step required to contain v; all taken
    by operator.index, like Partition's parts."""

    dims: tuple[int, ...]
    marker: int

    def __post_init__(self):
        dims = tuple(map(operator.index, self.dims))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "marker", operator.index(self.marker))
        if not dims or dims[0] != 0:
            raise ValueError(f"flag shape must start at 0: {dims}")
        if any(dims[i] >= dims[i + 1] for i in range(len(dims) - 1)):
            raise ValueError(f"flag shape must be strictly increasing: {dims}")
        if not 0 <= self.marker <= self.m:
            raise ValueError(f"marker {self.marker} out of range 0..{self.m}")

    @property
    def m(self) -> int:
        return len(self.dims) - 1

    @property
    def n(self) -> int:
        return self.dims[-1]

    @property
    def steps(self) -> tuple[int, ...]:
        """Successive dimension jumps d_i = r_i - r_{i-1}."""
        return tuple(self.dims[i + 1] - self.dims[i] for i in range(self.m))


@lru_cache(maxsize=None)
def flag_shape(b: Bipartition) -> FlagShape:
    """Flag shape of the resolution attached to b: r_i = number of boxes in
    or to the left of column i, marker j = mu_1; built once per b in a
    process, like partitions.

    >>> flag_shape(bipartition((3, 1, 1), (3, 2))).dims
    (0, 1, 2, 5, 7, 9, 10)
    >>> flag_shape(bipartition((3, 1, 1), (3, 2))).marker
    3
    """
    heights = diagram(b).column_heights
    dims = [0]
    for h in heights:
        dims.append(dims[-1] + h)
    return FlagShape(tuple(dims), b.first.part(1))


def is_distinguished(b: Bipartition) -> bool:
    """Whether the orbit pair of b = (alpha; beta) admits no nontrivial
    x-stable, weight-graded splitting V1 (+) V2 with v in V1.

    True iff alpha is empty and beta = (n), or alpha is strictly
    decreasing with positive parts and beta, padded with zeros to the
    length of alpha, is strictly decreasing of length <= len(alpha).
    """
    alpha, beta = b.first, b.second
    if alpha.length == 0:
        return beta.length <= 1
    k = alpha.length
    if beta.length > k:
        return False
    padded = tuple(beta.part(i) for i in range(1, k + 1))
    if any(alpha.parts[i] <= alpha.parts[i + 1] for i in range(k - 1)):
        return False
    return all(padded[i] > padded[i + 1] for i in range(k - 1))


def parse_bipartition(text: str) -> Bipartition:
    """Parse the flag serialization "mu=3,1,1;nu=3,2" (empty side: "mu=")."""
    try:
        mu_part, nu_part = text.split(";")
        if not mu_part.startswith("mu=") or not nu_part.startswith("nu="):
            raise ValueError
        mu = _parse_parts(mu_part[3:])
        nu = _parse_parts(nu_part[3:])
    except ValueError:
        raise ValueError(
            f"expected bipartition in the form 'mu=3,1,1;nu=3,2', got {text!r}"
        ) from None
    return bipartition(mu, nu)


def format_bipartition(b: Bipartition) -> str:
    return "mu=%s;nu=%s" % (
        ",".join(map(str, b.first.parts)),
        ",".join(map(str, b.second.parts)),
    )


def _parse_parts(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))
