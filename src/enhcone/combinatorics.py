"""Partitions, bipartitions, back-to-back union diagrams and flag shapes.

A bipartition (mu; nu) of n indexes a GL(V)-orbit on the enhanced
nilpotent cone V x N, dim V = n.  Its diagram has mu_i + nu_i boxes in
row i, with the mu-part right-justified against column mu_1 and the
nu-part left-justified from column mu_1 + 1.  Column counts of the
diagram determine the flag shape of the associated resolution.

Partition and Bipartition are slotted value objects that hash once, on
construction, and a Bipartition also stores its row lengths
mu_i + nu_i (rows) and n, which the closure order, the orbit dimension
and the transition rows read.  bipartition() returns the one object for
its parts in a process from the _bipartitions table, so that the tables
keyed on orbits find it by identity; bipartitions, parse_bipartition
and classification take their objects from it.  A key is looked up
only when every part has type int, and a miss is validated through
Partition, so the table holds valid orbits alone.  A directly built Bipartition is
equal to the interned one and has the same hash.  Like partitions and
flag_shape, the table holds value objects and no count, so
FiberCache.clear() leaves it alone: all n <= 11 make 1,967 entries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence


@dataclass(frozen=True, slots=True)
class Partition:
    """An integer partition: weakly decreasing tuple of positive parts,
    taken by operator.index, so a float or str raises TypeError."""

    parts: tuple[int, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = self.parts
        if type(parts) is not tuple or not set(map(type, parts)) <= {int}:
            parts = tuple(map(operator.index, parts))
            object.__setattr__(self, "parts", parts)
        if min(parts, default=1) <= 0:
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(map(operator.lt, parts, parts[1:])):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "_hash", hash((parts,)))

    def __hash__(self) -> int:
        return self._hash

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


@dataclass(frozen=True, slots=True)
class Bipartition:
    """Ordered pair of partitions; |first| + |second| = n.  rows holds the
    row lengths mu_i + nu_i for i = 1..row_count."""

    first: Partition
    second: Partition
    rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu, nu = self.first.parts, self.second.parts
        rows = tuple(map(operator.add, mu, nu)) + (mu[len(nu):] or nu[len(mu):])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", sum(rows))
        object.__setattr__(self, "_hash", hash((self.first, self.second)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def row_length(self, i: int) -> int:
        """Number of boxes mu_i + nu_i in row i (1-based), 0 beyond the last."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    def __str__(self) -> str:
        return f"({self.first};{self.second})"


_bipartitions: dict[tuple[tuple[int, ...], tuple[int, ...]], Bipartition] = {}


def bipartition(first: Sequence[int], second: Sequence[int]) -> Bipartition:
    """The one Bipartition with these parts in the process: looked up when
    every part has type int, else built and validated through Partition
    first, so (3.0,) raises TypeError even once (3,) is in the table."""
    key = (tuple(first), tuple(second))
    if set(map(type, key[0] + key[1])) <= {int}:
        b = _bipartitions.get(key)
        if b is not None:
            return b
    return _interned(Partition(key[0]), Partition(key[1]))


def _interned(mu: Partition, nu: Partition) -> Bipartition:
    """The table's object for two valid partitions, stored on a miss."""
    key = (mu.parts, nu.parts)
    b = _bipartitions.get(key)
    if b is None:
        b = _bipartitions[key] = Bipartition(mu, nu)
    return b


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


@lru_cache(maxsize=None)
def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of n, ordered lexicographically by (|mu|, mu, nu),
    the interned objects of bipartition(); built once per n in a process,
    like partitions.

    >>> [str(b) for b in bipartitions(1)]
    ['(();(1))', '((1);())']
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(
        _interned(mu, nu)
        for k in range(n + 1)
        for mu in partitions(k)
        for nu in partitions(n - k)
    )


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
    for i, length in enumerate(b.rows, 1):
        first_col = mu1 - b.first.part(i) + 1
        last_col = first_col + length - 1
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
