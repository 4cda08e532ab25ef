import copy
import dataclasses
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from enhcone.gflinalg import (
    MatrixGF,
    QuotientMap,
    SubspaceGF,
    _matrix,
    _packed_layout,
    _subspace,
    enumerate_subspaces,
    is_prime,
    kernel,
    quotient_map,
    rank,
)
from oracles import (
    contains_subspace,
    enumerate_subspaces_by_patterns,
    gaussian_binomial,
    least_packed_width,
    primes_first,
    push_matrix_by_columns,
    reduce_apply,
    rref,
    width_boundary,
)


def jordan_string(n: int, p: int) -> MatrixGF:
    rows = [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)]
    return MatrixGF(p, rows, n)


class TestPrimes:
    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_schedule_helpers(self):
        assert primes_first(5) == (2, 3, 5, 7, 11)


class TestMatrix:
    def test_rank_identity(self):
        for n in (1, 3, 5):
            assert rank(MatrixGF(2, SubspaceGF.full(n, 2).basis, n)) == n

    def test_kernel_zero_matrix(self):
        k = kernel(MatrixGF(2, ((0, 0), (0, 0)), 2))
        assert k.dim == 2
        assert k == SubspaceGF.full(2, 2)

    def test_kernel_jordan_string(self):
        for n in (2, 3, 5):
            for p in (2, 3):
                assert kernel(jordan_string(n, p)).dim == 1

    def test_matvec_checks_length(self):
        # zip would cut a short or long vector to the matrix's width
        m = MatrixGF(3, [[1, 2], [0, 1]], 2)
        assert m.matvec((1, 1)) == (0, 1)
        for v in ((1,), (1, 1, 1)):
            with pytest.raises(ValueError, match="length"):
                m.matvec(v)
        assert MatrixGF(2, ((), (), ()), 0).matvec(()) == (0, 0, 0)

    def test_constructor_reduces_entries(self):
        # 3 is 0 over GF(3): a row scaled by 3 is no pivot
        m = MatrixGF(3, ((3, 0), (0, 3)), 2)
        assert m.rows == ((0, 0), (0, 0))
        assert rank(m) == 0
        assert kernel(m).dim == 2
        assert m.is_zero()
        assert m == MatrixGF(3, [[3, 0], [0, 3]], 2)
        neg = MatrixGF(3, ((-1, 2), (0, -3)), 2)
        assert neg.rows == ((2, 2), (0, 0))
        assert neg == MatrixGF(3, [[-1, 2], [0, -3]], 2)
        assert rank(neg) == 1
        assert kernel(neg) == SubspaceGF.span([(1, 2)], 2, 3)
        # reduced entries are kept as given, with no rebuild
        rows = ((0, 2), (1, 0))
        assert MatrixGF(3, rows, 2).rows is rows
        assert MatrixGF(2, (), 3).rows == () and MatrixGF(2, ((), ()), 0).rows == ((), ())

    def test_constructor_rejects_ragged_rows_and_non_integers(self):
        # a short row would be cut by zip in matvec and transpose
        for rows in (((1, 0), (1,)), ((1, 0, 1), (1, 0))):
            with pytest.raises(ValueError, match="ragged"):
                MatrixGF(2, rows, 2)
        for entry in (0.5, 1.0, "1"):
            with pytest.raises(TypeError):
                MatrixGF(2, ((entry, 1),), 2)
        # entries are taken by operator.index, and rows become int tuples
        m = MatrixGF(3, [[True, 4], (False, -1)], 2)
        assert m.rows == ((1, 1), (0, 2))
        assert all(type(a) is int for row in m.rows for a in row)
        assert m == MatrixGF(3, [[1, 1], [0, 2]], 2)

    def test_rref_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rng.choice((2, 3))
            m = MatrixGF(p, [[rng.randrange(p) for _ in range(4)] for _ in range(3)], 4)
            assert rref(rref(m)) == rref(m)


_PRIMES = st.sampled_from((2, 3, 5))


@st.composite
def matrices(draw):
    """(p, rows, ncols) with entries anywhere in [-2p, 2p]."""
    p, nrows, ncols = draw(_PRIMES), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    row = st.tuples(*[st.integers(-2 * p, 2 * p)] * ncols)
    return p, draw(st.tuples(*[row] * nrows)), ncols


@st.composite
def spanning_sets(draw):
    """(p, n, vectors) in GF(p)^n, n <= 3, unreduced entries."""
    p, n = draw(st.sampled_from((2, 3))), draw(st.integers(0, 3))
    vector = st.tuples(*[st.integers(-p, 2 * p)] * n)
    return p, n, draw(st.lists(vector, max_size=3))


def assert_same_value(a, b) -> None:
    assert a == b and hash(a) == hash(b)


class TestHashContract:
    """MatrixGF, SubspaceGF and QuotientMap store their hash once; equal
    values hash equal however they were built, and copies keep both."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(matrices())
    def test_matrix_hash_ignores_how_entries_were_given(self, case):
        p, rows, ncols = case
        reduced = tuple(tuple(a % p for a in row) for row in rows)
        m = MatrixGF(p, rows, ncols)
        assert_same_value(m, MatrixGF(p, reduced, ncols))
        assert_same_value(m, _matrix(p, reduced, ncols))
        assert_same_value(m, MatrixGF(p, [list(row) for row in rows], ncols))
        assert_same_value(m.transpose().transpose(), m)
        assert_same_value(rref(rref(m)), rref(m))

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(spanning_sets())
    def test_subspace_hash_ignores_how_it_was_built(self, case):
        p, n, vectors = case
        s = SubspaceGF.span(vectors, n, p)
        (listed,) = [t for t in enumerate_subspaces(SubspaceGF.full(n, p), s.dim) if t == s]
        assert_same_value(s, listed)
        assert_same_value(s, SubspaceGF(p, n, s.basis, s.pivots))
        assert_same_value(s, _subspace(p, n, s.basis, s.pivots))
        assert_same_value(s, s.sum(s))
        qm = quotient_map(s)
        assert_same_value(qm, quotient_map(listed))
        assert_same_value(qm, QuotientMap(p, n, s.basis, s.pivots, qm.nonpivots))
        assert_same_value(qm.preimage(SubspaceGF.zero(qm.codim, p)), s)

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(matrices(), spanning_sets())
    def test_copies_keep_equality_and_hash(self, mcase, scase):
        p, n, vectors = scase
        s = SubspaceGF.span(vectors, n, p)
        for value in (MatrixGF(*mcase), s, quotient_map(s)):
            for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert_same_value(copied, value)
            assert_same_value(dataclasses.replace(value), value)
        m = MatrixGF(*mcase)
        p = mcase[0]
        other = dataclasses.replace(m, rows=tuple(tuple((a + 1) % p for a in row) for row in m.rows))
        assert (other == m) == (not m.rows or not m.ncols)
        assert hash(other) == hash(MatrixGF(p, other.rows, m.ncols))

    def test_values_have_no_instance_dict(self):
        s = SubspaceGF.span([(1, 1, 0)], 3, 2)
        for value in (MatrixGF(3, ((1, 0), (0, 1)), 2), s, quotient_map(s)):
            assert not hasattr(value, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.p = 5
        assert "_hash" not in repr(s)


class TestSubspace:
    @pytest.mark.parametrize(
        "args",
        [
            (3, 2, ((2, 0),), (0,)),  # not 1 at its pivot
            (2, 2, ((0, 1), (1, 0)), (1, 0)),  # pivots not increasing
            (2, 2, ((1, 1), (0, 1)), (0, 1)),  # not 0 at the other row's pivot
            (2, 2, ((0, 1),), (0,)),  # 0 at its own pivot
            (3, 2, ((1, 3),), (0,)),  # an entry not below p
            (3, 2, ((1, -1),), (0,)),  # a negative entry
            (3, 2, ((1, 0, 0),), (0,)),  # a row longer than ambient
            (3, 2, ((1, 0),), ()),  # more rows than pivots
            (3, 2, ((1, 0),), (2,)),  # a pivot beyond ambient
            (3, 2, ([1, 0],), (0,)),  # a row that is not a tuple
            (3, 2, ((1.0, 0),), (0,)),  # an entry that is not an int
        ],
    )
    def test_constructor_rejects_a_non_canonical_basis(self, args):
        # a basis taken as canonical when it is not gives wrong answers:
        # SubspaceGF(3, 2, ((2, 0),), (0,)) would not contain (1, 0)
        with pytest.raises(ValueError):
            SubspaceGF(*args)

    def test_constructor_rejects_a_non_prime_modulus(self):
        for make in (
            lambda: SubspaceGF(6, 2, ((1, 0),), (0,)),
            lambda: SubspaceGF.zero(2, 6),
            lambda: SubspaceGF.full(2, 6),
            lambda: SubspaceGF.coordinate((1,), 2, 6),
            lambda: SubspaceGF.span([(1, 3)], 2, 6),
        ):
            with pytest.raises(ValueError, match="modulus 6 is not prime"):
                make()

    def test_coordinate_rejects_coordinates_out_of_range(self):
        for coords in ((2,), (-1, 0)):
            with pytest.raises(ValueError, match="range"):
                SubspaceGF.coordinate(coords, 2, 3)
        assert SubspaceGF.coordinate((1, 0, 1), 2, 3) == SubspaceGF.full(2, 3)

    def test_constructor_keeps_canonical_bases(self):
        for p, n in ((2, 3), (3, 3), (5, 2)):
            for d in range(n + 1):
                for sub in enumerate_subspaces(SubspaceGF.full(n, p), d):
                    assert_same_value(SubspaceGF(p, n, sub.basis, sub.pivots), sub)
        assert SubspaceGF(2, 0, (), ()) == SubspaceGF.zero(0, 2) == SubspaceGF.full(0, 2)

    def test_intersect_self(self):
        s = SubspaceGF.span([(1, 1, 0), (0, 1, 1)], 3, 2)
        assert s.intersect(s) == s

    def test_sum_of_axes(self):
        e0 = SubspaceGF.span([(1, 0)], 2, 2)
        e1 = SubspaceGF.span([(0, 1)], 2, 2)
        assert e0.sum(e1) == SubspaceGF.full(2, 2)

    def test_dim_formula(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice((2, 3))
            n = rng.randrange(1, 6)
            s = SubspaceGF.span(
                [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))],
                n,
                p,
            )
            t = SubspaceGF.span(
                [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))],
                n,
                p,
            )
            assert s.dim + t.dim == s.sum(t).dim + s.intersect(t).dim

    def test_canonicity_random_trials(self):
        # equal spans must produce identical representations
        rng = random.Random(3)
        for _ in range(1000):
            p = rng.choice((2, 3))
            n = rng.randrange(1, 7)
            vecs = [
                [rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, 5))
            ]
            s = SubspaceGF.span(vecs, n, p)
            # random invertible recombination of the spanning set
            recombined = list(vecs)
            for _ in range(6):
                i, j = rng.randrange(len(vecs)), rng.randrange(len(vecs))
                if i != j:
                    f = rng.randrange(1, p)
                    recombined[i] = [
                        (a + f * b) % p for a, b in zip(recombined[i], recombined[j])
                    ]
            rng.shuffle(recombined)
            t = SubspaceGF.span(recombined, n, p)
            assert s == t
            assert SubspaceGF.span(s.basis, n, p) == s

    def test_contains(self):
        s = SubspaceGF.span([(1, 1, 0)], 3, 2)
        assert s.contains((1, 1, 0))
        assert not s.contains((1, 0, 0))
        assert s.contains((0, 0, 0))


class TestQuotient:
    @pytest.mark.parametrize(
        "args",
        [
            (6, 2, ((2, 3),), (0,), (1,)),  # a modulus that is not prime
            (3, 2, ((1, 1),), (0,), (0, 1)),  # nonpivots that hold the pivot
            (3, 2, ((2, 0),), (0,), (1,)),  # a kernel basis not 1 at its pivot
            (3, 2, ((1, 0),), (0,), ()),  # a quotient coordinate left out
            (3, 2, ((1, 0),), (0,), [1]),  # nonpivots that are not a tuple
            (3, 3, (), (), (0, 2, 1)),  # nonpivots out of order
        ],
    )
    def test_constructor_rejects_a_broken_contract(self, args):
        # QuotientMap(6, 2, ((2, 3),), (0,), (1,)) would map (1, 1) to (4,),
        # and QuotientMap(3, 2, ((1, 1),), (0,), (0, 1)) would claim
        # codimension 2 for a line of GF(3)^2
        with pytest.raises(ValueError):
            QuotientMap(*args)

    def test_constructor_keeps_every_quotient_map(self):
        for p, n in ((2, 3), (3, 2)):
            for d in range(n + 1):
                for sub in enumerate_subspaces(SubspaceGF.full(n, p), d):
                    qm = quotient_map(sub)
                    assert_same_value(QuotientMap(p, n, sub.basis, sub.pivots, qm.nonpivots), qm)

    def test_quotient_by_zero_is_invertible(self):
        z = SubspaceGF.zero(3, 5)
        qm = quotient_map(z)
        assert qm.codim == 3
        v = (1, 2, 3)
        assert qm.apply(v) == v
        line = SubspaceGF.span([v], 3, 5)
        assert qm.preimage(line) == line

    def test_kernel_is_exactly_subspace(self):
        rng = random.Random(5)
        for _ in range(100):
            p = rng.choice((2, 3))
            n = rng.randrange(1, 6)
            w = SubspaceGF.span(
                [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(3))],
                n,
                p,
            )
            qm = quotient_map(w)
            assert qm.codim == n - w.dim
            for row in w.basis:
                assert not any(qm.apply(row))
            # surjectivity: each quotient coordinate line is the image of
            # its preimage, which is one dimension above the kernel
            for t in range(qm.codim):
                line = SubspaceGF.coordinate([t], qm.codim, p)
                pre = qm.preimage(line)
                assert pre.dim == w.dim + 1
                assert SubspaceGF.span([qm.apply(r) for r in pre.basis], qm.codim, p) == line

    def test_push_matrix_respects_quotient(self):
        p = 3
        x = jordan_string(4, p)
        w = kernel(x)
        qm = quotient_map(w)
        xbar = qm.push_matrix(x)
        # induced map: q(x u) == xbar q(u)
        rng = random.Random(2)
        for _ in range(30):
            u = tuple(rng.randrange(p) for _ in range(4))
            assert qm.apply(x.matvec(u)) == xbar.matvec(qm.apply(u))

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_apply_and_push_match_full_length_oracle(self, p):
        # quotient coordinates only: the same result as reducing the whole
        # vector, for every x, stable or not
        rng = random.Random(p)
        for _ in range(150):
            n = rng.randrange(1, 7)
            w = SubspaceGF.span(
                [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(n + 1))],
                n,
                p,
            )
            qm = quotient_map(w)
            x = MatrixGF(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)], n)
            assert qm.push_matrix(x) == push_matrix_by_columns(qm, x)
            for _ in range(3):
                v = tuple(rng.randrange(-p, 2 * p) for _ in range(n))
                assert qm.apply(v) == reduce_apply(qm, v)


def brute_force_subspace_count(n: int, d: int, p: int) -> int:
    """Independent oracle: collect distinct spans of all d x n matrices."""
    import itertools

    spans = set()
    for rows in itertools.product(itertools.product(range(p), repeat=n), repeat=d):
        s = SubspaceGF.span(rows, n, p)
        if s.dim == d:
            spans.add(s)
    return len(spans)


class TestEnumeration:
    def test_line_counts(self):
        assert len(list(enumerate_subspaces(SubspaceGF.full(2, 2), 1))) == 3
        assert len(list(enumerate_subspaces(SubspaceGF.full(2, 3), 1))) == 4

    def test_dim_zero(self):
        out = list(enumerate_subspaces(SubspaceGF.full(3, 2), 0))
        assert out == [SubspaceGF.zero(3, 2)]

    def test_counts_match_gaussian_binomials(self):
        for p in (2, 3):
            for m in range(6):
                amb = SubspaceGF.full(m, p)
                for d in range(m + 1):
                    subs = list(enumerate_subspaces(amb, d))
                    assert len(subs) == gaussian_binomial(m, d, p)
                    assert len(set(subs)) == len(subs)
                    assert all(s.dim == d for s in subs)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_trivial_dimensions_inside_subspace(self, p):
        # d = 0 and d = dim answer at once: the zero subspace and ambient
        amb = SubspaceGF.span([(1, 0, 1, 0, 2), (0, 1, 1, 1, 0), (0, 0, 0, 1, 1)], 5, p)
        assert amb.dim == 3
        assert list(enumerate_subspaces(amb, 0)) == [SubspaceGF.zero(5, p)]
        assert list(enumerate_subspaces(amb, 3)) == [amb]
        assert list(enumerate_subspaces(SubspaceGF.zero(5, p), 0)) == [SubspaceGF.zero(5, p)]
        for d in (-1, 4):
            with pytest.raises(ValueError):
                list(enumerate_subspaces(amb, d))

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_counts_inside_subspace_match_gaussian_binomials(self, p):
        rng = random.Random(p)
        for k in range(5):
            while True:
                amb = SubspaceGF.span([[rng.randrange(p) for _ in range(6)] for _ in range(k)], 6, p)
                if amb.dim == k:
                    break
            for d in range(k + 1):
                subs = list(enumerate_subspaces(amb, d))
                assert len(subs) == len(set(subs)) == gaussian_binomial(k, d, p)
                assert all(s.dim == d and contains_subspace(amb, s) for s in subs)
                assert all(SubspaceGF.span(s.basis, 6, p) == s for s in subs)

    def test_enumeration_inside_subspace(self):
        amb = SubspaceGF.span([(1, 0, 1, 0), (0, 1, 1, 1), (0, 0, 0, 1)], 4, 2)
        subs = list(enumerate_subspaces(amb, 2))
        assert len(subs) == gaussian_binomial(3, 2, 2)
        for s in subs:
            assert contains_subspace(amb, s)
            # results are canonical
            assert SubspaceGF.span(s.basis, 4, 2) == s

    def test_yield_order_matches_pattern_oracle(self):
        # the yield order fixes which witness search_decomposition reports
        rng = random.Random(17)
        for p in (2, 3):
            for k in range(5):
                spaces = [SubspaceGF.full(k, p)]
                while len(spaces) < 3:
                    rows = [[rng.randrange(p) for _ in range(6)] for _ in range(k)]
                    sub = SubspaceGF.span(rows, 6, p)
                    if sub.dim == k:
                        spaces.append(sub)
                for amb in spaces:
                    for d in range(k + 1):
                        assert list(enumerate_subspaces(amb, d)) == list(
                            enumerate_subspaces_by_patterns(amb, d)
                        ), (p, k, d, amb)

    def test_first_subspaces_come_before_any_row_is_listed(self):
        # the 175,981 lines of GF(419)^3 start with a row of 419^2 options,
        # which took 18 MiB to list before the first line came
        amb = SubspaceGF.full(3, 419)
        tracemalloc.start()
        try:
            first = list(itertools.islice(enumerate_subspaces(amb, 1), 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == list(itertools.islice(enumerate_subspaces_by_patterns(amb, 1), 5))
        assert peak < 64 * 1024

    def test_gaussian_binomial_brute_force(self):
        assert gaussian_binomial(4, 2, 2) == brute_force_subspace_count(4, 2, 2) == 35

    def test_gaussian_binomial_edges(self):
        assert gaussian_binomial(5, 0, 3) == 1
        assert gaussian_binomial(3, 4, 2) == 0
        assert gaussian_binomial(2, 1, 2) == 3


def fields(packed: int, n: int, width: int) -> list[int]:
    """The n fields of a packed int, entry 0 (the most significant) first."""
    return [packed >> (width * (n - 1 - c)) & ((1 << width) - 1) for c in range(n)]


class TestPackedLayout:
    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_reduce_is_mod_p_below_the_bound_in_every_field(self, p):
        # exhaustive: field c holds (a + c) mod B, so over a < B every
        # field takes every value below the bound
        for n in range(1, 9):
            layout = _packed_layout(n, p)
            bound, width = layout.bound, layout.width
            assert bound == max(n * (p - 1) ** 2, p * p) + p
            for a in range(bound):
                entries = [(a + c) % bound for c in range(n)]
                packed = layout.pack(entries)
                assert fields(packed, n, width) == entries
                assert fields(layout.reduce(packed), n, width) == [e % p for e in entries]

    @pytest.mark.parametrize("p", (419, 2**31 - 1))
    def test_reduce_at_a_large_prime(self, p):
        # 0, B - 1 and the values next to multiples of p, the ones a floor
        # that is off by one gets wrong
        for n in (1, 2, 3, 8):
            layout = _packed_layout(n, p)
            bound, width = layout.bound, layout.width
            multiples = {k * p for k in (1, 2, 3, n, bound // p - 1, bound // p)}
            values = sorted(
                {0, bound - 1} | {a + d for a in multiples for d in (-1, 0, 1) if 0 <= a + d < bound}
            )
            for start in range(len(values)):
                entries = [values[(start + c) % len(values)] for c in range(n)]
                packed = layout.pack(entries)
                assert fields(packed, n, width) == entries
                assert fields(layout.reduce(packed), n, width) == [e % p for e in entries]

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 8))
    def test_widths_round_up_to_struct_fields_at_their_boundaries(self, n):
        # at each of 16, 32 and 64 bits, the prime whose least width is
        # just at or below it and the next one, just above: pack and
        # entries round-trip, a full field included, and reduce is exact
        # at 0, at B - 1 and next to multiples of p
        for bits in (16, 32, 64):
            below, above = width_boundary(n, bits)
            assert least_packed_width(n, below) <= bits < least_packed_width(n, above)
            wider = 2 * bits if bits < 64 else least_packed_width(n, above)
            for p, width in ((below, bits), (above, wider)):
                layout = _packed_layout(n, p)
                assert layout.width == width
                bound = layout.bound
                multiples = {k * p for k in (1, 2, 3, n, bound // p - 1, bound // p)}
                values = sorted(
                    {0, bound - 1} | {a + d for a in multiples for d in (-1, 0, 1) if 0 <= a + d < bound}
                )
                rows = [[(1 << width) - 1] * n] + [
                    [values[(start + c) % len(values)] for c in range(n)]
                    for start in range(len(values))
                ]
                for entries in rows:
                    packed = layout.pack(entries)
                    assert fields(packed, n, width) == entries
                    assert list(layout.entries(packed)) == entries
                    if max(entries, default=0) < bound:
                        residues = [e % p for e in entries]
                        assert fields(layout.reduce(packed), n, width) == residues

    def test_layout_is_a_table_and_passes_64_bits_at_a_large_prime(self):
        assert _packed_layout(8, 3) is _packed_layout(8, 3)
        assert _packed_layout(1, 2**31 - 1).width > 64
        assert _packed_layout(0, 3).pack(()) == 0


class TestModularRankAgreement:
    def test_pm_one_matrices(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randrange(1, 6)
            entries = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            r101 = rank(MatrixGF(101, entries, n))
            r10007 = rank(MatrixGF(10007, entries, n))
            assert r101 == r10007
