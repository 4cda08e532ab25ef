import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from enhcone.combinatorics import Bipartition, FlagShape, Partition, bipartition, bipartitions, flag_shape, is_distinguished
from enhcone.fibers import FiberQuery, closure_pairs, count_fiber, count_fiber_memo, count_lambda_fixed
from enhcone.gflinalg import MatrixGF, QuotientMap, SubspaceGF, _packed_layout, enumerate_subspaces, quotient_map, rank
from enhcone import normalform
from enhcone.normalform import (
    Decomposition,
    GradedPair,
    _chain_ranks,
    _orbit_of_ranks,
    centralizer_basis,
    classify_pair,
    decomposition_failures,
    enumerate_graded_subspaces,
    explicit_decomposition,
    graded_kernel_blocks,
    graded_projection,
    graded_quotient,
    graded_span,
    jordan_type,
    normal_pair,
    partition_from_ranks,
    quotient_pair,
)
from oracles import (
    centralizer_module_span,
    classify_by_centralizer,
    classify_by_image_chain,
    graded_by_intersections,
    image_chain,
    invert,
    jordan_type_by_powers,
    least_packed_width,
    matmul,
    nonneg_part,
    orbit_map_tangent_surjective,
    orbit_of_types,
    push_matrix_by_columns,
    reduce_apply,
    type_of_ranks,
    unmemoized_lambda_fixed_count,
    width_boundary,
)


def regular_nilpotent(n: int, p: int) -> MatrixGF:
    return MatrixGF(p, [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)], n)


class TestNormalPair:
    def test_ten_box_vector_support(self):
        np_ = normal_pair(bipartition((3, 1, 1), (3, 2)), 2)
        support = {np_.basis_labels[i] for i, a in enumerate(np_.v) if a}
        assert support == {(1, 3), (2, 1), (3, 1)}

    def test_single_row_is_regular(self):
        for n in (1, 2, 4):
            np_ = normal_pair(bipartition((), (n,)), 3)
            assert not any(np_.v)
            assert jordan_type(np_.x).parts == (n,)

    def test_one_box(self):
        np_ = normal_pair(bipartition((1,), ()), 5)
        assert np_.n == 1
        assert np_.x.is_zero()
        assert np_.v == (1,)

    def test_shift_structure(self):
        np_ = normal_pair(bipartition((3, 1, 1), (3, 2)), 2)
        index = {box: t for t, box in enumerate(np_.basis_labels)}
        for (i, j), t in index.items():
            e = tuple(1 if s == t else 0 for s in range(np_.n))
            img = np_.x.matvec(e)
            if j == 1:
                assert not any(img)
            else:
                expected = tuple(
                    1 if s == index[(i, j - 1)] else 0 for s in range(np_.n)
                )
                assert img == expected

    def test_weight_structure(self):
        for n in range(6):
            for b in bipartitions(n):
                np_ = normal_pair(b, 2)
                # v is concentrated in weight 0
                assert all(np_.weights[c] == 0 for c, a in enumerate(np_.v) if a)
                # x raises weight by exactly 1
                for r in range(np_.n):
                    for c in range(np_.n):
                        if np_.x.rows[r][c]:
                            assert np_.weights[r] == np_.weights[c] + 1
                # Jordan type is the sorted row-length sequence
                lengths = tuple(
                    sorted(
                        (b.row_length(i) for i in range(1, b.row_count + 1)),
                        reverse=True,
                    )
                )
                assert jordan_type(np_.x).parts == lengths


class TestJordanType:
    def test_examples(self):
        np_ = normal_pair(bipartition((3, 1, 1), (3, 2)), 2)
        assert jordan_type(np_.x).parts == (6, 3, 1)
        assert jordan_type(MatrixGF(2, ((0,) * 4,) * 4, 4)).parts == (1, 1, 1, 1)
        assert jordan_type(regular_nilpotent(5, 3)).parts == (5,)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            jordan_type(MatrixGF(2, SubspaceGF.full(3, 2).basis, 3))

    def test_classify_rejects_non_nilpotent(self):
        # the Krylov sequence of (1, 0) under the identity never reaches 0
        with pytest.raises(ValueError, match="not nilpotent"):
            classify_pair((1, 0), MatrixGF(3, ((1, 0), (0, 1)), 2))
        # here it does, and the image chain of x stalls instead
        with pytest.raises(ValueError, match="not nilpotent"):
            classify_pair((1, 0), MatrixGF(3, ((0, 0), (0, 1)), 2))

    def test_classify_rejects_non_square(self):
        # a 3 x 2 x: v = 0 used to raise through jordan_type, and any
        # other v used to come back with an orbit
        x = MatrixGF(2, ((0, 1), (0, 0), (0, 0)), 2)
        for v in itertools.product(range(2), repeat=3):
            with pytest.raises(ValueError, match="square"):
                classify_pair(v, x)

    def test_classify_rejects_wrong_length_vector(self):
        # v is reduced and packed in one pass, after its length is checked
        x = regular_nilpotent(3, 2)
        for v in ((), (0, 1), (0, 1, 0, 0), (0.5, 1)):
            with pytest.raises(ValueError, match="vector length"):
                classify_pair(v, x)


class TestCentralizer:
    def test_zero_matrix(self):
        assert len(centralizer_basis(MatrixGF(3, ((0, 0), (0, 0)), 2))) == 4

    def test_regular_nilpotent(self):
        for n in (2, 3, 4):
            assert len(centralizer_basis(regular_nilpotent(n, 2))) == n

    def test_min_overlap_dimension(self):
        # dim of the commutant of a nilpotent with string lengths l equals
        # the sum of pairwise minima
        for mu, nu in [((3, 1, 1), (3, 2)), ((2,), (1,)), ((1, 1), (2,))]:
            np_ = normal_pair(bipartition(mu, nu), 2)
            lengths = [
                np_.bipartition.row_length(i)
                for i in range(1, np_.bipartition.row_count + 1)
            ]
            expected = sum(min(a, b) for a in lengths for b in lengths)
            assert len(centralizer_basis(np_.x)) == expected

    def test_brute_force_membership_gf2(self):
        # solution space of yx = xy, checked against full enumeration
        for b in (bipartition((), (2, 1)), bipartition((1,), (1, 1))):
            np_ = normal_pair(b, 2)
            n = np_.n
            basis = centralizer_basis(np_.x)
            commuting = 0
            for entries in itertools.product((0, 1), repeat=n * n):
                y = MatrixGF(2, [entries[r * n : (r + 1) * n] for r in range(n)], n)
                if matmul(y, np_.x) == matmul(np_.x, y):
                    commuting += 1
            assert commuting == 2 ** len(basis)


def gl2_f2():
    for entries in itertools.product((0, 1), repeat=4):
        g = MatrixGF(2, (entries[:2], entries[2:]), 2)
        if rank(g) == 2:
            yield g


class TestClassify:
    def test_roundtrip_small(self):
        for n in range(7):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    assert classify_pair(np_.v, np_.x) == b
                    assert classify_by_centralizer(np_.v, np_.x) == b

    def test_returns_the_interned_orbit_and_builds_it_once(self, monkeypatch):
        # classification hands out the one object of bipartition(), so the
        # orbit tables find it by identity; once it is in the table a
        # second pass builds no Partition and no Bipartition
        pairs = [
            (b, normal_pair(b, p)) for n in range(7) for b in bipartitions(n) for p in (2, 3)
        ]
        for b, np_ in pairs:
            assert classify_pair(np_.v, np_.x) is bipartition(b.first.parts, b.second.parts)
        builds = []
        for cls in (Partition, Bipartition):
            def counted(self, built=cls.__post_init__):
                builds.append(type(self))
                built(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        Bipartition(Partition((1,)), Partition(()))
        assert builds == [Partition, Partition, Bipartition]
        builds.clear()
        for b, np_ in pairs:
            assert classify_pair(np_.v, np_.x) == b
        assert builds == []

    def test_reads_ranks_off_the_image_chain(self, monkeypatch):
        # no quotient push, which would raise here; MatrixGF has no
        # product, so no matrix power can be formed either
        def forbidden(*args):
            raise AssertionError("classify_pair formed a quotient")

        monkeypatch.setattr(QuotientMap, "push_matrix", forbidden)
        for n in range(6):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    assert classify_pair(np_.v, np_.x) == b

    @pytest.mark.parametrize(
        "p, rows",
        [
            (4, ((0, 2), (0, 0))),
            (9, ((0, 3), (0, 0))),
            (6, ((0, 3, 0), (0, 0, 2), (0, 0, 0))),
        ],
        ids=["p4", "p9", "p6"],
    )
    def test_non_prime_modulus_is_rejected(self, p, rows):
        # Z/p with p not prime is no field: unchecked, the first two x get a
        # Jordan type (2) and an orbit, and the third a stray partition error
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            MatrixGF(p, rows, len(rows))

    def test_rejects_non_integer_vector_entries(self):
        # the Krylov vectors are never scaled by a field inverse, so a
        # float entry would otherwise be classified
        x = MatrixGF(3, ((0, 1), (0, 0)), 2)
        for v in ((0.5, 0), (0, 1.5), (1.0, 0), ("1", 0)):
            with pytest.raises(TypeError):
                classify_pair(v, x)
        assert classify_pair((True, 0), x) == bipartition((1,), (1,))

    def test_zero_vector(self):
        x = regular_nilpotent(3, 2)
        assert classify_pair((0, 0, 0), x) == bipartition((), (3,))

    @pytest.mark.parametrize("rows", [((3, 4), (0, 3)), ((0, 1), (3, 0))])
    def test_unreduced_entries(self, rows):
        # built directly, MatrixGF keeps entries >= p; mod 3 both are the
        # regular nilpotent ((0, 1), (0, 0)).  A read that pivoted on the
        # 3 of the second would scale that row to zero and count x V as
        # 2-dimensional, so x would look invertible
        x = MatrixGF(3, rows, 2)
        assert classify_pair((0, 1), x) == bipartition((2,), ())
        assert jordan_type(x).parts == (2,)

    def test_cyclic_regular_orbit(self):
        # classify is constant on the GL_2(F_2)-orbit of a cyclic vector
        x = regular_nilpotent(2, 2)
        v = (0, 1)
        expected = bipartition((2,), ())
        assert classify_pair(v, x) == expected
        for g in gl2_f2():
            ginv = invert(g)
            assert matmul(g, ginv) == MatrixGF(2, ((1, 0), (0, 1)), 2)
            vv = g.matvec(v)
            xx = matmul(matmul(g, x), ginv)
            assert classify_pair(vv, xx) == expected


@st.composite
def conjugated_normal_pairs(draw, max_n=6):
    """A bipartition b with 1 <= n <= max_n and a random GL(n, p) conjugate
    (g v, g x g^-1) of its normal pair; g = P L U with P a permutation,
    L unit lower and U invertible upper triangular."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from((2, 3, 5)))
    b = draw(st.sampled_from(bipartitions(n)))
    entry = st.integers(0, p - 1)
    perm = draw(st.permutations(range(n)))
    lower = [[1 if r == c else (draw(entry) if r > c else 0) for c in range(n)] for r in range(n)]
    upper = [
        [draw(st.integers(1, p - 1)) if r == c else (draw(entry) if r < c else 0) for c in range(n)]
        for r in range(n)
    ]
    g = MatrixGF(p, [[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)], n)
    g = matmul(matmul(g, MatrixGF(p, lower, n)), MatrixGF(p, upper, n))
    np_ = normal_pair(b, p)
    return b, g.matvec(np_.v), matmul(matmul(g, np_.x), invert(g))


def elementary_conjugate(np_, rng: random.Random) -> tuple[tuple[int, ...], MatrixGF]:
    """(g v, g x g^-1) for the normal pair (v, x) and g a product of 2 n^2
    random elementary matrices, each applied with its known inverse."""
    p, n = np_.p, np_.n
    x = [list(row) for row in np_.x.rows]
    v = list(np_.v)
    for _ in range(2 * n * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:  # scale coordinate i by s
            s = rng.randrange(1, p)
            s_inv = pow(s, p - 2, p)
            x[i] = [a * s % p for a in x[i]]
            for row in x:
                row[i] = row[i] * s_inv % p
            v[i] = v[i] * s % p
        else:  # add c times coordinate j to coordinate i
            c = rng.randrange(1, p)
            x[i] = [(a + c * b) % p for a, b in zip(x[i], x[j])]
            for row in x:
                row[j] = (row[j] - c * row[i]) % p
            v[i] = (v[i] + c * v[j]) % p
    return tuple(v), MatrixGF(p, tuple(tuple(row) for row in x), n)


def census_examples(test):
    """test with one more hypothesis example for each of 50 seeded dense
    GL(8, 3) conjugates of normal pairs, the size the classification
    census of the benchmark runs."""
    rng = random.Random(8)
    for b in rng.sample(bipartitions(8), 50):
        test = example((b, *elementary_conjugate(normal_pair(b, 3), rng)))(test)
    return test


LARGE_P = 2**31 - 1  # its packed fields are wider than 64 bits
DENSE_ROWS = ((LARGE_P - 1, 5, 123456789), (1, 0, 7), (3, 1, 2**30))  # not nilpotent


class TestClassifyConjugates:
    def test_census_conjugates_match_both_oracles(self):
        # one random GL(n, p) conjugate of every normal pair with n <= 7,
        # p drawn from 2, 3 and 5
        rng = random.Random(20)
        seen = set()
        for n in range(8):
            for b in bipartitions(n):
                p = rng.choice((2, 3, 5))
                seen.add(p)
                v, x = elementary_conjugate(normal_pair(b, p), rng)
                assert classify_pair(v, x) == b
                assert classify_by_image_chain(v, x) == b
                assert classify_by_centralizer(v, x) == b
        assert seen == {2, 3, 5}

    def test_image_chain_oracle_reads_its_own_types_and_orbit(self, monkeypatch):
        # the oracle transposes its own rank drops and solves for (mu; nu)
        # with its own loop, so it classifies every normal pair with the
        # library's two steps raising, and a bug in either shows
        def forbidden(*args):
            raise AssertionError("called a step of classify_pair")

        monkeypatch.setattr(normalform, "_drop_columns", forbidden)
        monkeypatch.setattr(normalform, "_orbit", forbidden)
        pairs = 0
        for n in range(7):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    assert classify_by_image_chain(np_.v, np_.x) == b
                    pairs += 1
        assert pairs == 2 * 139
        with pytest.raises(AssertionError, match="a step of classify_pair"):
            classify_pair(np_.v, np_.x)

    @pytest.mark.parametrize(
        "v, x",
        [
            ((0, 0, 0), MatrixGF(2, ((0, 1), (0, 0), (0, 0)), 2)),
            ((1, 0, 0), MatrixGF(3, ((0, 1), (0, 0)), 2)),
            ((0, 0), MatrixGF(3, ((1, 0), (0, 1)), 2)),
            ((1, 0), MatrixGF(3, ((0, 0), (0, 1)), 2)),
            ((0, 0, 0), MatrixGF(419, ((0, 1, 0), (0, 0, 1), (0, 0, 418)), 3)),
            ((1, 0, 0), MatrixGF(419, ((0, 1, 0), (0, 0, 1), (0, 0, 418)), 3)),
            ((0, 0, 0), MatrixGF(LARGE_P, DENSE_ROWS, 3)),
            ((1, 2, 3), MatrixGF(LARGE_P, DENSE_ROWS, 3)),
        ],
        ids=[
            "non-square",
            "wrong-length-v",
            "non-nilpotent-v-zero",
            "krylov-dies",
            "p419-v-zero",
            "p419-krylov-dies",
            "large-p-dense-v-zero",
            "large-p-dense",
        ],
    )
    def test_errors_match_image_chain_oracle(self, v, x):
        with pytest.raises(ValueError) as old:
            classify_by_image_chain(v, x)
        with pytest.raises(ValueError) as new:
            classify_pair(v, x)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("n", (1, 2, 3, 8))
    def test_conjugates_on_both_sides_of_the_64_bit_switch(self, n):
        # the prime whose least packed width is just at or below 64 bits
        # packs through struct, and the next prime through the shift loop
        below, above = width_boundary(n, 64)
        rng = random.Random(36)
        for p, width in ((below, 64), (above, least_packed_width(n, above))):
            assert _packed_layout(n, p).width == width
            for b in bipartitions(n):
                v, x = elementary_conjugate(normal_pair(b, p), rng)
                assert classify_pair(v, x) == classify_by_image_chain(v, x) == b
                assert jordan_type(x) == jordan_type_by_powers(x)

    @settings(derandomize=True, deadline=None, database=None)
    @given(conjugated_normal_pairs())
    @census_examples
    def test_gl_conjugates_classify_to_b(self, case):
        b, v, x = case
        assert classify_pair(v, x) == classify_by_image_chain(v, x) == b
        assert jordan_type(x) == jordan_type_by_powers(x)


def krylov_vectors(v, x) -> list[tuple[int, ...]]:
    """v, xv, x^2 v, ... up to the last nonzero one."""
    out = []
    while any(v):
        out.append(v)
        v = x.matvec(v)
    return out


class TestChainRanks:
    def test_image_chain_meets_the_krylov_space_in_a_tail(self):
        # x^k V & F[x]v is the span of x^j v for j >= j_k, j_k the least j
        # with x^j v in x^k V, so the rank of x^k on V / F[x]v is
        # dim x^k V - (m - j_k); one conjugate of every normal pair
        rng = random.Random(25)
        levels = 0
        for n in range(7):
            for b in bipartitions(n):
                for p in (2, 3, 5):
                    v, x = elementary_conjugate(normal_pair(b, p), rng)
                    krylov = krylov_vectors(v, x)
                    m = len(krylov)
                    space = SubspaceGF.span(krylov, n, p)
                    chain = image_chain(x)
                    dims, quotient_dims = _chain_ranks(x, v)
                    assert dims == [c.dim for c in chain]
                    # the ranks that classify_by_image_chain reads
                    assert quotient_dims == [
                        SubspaceGF.span(c.basis + tuple(krylov), n, p).dim - m for c in chain
                    ]
                    for c, d in zip(chain, quotient_dims):
                        levels += 1
                        j = next(j for j in range(m + 1) if j == m or c.contains(krylov[j]))
                        assert c.intersect(space) == SubspaceGF.span(krylov[j:], n, p)
                        assert d == c.dim - (m - j)
        assert levels == 1737

    @pytest.mark.parametrize(
        "p, sizes",
        [
            (2, (8,)),
            (3, (8,)),
            (5, (7, 8)),
            (419, (0, 1, 2, 3, 4, 5, 6, 8)),
            (LARGE_P, (0, 1, 2, 3, 4, 5, 8)),
        ],
        ids=["n8-p2", "n8-p3", "n8-p5", "p419", "large-p"],
    )
    def test_packed_walk_matches_image_chain_oracle(self, p, sizes):
        # one conjugate of every normal pair of each size: the packed
        # fields are widest at n = 8 and at a large prime, and the walk
        # builds the Krylov vectors itself from v, on the packed columns
        rng = random.Random(30)
        for n in sizes:
            for b in bipartitions(n):
                v, x = elementary_conjugate(normal_pair(b, p), rng)
                krylov = krylov_vectors(v, x)
                chain = image_chain(x)
                assert _chain_ranks(x, v) == (
                    [c.dim for c in chain],
                    [SubspaceGF.span(c.basis + tuple(krylov), n, p).dim - len(krylov) for c in chain],
                )
                assert classify_pair(v, x) == classify_by_image_chain(v, x) == b

    def test_non_nilpotent_raises_from_the_krylov_loop_and_the_chain(self):
        # x = g diag(5, J_2) g^-1 at a large prime, dense, with the
        # eigenvector u = g e_1 of eigenvalue 5: the Krylov vectors of u
        # never reach 0, so n of them raise before the chain is walked;
        # from v = 0 there is no Krylov vector and the chain stalls
        p, n = LARGE_P, 3
        g = MatrixGF(p, ((3, 1, 4), (1, 5, 9), (2, 6, 5)), n)
        e = MatrixGF(p, ((5, 0, 0), (0, 0, 1), (0, 0, 0)), n)
        x = matmul(matmul(g, e), invert(g))
        u = g.matvec((1, 0, 0))
        assert x.matvec(u) == tuple(5 * a % p for a in u)
        assert sum(a > 2**16 for row in x.rows for a in row) >= 5  # dense, wide entries
        with pytest.raises(ValueError, match="matrix is not nilpotent") as krylov_loop:
            _chain_ranks(x, u)
        frame = krylov_loop.traceback[-1].frame.f_locals
        assert len(frame["krylov"]) == n and "dims" not in frame
        with pytest.raises(ValueError, match="matrix is not nilpotent") as chain:
            _chain_ranks(x, (0, 0, 0))
        frame = chain.traceback[-1].frame.f_locals
        assert frame["krylov"] == [] and frame["dims"] == [3, 2, 1]
        for v in (u, (0, 0, 0)):
            with pytest.raises(ValueError) as old:
                classify_by_image_chain(v, x)
            with pytest.raises(ValueError) as new:
                classify_pair(v, x)
            assert str(new.value) == str(old.value)

    def test_classify_makes_no_matvec(self, monkeypatch):
        # the Krylov vectors are packed ints built on x's packed columns
        rng = random.Random(31)
        cases = [
            (b, *elementary_conjugate(normal_pair(b, p), rng))
            for p in (2, 3, 419, LARGE_P)
            for n in (0, 1, 4, 8)
            for b in bipartitions(n)
        ]

        def forbidden(*args):
            raise AssertionError("classify_pair called MatrixGF.matvec")

        monkeypatch.setattr(MatrixGF, "matvec", forbidden)
        for b, v, x in cases:
            assert classify_pair(v, x) == b
            rows = tuple(b.row_length(i) for i in range(1, b.row_count + 1))
            assert jordan_type(x) == Partition(rows)

    def test_orbit_of_ranks_matches_the_types(self):
        # every normal pair with n <= 8: the orbit read straight off the
        # two rank sequences is the orbit of their two Jordan types
        pairs = 0
        for n in range(9):
            for b in bipartitions(n):
                np_ = normal_pair(b, 2)
                ranks, quotient_ranks = _chain_ranks(np_.x, np_.v)
                expected = orbit_of_types(type_of_ranks(ranks), type_of_ranks(quotient_ranks))
                assert _orbit_of_ranks(ranks, quotient_ranks) == expected == b
                pairs += 1
        assert pairs == 434

    @pytest.mark.parametrize(
        "ranks, quotient_ranks",
        [([3, 2, 0], [1, 0]), ([2, 1, 0], [3, 2, 0]), ([1, 2, 0], [0]), ([2, 1, 0], [1, 2, 0])],
        ids=["drops-rise", "quotient-drops-rise", "rank-rises", "quotient-rank-rises"],
    )
    def test_non_convex_ranks_raise(self, ranks, quotient_ranks):
        with pytest.raises(ValueError):
            orbit_of_types(type_of_ranks(ranks), type_of_ranks(quotient_ranks))
        with pytest.raises(ValueError):
            _orbit_of_ranks(ranks, quotient_ranks)

    @pytest.mark.parametrize(
        "ranks, drops",
        [
            ([3, 2, 0], (1, 2)),
            ([4, 3, 2, 0], (1, 1, 2)),
            ([0, 1], (-1,)),
            ([1, 2, 0], (-1, 2)),
            ([2, 3, 1, 0], (-1, 2, 1)),
            ([0, 1, 3], (-1, -2)),
        ],
        ids=["increasing", "increasing-last", "negative", "negative-first", "negative-inside", "all-negative"],
    )
    def test_bad_drops_raise(self, ranks, drops):
        message = f"rank drops must be positive and weakly decreasing: {drops}"
        with pytest.raises(ValueError) as raised:
            partition_from_ranks(ranks)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "ranks, parts",
        [
            ([], ()),
            ([0], ()),
            ([5, 5, 5], ()),
            ([3, 0], (1, 1, 1)),
            ([7, 4, 2, 1, 0], (4, 2, 1)),
            ([6, 3, 0], (2, 2, 2)),
            ([6, 6, 3, 3, 1, 0], (3, 2, 1)),
        ],
    )
    def test_drops_transpose(self, ranks, parts):
        # zero drops are skipped; part i counts the drops greater than i
        assert partition_from_ranks(ranks).parts == parts

    def test_orbit_of_types_rejects_types_of_no_orbit(self):
        # kappa longer than lambda, and a mu that would go negative
        for lam, kappa in (((1,), (1, 1)), ((2,), (3,)), ((1, 1), (2, 1))):
            message = f"no orbit has Jordan types {Partition(lam)} and {Partition(kappa)}"
            with pytest.raises(AssertionError) as raised:
                orbit_of_types(Partition(lam), Partition(kappa))
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "ranks, quotient_ranks", [([1, 0], [2, 1, 0]), ([1, 0], [2, 0])], ids=["mu-negative", "kappa-longer"]
    )
    def test_types_of_no_orbit_raise(self, ranks, quotient_ranks):
        with pytest.raises(AssertionError) as old:
            orbit_of_types(type_of_ranks(ranks), type_of_ranks(quotient_ranks))
        with pytest.raises(AssertionError) as new:
            _orbit_of_ranks(ranks, quotient_ranks)
        assert str(new.value) == str(old.value)


class TestFiberCountConjugates:
    @settings(derandomize=True, deadline=None, database=None)
    @given(conjugated_normal_pairs(max_n=3))
    def test_gl_conjugates_count_as_normal_pair(self, case):
        b, v, x = case
        for big in bipartitions(b.n):
            plain = count_fiber(FiberQuery(v, x, flag_shape(big)))
            assert plain == count_fiber_memo(FiberQuery.over_orbit(b, big, x.p)), (b, big)


class TestNonnegPart:
    def test_dimension_example(self):
        np_ = normal_pair(bipartition((3, 1, 1), (3, 2)), 2)
        assert nonneg_part(np_).dim == 5

    def test_extremes(self):
        assert nonneg_part(normal_pair(bipartition((), (4,)), 2)).dim == 0
        full = normal_pair(bipartition((4,), ()), 2)
        assert nonneg_part(full) == SubspaceGF.full(4, 2)

    def test_equals_centralizer_module(self):
        for n in range(6):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    assert nonneg_part(np_) == centralizer_module_span(np_.v, np_.x)


class TestExplicitDecomposition:
    def test_equal_alpha_parts(self):
        np_ = normal_pair(bipartition((2, 2), (1,)), 2)
        dec = explicit_decomposition(np_)
        # V2 is row 1 = the first three coordinates; V1 is spanned by the
        # two sums v_{1,j} + v_{2,j}, j = 1, 2
        assert (dec.v1.dim, dec.v2.dim) == (2, 3)
        assert dec.v2 == SubspaceGF.coordinate((0, 1, 2), 5, 2)
        assert not decomposition_failures(np_.pair, dec)

    def test_equal_beta_parts(self):
        np_ = normal_pair(bipartition((3, 1), (2, 2)), 3)
        dec = explicit_decomposition(np_)
        # V2 is row 2, of length alpha_2 + beta_2 = 3
        assert dec.v2.dim == 3
        assert not decomposition_failures(np_.pair, dec)

    def test_longer_beta(self):
        np_ = normal_pair(bipartition((1,), (1, 1)), 2)
        dec = explicit_decomposition(np_)
        # V2 is row 2, the single box below the alpha rows
        assert dec.v2.dim == 1
        assert not decomposition_failures(np_.pair, dec)

    def test_rejects_distinguished(self):
        with pytest.raises(ValueError):
            explicit_decomposition(normal_pair(bipartition((), (3,)), 2))

    def test_valid_for_all_nondistinguished(self):
        for n in range(7):
            for b in bipartitions(n):
                if is_distinguished(b):
                    continue
                np_ = normal_pair(b, 2)
                dec = explicit_decomposition(np_)
                assert not decomposition_failures(np_.pair, dec)
                assert dec.v1.dim >= 1 and dec.v2.dim >= 1

    def test_failures_detected(self):
        np_ = normal_pair(bipartition((1,), (1, 1)), 2)
        # V1 not containing v and not x-stable
        bogus_v1 = SubspaceGF.coordinate((1,), 3, 2)
        bogus_v2 = SubspaceGF.coordinate((0, 2), 3, 2)
        fails = decomposition_failures(np_.pair, Decomposition(bogus_v1, bogus_v2))
        assert "v not in V1" in fails


class TestGradedPieces:
    def test_kernel_blocks_of_normal_pair(self):
        b = bipartition((3, 1), (2,))
        np_ = normal_pair(b, 2)
        blocks = graded_kernel_blocks(np_.pair)
        # ker x = the leftmost box of each row, at weight alpha_i - 1
        kernel_weights = sorted(
            w for w, _, piece in blocks for _ in range(piece.dim)
        )
        assert kernel_weights == sorted(
            b.first.part(i) - 1 for i in range(1, b.row_count + 1)
        )

    def test_graded_projection_matches_full_length_oracle(self):
        # graded_span sorts the embedded block rows without re-reducing
        # them; they must already be the canonical basis of their span
        seen = 0
        for n in range(6):
            for b in bipartitions(n):
                for p in (2, 3):
                    pair = normal_pair(b, p).pair
                    blocks = graded_kernel_blocks(pair)
                    for d in range(sum(piece.dim for _, _, piece in blocks) + 1):
                        for selection in enumerate_graded_subspaces(blocks, d):
                            seen += 1
                            embedded = [
                                [dict(zip(coords, row)).get(c, 0) for c in range(n)]
                                for coords, sub in selection
                                for row in sub.basis
                            ]
                            assert graded_span(selection, n, p) == SubspaceGF.span(embedded, n, p)
                            qm = graded_projection(selection, n, p)
                            assert qm.apply(pair.v) == reduce_apply(qm, pair.v)
                            assert qm.push_matrix(pair.x) == push_matrix_by_columns(qm, pair.x)
        assert seen == 8252

    def test_first_steps_are_sums_of_kernel_lines(self):
        # the recursion behind the kernel check: at a distinguished pair
        # with nonzero v-part, the graded r_1-subspaces are the sums of r_1
        # kernel lines, and the graded count is the sum over them of the
        # counts of the quotients with the reduced shape, here by the
        # unmemoized oracle walk, which reads none of the walker's tables
        cases = 0
        for n in range(5):
            for big, small in closure_pairs(n):
                shape = flag_shape(big)
                if not is_distinguished(small) or small.first.length == 0 or shape.marker == 0:
                    continue
                r1 = shape.dims[1]
                rest = FlagShape(tuple(r - r1 for r in shape.dims[1:]), shape.marker - 1)
                for p in (2, 3):
                    cases += 1
                    np_ = normal_pair(small, p)
                    blocks = graded_kernel_blocks(np_.pair)
                    lines = [(coords, piece) for _, coords, piece in blocks if piece.dim == 1]
                    subsets = list(itertools.combinations(lines, r1))
                    listed = {graded_span(sel, n, p) for sel in enumerate_graded_subspaces(blocks, r1)}
                    assert listed == {
                        SubspaceGF.span(
                            [[dict(zip(coords, line.basis[0])).get(c, 0) for c in range(n)] for coords, line in subset],
                            n,
                            p,
                        )
                        for subset in subsets
                    }
                    terms = []
                    for subset in subsets:
                        _, sub = graded_quotient(np_.pair, subset)
                        terms.append(unmemoized_lambda_fixed_count(FiberQuery(sub.v, sub.x, rest, sub.weights)))
                    assert count_lambda_fixed(FiberQuery.of(np_, shape)) == sum(terms), (str(big), str(small), p)
        assert cases == 50

    def test_grading_read_off_the_rref_basis(self):
        # every subspace of GF(p)^n against every grading by {0, 1}
        cases = 0
        for n in range(1, 5):
            for p in (2, 3):
                subspaces = [
                    s for d in range(n + 1) for s in enumerate_subspaces(SubspaceGF.full(n, p), d)
                ]
                for weights in itertools.product((0, 1), repeat=n):
                    pair = GradedPair(MatrixGF(p, ((0,) * n,) * n, n), (0,) * n, weights)
                    for sub in subspaces:
                        cases += 1
                        fails = decomposition_failures(pair, Decomposition(sub, sub))
                        assert ("V1 not weight-graded" in fails) != graded_by_intersections(
                            sub, weights
                        ), (sub, weights)
        assert cases == 4868

    def test_restrict_pair_on_decomposition(self):
        # the V1 factor of the split check: the pair induced on V / V2
        np_ = normal_pair(bipartition((2, 2), (1,)), 3)
        dec = explicit_decomposition(np_)
        sub = quotient_pair(np_.pair, quotient_map(dec.v2))
        assert sub.n == dec.v1.dim
        # restriction keeps the grading: x raises weights by one
        for r in range(sub.n):
            for c in range(sub.n):
                if sub.x.rows[r][c]:
                    assert sub.weights[r] == sub.weights[c] + 1
        # v lands in V1, so its restriction is nonzero with weight 0
        assert any(sub.v)
        assert all(sub.weights[c] == 0 for c, a in enumerate(sub.v) if a)


class TestDenseOrbitTangent:
    def test_surjective_small(self):
        for n in range(5):
            for b in bipartitions(n):
                assert orbit_map_tangent_surjective(b, 101)
