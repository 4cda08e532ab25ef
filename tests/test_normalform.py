import itertools

import pytest
from hypothesis import given, settings, strategies as st

from enhcone.combinatorics import bipartition, bipartitions, flag_shape, is_distinguished
from enhcone.fibers import FiberQuery, count_fiber, count_fiber_memo
from enhcone.gflinalg import MatrixGF, QuotientMap, SubspaceGF, rank
from enhcone.normalform import (
    GradedPair,
    centralizer_basis,
    classify_pair,
    decomposition_failures,
    enumerate_graded_subspaces,
    explicit_decomposition,
    graded_kernel_blocks,
    graded_projection,
    jordan_type,
    normal_pair,
    restrict_pair,
)
from oracles import (
    centralizer_module_span,
    classify_by_centralizer,
    jordan_type_by_powers,
    nonneg_part,
    orbit_map_tangent_surjective,
    push_matrix_by_columns,
    reduce_apply,
)


def regular_nilpotent(n: int, p: int) -> MatrixGF:
    return MatrixGF.from_rows(
        [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)], p
    )


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

    def test_json_roundtrip(self):
        import json

        np_ = normal_pair(bipartition((2, 1), (1,)), 3)
        blob = json.dumps(np_.to_json_dict())
        assert json.loads(blob)["weights"] == list(np_.weights)


class TestJordanType:
    def test_examples(self):
        np_ = normal_pair(bipartition((3, 1, 1), (3, 2)), 2)
        assert jordan_type(np_.x).parts == (6, 3, 1)
        assert jordan_type(MatrixGF.zeros(4, 4, 2)).parts == (1, 1, 1, 1)
        assert jordan_type(regular_nilpotent(5, 3)).parts == (5,)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            jordan_type(MatrixGF.identity(3, 2))

    def test_classify_rejects_non_nilpotent(self):
        # the Krylov sequence of (1, 0) under the identity never reaches 0
        with pytest.raises(ValueError, match="not nilpotent"):
            classify_pair((1, 0), MatrixGF.identity(2, 3))
        # here it does, and the image chain of x stalls instead
        with pytest.raises(ValueError, match="not nilpotent"):
            classify_pair((1, 0), MatrixGF.from_rows([[0, 0], [0, 1]], 3))


class TestCentralizer:
    def test_zero_matrix(self):
        assert len(centralizer_basis(MatrixGF.zeros(2, 2, 3))) == 4

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
                y = MatrixGF.from_rows(
                    [entries[r * n : (r + 1) * n] for r in range(n)], 2
                )
                if (y @ np_.x).rows == (np_.x @ y).rows:
                    commuting += 1
            assert commuting == 2 ** len(basis)


def gl2_f2():
    for entries in itertools.product((0, 1), repeat=4):
        g = MatrixGF.from_rows([entries[:2], entries[2:]], 2)
        if rank(g) == 2:
            yield g


def invert_gf(g: MatrixGF) -> MatrixGF:
    n, p = g.nrows, g.p
    aug = MatrixGF.from_rows(
        [list(g.rows[r]) + [1 if c == r else 0 for c in range(n)] for r in range(n)],
        p,
    )
    from enhcone.gflinalg import rref

    r = rref(aug)
    return MatrixGF.from_rows([row[n:] for row in r.rows], p)


class TestClassify:
    def test_roundtrip_small(self):
        for n in range(7):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    assert classify_pair(np_.v, np_.x) == b
                    assert classify_by_centralizer(np_.v, np_.x) == b

    def test_reads_ranks_off_the_image_chain(self, monkeypatch):
        # no matrix power and no quotient push: both would raise here
        def forbidden(*args):
            raise AssertionError("classify_pair formed a product or a quotient")

        monkeypatch.setattr(MatrixGF, "mul", forbidden)
        monkeypatch.setattr(QuotientMap, "push_matrix", forbidden)
        for n in range(6):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    assert classify_pair(np_.v, np_.x) == b

    def test_zero_vector(self):
        x = regular_nilpotent(3, 2)
        assert classify_pair((0, 0, 0), x) == bipartition((), (3,))

    def test_cyclic_regular_orbit(self):
        # classify is constant on the GL_2(F_2)-orbit of a cyclic vector
        x = regular_nilpotent(2, 2)
        v = (0, 1)
        expected = bipartition((2,), ())
        assert classify_pair(v, x) == expected
        for g in gl2_f2():
            ginv = invert_gf(g)
            assert (g @ ginv) == MatrixGF.identity(2, 2)
            vv = g.matvec(v)
            xx = g @ x @ ginv
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
    g = MatrixGF.from_rows([[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)], p, n)
    g = g @ MatrixGF.from_rows(lower, p, n) @ MatrixGF.from_rows(upper, p, n)
    np_ = normal_pair(b, p)
    return b, g.matvec(np_.v), g @ np_.x @ invert_gf(g)


class TestClassifyConjugates:
    @settings(derandomize=True, deadline=None, database=None)
    @given(conjugated_normal_pairs())
    def test_gl_conjugates_classify_to_b(self, case):
        b, v, x = case
        assert classify_pair(v, x) == b
        assert jordan_type(x) == jordan_type_by_powers(x)


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
        from enhcone.normalform import Decomposition

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
        # per-block RREF unions: each row is 1 at its pivot and 0 at the
        # other pivots, which is all that apply and push_matrix rely on
        for n in range(5):
            for b in bipartitions(n):
                for p in (2, 3):
                    pair = normal_pair(b, p).pair
                    blocks = graded_kernel_blocks(pair)
                    for d in range(sum(piece.dim for _, _, piece in blocks) + 1):
                        for selection in enumerate_graded_subspaces(blocks, d):
                            qm = graded_projection(selection, n, p)
                            assert qm.apply(pair.v) == reduce_apply(qm, pair.v)
                            assert qm.push_matrix(pair.x) == push_matrix_by_columns(qm, pair.x)

    def test_restrict_pair_on_decomposition(self):
        np_ = normal_pair(bipartition((2, 2), (1,)), 3)
        dec = explicit_decomposition(np_)
        sub = restrict_pair(np_.pair, dec.v1)
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
