import pytest

from enhcone.combinatorics import (
    Bipartition,
    FlagShape,
    Partition,
    bipartition,
    bipartitions,
    box_weight,
    diagram,
    flag_shape,
    format_bipartition,
    is_distinguished,
    parse_bipartition,
    partitions,
    transpose,
)


def partition_count(n: int) -> int:
    """Independent oracle: Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        total = 0
        while True:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g > m:
                    continue
                total += (-1) ** (k + 1) * p[m - g]
            if k * (3 * k - 1) // 2 > m:
                break
            k += 1
        p[m] = total
    return p[n]


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition((2, 1)).size == 3

    @pytest.mark.parametrize(
        "parts", [(2.7, 1), (2.0,), ("2",), (2, 1.0), [2, 1.5], (3, "1"), ["3"], (None,)]
    )
    def test_non_integer_parts_raise(self, parts):
        # int() would truncate 2.7 to 2 and parse "2"; in a tuple or a list
        with pytest.raises(TypeError):
            Partition(parts)

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((0,), "partition parts must be positive: (0,)"),
            ((2, 0), "partition parts must be positive: (2, 0)"),
            ((0, 1), "partition parts must be positive: (0, 1)"),
            ((-1, 2), "partition parts must be positive: (-1, 2)"),
            ([3, -2], "partition parts must be positive: (3, -2)"),
            ((1, 2), "partition parts must be weakly decreasing: (1, 2)"),
            ((3, 1, 1, 2), "partition parts must be weakly decreasing: (3, 1, 1, 2)"),
            ([True, 2], "partition parts must be weakly decreasing: (1, 2)"),
        ],
    )
    def test_invalid_parts_messages(self, parts, message):
        # positivity is checked first, so (0, 1) reports "positive"
        with pytest.raises(ValueError) as raised:
            Partition(parts)
        assert str(raised.value) == message

    def test_lists_and_bools_become_int_tuples(self):
        for parts in ([3, 1, 1], (True, True), [2, True], range(3, 0, -1)):
            p = Partition(parts)
            assert type(p.parts) is tuple and all(type(a) is int for a in p.parts)
            assert p.parts == tuple(int(a) for a in parts)
        assert Partition([]) == Partition(()) == Partition()
        assert Partition([2, True]) == Partition((2, 1))
        assert hash(Partition([2, True])) == hash(Partition((2, 1)))
        # a tuple of ints is kept as given
        parts = (4, 2, 2)
        assert Partition(parts).parts is parts

    def test_part_padding(self):
        p = Partition((3, 1))
        assert [p.part(i) for i in (1, 2, 3)] == [3, 1, 0]

    @pytest.mark.parametrize(
        "parts,expected",
        [((3, 1, 1), (3, 1, 1)), ((3, 2), (2, 2, 1)), ((), ())],
    )
    def test_transpose_examples(self, parts, expected):
        assert transpose(Partition(parts)).parts == expected

    def test_transpose_involution(self):
        for n in range(13):
            for p in partitions(n):
                assert transpose(transpose(p)) == p
                assert transpose(p).size == p.size


class TestBipartitions:
    def test_small_cases(self):
        assert [str(b) for b in bipartitions(0)] == ["(();())"]
        one = bipartitions(1)
        assert len(one) == 2
        assert one[0] == bipartition((), (1,))
        assert one[1] == bipartition((1,), ())

    def test_count_matches_convolution(self):
        for n in range(9):
            expected = sum(
                partition_count(k) * partition_count(n - k) for k in range(n + 1)
            )
            assert len(bipartitions(n)) == expected

    def test_each_exactly_once_and_ordered(self):
        for n in range(7):
            bs = bipartitions(n)
            assert len(set(bs)) == len(bs)
            keys = [(b.first.size, b.first.parts, b.second.parts) for b in bs]
            assert keys == sorted(keys)

    def test_contains_large_example(self):
        assert bipartition((3, 1, 1), (3, 2)) in bipartitions(10)

    def test_roundtrip_serialization(self):
        b = bipartition((3, 1, 1), (3, 2))
        assert parse_bipartition("mu=3,1,1;nu=3,2") == b
        assert parse_bipartition(format_bipartition(b)) == b
        assert parse_bipartition("mu=;nu=2") == bipartition((), (2,))
        with pytest.raises(ValueError):
            parse_bipartition("3,1,1;3,2")


class TestDiagram:
    @pytest.mark.parametrize(
        "mu,nu,heights",
        [
            ((3, 1, 1), (3, 2), (1, 1, 3, 2, 2, 1)),
            ((), (2,), (1, 1)),
            ((1,), (1,), (1, 1)),
        ],
    )
    def test_column_heights(self, mu, nu, heights):
        assert diagram(bipartition(mu, nu)).column_heights == heights

    def test_invariants_exhaustive(self):
        for n in range(9):
            for b in bipartitions(n):
                d = diagram(b)
                assert all(h >= 1 for h in d.column_heights)
                assert sum(d.column_heights) == n
                assert len(d.boxes) == n
                # row i has mu_i + nu_i boxes
                for row in d.rows:
                    assert row.last_col - row.first_col + 1 == b.row_length(row.index)
                # column counts come from the transposes laid back to back
                mu1 = b.first.part(1)
                mut = transpose(b.first)
                nut = transpose(b.second)
                for i in range(mu1):
                    assert d.column_heights[mu1 - i - 1] == mut.part(i + 1)
                for i in range(1, b.second.part(1) + 1):
                    assert d.column_heights[mu1 + i - 1] == nut.part(i)


class TestFlagShape:
    @pytest.mark.parametrize("dims,marker", [((0, 1.5, 3), 0), ((0, 1, 2), 1.0), ((0, "1"), 0)])
    def test_non_integer_dims_and_marker_raise(self, dims, marker):
        # int() would truncate 1.5 to 1, leaving dims (0, 1, 3)
        with pytest.raises(TypeError):
            FlagShape(dims, marker)

    def test_integer_like_values_become_ints(self):
        fs = FlagShape((0, True, 2), True)
        assert fs.dims == (0, 1, 2) and fs.marker == 1
        assert all(type(r) is int for r in fs.dims + (fs.marker,))

    def test_ten_box_example(self):
        fs = flag_shape(bipartition((3, 1, 1), (3, 2)))
        assert fs.dims == (0, 1, 2, 5, 7, 9, 10)
        assert fs.marker == 3

    def test_single_row(self):
        for n in range(1, 6):
            fs = flag_shape(bipartition((), (n,)))
            assert fs.dims == tuple(range(n + 1))
            assert fs.marker == 0

    def test_one_one(self):
        fs = flag_shape(bipartition((1,), (1,)))
        assert fs.dims == (0, 1, 2)
        assert fs.marker == 1

    def test_dims_strictly_increasing_exhaustive(self):
        for n in range(9):
            for b in bipartitions(n):
                fs = flag_shape(b)
                assert all(a < c for a, c in zip(fs.dims, fs.dims[1:]))
                assert 0 <= fs.marker <= fs.m


class TestDistinguished:
    @pytest.mark.parametrize(
        "mu,nu,expected",
        [
            ((), (3,), True),
            ((3, 1), (2,), True),
            ((2, 2), (1,), False),
            ((3, 1), (2, 2), False),
        ],
    )
    def test_examples(self, mu, nu, expected):
        assert is_distinguished(bipartition(mu, nu)) is expected

    def test_single_row_always(self):
        for n in range(1, 9):
            assert is_distinguished(bipartition((), (n,)))

    def test_repeats_never(self):
        for n in range(8):
            for b in bipartitions(n):
                alpha, beta = b.first, b.second
                k = alpha.length
                if any(
                    alpha.part(i) == alpha.part(i + 1) for i in range(1, k)
                ) or any(beta.part(i) == beta.part(i + 1) for i in range(1, k)):
                    assert not is_distinguished(b)


class TestBoxWeight:
    def test_examples(self):
        b = bipartition((3, 1, 1), (3, 2))
        assert box_weight(b, 1, 1) == 2
        assert box_weight(b, 1, 3) == 0
        assert box_weight(b, 2, 3) == -2

    def test_rejects_non_boxes(self):
        b = bipartition((3, 1, 1), (3, 2))
        with pytest.raises(ValueError):
            box_weight(b, 2, 4)
        with pytest.raises(ValueError):
            box_weight(b, 4, 1)
        with pytest.raises(ValueError):
            box_weight(b, 1, 0)
