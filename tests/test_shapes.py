"""Partition operations, region builders, and the descriptor grammar."""

import pytest
from hypothesis import given, strategies as st

from sytcount.shapes import (
    CellRegion,
    InvalidSpec,
    InvalidTruncation,
    NotContained,
    Partition,
    ShapeError,
    StrictPartition,
    StrictnessViolation,
    Tableau,
    build_region,
    complement_in_rectangle,
    complement_in_staircase,
    conjugate,
    ordinary_region,
    parse_descriptor,
    partition_sum,
    partitions_in_box,
    rotate180,
    shifted_region,
    staircase,
    strict_partitions_in_staircase,
    truncated_rectangle_region,
    truncated_staircase_region,
    union,
)

partitions = st.lists(st.integers(1, 12), max_size=6).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


class TestPartition:
    def test_strips_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)
        assert Partition((0,)).parts == ()
        assert Partition().parts == ()

    def test_rejects_increasing(self):
        with pytest.raises(ShapeError):
            Partition((1, 3))

    def test_rejects_negative(self):
        with pytest.raises(ShapeError):
            Partition((3, -1))

    def test_size_and_part(self):
        p = Partition((4, 2, 1))
        assert p.size == 7
        assert p.part(1) == 4
        assert p.part(5) == 0

    def test_strict_partition_rejects_repeat(self):
        with pytest.raises(StrictnessViolation):
            StrictPartition((3, 3, 1))

    def test_strict_partition_strips_zero(self):
        assert StrictPartition((2, 1, 0)).parts == (2, 1)


class TestOperations:
    def test_union_ordinary(self):
        assert union(Partition((3, 1)), Partition((2,))) == Partition((3, 2, 1))
        assert union(Partition((2, 2)), Partition((2,))) == Partition((2, 2, 2))

    def test_union_strict(self):
        got = union(StrictPartition((3, 1)), StrictPartition((2,)))
        assert got == StrictPartition((3, 2, 1))

    def test_union_strict_repeat_raises(self):
        with pytest.raises(StrictnessViolation):
            union(StrictPartition((3, 1)), StrictPartition((3,)))

    def test_sum_pads_with_zeros(self):
        assert partition_sum((3, 1), (2, 2, 1)) == Partition((5, 3, 1))
        assert Partition((1,)) + Partition((1, 1)) == Partition((2, 1))

    def test_conjugate(self):
        assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
        assert conjugate(Partition()) == Partition()

    @given(partitions)
    def test_conjugate_is_involution(self, p):
        assert p.conjugate().conjugate() == p

    @given(partitions, partitions)
    def test_union_and_sum_sizes(self, a, b):
        assert union(a, b).size == a.size + b.size
        assert (a + b).size == a.size + b.size

    def test_staircase(self):
        assert staircase(4) == StrictPartition((4, 3, 2, 1))
        assert staircase(0) == StrictPartition(())


class TestComplements:
    def test_staircase_complement(self):
        assert complement_in_staircase(StrictPartition((3, 1)), 4) == StrictPartition((4, 2))
        assert complement_in_staircase(StrictPartition(()), 3) == staircase(3)

    def test_staircase_complement_not_contained(self):
        with pytest.raises(NotContained):
            complement_in_staircase(StrictPartition((5,)), 4)

    @given(st.integers(0, 8), st.data())
    def test_staircase_complement_involution(self, m, data):
        lams = list(strict_partitions_in_staircase(m))
        lam = data.draw(st.sampled_from(lams))
        lam_c = complement_in_staircase(lam, m)
        assert complement_in_staircase(lam_c, m) == lam
        assert lam.size + lam_c.size == m * (m + 1) // 2

    def test_rectangle_complement_examples(self):
        assert complement_in_rectangle(Partition((1,)), 2, 2) == Partition((2, 1))
        assert complement_in_rectangle(Partition(()), 1, 1) == Partition((1,))
        assert complement_in_rectangle(Partition(()), 0, 3) == Partition(())

    def test_rectangle_complement_not_contained(self):
        with pytest.raises(NotContained):
            complement_in_rectangle(Partition((4,)), 2, 3)
        with pytest.raises(NotContained):
            complement_in_rectangle(Partition((1, 1, 1)), 2, 3)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 3), (2, 2), (3, 2), (3, 4)])
    def test_rectangle_complement_involution(self, m, n):
        for lam in partitions_in_box(m, n):
            lam_c = complement_in_rectangle(lam, m, n)
            assert lam.size + lam_c.size == m * n
            assert complement_in_rectangle(lam_c, n, m) == lam


class TestIterators:
    def test_partitions_in_box_count(self):
        # choose(m + n, m) partitions fit in an m x n box
        assert len(list(partitions_in_box(2, 2))) == 6
        assert len(list(partitions_in_box(3, 2))) == 10
        assert list(partitions_in_box(0, 5)) == [Partition(())]

    def test_strict_in_staircase_count(self):
        assert len(list(strict_partitions_in_staircase(4))) == 16
        sizes = [p.size for p in strict_partitions_in_staircase(3, size=3)]
        assert sizes and all(s == 3 for s in sizes)

    def test_size_filter_keeps_unfiltered_order(self):
        for m in range(6):
            for n in range(6):
                every = list(partitions_in_box(m, n))
                for s in range(m * n + 2):
                    assert list(partitions_in_box(m, n, size=s)) == [
                        p for p in every if p.size == s
                    ]
            every = list(strict_partitions_in_staircase(m))
            for s in range(m * (m + 1) // 2 + 2):
                assert list(strict_partitions_in_staircase(m, size=s)) == [
                    p for p in every if p.size == s
                ]

    def test_size_filter_prunes(self, monkeypatch):
        built = []
        post_init = Partition.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(Partition, "__post_init__", counting)
        assert len(list(partitions_in_box(8, 8, size=4))) == 5
        # the unpruned walk builds all C(16, 8) = 12,870 partitions
        assert len(built) < 100


class TestRegions:
    def test_ordinary(self):
        r = ordinary_region(Partition((3, 2)))
        assert r.rows == ((1, 3), (1, 2))
        assert r.kind == "ordinary"
        assert r.size == 5
        assert not r.extra_precedences

    def test_shifted_has_diagonal_pairs(self):
        r = shifted_region(StrictPartition((3, 2, 1)))
        assert r.rows == ((1, 3), (2, 3), (3, 3))
        assert ((1, 1), (2, 2)) in r.extra_precedences
        assert ((2, 2), (3, 3)) in r.extra_precedences

    def test_truncated_staircase(self):
        r = truncated_staircase_region(4, Partition((1,)))
        assert r.rows == ((1, 3), (2, 4), (3, 4), (4, 4))
        assert r.size == 9
        assert r.kind == "truncated_staircase"

    def test_truncated_staircase_rejects_emptying_row(self):
        with pytest.raises(InvalidTruncation):
            truncated_staircase_region(4, Partition((4,)))
        with pytest.raises(InvalidTruncation):
            truncated_staircase_region(3, Partition((1, 1, 1)))

    def test_truncated_rectangle(self):
        r = truncated_rectangle_region(6, 7, Partition((2,)))
        assert r.rows == ((1, 5),) + ((1, 7),) * 5
        assert r.size == 40

    def test_truncated_rectangle_drops_empty_rows(self):
        r = truncated_rectangle_region(2, 2, Partition((2, 1)))
        assert r.rows == ((1, 1),)

    def test_truncated_rectangle_rejects_wide_cut(self):
        with pytest.raises(InvalidTruncation):
            truncated_rectangle_region(2, 3, Partition((4,)))

    def test_column_contiguity_enforced(self):
        with pytest.raises(ShapeError):
            CellRegion(((1, 1), (3, 3), (1, 3)))

    def test_rotate180_right_justifies(self):
        r = truncated_rectangle_region(3, 4, Partition((2, 1)))
        rr = rotate180(r)
        assert rr.size == r.size
        assert rr.rows == ((1, 4), (2, 4), (3, 4))

    def test_rotate180_reverses_precedences(self):
        r = shifted_region(StrictPartition((2, 1)))
        rr = rotate180(r)
        assert ((1, 1), (2, 2)) in rr.extra_precedences


class TestDescriptors:
    @pytest.mark.parametrize(
        "text,size",
        [
            ("part:3,3,2", 8),
            ("shifted:4,2,1", 7),
            ("stair:4", 10),
            ("stair:4/1", 9),
            ("rect:6x7", 42),
            ("rect:6x7/2", 40),
            ("rect:3x3/2,1", 6),
        ],
    )
    def test_sizes(self, text, size):
        assert build_region(text).size == size

    def test_parse_fields(self):
        d = parse_descriptor("rect:3x5/2,1")
        assert (d.family, d.m, d.n) == ("rect", 3, 5)
        assert d.kappa == Partition((2, 1))

    @pytest.mark.parametrize(
        "text",
        ["", "part:", "stair:", "blob:3", "rect:3", "rect:3x", "stair:x", "part:1,a"],
    )
    def test_bad_descriptors(self, text):
        with pytest.raises(InvalidSpec):
            build_region(text)

    def test_shifted_descriptor_requires_strict(self):
        with pytest.raises(StrictnessViolation):
            build_region("shifted:2,2")


class TestTableau:
    def test_row_shape_must_match(self):
        region = ordinary_region(Partition((2, 1)))
        with pytest.raises(ShapeError):
            Tableau(region, ((1, 2, 3), (4,)))

    def test_label_at_respects_row_start(self):
        region = shifted_region(StrictPartition((2, 1)))
        t = Tableau(region, ((1, 2), (3,)))
        assert t.label_at(2, 2) == 3
        assert dict(t.labels()) == {(1, 1): 1, (1, 2): 2, (2, 2): 3}

    def test_rows_of_any_iterable_become_tuples(self):
        region = build_region("stair:3")
        want = Tableau(region, ((1, 2, 4), (3, 5), (6,)))
        for rows in (
            [[1, 2, 4], [3, 5], [6]],
            [(1, 2, 4), [3, 5], (6,)],
            (iter([1, 2, 4]), range(3, 7, 2), (6,)),
            (list(row) for row in want.rows),
        ):
            t = Tableau(region, rows)
            assert t == want and hash(t) == hash(want)
            assert type(t.rows) is tuple
            assert all(type(row) is tuple for row in t.rows)

    def test_row_count_and_row_lengths_are_checked(self):
        region = build_region("stair:3")
        with pytest.raises(ShapeError, match="row count does not match"):
            Tableau(region, ((1, 2, 4), (3, 5)))
        with pytest.raises(ShapeError, match="row count does not match"):
            Tableau(region, ((1, 2, 4), (3, 5), (6,), ()))
        with pytest.raises(ShapeError, match="row length does not match"):
            Tableau(region, ((1, 2, 4), (3,), (5, 6)))
        assert Tableau(CellRegion(()), ()).rows == ()
