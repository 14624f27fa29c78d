"""Partition operations, region builders, and the descriptor grammar."""

import copy
import pickle
import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from sytcount import shapes
from sytcount.count import enumerate_syt
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
    coerce_partition,
    coerce_strict,
    complement_in_rectangle,
    complement_in_staircase,
    ordinary_region,
    parse_descriptor,
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


# Each partition class's rules written out in full, the reference for the
# body the two classes share.
def reference_partition(raw):
    parts = tuple(int(p) for p in raw)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ShapeError(f"parts must be weakly decreasing: {raw}")
    if parts and parts[-1] < 0:
        raise ShapeError(f"parts must be nonnegative: {raw}")
    return parts


def reference_strict(raw):
    parts = tuple(int(p) for p in raw)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(a <= b for a, b in zip(parts, parts[1:])):
        raise StrictnessViolation(f"parts must be strictly decreasing: {raw}")
    if parts and parts[-1] < 0:
        raise ShapeError(f"parts must be positive: {raw}")
    return parts


# Both partition walks as recursive generators, one frame per part: the
# reference for the order and pruning of the explicit-stack walk.
def reference_box(m, n, size=None):
    def rec(max_part, rows_left, prefix, cells):
        if size is None or cells == size:
            yield Partition(tuple(prefix))
        if rows_left == 0:
            return
        hi, lo = max_part, 1
        if size is not None:
            hi = min(max_part, size - cells)
            lo = max(1, -(-(size - cells) // rows_left))
        for nxt in range(hi, lo - 1, -1):
            prefix.append(nxt)
            yield from rec(nxt, rows_left - 1, prefix, cells + nxt)
            prefix.pop()

    yield from rec(n, m, [], 0)


def reference_strict_in_staircase(m, size=None):
    if size is None:
        for k in range(m + 1):
            for combo in combinations(range(m, 0, -1), k):
                yield StrictPartition(combo)
        return

    def rec(k, max_part, rest, prefix):
        if k == 0:
            if rest == 0:
                yield StrictPartition(tuple(prefix))
            return
        for part in range(min(max_part, rest), k - 1, -1):
            if part * k - k * (k - 1) // 2 < rest:
                return
            if (k - 1) * k // 2 > rest - part:
                continue
            prefix.append(part)
            yield from rec(k - 1, part - 1, rest - part, prefix)
            prefix.pop()

    for k in range(m + 1):
        yield from rec(k, m, size, [])


# small parts with zeros and repeats, half of them sorted so that both
# rules also see valid input
raw_parts = st.tuples(st.lists(st.integers(-2, 6), max_size=6), st.booleans()).map(
    lambda a: tuple(sorted(a[0], reverse=True) if a[1] else a[0])
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

    @given(raw_parts)
    def test_both_classes_keep_the_reference_rules(self, raw):
        for cls, reference in ((Partition, reference_partition),
                               (StrictPartition, reference_strict)):
            try:
                want = reference(raw)
            except ShapeError as exc:
                with pytest.raises(ShapeError) as got:
                    cls(raw)
                assert type(got.value) is type(exc)
                assert str(got.value) == str(exc)
            else:
                assert cls(raw).parts == want

    def test_the_two_classes_stay_apart(self):
        p, q = Partition((2, 1)), StrictPartition((2, 1))
        assert p != q and q != p
        assert len({p, q}) == 2
        assert not isinstance(q, Partition) and not isinstance(p, StrictPartition)
        assert repr(p) == "Partition(parts=(2, 1))"
        assert repr(q) == "StrictPartition(parts=(2, 1))"

    def test_coercions_round_trip(self):
        p, q = Partition((3, 1)), StrictPartition((3, 1))
        assert coerce_partition(p) is p and coerce_strict(q) is q
        assert coerce_partition(q) == p and coerce_strict(p) == q
        assert coerce_partition([3, 1, 0]) == p and coerce_strict((3, 1)) == q
        with pytest.raises(StrictnessViolation):
            coerce_strict(Partition((2, 2)))


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
        assert Partition((3, 1)) + (2, 2, 1) == Partition((5, 3, 1))
        assert Partition((1,)) + Partition((1, 1)) == Partition((2, 1))

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
        assert Partition().conjugate() == Partition()

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
        with pytest.raises(ShapeError, match="staircase order must be nonnegative: -1"):
            staircase(-1)


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

    def test_walks_match_the_recursive_reference(self):
        for m in range(7):
            for n in range(7):
                for s in (None, *range(-1, m * n + 2)):
                    assert list(partitions_in_box(m, n, size=s)) == list(
                        reference_box(m, n, size=s)
                    ), (m, n, s)
            for s in (None, *range(-1, m * (m + 1) // 2 + 2)):
                assert list(strict_partitions_in_staircase(m, size=s)) == list(
                    reference_strict_in_staircase(m, size=s)
                ), (m, s)

    def test_walks_keep_no_frame_per_part(self):
        column = list(partitions_in_box(2000, 1))
        assert len(column) == 2001
        assert column[0] == Partition() and column[-1] == Partition((1,) * 2000)
        assert list(strict_partitions_in_staircase(2000, size=2001000)) == [staircase(2000)]
        # 2001 + ... + 2: the walk of 2,000 unit parts in the 2000 x 1 box
        assert list(strict_partitions_in_staircase(2001, size=2003000)) == [
            StrictPartition(tuple(range(2001, 1, -1)))
        ]

    @pytest.mark.parametrize("m,n", [(-1, 2), (2, -1), (-1, -1)])
    def test_negative_box_side_raises(self, m, n):
        for size in (None, 0, 3):
            with pytest.raises(ShapeError, match=f"box sides must be nonnegative: {m}x{n}"):
                next(partitions_in_box(m, n, size))

    def test_size_filter_prunes(self, monkeypatch):
        for cls, walk, want in [
            (Partition, lambda: partitions_in_box(8, 8, size=4), 5),
            (StrictPartition, lambda: strict_partitions_in_staircase(16, size=8), 6),
        ]:
            built, steps = [], []
            post_init = cls.__post_init__

            def counting(self):
                built.append(1)
                post_init(self)

            def tracing(frame, event, arg):
                # one call per resume, one line per statement, of the walk
                if frame.f_code is shapes._box_walk.__code__:
                    steps.append(event)
                    return tracing
                return None

            monkeypatch.setattr(cls, "__post_init__", counting)
            sys.settrace(tracing)
            try:
                assert len(list(walk())) == want
            finally:
                sys.settrace(None)
            # the unpruned walks visit all C(16, 8) = 12,870 partitions of the
            # box and all 2^16 = 65,536 subsets of 1..16
            assert len(built) == want
            assert len(steps) < 1000


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

    @pytest.mark.parametrize("interval", [(0, 2), (3, 2)])
    def test_bad_row_interval(self, interval):
        with pytest.raises(ShapeError, match=re.escape(f"bad row interval {interval}")):
            CellRegion(((1, 2), interval))

    @pytest.mark.parametrize("pair", [((1, 1), (2, 3)), ((3, 1), (1, 1)), ((1, 0), (1, 2))])
    def test_precedence_must_stay_in_the_region(self, pair):
        src, dst = pair
        with pytest.raises(ShapeError, match="leaves the region"):
            CellRegion(((1, 2), (1, 2)), frozenset([pair]))

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
        assert [t.label_at(*cell) for cell in region.cells()] == [1, 2, 3]
        assert t.label_at(2, 2) == 3

    def test_label_at_refuses_cells_outside_the_region(self):
        t = Tableau(build_region("part:3,2"), ((1, 2, 3), (4, 5)))
        s = Tableau(build_region("stair:4"), ((1, 2, 4, 7), (3, 5, 8), (6, 9), (10,)))
        assert s.label_at(2, 2) == 3
        for tableau, cell in ((t, (0, 1)), (t, (2, 0)), (t, (1, -1)), (t, (2, 3)),
                              (t, (3, 1)), (s, (2, 1)), (s, (4, 3))):
            with pytest.raises(ShapeError, match="is not a cell of the region"):
                tableau.label_at(*cell)

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

    def test_labels_are_kept_once_in_row_major_order(self):
        region = build_region("rect:3x4/2,1")
        rows = ((1, 2), (3, 5, 7), (4, 6, 8, 9))
        t = Tableau(region, [list(row) for row in rows])
        assert t.flat == (1, 2, 3, 5, 7, 4, 6, 8, 9) and type(t.flat) is tuple
        assert t.rows == rows
        assert [t.label_at(*cell) for cell in region.cells()] == list(t.flat)
        with pytest.raises(AttributeError):
            t.flat = ()
        with pytest.raises(AttributeError):
            t.rows = rows
        with pytest.raises(AttributeError):
            del t.region

    def test_copies_and_pickles_are_equal_tableaux(self):
        t = next(enumerate_syt(build_region("stair:4/1")))
        for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(other) is Tableau and other == t and hash(other) == hash(t)
            assert other.rows == t.rows
