"""Threshold and pivot splitting: worked fixtures, round trips, histograms."""

import pytest

from sytcount.count import count_syt, enumerate_syt
from sytcount.formulas import PartTooSmall, frobenius_young, schur_count
from sytcount.pivot import (
    IncompatibleShapes,
    NotOnBoundary,
    SplitResult,
    UnsupportedRegion,
    is_boundary_cell,
    piece_shape,
    pivot_shape_histogram,
    split_pivot,
    split_threshold,
    unsplit_threshold,
    verify_pivot_identity_rect,
    verify_pivot_identity_staircase,
)
from sytcount.shapes import (
    CellRegion,
    Partition,
    StrictPartition,
    Tableau,
    build_region,
    complement_in_rectangle,
    complement_in_staircase,
    ordinary_region,
    partitions_in_box,
    strict_partitions_in_staircase,
    truncated_staircase_region,
)

# A staircase tableau and its split at threshold 7, checked by hand.
STAIR5 = truncated_staircase_region(5)
STAIR5_T = Tableau(
    STAIR5,
    ((1, 2, 3, 6, 10), (4, 5, 8, 11), (7, 9, 13), (12, 14), (15,)),
)

# A truncated rectangle with a non-family truncation, split at the boundary
# cell (3, 5) holding label 17; both pieces come out as general regions.
RECT58 = build_region("rect:5x8/4,3,1")
RECT58_T = Tableau(
    RECT58,
    (
        (1, 2, 4, 9),
        (3, 5, 11, 12, 13),
        (6, 8, 14, 15, 17, 21, 24),
        (7, 16, 18, 20, 25, 26, 27, 30),
        (10, 19, 22, 23, 28, 29, 31, 32),
    ),
)


class TestThresholdSplit:
    def test_worked_staircase_example(self):
        split = split_threshold(STAIR5_T, 7)
        assert split.t == 7
        assert split.first.rows == ((1, 2, 3, 6), (4, 5), (7,))
        assert piece_shape(split.first) == StrictPartition((4, 2, 1))
        assert split.second.rows == ((1, 2, 3, 5, 6), (4, 7, 8))
        assert piece_shape(split.second) == StrictPartition((5, 3))

    def test_worked_example_round_trip(self):
        split = split_threshold(STAIR5_T, 7)
        assert unsplit_threshold(split, STAIR5) == STAIR5_T

    @pytest.mark.parametrize(
        "descriptor",
        ["stair:4", "rect:2x3", "rect:3x3", "rect:3x4", "rect:4x3", "stair:5"],
    )
    def test_round_trip_everywhere(self, descriptor):
        region = build_region(descriptor)
        for t in enumerate_syt(region):
            for thresh in range(region.size + 1):
                split = split_threshold(t, thresh)
                assert split.first.size == thresh
                assert split.second.size == region.size - thresh
                assert unsplit_threshold(split, region) == t

    def test_trivial_thresholds(self):
        split = split_threshold(STAIR5_T, 0)
        assert split.first.size == 0
        assert piece_shape(split.first) == StrictPartition(())
        full = split_threshold(STAIR5_T, 15)
        assert full.first.rows == STAIR5_T.rows
        assert piece_shape(full.first) == StrictPartition((5, 4, 3, 2, 1))
        assert full.second.size == 0

    def test_rejects_truncated_region(self):
        region = build_region("stair:4/1")
        t = next(enumerate_syt(region))
        with pytest.raises(UnsupportedRegion):
            split_threshold(t, 3)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            split_threshold(STAIR5_T, 16)
        with pytest.raises(ValueError):
            split_threshold(STAIR5_T, -1)

    def test_histogram_matches_pair_products_rect(self):
        # At a fixed threshold the split sorts the tableaux of the full
        # rectangle into piece-shape pairs (lam, box complement) with
        # multiplicity f(lam) * f(lam_c).
        region = ordinary_region(Partition((3, 3)))
        for thresh in range(7):
            hist = {}
            for t in enumerate_syt(region):
                s = split_threshold(t, thresh)
                key = (piece_shape(s.first), piece_shape(s.second))
                hist[key] = hist.get(key, 0) + 1
            want = {}
            for lam in partitions_in_box(2, 3, size=thresh):
                lam_c = complement_in_rectangle(lam, 2, 3)
                want[(lam, lam_c)] = frobenius_young(lam) * frobenius_young(lam_c)
            assert hist == want, thresh

    def test_histogram_matches_pair_products_staircase(self):
        region = truncated_staircase_region(4)
        for thresh in range(11):
            hist = {}
            for t in enumerate_syt(region):
                s = split_threshold(t, thresh)
                key = (piece_shape(s.first), piece_shape(s.second))
                hist[key] = hist.get(key, 0) + 1
            want = {}
            for lam in strict_partitions_in_staircase(4, size=thresh):
                lam_c = complement_in_staircase(lam, 4)
                want[(lam, lam_c)] = schur_count(lam) * schur_count(lam_c)
            assert hist == want, thresh


class TestUnsplitErrors:
    def test_threshold_size_mismatch(self):
        split = split_threshold(STAIR5_T, 7)
        bad = SplitResult(6, split.first, split.second)
        with pytest.raises(IncompatibleShapes):
            unsplit_threshold(bad, STAIR5)

    def test_pieces_must_tile(self):
        region = ordinary_region(Partition((3, 3)))
        t = next(enumerate_syt(region))
        split = split_threshold(t, 3)
        other = ordinary_region(Partition((2, 2, 2)))
        with pytest.raises(IncompatibleShapes):
            unsplit_threshold(split, other)

    # In the 2 x 3 rectangle the low piece below covers (1,1), (1,2) and
    # (2,1); the high piece reflects back through (r, c) -> (3 - c, 4 - r).
    LOW = Tableau(ordinary_region(Partition((2, 1))), ((1, 2), (3,)))

    def test_matching_pieces_reassemble(self):
        high = Tableau(ordinary_region(Partition((2, 1))), ((1, 3), (2,)))
        out = unsplit_threshold(SplitResult(3, self.LOW, high), build_region("rect:2x3"))
        assert out.rows == ((1, 2, 4), (3, 5, 6))

    @pytest.mark.parametrize(
        "high_rows",
        [
            ((1,), (2,), (3,)),  # lands on (2,3), (2,2), (2,1): (1,3) stays empty
            ((1,), (2,), (4,)),  # same cells, and (2,1) gets the low piece's label 3
        ],
    )
    def test_overlap_in_one_cell(self, high_rows):
        high = Tableau(ordinary_region(Partition((1, 1, 1))), high_rows)
        with pytest.raises(IncompatibleShapes, match="do not tile"):
            unsplit_threshold(SplitResult(3, self.LOW, high), build_region("rect:2x3"))

    def test_cell_outside_the_region(self):
        # lands on (2,3), (1,3) and the missing row 0: (2,2) stays empty
        high = Tableau(ordinary_region(Partition((3,))), ((1, 2, 3),))
        with pytest.raises(IncompatibleShapes, match="do not tile"):
            unsplit_threshold(SplitResult(3, self.LOW, high), build_region("rect:2x3"))

    def test_low_piece_past_a_row_end(self):
        low = Tableau(ordinary_region(Partition((4,))), ((1, 2, 3, 4),))
        high = Tableau(ordinary_region(Partition((2,))), ((1, 2),))
        with pytest.raises(IncompatibleShapes, match="do not tile"):
            unsplit_threshold(SplitResult(4, low, high), build_region("rect:2x3"))

    def test_pieces_that_tile_but_break_the_order(self):
        high = Tableau(ordinary_region(Partition((2, 1))), ((2, 3), (1,)))
        with pytest.raises(IncompatibleShapes, match="break the order"):
            unsplit_threshold(SplitResult(3, self.LOW, high), build_region("rect:2x3"))

    def test_target_must_be_full(self):
        split = split_threshold(STAIR5_T, 7)
        with pytest.raises(UnsupportedRegion):
            unsplit_threshold(split, build_region("stair:5/1"))


class TestBoundary:
    def test_examples(self):
        region = build_region("stair:4/1")
        assert is_boundary_cell(region, (1, 3))
        assert is_boundary_cell(region, (2, 4))
        assert is_boundary_cell(region, (3, 4))
        assert not is_boundary_cell(region, (2, 2))
        assert not is_boundary_cell(region, (9, 9))

    def test_split_pivot_rejects_interior(self):
        region = build_region("stair:4/1")
        t = next(enumerate_syt(region))
        with pytest.raises(NotOnBoundary):
            split_pivot(t, (2, 2))
        with pytest.raises(NotOnBoundary):
            split_pivot(t, (1, 9))


class TestPivotSplit:
    def test_worked_truncated_example(self):
        assert RECT58_T.label_at(3, 5) == 17
        assert is_boundary_cell(RECT58, (3, 5))
        split = split_pivot(RECT58_T, (3, 5))
        assert split.t == 17
        assert split.first.rows == (
            (1, 2, 4, 9),
            (3, 5, 11, 12, 13),
            (6, 8, 14, 15),
            (7, 16),
            (10,),
        )
        assert split.first.region.kind == "general"
        assert split.second.region.rows == (
            (1, 2),
            (1, 3),
            (1, 3),
            (1, 2),
            (1, 2),
            (1, 2),
            (1, 1),
        )
        assert split.second.rows == (
            (1, 3),
            (2, 6, 9),
            (4, 7, 12),
            (5, 8),
            (10, 13),
            (11, 15),
            (14,),
        )

    def test_general_pieces_keep_moved_precedences(self):
        region = build_region("stair:5/2")  # rows (1,3), (2,5), (3,5), (4,5), (5,5)
        t = Tableau(region, ((1, 2, 3), (4, 5, 6, 7), (8, 9, 10), (11, 12), (13,)))
        # Pivot (2,5) holds 7; rows of lengths 3, 3 are not a shifted shape,
        # so the low piece is general and keeps the diagonal pair inside it.
        split = split_pivot(t, (2, 5))
        assert split.first.region == CellRegion(
            ((1, 3), (2, 4)), frozenset({((1, 1), (2, 2))}), "general"
        )
        assert split.first.rows == ((1, 2, 3), (4, 5, 6))
        assert piece_shape(split.second) == StrictPartition((3, 2, 1))
        assert split.second.rows == ((1, 2, 4), (3, 5), (6,))
        # Pivot (1,1) holds 1; the high piece is everything else, reflected,
        # and the three diagonal pairs it keeps are reflected with it.
        split = split_pivot(t, (1, 1))
        assert split.first.size == 0
        assert split.second.region == CellRegion(
            ((1, 4), (2, 4), (3, 5), (4, 5)),
            frozenset({((1, 1), (2, 2)), ((2, 2), (3, 3)), ((3, 3), (4, 4))}),
            "general",
        )
        assert split.second.rows == ((1, 2, 4, 7), (3, 5, 8), (6, 9, 11), (10, 12))

    def test_piece_shape_rejects_general(self):
        split = split_pivot(RECT58_T, (3, 5))
        with pytest.raises(Exception):
            piece_shape(split.first)


EXPECTED_HISTOGRAMS = [
    (
        "stair:4/1",
        (2, 3),
        {(StrictPartition((3, 1)), StrictPartition((3, 1))): 4},
    ),
    (
        "stair:5/1",
        (2, 4),
        {
            (StrictPartition((4, 2)), StrictPartition((4, 2, 1))): 35,
            (StrictPartition((4, 2, 1)), StrictPartition((4, 2))): 35,
        },
    ),
    (
        "rect:3x3/1",
        (2, 2),
        {
            (Partition((2, 1)), Partition((2, 1, 1))): 6,
            (Partition((2, 1, 1)), Partition((2, 1))): 6,
        },
    ),
    (
        "rect:3x3/2,1",
        (2, 2),
        {
            (Partition((1, 1)), Partition((1, 1, 1))): 1,
            (Partition((1, 1, 1)), Partition((1, 1))): 1,
        },
    ),
]


class TestPivotHistograms:
    @pytest.mark.parametrize("descriptor,pivot,want", EXPECTED_HISTOGRAMS)
    def test_family_histograms(self, descriptor, pivot, want):
        region = build_region(descriptor)
        assert pivot_shape_histogram(region, pivot) == want


class TestPivotIdentities:
    STAIR_CASES = [
        ((1,), 0, 1),  # plus1, k = 1
        ((2,), 1, 2),  # plus1, k = 1
        ((2, 1), 0, 1),  # plus1, k = 2
        ((3, 2), 1, 8),  # plus1, k = 2
        ((3, 1), 0, 4),  # sq, k = 2
        ((4, 2), 1, 70),  # sq, k = 2
        ((5, 3), 2, 6384),  # sq, k = 2
        ((4, 3, 1), 0, 144),  # sq, k = 3
    ]

    @pytest.mark.parametrize("mu,m,want", STAIR_CASES)
    def test_staircase_families(self, mu, m, want):
        report = verify_pivot_identity_staircase(StrictPartition(mu), m)
        assert report.passed
        assert report.tableau_count == want
        assert report.identity_sum == want
        assert sum(v for _, v in report.terms) == want

    RECT_CASES = [
        ((), 1, 1, 1, 2),
        ((), 1, 2, 3, 462),
        ((), 2, 0, 3, 5),
        ((), 2, 1, 1, 2),
        ((), 2, 1, 0, 1),
        ((), 3, 1, 1, 2),
        ((1,), 2, 1, 1, 12),
        ((1,), 2, 2, 2, 4550),
        ((1, 1), 3, 1, 2, 3360),
    ]

    @pytest.mark.parametrize("mu,k,m,n,want", RECT_CASES)
    def test_rect_families(self, mu, k, m, n, want):
        report = verify_pivot_identity_rect(Partition(mu), k, m, n)
        assert report.passed
        assert report.tableau_count == want
        assert report.identity_sum == want

    def test_pivot_positions(self):
        r = verify_pivot_identity_staircase(StrictPartition((3, 2)), 1)
        assert r.pivot == (2, 4)  # plus1 family: (k, m + k + 1)
        r = verify_pivot_identity_staircase(StrictPartition((5, 3)), 2)
        assert r.pivot == (2, 5)  # sq family: (k, m + 2k - 1)
        r = verify_pivot_identity_rect(Partition(), 2, 1, 1)
        assert r.pivot == (2, 2)
        r = verify_pivot_identity_rect(Partition((1,)), 2, 1, 1)
        assert r.pivot == (2, 2)
        r = verify_pivot_identity_rect(Partition(), 2, 1, 0)
        assert r.pivot == (1, 1)  # leading empty row dropped

    def test_pivot_cell_is_boundary_cell(self):
        for mu, m, _ in self.STAIR_CASES:
            report = verify_pivot_identity_staircase(StrictPartition(mu), m)
            assert is_boundary_cell(report.region, report.pivot)
        for mu, k, m, n, _ in self.RECT_CASES:
            report = verify_pivot_identity_rect(Partition(mu), k, m, n)
            assert is_boundary_cell(report.region, report.pivot)

    def test_unknown_prefix_rejected(self):
        with pytest.raises(UnsupportedRegion):
            verify_pivot_identity_staircase(StrictPartition((2,)), 0)
        with pytest.raises(UnsupportedRegion):
            verify_pivot_identity_rect(Partition((2,)), 2, 1, 1)

    def test_empty_prefix_rejected(self):
        # the untruncated staircase has no pivot cell to split at
        with pytest.raises(UnsupportedRegion):
            verify_pivot_identity_staircase(StrictPartition(), 3)

    def test_small_parts_rejected(self):
        with pytest.raises(PartTooSmall):
            verify_pivot_identity_staircase(StrictPartition((2,)), 2)
