"""Threshold and pivot splitting: worked fixtures, round trips, histograms."""

from itertools import chain, islice
from operator import lt

import pytest
from hypothesis import given, settings, strategies as st

from sytcount import pivot
from sytcount.count import LabelSetMismatch, count_syt, enumerate_syt
from sytcount.formulas import PartTooSmall, coeff_c, frobenius_young, schur_count
from sytcount.pivot import (
    IncompatibleShapes,
    NotOnBoundary,
    SplitResult,
    UnsupportedRegion,
    _flavor_of,
    _layout,
    _piece_plan,
    _plain_region,
    _threshold_layout,
    _tiling,
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
    Cell,
    CellRegion,
    Partition,
    Precedence,
    ShapeError,
    StrictPartition,
    Tableau,
    build_region,
    complement_in_rectangle,
    complement_in_staircase,
    ordinary_region,
    partitions_in_box,
    rotate180,
    shifted_region,
    strict_partitions_in_staircase,
    truncated_staircase_region,
)
from sytcount.truncated import (
    theorem_rect_sum_direct,
    theorem_rect_sum_ratio,
    theorem_staircase_sum_direct,
    theorem_staircase_sum_ratio,
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
        with pytest.raises(ShapeError, match="^piece is not a plain diagram$"):
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

    @pytest.mark.parametrize("descriptor", ["stair:5/2", "rect:3x4/2,1"])
    def test_matches_the_reference_in_type_and_key_order(self, descriptor):
        region = build_region(descriptor)
        # most boundary pivots give a general piece, which both refuse
        plain = 0
        for pivot in filter(lambda c: is_boundary_cell(region, c), region.cells()):
            got = outcome(pivot_shape_histogram, region, pivot)
            want = outcome(reference_pivot_shape_histogram, region, pivot)
            assert got == want, pivot
            if isinstance(want, dict):
                plain += 1
                assert type(got) is dict and list(got) == list(want), pivot
        assert plain > 0


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

    # Every check of a staircase prefix, and every check of a rectangle
    # prefix, must refuse a bad prefix with the same exception and message.
    STAIR_TWINS = [
        lambda mu, m: coeff_c(mu, m, 0),
        theorem_staircase_sum_ratio,
        theorem_staircase_sum_direct,
        verify_pivot_identity_staircase,
    ]
    RECT_TWINS = [theorem_rect_sum_ratio, theorem_rect_sum_direct, verify_pivot_identity_rect]

    @staticmethod
    def refusals(calls) -> set:
        seen = set()
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            seen.add((info.type, str(info.value)))
        return seen

    @pytest.mark.parametrize(
        "mu,m", [((2,), 2), ((3, 1), 1), ((4, 2), 3), ((3, 3), 0), ((1, 2), 0)]
    )
    def test_staircase_twins_refuse_a_bad_prefix_alike(self, mu, m):
        seen = self.refusals(lambda f=f: f(mu, m) for f in self.STAIR_TWINS)
        assert len(seen) == 1, seen

    @pytest.mark.parametrize(
        "mu,k", [((1,), 0), ((), 0), ((), -1), ((1, 1), 1), ((2, 1), -1), ((1, 2), 2)]
    )
    def test_rect_twins_refuse_a_bad_prefix_alike(self, mu, k):
        seen = self.refusals(lambda f=f: f(mu, k, 1, 1) for f in self.RECT_TWINS)
        assert len(seen) == 1, seen


# --- Reference: the split and reassembly that worked cell by cell ---------
#
# A verbatim copy of the row-by-row split and its inverse as they were before
# the regions' order tables, with the validity check they used (adjacent rows
# compared over their shared columns, then each extra precedence by cell).
# The differential test below compares the library against it.

_PieceRows = dict[int, list[tuple[int, int]]]


def _is_full_rectangle(region: CellRegion) -> bool:
    rows = region.rows
    return all(s == 1 for s, _ in rows) and len({e for _, e in rows}) <= 1


def _is_full_staircase(region: CellRegion) -> bool:
    m = region.num_rows
    return all(
        (s, e) == (i, m) for i, (s, e) in enumerate(region.rows, start=1)
    )


def reference_is_valid_tableau(t: Tableau) -> bool:
    rows = t.rows
    if sorted(chain.from_iterable(rows)) != list(range(1, t.size + 1)):
        raise LabelSetMismatch(f"labels are not 1..{t.size}")
    if not all(all(map(lt, row, row[1:])) for row in rows):
        return False
    intervals = t.region.rows
    for (s0, e0), upper, (s1, e1), lower in zip(
        intervals, rows, intervals[1:], rows[1:]
    ):
        lo, hi = max(s0, s1), min(e0, e1)
        if lo <= hi and not all(
            map(lt, upper[lo - s0 : hi - s0 + 1], lower[lo - s1 :])
        ):
            return False
    for src, dst in t.region.extra_precedences:
        if t.label_at(*src) >= t.label_at(*dst):
            return False
    return True


def _assemble(
    by_row: _PieceRows, pairs: list[Precedence], flavor: str
) -> Tableau:
    if not by_row:
        return Tableau(_plain_region(flavor, ()), ())
    row_ids = sorted(by_row)
    if row_ids[-1] - row_ids[0] + 1 != len(row_ids):
        raise ShapeError("piece has a gap between rows")
    dr = 1 - row_ids[0]
    intervals = []
    for r in row_ids:
        entries = by_row[r]
        first, last = entries[0][0], entries[-1][0]
        if last - first + 1 != len(entries):
            raise ShapeError(f"piece row {r} is not contiguous")
        intervals.append((first, last))
    dc = 1 - min(s for s, _ in intervals)
    intervals = tuple((s + dc, e + dc) for s, e in intervals)
    region = _plain_region(flavor, intervals)
    if region is None:
        moved_pairs = frozenset(
            ((a[0] + dr, a[1] + dc), (b[0] + dr, b[1] + dc)) for a, b in pairs
        )
        region = CellRegion(intervals, moved_pairs, "general")
    rows = tuple(tuple(lbl for _, lbl in by_row[r]) for r in row_ids)
    piece = Tableau(region, rows)
    if not reference_is_valid_tableau(piece):
        raise ShapeError("split produced an invalid filling")
    return piece


def _low_piece(t: Tableau, bound: int, flavor: str) -> Tableau:
    by_row: _PieceRows = {}
    for r, ((s, _), row) in enumerate(zip(t.region.rows, t.rows), start=1):
        kept = [(s + j, lbl) for j, lbl in enumerate(row) if lbl <= bound]
        if kept:
            by_row[r] = kept
    pairs = [
        (a, b)
        for a, b in t.region.extra_precedences
        if t.label_at(*a) <= bound and t.label_at(*b) <= bound
    ]
    return _assemble(by_row, pairs, flavor)


def _reflected(
    t: Tableau, height: int, width: int, total: int, bound: int | None = None
) -> _PieceRows:
    by_row: _PieceRows = {}
    for r in range(t.region.num_rows, 0, -1):
        s, _ = t.region.rows[r - 1]
        col = height + 1 - r
        for j, lbl in enumerate(t.rows[r - 1]):
            if bound is None or lbl > bound:
                by_row.setdefault(width + 1 - s - j, []).append((col, total + 1 - lbl))
    return by_row


def _high_piece(t: Tableau, bound: int, flavor: str) -> Tableau:
    nrows, ncols = t.region.num_rows, t.region.max_col

    def reflect(cell: Cell) -> Cell:
        r, c = cell
        return (ncols + 1 - c, nrows + 1 - r)

    kept = [
        (a, b)
        for a, b in t.region.extra_precedences
        if t.label_at(*a) > bound and t.label_at(*b) > bound
    ]
    pairs = [(reflect(b), reflect(a)) for a, b in kept]
    return _assemble(_reflected(t, nrows, ncols, t.size, bound), pairs, flavor)


def reference_split_threshold(t: Tableau, thresh: int) -> SplitResult:
    region = t.region
    if not (_is_full_rectangle(region) or _is_full_staircase(region)):
        raise UnsupportedRegion(
            "threshold splitting needs a full rectangle or full staircase"
        )
    if not 0 <= thresh <= region.size:
        raise ValueError(f"threshold must lie in 0..{region.size}, got {thresh}")
    flavor = _flavor_of(region)
    if flavor == "auto":
        flavor = "shifted" if _is_full_staircase(region) else "ordinary"
    return SplitResult(
        thresh,
        _low_piece(t, thresh, flavor),
        _high_piece(t, thresh, flavor),
    )


def reference_split_pivot(t: Tableau, pivot: Cell) -> SplitResult:
    label = t.label_at(*pivot)
    flavor = _flavor_of(t.region)
    return SplitResult(
        label,
        _low_piece(t, label - 1, flavor),
        _high_piece(t, label, flavor),
    )


def reference_unsplit_threshold(split: SplitResult, region: CellRegion) -> Tableau:
    if not (_is_full_rectangle(region) or _is_full_staircase(region)):
        raise UnsupportedRegion(
            "threshold splitting needs a full rectangle or full staircase"
        )
    total = region.size
    if split.first.size != split.t or split.second.size != total - split.t:
        raise IncompatibleShapes("piece sizes do not match the threshold")
    nrows, ncols = region.num_rows, region.max_col
    slots: list[list[int | None]] = [[None] * (e - s + 1) for s, e in region.rows]
    placed = 0
    low = {
        r: list(zip(range(s, e + 1), row))
        for r, ((s, e), row) in enumerate(
            zip(split.first.region.rows, split.first.rows), start=1
        )
    }
    for by_row in (low, _reflected(split.second, ncols, nrows, total)):
        for r, entries in by_row.items():
            if not 1 <= r <= nrows:
                raise IncompatibleShapes("pieces do not tile the region")
            s, e = region.rows[r - 1]
            row = slots[r - 1]
            for c, lbl in entries:
                if not s <= c <= e:
                    raise IncompatibleShapes("pieces do not tile the region")
                if row[c - s] is None:
                    placed += 1
                row[c - s] = lbl
    # The piece sizes add up to the region's, so an overlap leaves a slot
    # empty and shows as a short count.
    if placed != total:
        raise IncompatibleShapes("pieces do not tile the region")
    out = Tableau(region, tuple(tuple(row) for row in slots))
    if not reference_is_valid_tableau(out):
        raise IncompatibleShapes("pieces tile the region but break the order")
    return out


def reference_pivot_shape_histogram(region: CellRegion, pivot: Cell) -> dict:
    """The histogram loop as it was written before it used a Counter."""
    hist: dict = {}
    for t in enumerate_syt(region):
        parts = split_pivot(t, pivot)
        key = (piece_shape(parts.first), piece_shape(parts.second))
        hist[key] = hist.get(key, 0) + 1
    return hist


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and message it raised."""
    try:
        return fn(*args)
    except (ValueError, ShapeError) as exc:
        return type(exc), str(exc)


FULL_REGIONS = [
    build_region(d)
    for d in (
        "rect:1x1", "rect:1x4", "rect:4x1", "rect:2x3", "rect:3x3", "rect:3x4",
        "rect:4x3", "stair:1", "stair:2", "stair:3", "stair:4", "stair:5",
    )
] + [
    # full outlines whose kind does not name them
    shifted_region(StrictPartition((3,))),
    CellRegion(((1, 3), (1, 3))),
    CellRegion(((1, 3), (2, 3), (3, 3))),
    # both a full rectangle and a full staircase: its pieces are shifted
    CellRegion(((1, 1),)),
]
# Truncated regions give pivot pieces with general outlines, some of which
# keep a moved or reflected extra precedence.  The general regions have an
# empty first column, a row that starts left of the row above, or a
# half-turned truncated outline (one keeps its diagonal precedences).
PIVOT_REGIONS = FULL_REGIONS + [
    build_region(d)
    for d in ("stair:4/1", "stair:5/2", "stair:5/2,1", "stair:5/3", "rect:3x4/2,1", "rect:4x4/3,1")
] + [
    CellRegion(((2, 3), (2, 4))),
    CellRegion(((3, 4), (2, 4), (2, 3))),
    rotate180(build_region("stair:5/2")),
    rotate180(build_region("rect:3x4/2,1")),
]


@st.composite
def fillings_of(draw, regions):
    """A standard filling, a standard filling with labels k and k + 1
    swapped, or a permutation of 1..N, of one of ``regions``."""
    region = draw(st.sampled_from(regions))
    n = region.size
    how = draw(st.sampled_from(["standard", "swap", "permutation"]))
    if how == "permutation":
        labels = draw(st.permutations(range(1, n + 1)))
    else:
        index = draw(st.integers(0, min(count_syt(region), 60) - 1))
        t = next(islice(enumerate_syt(region), index, None))
        labels = [lbl for row in t.rows for lbl in row]
        if how == "swap" and n > 1:
            k = draw(st.integers(1, n - 1))
            labels = [{k: k + 1, k + 1: k}.get(lbl, lbl) for lbl in labels]
    rows, i = [], 0
    for s, e in region.rows:
        rows.append(tuple(labels[i : i + e - s + 1]))
        i += e - s + 1
    return Tableau(region, tuple(rows))


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(fillings_of(FULL_REGIONS), st.data())
    def test_threshold_split_and_reassembly(self, t, data):
        region = t.region
        splits = {}
        for thresh in range(-1, region.size + 2):
            got = outcome(split_threshold, t, thresh)
            assert got == outcome(reference_split_threshold, t, thresh), thresh
            if isinstance(got, SplitResult):
                splits[thresh] = got
                assert outcome(unsplit_threshold, got, region) == outcome(
                    reference_unsplit_threshold, got, region
                )
        # Pieces of another filling at the same threshold may tile, overlap
        # or fall outside the region; a high piece with labels k and k + 1
        # swapped tiles but may break the order, and at k = its size its
        # labels are no longer 1..size.
        other = data.draw(fillings_of([region]))
        for thresh, split in splits.items():
            mixed = [SplitResult(thresh + 1, split.first, split.second)]
            theirs = outcome(split_threshold, other, thresh)
            if isinstance(theirs, SplitResult):
                mixed.append(SplitResult(thresh, split.first, theirs.second))
                mixed.append(SplitResult(thresh, theirs.first, split.second))
            high = split.second
            if high.size:
                k = data.draw(st.integers(1, high.size))
                swap = {k: k + 1, k + 1: k}
                rows = tuple(tuple(swap.get(lbl, lbl) for lbl in row) for row in high.rows)
                mixed.append(SplitResult(thresh, split.first, Tableau(high.region, rows)))
            for pieces in mixed:
                assert outcome(unsplit_threshold, pieces, region) == outcome(
                    reference_unsplit_threshold, pieces, region
                )

    @settings(max_examples=150, deadline=None)
    @given(fillings_of(PIVOT_REGIONS))
    def test_pivot_split(self, t):
        # threshold splits refuse the truncated regions among these
        assert outcome(split_threshold, t, 1) == outcome(reference_split_threshold, t, 1)
        for cell in t.region.cells():
            if is_boundary_cell(t.region, cell):
                assert outcome(split_pivot, t, cell) == outcome(
                    reference_split_pivot, t, cell
                ), cell

    @pytest.mark.parametrize("descriptor", ["rect:3x4", "stair:5"])
    def test_every_standard_filling(self, descriptor):
        region = build_region(descriptor)
        for t in enumerate_syt(region):
            for thresh in (region.size // 3, region.size // 2):
                split = split_threshold(t, thresh)
                assert split == reference_split_threshold(t, thresh)
                assert unsplit_threshold(split, region) == t
                assert reference_unsplit_threshold(split, region) == t


class TestPlanCaches:
    """A split or reassembly that reuses a cached plan agrees with the first
    one and with the reference, errors included."""

    # labels 1..12 of rect:3x4 in a fixed shuffled order, and the standard
    # filling below with labels 6 and 7 swapped
    PERMUTED = Tableau(
        build_region("rect:3x4"), ((5, 11, 2, 8), (12, 1, 7, 4), (9, 3, 10, 6))
    )
    SWAPPED = Tableau(
        build_region("rect:3x4"), ((1, 2, 3, 4), (5, 7, 6, 8), (9, 10, 11, 12))
    )

    @pytest.mark.parametrize("t", [STAIR5_T, PERMUTED, SWAPPED])
    def test_threshold_split_twice(self, t):
        for thresh in range(t.size + 1):
            first = outcome(split_threshold, t, thresh)
            again = outcome(split_threshold, t, thresh)
            assert again == first == outcome(reference_split_threshold, t, thresh), thresh

    def test_pivot_split_twice(self):
        # general pieces with moved diagonal pairs, from the plan the second time
        region = build_region("stair:5/2")
        t = Tableau(region, ((1, 2, 3), (4, 5, 6, 7), (8, 9, 10), (11, 12), (13,)))
        for cell in ((2, 5), (1, 1)):
            first = split_pivot(t, cell)
            assert split_pivot(t, cell) == first == reference_split_pivot(t, cell)

    def test_an_outline_that_is_no_region_is_planned_once(self):
        # at thresholds 3 and 11 a piece of PERMUTED has a gap in a column
        for thresh in (3, 11):
            outcome(split_threshold, self.PERMUTED, thresh)
        misses = _piece_plan.cache_info().misses
        for thresh in (3, 11):
            got = outcome(split_threshold, self.PERMUTED, thresh)
            assert got == (ShapeError, "column 1 is not contiguous"), thresh
            assert got == outcome(reference_split_threshold, self.PERMUTED, thresh), thresh
        assert _piece_plan.cache_info().misses == misses

    def test_raise_is_fresh_each_time(self):
        seen = []
        for _ in range(2):
            with pytest.raises(ShapeError) as info:
                split_threshold(self.PERMUTED, 6)
            seen.append(info.value)
        assert seen[0] is not seen[1]
        assert str(seen[0]) == str(seen[1])

    @pytest.mark.parametrize(
        "high_rows,message",
        [(((1,), (2,), (3,)), "do not tile"), (((2, 3), (1,)), "break the order")],
    )
    def test_unsplit_the_same_bad_pair_twice(self, high_rows, message):
        low = TestUnsplitErrors.LOW
        high_region = (
            ordinary_region(Partition((1, 1, 1)))
            if len(high_rows) == 3
            else ordinary_region(Partition((2, 1)))
        )
        split = SplitResult(3, low, Tableau(high_region, high_rows))
        region = build_region("rect:2x3")
        seen = []
        for _ in range(2):
            with pytest.raises(IncompatibleShapes, match=message) as info:
                unsplit_threshold(split, region)
            seen.append(info.value)
        assert _tiling.cache_info().hits >= 1
        assert seen[0] is not seen[1]
        assert outcome(unsplit_threshold, split, region) == outcome(
            reference_unsplit_threshold, split, region
        )

    def test_equal_regions_built_apart_share_one_entry(self):
        a, b = build_region("rect:3x4"), build_region("rect:3x4")
        assert a is not b
        assert hash(a) == hash(b)
        assert _layout(a) is _layout(b)

    def test_threshold_splits_of_equal_regions_share_one_layout(self, monkeypatch):
        # the layout kept on each region is the one object the plan caches key on
        seen = []
        real = _piece_plan
        monkeypatch.setattr(pivot, "_piece_plan", lambda *key: seen.append(key[0]) or real(*key))
        a, b = build_region("rect:3x4"), build_region("rect:3x4")
        for region in (a, b):
            split_threshold(next(enumerate_syt(region)), 5)
        # later splits read the layout off the region, not through the cache
        monkeypatch.setattr(pivot, "_layout", None)
        for region in (a, b):
            unsplit_threshold(split_threshold(next(enumerate_syt(region)), 5), region)
        assert len(seen) == 8 and all(layout is seen[0] for layout in seen)
        assert _threshold_layout(a) is _threshold_layout(b) is seen[0]
        monkeypatch.undo()
        assert seen[0] is _layout(a) is _layout(b)

    def test_pivot_and_threshold_splits_of_one_region_share_its_layout(self, monkeypatch):
        seen = []
        real = _piece_plan
        monkeypatch.setattr(pivot, "_piece_plan", lambda *key: seen.append(key[0]) or real(*key))
        region = build_region("rect:3x4")
        t = next(enumerate_syt(region))
        split_pivot(t, (1, 4))
        split_threshold(t, 4)
        split_pivot(t, (3, 4))
        assert len(seen) == 6 and all(layout is seen[0] for layout in seen)
        assert seen[0] is _threshold_layout(region)

    @pytest.mark.parametrize("descriptor", ["stair:4/1", "rect:3x4/2", "part:3,1", "shifted:4,2"])
    def test_a_refused_region_is_refused_again(self, descriptor):
        region = build_region(descriptor)
        t = next(enumerate_syt(region))
        for _ in range(2):
            with pytest.raises(UnsupportedRegion, match="needs a full rectangle"):
                split_threshold(t, 1)
            with pytest.raises(UnsupportedRegion, match="needs a full rectangle"):
                unsplit_threshold(SplitResult(0, t, t), region)
        # the refusal leaves pivot splits of the region as they were
        cell = (1, region.rows[0][1])
        assert outcome(split_pivot, t, cell) == outcome(reference_split_pivot, t, cell)

    def test_caches_hold_the_working_set_within_their_bounds(self):
        # Round trips over every tableau of rect:3x4 and stair:5, at the
        # thresholds k and N - k with k running over 0..N, visit every
        # plan these shapes need; a second pass finds all of them cached.
        def round_trips():
            for descriptor in ("rect:3x4", "stair:5"):
                region = build_region(descriptor)
                n = region.size
                for i, t in enumerate(enumerate_syt(region)):
                    for thresh in (i % (n + 1), n - i % (n + 1)):
                        split = split_threshold(t, thresh)
                        assert piece_shape(split.first).size == thresh
                        assert unsplit_threshold(split, region) == t

        caches = (_layout, _piece_plan, _tiling)
        round_trips()
        misses = [cache.cache_info().misses for cache in caches]
        round_trips()
        for cache, before in zip(caches, misses):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
            assert info.misses == before, cache.__name__


class TestFlatLabels:
    """Pieces and reassemblies carry flat labels; both checks still run on
    each, whatever the cached plans hand them."""

    @pytest.mark.parametrize("t", [STAIR5_T, RECT58_T])
    def test_results_equal_and_hash_as_tableaux_built_from_their_rows(self, t):
        results = [split_pivot(t, (3, 5))] if t is RECT58_T else [
            split_threshold(t, thresh) for thresh in range(t.size + 1)
        ]
        for split in results:
            for piece in (split.first, split.second):
                built = Tableau(piece.region, piece.rows)
                assert piece == built and hash(piece) == hash(built)
                assert type(piece.flat) is tuple
                assert piece.flat == tuple(chain.from_iterable(piece.rows))
            if t is STAIR5_T:
                out = unsplit_threshold(split, STAIR5)
                assert out == t and hash(out) == hash(t)
                assert out.rows == t.rows and type(out.flat) is tuple

    @staticmethod
    def _reversed(gather):
        return lambda labels: gather(labels)[::-1]

    @pytest.mark.parametrize("thresh", [2, 7, 13])
    def test_a_plan_that_misplaces_labels_is_caught(self, monkeypatch, thresh):
        # Each piece of these splits holds at least two cells, so its labels
        # read backwards are still 1..size but no longer standard.
        real = _piece_plan

        def misplacing(*key):
            region, gather = real(*key)
            return region, self._reversed(gather)

        monkeypatch.setattr("sytcount.pivot._piece_plan", misplacing)
        with pytest.raises(ShapeError, match="^split produced an invalid filling$"):
            split_threshold(STAIR5_T, thresh)
        with pytest.raises(ShapeError, match="^split produced an invalid filling$"):
            split_pivot(RECT58_T, (3, 5))

    def test_a_tiling_that_misplaces_labels_is_caught(self, monkeypatch):
        split = split_threshold(STAIR5_T, 7)
        real = _tiling
        monkeypatch.setattr(
            "sytcount.pivot._tiling", lambda *key: self._reversed(real(*key))
        )
        with pytest.raises(IncompatibleShapes, match="pieces tile the region but break the order"):
            unsplit_threshold(split, STAIR5)
