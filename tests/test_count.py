"""The order-ideal sweep, its DFS cross-check, and enumeration."""

from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from sytcount.count import (
    LabelSetMismatch,
    _cell_masks,
    _line,
    _line_region,
    _sweep,
    count_syt,
    count_syt_dfs,
    enumerate_syt,
    is_valid_tableau,
)
from sytcount.formulas import frobenius_young, schur_count
from sytcount.shapes import (
    CellRegion,
    Partition,
    StrictPartition,
    Tableau,
    _oriented_pairs,
    _transposed_rows,
    _turned_rows,
    build_region,
    ordinary_region,
    partitions_in_box,
    rotate180,
    shifted_region,
    strict_partitions_in_staircase,
    truncated_rectangle_region,
    truncated_staircase_region,
)


def involutions(n):
    # i(n) = i(n-1) + (n-1) i(n-2); counts self-inverse permutations
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


KNOWN_COUNTS = [
    ("part:1", 1),
    ("part:2,1", 2),
    ("part:3,2", 5),
    ("part:3,3", 5),
    ("part:3,2,1", 16),
    ("part:4,4,4", 462),
    ("shifted:2,1", 1),
    ("shifted:3,1", 2),
    ("shifted:4,2", 5),
    ("shifted:4,2,1", 7),
    ("stair:4", 12),
    ("stair:4/1", 4),
    ("stair:5/1", 70),
    ("stair:3/2", 1),
    ("rect:3x3/1", 12),
    ("rect:3x3/2,1", 2),
]

# Counts too large for the DFS cross-check; the sweep handles them instantly.
LARGE_COUNTS = [
    ("rect:5x5/2", 17532900),
    ("rect:6x6/2", 24256712752272),
    ("rect:7x7/2", 4357690921810288494432),
]


class TestCounts:
    @pytest.mark.parametrize("descriptor,expected", KNOWN_COUNTS)
    def test_known_values(self, descriptor, expected):
        region = build_region(descriptor)
        assert count_syt(region) == expected
        assert count_syt_dfs(region) == expected

    @pytest.mark.parametrize("descriptor,expected", LARGE_COUNTS)
    def test_large_values(self, descriptor, expected):
        assert count_syt(build_region(descriptor)) == expected

    def test_empty_region(self):
        empty = CellRegion(())
        assert count_syt(empty) == 1
        assert count_syt_dfs(empty) == 1
        assert [t.rows for t in enumerate_syt(empty)] == [()]

    @settings(deadline=None)
    @given(
        st.lists(st.integers(1, 4), max_size=4).map(
            lambda xs: Partition(tuple(sorted(xs, reverse=True)))
        )
    )
    def test_dfs_agrees_ordinary(self, lam):
        region = ordinary_region(lam)
        assert count_syt(region) == count_syt_dfs(region)

    @settings(deadline=None)
    @given(st.data())
    def test_dfs_agrees_shifted(self, data):
        lam = data.draw(st.sampled_from(list(strict_partitions_in_staircase(5))))
        region = shifted_region(lam)
        assert count_syt(region) == count_syt_dfs(region)

    @pytest.mark.parametrize(
        "descriptor",
        ["part:4,3,1", "shifted:5,3,2", "stair:5/2", "rect:3x4/2,1", "rect:2x5/3"],
    )
    def test_rotation_invariance(self, descriptor):
        region = build_region(descriptor)
        assert count_syt(rotate180(region)) == count_syt(region)
        assert count_syt_dfs(rotate180(region)) == count_syt(region)

    @pytest.mark.parametrize("n", range(7))
    def test_sum_over_shapes_counts_involutions(self, n):
        total = sum(
            count_syt(ordinary_region(lam))
            for lam in partitions_in_box(n, n, size=n)
        )
        assert total == involutions(n)

    @pytest.mark.parametrize("n", range(7))
    def test_squared_sum_is_factorial(self, n):
        import math

        total = sum(
            count_syt(ordinary_region(lam)) ** 2
            for lam in partitions_in_box(n, n, size=n)
        )
        assert total == math.factorial(n)


MAX_CELLS = 12


@st.composite
def regions(draw):
    """A region of at most ``MAX_CELLS`` cells in columns 1..6, with extra
    precedences that each point forward in row-major order, so the cell
    poset stays acyclic."""
    rows = []
    above: set[int] = set()  # columns of every row before the previous one
    prev: set[int] = set()  # columns of the previous row
    budget = MAX_CELLS
    for _ in range(draw(st.integers(1, 5))):
        # A column seen above may continue only from the row just above.
        free = [c for c in range(1, 7) if c in prev or c not in above]
        if budget == 0 or not free:
            break
        s = e = draw(st.sampled_from(free))
        length = draw(st.integers(1, min(4, budget)))
        while e - s + 1 < length and e + 1 in free:
            e += 1
        rows.append((s, e))
        budget -= e - s + 1
        above |= prev
        prev = set(range(s, e + 1))
    cells = sorted(CellRegion(tuple(rows)).cells())
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(cells), st.sampled_from(cells)), max_size=3
        )
    )
    extra = frozenset((min(a, b), max(a, b)) for a, b in pairs if a != b)
    return CellRegion(tuple(rows), extra)


@st.composite
def truncated_staircases(draw):
    m = draw(st.integers(1, 5))
    kappa = draw(
        st.sampled_from(
            [
                lam
                for lam in partitions_in_box(m - 1, m - 1)
                if all(cut <= m - i for i, cut in enumerate(lam.parts, start=1))
                and m * (m + 1) // 2 - lam.size <= MAX_CELLS
            ]
        )
    )
    return truncated_staircase_region(m, kappa)


# Row 1 ends in column 2 and row 2 starts in column 3, so the pair
# (1, 2) -> (2, 3) is the only link between the rows: 6 fillings become 1.
LINKED_ROWS = CellRegion(((1, 2), (3, 4)), frozenset({((1, 2), (2, 3))}))


class TestSweepProperties:
    @settings(deadline=None)
    @given(regions())
    @example(LINKED_ROWS)
    def test_random_regions(self, region):
        assert count_syt(region) == count_syt_dfs(region)
        turned = rotate180(region)
        assert count_syt(turned) == count_syt_dfs(turned) == count_syt(region)

    @given(truncated_staircases())
    @example(build_region("stair:3/2"))
    def test_truncated_staircases(self, region):
        assert count_syt(region) == count_syt_dfs(region)
        turned = rotate180(region)
        assert count_syt(turned) == count_syt_dfs(turned) == count_syt(region)

    def test_linked_rows_precedence_is_not_redundant(self):
        assert count_syt(LINKED_ROWS) == 1
        assert count_syt(CellRegion(LINKED_ROWS.rows)) == 6

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_conjugation(self, m, n, data):
        kappa = data.draw(st.sampled_from(list(partitions_in_box(m, n))))
        kappa_t = Partition(
            tuple(sum(1 for p in kappa.parts if p >= c) for c in range(1, n + 1))
        )
        assert count_syt(truncated_rectangle_region(m, n, kappa)) == count_syt(
            truncated_rectangle_region(n, m, kappa_t)
        )


class TestDiagonalPrecedences:
    def test_needed_when_a_row_shrinks_to_its_diagonal_cell(self):
        region = build_region("stair:3/2")  # rows (1,1), (2,3), (3,3)
        assert count_syt(region) == 1
        stripped = CellRegion(region.rows, frozenset(), "general")
        assert count_syt(stripped) == 4

    @given(st.data())
    def test_redundant_on_full_shifted_shapes(self, data):
        # Strict decrease forces every non-final row past its diagonal, so
        # row/column adjacency already implies the diagonal pairs there.
        lam = data.draw(st.sampled_from(list(strict_partitions_in_staircase(5))))
        region = shifted_region(lam)
        stripped = CellRegion(region.rows, frozenset(), "general")
        assert count_syt(stripped) == count_syt(region)


def gated_cells(region):
    """Cells whose extra-precedence sources the sweep still checks."""
    width, *_, gated, _ = _cell_masks(region.rows, region.extra_precedences)
    return {
        (r, c) for r, c in region.cells() if gated >> ((r - 1) * width + c) & 1
    }


class TestImpliedPrecedences:
    def test_only_the_needed_diagonal_pair_is_checked(self):
        # Row 1 stops at its diagonal cell, so (1, 1) -> (2, 2) stays; row 2
        # reaches column 3, so (2, 2) -> (3, 3) follows from (2, 3).  The
        # half-turn keeps the needed pair as (2, 2) -> (3, 3).
        region = build_region("stair:3/2")
        assert gated_cells(region) == {(2, 2)}
        assert gated_cells(rotate180(region)) == {(3, 3)}
        assert count_syt(region) == count_syt(rotate180(region)) == 1

    @given(st.data())
    def test_full_shifted_shapes_check_none(self, data):
        lam = data.draw(st.sampled_from(list(strict_partitions_in_staircase(6))))
        assert gated_cells(shifted_region(lam)) == set()

    @settings(deadline=None)
    @given(regions())
    def test_every_diagonal_pair_attached(self, region):
        """With every diagonal pair of the region attached, the sweep (which
        drops the implied ones) agrees with the DFS (which keeps them all)."""
        cells = set(region.cells())
        diagonal = frozenset(
            ((r, c), (r + 1, c + 1)) for r, c in cells if (r + 1, c + 1) in cells
        )
        linked = CellRegion(region.rows, region.extra_precedences | diagonal)
        assert count_syt(linked) == count_syt_dfs(linked)
        turned = rotate180(linked)
        assert count_syt(turned) == count_syt_dfs(turned) == count_syt(linked)


def transpose(region):
    """The region reflected in its main diagonal, built cell by cell, or
    None when a column up to the last one is empty."""
    cols: dict[int, list[int]] = {}
    for r, c in region.cells():
        cols.setdefault(c, []).append(r)
    if sorted(cols) != list(range(1, region.max_col + 1)):
        return None
    rows = tuple((min(cols[c]), max(cols[c])) for c in sorted(cols))
    pairs = frozenset(((sc, sr), (dc, dr)) for (sr, sc), (dr, dc) in region.extra_precedences)
    return CellRegion(rows, pairs)


def half_turn(region):
    """The region turned by a half-turn inside its bounding box, built cell
    by cell; each extra precedence reverses."""
    nrows, ncols = region.num_rows, region.max_col

    def turn(cell):
        return (nrows + 1 - cell[0], ncols + 1 - cell[1])

    by_row: dict[int, list[int]] = {}
    for r, c in map(turn, region.cells()):
        by_row.setdefault(r, []).append(c)
    rows = tuple((min(by_row[r]), max(by_row[r])) for r in sorted(by_row))
    pairs = frozenset((turn(b), turn(a)) for a, b in region.extra_precedences)
    return CellRegion(rows, pairs)


def orientations(region):
    """The region as it is, turned, transposed, and transposed then turned;
    the last two only when the region can be transposed."""
    found = [region, half_turn(region)]
    flipped = transpose(region)
    if flipped is not None:
        found += [flipped, half_turn(flipped)]
    return found


def shared_orientations(region):
    """The rows and pairs of ``orientations(region)``, in its order, by the
    maps in ``shapes``."""
    rows, pairs = region.rows, region.extra_precedences
    nrows, ncols = region.num_rows, region.max_col
    found = [(rows, False, False), (_turned_rows(rows, ncols), False, True)]
    flipped = _transposed_rows(rows, ncols)
    if flipped is not None:
        found += [(flipped, True, False), (_turned_rows(flipped, nrows), True, True)]
    return [(new_rows, frozenset(_oriented_pairs(pairs, nrows, ncols, *flags)))
            for new_rows, *flags in found]


def line_kernel_applies(region):
    return region.num_rows >= 2 and all(
        src[0] < region.num_rows for src, _ in region.extra_precedences
    )


# Two rows with (1, 2) before (1, 1): no standard filling, and the line
# kernel may sweep it, since no precedence leaves the last row.
NO_FILLING = CellRegion(((1, 2), (1, 3)), frozenset({((1, 2), (1, 1))}))

# Column 2 is empty: a column of six cells, then one cell apart.
GAP_COLUMN = CellRegion(((1, 1),) * 6 + ((3, 3),))


class TestLineKernel:
    @settings(deadline=None)
    @given(regions())
    @example(LINKED_ROWS)
    @example(NO_FILLING)
    @example(build_region("stair:3/2"))
    @example(CellRegion(((1, 1), (1, 4)), frozenset({((1, 1), (2, 4))})))
    def test_agrees_with_the_sweep_and_the_dfs_in_every_orientation(self, region):
        want = count_syt_dfs(region)
        for turned in orientations(region):
            assert _sweep(turned) == count_syt_dfs(turned) == want
            if line_kernel_applies(turned):
                assert _line(turned.rows, turned.extra_precedences) == want
            assert count_syt(turned) == want

    @settings(deadline=None)
    @given(regions())
    def test_transposed_rows_match_the_cells(self, region):
        flipped = transpose(region)
        expected = None if flipped is None else flipped.rows
        assert _transposed_rows(region.rows, region.max_col) == expected

    @settings(deadline=None)
    @given(regions())
    @example(LINKED_ROWS)
    @example(NO_FILLING)
    @example(GAP_COLUMN)
    @example(build_region("stair:3/2"))
    # the kernel sweeps these turned, transposed, and transposed then turned
    @example(build_region("shifted:6,2,1"))
    @example(CellRegion(((1, 2),) + ((2, 2),) * 5, frozenset({((1, 1), (2, 2))})))
    @example(CellRegion(((1, 1),) * 5 + ((1, 2),), frozenset({((1, 1), (6, 2))})))
    def test_the_shared_maps_match_the_cells(self, region):
        found = orientations(region)
        expected = [(o.rows, o.extra_precedences) for o in found]
        assert shared_orientations(region) == expected
        for original, (rows, pairs) in zip(found[::2], expected[1::2]):
            rotated = rotate180(original)
            assert (rotated.rows, rotated.extra_precedences) == (rows, pairs)
        oriented = _line_region(region)
        assert oriented is None or (oriented[0], frozenset(oriented[1])) in expected

    def test_one_row_takes_the_sweep(self):
        region = CellRegion(((1, 6),))
        assert _line_region(region) is None
        assert count_syt(region) == 1

    def test_columns_with_a_gap_are_not_transposed(self):
        region = GAP_COLUMN
        assert _transposed_rows(region.rows, region.max_col) is None
        assert _line_region(region) is None
        assert count_syt(region) == count_syt_dfs(region) == 7

    def test_a_precedence_out_of_the_last_row_takes_the_sweep(self):
        plain = truncated_rectangle_region(2, 5)
        assert _line_region(plain) == (plain.rows, plain.extra_precedences)
        linked = CellRegion(plain.rows, frozenset({((2, 1), (1, 5))}))
        assert _line_region(linked) is None
        # of the 42 fillings, only 1..5 along the top row breaks the pair
        assert count_syt(linked) == count_syt_dfs(linked) == 41

    @pytest.mark.parametrize(
        "descriptor,kernel",
        [
            ("rect:5x16/5,2", True),
            ("part:13,12,11,7,4,3,1", True),
            ("stair:13/9,4", True),
            ("stair:14/4,3,1,1", False),
            ("rect:10x10/2", True),
            # the best last row is the top row's diagonal cell alone
            ("stair:11/10,5", False),
        ],
    )
    def test_which_shapes_take_the_kernel(self, descriptor, kernel):
        assert (_line_region(build_region(descriptor)) is not None) == kernel

    @pytest.mark.parametrize("descriptor", ["rect:5x16/5,2", "part:13,12,11,7,4,3,1"])
    def test_kernel_equals_the_sweep_on_large_shapes(self, descriptor):
        region = build_region(descriptor)
        assert _line(*_line_region(region)) == _sweep(region)

    @pytest.mark.parametrize("rows", [((1, 3), (4, 6)), ((1, 5), (6, 6))])
    def test_a_count_equal_to_the_field_bound(self, rows):
        # Two rows that share no column: every interleaving is a filling, so
        # the count is N! / (a! b!), the bound the kernel sizes its fields by
        # when the rows stay rows.  With rows of 5 and 1 cells, the vector of
        # the ideal of four top-row cells holds 5, as many bits as the bound 6.
        a, b = (e - s + 1 for s, e in rows)
        for region in orientations(CellRegion(rows)):
            assert _line(region.rows, region.extra_precedences) == comb(a + b, a)
            assert count_syt(region) == comb(a + b, a)

    def test_a_count_beyond_64_bits_equals_frobenius_young(self):
        region = build_region("part:14,10,10,6,5,4,1")
        assert _line_region(region) is not None
        count = count_syt(region)
        assert count >= 2**64
        assert count == frobenius_young((14, 10, 10, 6, 5, 4, 1))

    def test_a_shifted_shape_on_the_kernel_equals_schur(self):
        region = build_region("shifted:15,14,8,6,4,3,2")
        assert _line_region(region) is not None
        assert count_syt(region) == schur_count((15, 14, 8, 6, 4, 3, 2))


class TestNoFilling:
    @pytest.mark.parametrize(
        "region",
        [CellRegion(((1, 2),), frozenset({((1, 2), (1, 1))})), NO_FILLING],
        ids=["one row", "two rows"],
    )
    def test_counts_zero(self, region):
        assert count_syt_dfs(region) == 0
        assert count_syt(region) == _sweep(region) == 0
        assert list(enumerate_syt(region)) == []

    def test_line_kernel_counts_zero(self):
        assert _line(NO_FILLING.rows, NO_FILLING.extra_precedences) == 0


class TestEnumerate:
    FROZEN_STAIR41 = [
        ((1, 2, 3), (4, 5, 6), (7, 8), (9,)),
        ((1, 2, 3), (4, 5, 7), (6, 8), (9,)),
        ((1, 2, 4), (3, 5, 6), (7, 8), (9,)),
        ((1, 2, 4), (3, 5, 7), (6, 8), (9,)),
    ]

    def test_full_listing_in_order(self):
        got = [t.rows for t in enumerate_syt(build_region("stair:4/1"))]
        assert got == self.FROZEN_STAIR41

    def test_limit(self):
        region = build_region("part:3,2")
        assert len(list(enumerate_syt(region, limit=3))) == 3
        assert list(enumerate_syt(region, limit=0)) == []
        assert len(list(enumerate_syt(region, limit=99))) == 5

    @pytest.mark.parametrize(
        "descriptor", ["part:3,3", "shifted:4,2,1", "stair:4/1", "rect:3x3/2,1"]
    )
    def test_enumeration_is_exhaustive_valid_and_distinct(self, descriptor):
        region = build_region(descriptor)
        seen = list(enumerate_syt(region))
        assert len(seen) == count_syt(region)
        assert len(set(t.rows for t in seen)) == len(seen)
        assert all(is_valid_tableau(t) for t in seen)


class TestValidity:
    def test_bad_label_multiset_raises(self):
        region = build_region("part:2,1")
        with pytest.raises(LabelSetMismatch):
            is_valid_tableau(Tableau(region, ((1, 2), (2,))))
        with pytest.raises(LabelSetMismatch):
            is_valid_tableau(Tableau(region, ((1, 2), (4,))))

    def test_order_violations_return_false(self):
        region = build_region("part:2,2")
        assert is_valid_tableau(Tableau(region, ((1, 2), (3, 4))))
        assert not is_valid_tableau(Tableau(region, ((2, 1), (3, 4))))
        assert not is_valid_tableau(Tableau(region, ((1, 4), (2, 3))))

    def test_extra_precedence_checked(self):
        # in stair:3/2 cell (1,1) touches the rest only through its pair
        region = build_region("stair:3/2")
        assert is_valid_tableau(Tableau(region, ((1,), (2, 3), (4,))))
        assert not is_valid_tableau(Tableau(region, ((2,), (1, 3), (4,))))


def reference_is_valid_tableau(t: Tableau) -> bool:
    """The per-column check that ``is_valid_tableau`` replaced: sort each
    column's labels by row and compare neighbours."""
    n = t.size
    seen = sorted(lbl for row in t.rows for lbl in row)
    if seen != list(range(1, n + 1)):
        raise LabelSetMismatch(f"labels are not 1..{n}")
    for row in t.rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    columns: dict[int, list[tuple[int, int]]] = {}
    for r, ((s, _), row) in enumerate(zip(t.region.rows, t.rows), start=1):
        for c, lbl in enumerate(row, start=s):
            columns.setdefault(c, []).append((r, lbl))
    for entries in columns.values():
        entries.sort()
        if any(l1 >= l2 for (_, l1), (_, l2) in zip(entries, entries[1:])):
            return False
    for src, dst in t.region.extra_precedences:
        if t.label_at(*src) >= t.label_at(*dst):
            return False
    return True


def _verdict(check, t):
    try:
        return check(t)
    except LabelSetMismatch:
        return "mismatch"


@st.composite
def fillings(draw):
    """A region with extra precedences, a truncated staircase or a shifted
    diagram, filled with a permutation of 1..N, a random label multiset, or
    a standard filling with labels k and k + 1 swapped."""
    region = draw(
        st.one_of(
            regions(),
            truncated_staircases(),
            st.sampled_from(list(strict_partitions_in_staircase(4))).map(
                shifted_region
            ),
        )
    )
    n = region.size
    how = draw(st.sampled_from(["permutation", "multiset", "swap"]))
    if how == "permutation":
        labels = draw(st.permutations(range(1, n + 1)))
    elif how == "multiset":
        labels = draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n))
    else:
        index = draw(st.integers(0, min(count_syt(region), 50) - 1))
        t = next(islice(enumerate_syt(region), index, None))
        k = draw(st.integers(0, n))  # 0 and n leave the filling standard
        swap = {k: k + 1, k + 1: k} if 1 <= k < n else {}
        labels = [swap.get(lbl, lbl) for row in t.rows for lbl in row]
    rows, i = [], 0
    for s, e in region.rows:
        rows.append(tuple(labels[i : i + e - s + 1]))
        i += e - s + 1
    return Tableau(region, tuple(rows))


class TestValidityAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(fillings())
    @example(Tableau(LINKED_ROWS, ((1, 2), (3, 4))))
    @example(Tableau(LINKED_ROWS, ((1, 3), (2, 4))))
    @example(Tableau(CellRegion(((3, 4), (1, 2))), ((3, 4), (1, 2))))
    def test_same_verdict(self, t):
        assert _verdict(is_valid_tableau, t) == _verdict(reference_is_valid_tableau, t)

    def test_every_standard_filling_passes(self):
        for descriptor in ("stair:5/2", "rect:3x4/2,1", "shifted:5,3,1"):
            for t in enumerate_syt(build_region(descriptor)):
                assert is_valid_tableau(t) and reference_is_valid_tableau(t)
