"""Splitting bijections on standard tableaux.

A split cuts a tableau into the cells holding labels up to a threshold and
the rest.  The low piece keeps its labels and positions.  The high piece is
renumbered ``label -> N - label + 1`` and reflected across the
anti-diagonal of the bounding box, which turns its reversed order back
into row/column growth; the result is translated to standard position and
classified as an ordinary, shifted, or general region.

Pieces are built row by row: the cells a piece keeps are gathered as
(column, label) pairs per row, and their label tuples become the piece's
rows.  The few outlines that recur (ordinary or shifted diagrams in
standard position) come from a small bounded cache, so a split does not
rebuild and revalidate the same region for every tableau.  Every piece and
every reassembled tableau still goes through ``is_valid_tableau``.

``split_threshold`` cuts a full rectangle or full shifted staircase at a
fixed label and is invertible (``unsplit_threshold``).  ``split_pivot``
cuts at the label of a distinguished boundary cell of a truncated shape;
summing over the pivot label's possible values is what turns the
complementary-pair summation identities into counts of truncated shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .count import count_syt, enumerate_syt, is_valid_tableau
from .formulas import PartTooSmall, rect_pair_terms, stair_pair_terms
from .shapes import (
    Cell,
    CellRegion,
    Interval,
    Partition,
    PartitionLike,
    Precedence,
    ShapeError,
    StrictPartition,
    Tableau,
    coerce_partition,
    coerce_strict,
    ordinary_region,
    shifted_region,
)
from .truncated import FAMILIES


class UnsupportedRegion(ValueError):
    """The operation is not defined on this kind of region."""


class IncompatibleShapes(ValueError):
    """The two pieces do not reassemble into the requested region."""


class NotOnBoundary(ValueError):
    """The pivot cell is not on the northeast boundary of the region."""


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a split: the threshold and the two standalone tableaux."""

    t: int
    first: Tableau
    second: Tableau


def _is_full_rectangle(region: CellRegion) -> bool:
    rows = region.rows
    return all(s == 1 for s, _ in rows) and len({e for _, e in rows}) <= 1


def _is_full_staircase(region: CellRegion) -> bool:
    m = region.num_rows
    return all(
        (s, e) == (i, m) for i, (s, e) in enumerate(region.rows, start=1)
    )


def _flavor_of(region: CellRegion) -> str:
    if region.kind in ("shifted", "truncated_staircase"):
        return "shifted"
    if region.kind in ("ordinary", "truncated_rectangle"):
        return "ordinary"
    return "auto"


# Row-label pairs of a piece before translation: row -> [(column, label),
# ...] with each row's columns increasing.
_PieceRows = dict[int, list[tuple[int, int]]]


@lru_cache(maxsize=256)
def _plain_region(flavor: str, intervals: tuple[Interval, ...]) -> CellRegion | None:
    """The ordinary or shifted region with these row intervals, as far as
    ``flavor`` allows one, or None for a general outline.
    """
    # A split of one region yields the same few piece outlines over and
    # over; the bound keeps splits of many large regions from holding memory.
    lengths = tuple(e - s + 1 for s, e in intervals)
    if flavor != "shifted" and all(s == 1 for s, _ in intervals):
        if all(a >= b for a, b in zip(lengths, lengths[1:])):
            return ordinary_region(Partition(lengths))
    if flavor != "ordinary" and all(
        s == i for i, (s, _) in enumerate(intervals, start=1)
    ):
        if all(a > b for a, b in zip(lengths, lengths[1:])):
            return shifted_region(StrictPartition(lengths))
    return None


def _assemble(
    by_row: _PieceRows, pairs: list[Precedence], flavor: str
) -> Tableau:
    """Build a standalone tableau from a coherent set of labeled cells.

    Translates to standard position, classifies the outline, and checks
    validity; a failed check means the cells did not come from a split of
    a standard tableau.
    """
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
    if not is_valid_tableau(piece):
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
    """Cells of ``t`` labeled above ``bound`` (all of them when it is None),
    reflected across the anti-diagonal of a ``height x width`` box:
    ``(r, c)`` goes to ``(width + 1 - c, height + 1 - r)`` and ``label`` to
    ``total + 1 - label``.
    """
    # Columns become rows; walking the rows bottom-up fills each reflected
    # row in increasing column order.
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


def split_threshold(t: Tableau, thresh: int) -> SplitResult:
    """Cut a full-rectangle or full-staircase tableau at a label threshold.

    The low piece is the subtableau of labels ``1..thresh``; the high piece
    is the renumbered reflection of the rest.  Both pieces are plain
    (ordinary or shifted) standard tableaux.
    """
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


def unsplit_threshold(split: SplitResult, region: CellRegion) -> Tableau:
    """Reassemble a threshold split into a tableau of ``region``.

    Inverse of :func:`split_threshold`: the low piece embeds at its own
    coordinates and the high piece is reflected back.  Raises
    :class:`IncompatibleShapes` when the pieces do not tile the region.
    """
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
    if not is_valid_tableau(out):
        raise IncompatibleShapes("pieces tile the region but break the order")
    return out


def is_boundary_cell(region: CellRegion, cell: Cell) -> bool:
    """True when no region cell lies strictly north and strictly east."""
    r, c = cell
    return cell in region and all(e <= c for _, e in region.rows[: r - 1])


def split_pivot(t: Tableau, pivot: Cell) -> SplitResult:
    """Split at the label of a boundary cell, dropping the cell itself.

    The pivot's label ``t`` becomes the threshold: the low piece holds
    labels ``1..t-1`` and the high piece the reflection of ``t+1..N``.  On
    the truncated families the two pieces are plain tableaux of
    complementary-pair shapes; for other pivots they may come out as
    general regions.
    """
    region = t.region
    if pivot not in region:
        raise NotOnBoundary(f"{pivot} is not a cell of the region")
    if not is_boundary_cell(region, pivot):
        raise NotOnBoundary(f"{pivot} has region cells strictly northeast")
    label = t.label_at(*pivot)
    flavor = _flavor_of(region)
    return SplitResult(
        label,
        _low_piece(t, label - 1, flavor),
        _high_piece(t, label, flavor),
    )


def piece_shape(t: Tableau) -> Partition | StrictPartition:
    """Row-length partition of a plain (ordinary or shifted) piece."""
    lengths = tuple(e - s + 1 for s, e in t.region.rows)
    if t.region.kind == "shifted":
        return StrictPartition(lengths)
    if t.region.kind == "ordinary":
        return Partition(lengths)
    raise ShapeError("piece is not a plain diagram")


def pivot_shape_histogram(
    region: CellRegion, pivot: Cell
) -> dict[tuple[Partition | StrictPartition, Partition | StrictPartition], int]:
    """Count split piece shape pairs over every tableau of ``region``."""
    hist: dict = {}
    for t in enumerate_syt(region):
        parts = split_pivot(t, pivot)
        key = (piece_shape(parts.first), piece_shape(parts.second))
        hist[key] = hist.get(key, 0) + 1
    return hist


@dataclass(frozen=True)
class PivotReport:
    """Comparison of a brute-force count with a complementary-pair sum."""

    description: str
    region: CellRegion
    pivot: Cell
    tableau_count: int
    identity_sum: int
    terms: tuple[tuple[tuple, int], ...]

    @property
    def passed(self) -> bool:
        return self.tableau_count == self.identity_sum


def _square_family(
    geometry: str, mu: Partition | StrictPartition, params: tuple, missing: str
) -> tuple[CellRegion, Cell]:
    """Region and pivot cell of the family whose prefix at ``params`` is ``mu``."""
    for family in FAMILIES.values():
        if family.geometry == geometry and family.mu and family.mu(*params) == mu:
            return family.region(*params), family.pivot(*params)
    raise UnsupportedRegion(missing)


def verify_pivot_identity_staircase(mu: PartitionLike, m: int) -> PivotReport:
    """Count the staircase-family truncated shape by brute force and
    compare with the sum of shifted pair products it must equal.
    """
    mu = coerce_strict(mu)
    if mu.parts and mu.parts[-1] <= m:
        raise PartTooSmall(f"every part of {mu} must exceed {m}")
    if not mu.parts:
        # Without a prefix the shape is the untruncated staircase, which
        # has no pivot cell; the fixed-size sum identity covers it instead.
        raise UnsupportedRegion("empty prefix: the full staircase has no pivot")
    region, pivot = _square_family(
        "stair", mu, (m, len(mu.parts)),
        f"no truncated staircase corresponds to the prefix {mu} over order {m}",
    )
    terms = tuple(((a, b), prod) for _, _, a, b, prod in stair_pair_terms(mu, m))
    total = sum(prod for _, prod in terms)
    return PivotReport(
        f"staircase family mu={mu} m={m}",
        region, pivot, count_syt(region), total, terms,
    )


def verify_pivot_identity_rect(
    mu: PartitionLike, k: int, m: int, n: int
) -> PivotReport:
    """Count the rectangle-family truncated shape by brute force and
    compare with the sum of ordinary pair products it must equal.
    """
    mu = coerce_partition(mu)
    if len(mu.parts) > k:
        raise ValueError(f"{mu} has more than {k} parts")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    region, pivot = _square_family(
        "rect", mu, (m, n, k), f"no truncated rectangle corresponds to mu={mu}, k={k}"
    )
    terms = tuple(((a, b), prod) for _, _, a, b, prod in rect_pair_terms(mu, k, m, n))
    total = sum(prod for _, prod in terms)
    return PivotReport(
        f"rectangle family mu={mu} k={k} m={m} n={n}",
        region, pivot, count_syt(region), total, terms,
    )
