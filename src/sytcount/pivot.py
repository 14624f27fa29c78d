"""Splitting bijections on standard tableaux.

A split cuts a tableau into the cells holding labels up to a threshold and
the rest.  The low piece keeps its labels and positions.  The high piece is
renumbered ``label -> N - label + 1`` and reflected across the
anti-diagonal of the bounding box, which turns its reversed order back
into row/column growth; the result is translated to standard position and
classified as an ordinary, shifted, or general region.

Splits work on flat label lists laid out by the region's order table
(``CellRegion.order``): the low piece reads the labels in row-major order,
the high piece in the table's reflection order, where each column is one
reflected row.  A byte flag per cell marks the labels a piece keeps, and
each row of the piece is one slice of the list.  Reassembly writes both
pieces' rows as slices into the region's flat list.  The few outlines that
recur (ordinary or shifted diagrams in standard position) come from a
small bounded cache, so a split does not rebuild and revalidate the same
region, or its order table, for every tableau.  Every piece and every
reassembled tableau still goes through ``is_valid_tableau``.

``split_threshold`` cuts a full rectangle or full shifted staircase at a
fixed label and is invertible (``unsplit_threshold``).  ``split_pivot``
cuts at the label of a distinguished boundary cell of a truncated shape;
summing over the pivot label's possible values is what turns the
complementary-pair summation identities into counts of truncated shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, Sequence

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
    return region.rows == ((1, region.max_col),) * region.num_rows


def _is_full_staircase(region: CellRegion) -> bool:
    m = region.num_rows
    return region.rows == tuple(zip(range(1, m + 1), repeat(m)))


def _flavor_of(region: CellRegion) -> str:
    if region.kind in ("shifted", "truncated_staircase"):
        return "shifted"
    if region.kind in ("ordinary", "truncated_rectangle"):
        return "ordinary"
    return "auto"


def _threshold_flavor(region: CellRegion) -> str:
    """The piece flavor of a region that threshold splitting accepts."""
    full_staircase = _is_full_staircase(region)
    if not (full_staircase or _is_full_rectangle(region)):
        raise UnsupportedRegion(
            "threshold splitting needs a full rectangle or full staircase"
        )
    flavor = _flavor_of(region)
    if flavor == "auto":
        flavor = "shifted" if full_staircase else "ordinary"
    return flavor


# Where a region's rows lie in a flat label list: (row, first column, start,
# stop) for each row, in increasing row order.
_Segments = Iterable[tuple[int, int, int, int]]


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
    segments: _Segments,
    labels: Sequence[int],
    keep: bytes,
    flavor: str,
    pairs: Iterable[Precedence],
) -> Tableau:
    """Build a standalone tableau from the cells that ``keep`` flags.

    Translates the kept cells to standard position, classifies the
    outline, and checks validity; a failed check means the cells did not
    come from a split of a standard tableau.  ``pairs`` lists the extra
    precedences among the kept cells; it is read only for a general
    outline.
    """
    top = broken = None
    intervals, rows = [], []
    for r, s, lo, hi in segments:
        first = keep.find(1, lo, hi)
        if first < 0:
            continue
        last = keep.rfind(1, lo, hi)
        if top is None:
            top = r
        if broken is None and keep.find(0, first, last) >= 0:
            broken = r
        intervals.append((s + first - lo, s + last - lo))
        rows.append(labels[first : last + 1])
        bottom = r
    if top is None:
        return Tableau(_plain_region(flavor, ()), ())
    if bottom - top + 1 != len(rows):
        raise ShapeError("piece has a gap between rows")
    if broken is not None:
        raise ShapeError(f"piece row {broken} is not contiguous")
    dc = 1 - min(intervals)[0]
    if dc:
        intervals = [(s + dc, e + dc) for s, e in intervals]
    region = _plain_region(flavor, tuple(intervals))
    if region is None:
        dr = 1 - top
        moved_pairs = frozenset(
            ((a[0] + dr, a[1] + dc), (b[0] + dr, b[1] + dc)) for a, b in pairs
        )
        region = CellRegion(tuple(intervals), moved_pairs, "general")
    piece = Tableau(region, rows)
    if not is_valid_tableau(piece):
        raise ShapeError("split produced an invalid filling")
    return piece


def _reflected(
    t: Tableau, height: int, width: int, total: int
) -> tuple[_Segments, list[int]]:
    """The filling ``t`` reflected across the anti-diagonal of a ``height x
    width`` box, as segments over a flat label list: ``(r, c)`` goes to
    ``(width + 1 - c, height + 1 - r)`` and ``label`` to ``total + 1 -
    label``.
    """
    # The region's reflection order lists the labels column by column,
    # right to left and bottom-up, so each column is one reflected row.
    order = t.region.order
    labels = [total + 1 - lbl for lbl in order.reflect(list(chain.from_iterable(t.rows)))]
    segments = [
        (width + 1 - c, height + 1 - bottom, lo, hi)
        for c, bottom, lo, hi in order.columns
    ]
    return segments, labels


def _low_piece(t: Tableau, bound: int, flavor: str) -> Tableau:
    labels = list(chain.from_iterable(t.rows))
    keep = bytes([lbl <= bound for lbl in labels])
    pairs = (
        (a, b)
        for a, b in t.region.extra_precedences
        if t.label_at(*a) <= bound and t.label_at(*b) <= bound
    )
    return _assemble(t.region.order.rows, labels, keep, flavor, pairs)


def _high_piece(t: Tableau, bound: int, flavor: str) -> Tableau:
    nrows, ncols, total = t.region.num_rows, t.region.max_col, t.size

    def reflect(cell: Cell) -> Cell:
        r, c = cell
        return (ncols + 1 - c, nrows + 1 - r)

    pairs = (
        (reflect(b), reflect(a))
        for a, b in t.region.extra_precedences
        if t.label_at(*a) > bound and t.label_at(*b) > bound
    )
    segments, labels = _reflected(t, nrows, ncols, total)
    # a label above ``bound`` is at most ``total - bound`` once renumbered
    keep = bytes([lbl <= total - bound for lbl in labels])
    return _assemble(segments, labels, keep, flavor, pairs)


def split_threshold(t: Tableau, thresh: int) -> SplitResult:
    """Cut a full-rectangle or full-staircase tableau at a label threshold.

    The low piece is the subtableau of labels ``1..thresh``; the high piece
    is the renumbered reflection of the rest.  Both pieces are plain
    (ordinary or shifted) standard tableaux.
    """
    region = t.region
    flavor = _threshold_flavor(region)
    if not 0 <= thresh <= region.size:
        raise ValueError(f"threshold must lie in 0..{region.size}, got {thresh}")
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
    _threshold_flavor(region)
    total = region.size
    if split.first.size != split.t or split.second.size != total - split.t:
        raise IncompatibleShapes("piece sizes do not match the threshold")
    nrows, ncols = region.num_rows, region.max_col
    order = region.order
    slots: list[int | None] = [None] * total
    low = split.first
    for segments, labels in (
        (low.region.order.rows, list(chain.from_iterable(low.rows))),
        _reflected(split.second, ncols, nrows, total),
    ):
        for r, s, lo, hi in segments:
            i = order.index.get((r, s))
            if i is None or (r, s + hi - lo - 1) not in order.index:
                raise IncompatibleShapes("pieces do not tile the region")
            slots[i : i + hi - lo] = labels[lo:hi]
    # The piece sizes add up to the region's and every cell landed inside
    # it, so an overlap leaves a slot empty.
    if None in slots:
        raise IncompatibleShapes("pieces do not tile the region")
    rows = [slots[lo:hi] for _, _, lo, hi in order.rows]
    out = Tableau(region, rows)
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
