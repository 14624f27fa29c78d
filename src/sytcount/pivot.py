"""Splitting bijections on standard tableaux.

A split cuts a tableau into the cells holding labels up to a threshold and
the rest.  The low piece keeps its labels and positions.  The high piece is
renumbered ``label -> N - label + 1`` and reflected across the
anti-diagonal of the bounding box (the transpose and then the half-turn of
``shapes``), which turns its reversed order back into row/column growth;
the result is translated to standard position and classified as an
ordinary, shifted, or general region.

Splits work on a tableau's flat labels, in the row-major order of the
region's order table (``CellRegion.order``).  The low piece reads its
cells in that order, the high piece in reflection order, where each column
is one reflected row; ``_reflection`` reads that order off the table's
cell index once per outline, as a plan is built.  A byte flag per cell, in
row-major order, marks the labels a piece keeps.  Everything else about
the piece (which rows it keeps, the one gather that takes its flat labels
from the tableau's, its region in standard position, or the error the
flags raise) depends on the region and the flags alone, so it is worked
out once as an outline plan and kept in a bounded cache.  Where a
reassembly puts each label (one gather over the two pieces' flat labels),
or that the pieces fall outside the region or overlap, depends on the
three regions alone and is kept the same way as a tiling plan.  The region
facts both plans read are computed once per region.  Every piece and every
reassembled tableau still goes through ``is_valid_tableau``, and every
error is raised afresh.

``split_threshold`` cuts a full rectangle or full shifted staircase at a
fixed label and is invertible (``unsplit_threshold``).  ``split_pivot``
cuts at the label of a distinguished boundary cell of a truncated shape;
summing over the pivot label's possible values is what turns the
complementary-pair summation identities into counts of truncated shapes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .count import count_syt, enumerate_syt, is_valid_tableau
from .formulas import _rect_prefix, _stair_prefix, rect_pair_terms, stair_pair_terms
from .shapes import (
    Cell,
    CellRegion,
    Gather,
    Interval,
    Partition,
    PartitionLike,
    ShapeError,
    StrictPartition,
    Tableau,
    _gather,
    _oriented_pairs,
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


def _flavor_of(region: CellRegion) -> str:
    if region.kind in ("shifted", "truncated_staircase"):
        return "shifted"
    if region.kind in ("ordinary", "truncated_rectangle"):
        return "ordinary"
    return "auto"


def _threshold_flavor(region: CellRegion) -> str | None:
    """The piece flavor of a region that threshold splitting accepts, or
    None for a region it refuses."""
    m = region.num_rows
    staircase = region.rows == tuple(zip(range(1, m + 1), repeat(m)))
    if not (staircase or region.rows == ((1, region.max_col),) * m):
        return None
    flavor = _flavor_of(region)
    if flavor == "auto":
        # an outline that is both (empty, or one cell) splits into shifted pieces
        flavor = "shifted" if staircase else "ordinary"
    return flavor


# Where an outline's rows lie in a flat label list: (row, first column,
# start, stop) for each row, in increasing row order.
_Segments = tuple[tuple[int, int, int, int], ...]


def _reflection(
    region: CellRegion, height: int, width: int
) -> tuple[tuple[int, ...], _Segments]:
    """The reflection of ``region`` across the anti-diagonal of a ``height x
    width`` box, ``(r, c)`` to ``(width + 1 - c, height + 1 - r)``: the
    region's flat positions in reflection order (the reflection's row-major
    order) and the reflected rows' segments over them."""
    # Reflection order lists the cells column by column, right to left and
    # bottom-up, so each column of the region is one reflected row.
    columns: dict[int, list[tuple[int, int]]] = {}
    for (r, c), i in region.order.index.items():
        columns.setdefault(c, []).append((r, i))
    positions: list[int] = []
    segments = []
    for c, col in sorted(columns.items(), reverse=True):
        lo = len(positions)
        positions += [i for _, i in reversed(col)]
        segments.append((width + 1 - c, height + 1 - col[-1][0], lo, len(positions)))
    return tuple(positions), tuple(segments)


# One side of a region's splits, read in row-major order (low) or reflection
# order (high): the rows' segments, each extra precedence as its two cells'
# row-major positions and side coordinates, and the row-major position of
# each place in the side's order.
_Side = tuple[_Segments, tuple[tuple[int, int, Cell, Cell], ...], tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class _Layout:
    """What every split and reassembly of one region shares.  Compared by
    identity, so the plan caches key on it at the cost of a pointer."""

    region: CellRegion
    threshold_flavor: str | None
    low: _Side
    high: _Side


@lru_cache(maxsize=64)
def _layout(region: CellRegion) -> _Layout:
    """The layout of ``region``, built once while the region is among the 64
    most recently split or reassembled."""
    order = region.order
    nrows, ncols = region.num_rows, region.max_col
    extra = list(region.extra_precedences)
    pairs = [(order.index[a], order.index[b], a, b) for a, b in extra]
    reflected = _oriented_pairs(extra, nrows, ncols, transpose=True, turn=True)
    places, segments = _reflection(region, nrows, ncols)
    return _Layout(
        region,
        _threshold_flavor(region),
        (order.rows, tuple(pairs), tuple(range(region.size))),
        (segments, tuple((i, j, *pair) for (i, j, _, _), pair in zip(pairs, reflected)), places),
    )


def _threshold_layout(region: CellRegion) -> _Layout:
    """The layout of a region that threshold splitting accepts, kept on the
    region: a cache lookup compares a new region field by field."""
    layout = region.__dict__.get("_layout")
    if layout is None:
        layout = region.__dict__["_layout"] = _layout(region)
    if layout.threshold_flavor is None:
        raise UnsupportedRegion(
            "threshold splitting needs a full rectangle or full staircase"
        )
    return layout


@lru_cache(maxsize=256)
def _plain_region(flavor: str, intervals: tuple[Interval, ...]) -> CellRegion | None:
    """The ordinary or shifted region with these row intervals, as far as
    ``flavor`` allows one, or None for a general outline.
    """
    # Plans of different pieces share the few outlines that recur.
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


@lru_cache(maxsize=1024)
def _piece_plan(
    layout: _Layout, high: bool, flavor: str, keep: bytes
) -> tuple[CellRegion, Gather] | str:
    """The outline of the piece whose cells ``keep`` flags in row-major
    order, read on the low or high side of ``layout``'s region: its region
    in standard position and the gather that takes its flat labels from the
    region's, or the message of the ShapeError it raises.

    Every split of the region that keeps the same cells shares this plan.
    The region is ordinary or shifted as far as ``flavor`` allows, and else
    general with the extra precedences among the kept cells moved along.
    """
    segments, pairs, places = layout.high if high else layout.low
    flags = bytes(map(keep.__getitem__, places))  # in the side's order
    top = broken = None
    intervals, kept = [], []
    for r, s, lo, hi in segments:
        first = flags.find(1, lo, hi)
        if first < 0:
            continue
        last = flags.rfind(1, lo, hi)
        if top is None:
            top = r
        if broken is None and flags.find(0, first, last) >= 0:
            broken = r
        intervals.append((s + first - lo, s + last - lo))
        kept += places[first : last + 1]
        bottom = r
    if top is None:
        return _plain_region(flavor, ()), _gather(())
    if bottom - top + 1 != len(intervals):
        return "piece has a gap between rows"
    if broken is not None:
        return f"piece row {broken} is not contiguous"
    dc = 1 - min(intervals)[0]
    if dc:
        intervals = [(s + dc, e + dc) for s, e in intervals]
    region = _plain_region(flavor, tuple(intervals))
    if region is None:
        dr = 1 - top
        moved_pairs = frozenset(
            ((a[0] + dr, a[1] + dc), (b[0] + dr, b[1] + dc))
            for i, j, a, b in pairs
            if keep[i] and keep[j]
        )
        try:
            region = CellRegion(tuple(intervals), moved_pairs, "general")
        except ShapeError as exc:
            return str(exc)
    return region, _gather(kept)


def _piece(
    layout: _Layout, high: bool, flavor: str, labels: tuple[int, ...] | list[int], keep: bytes
) -> Tableau:
    """The standalone tableau of the cells that ``keep`` flags; a failed
    validity check means the cells did not come from a split of a standard
    tableau."""
    plan = _piece_plan(layout, high, flavor, keep)
    if isinstance(plan, str):
        raise ShapeError(plan)
    region, gather = plan
    piece = Tableau._of(region, gather(labels))
    if not is_valid_tableau(piece):
        raise ShapeError("split produced an invalid filling")
    return piece


def _split(
    t: Tableau, layout: _Layout, flavor: str, low_bound: int, high_bound: int
) -> tuple[Tableau, Tableau]:
    """The piece of labels up to ``low_bound`` and the renumbered reflection
    of the labels above ``high_bound``."""
    labels = t.flat
    total = len(labels)
    renumbered = [total + 1 - lbl for lbl in labels]
    # a label above ``high_bound`` is at most ``total - high_bound`` once renumbered
    top = total - high_bound
    return (
        _piece(layout, False, flavor, labels, bytes([lbl <= low_bound for lbl in labels])),
        _piece(layout, True, flavor, renumbered, bytes([lbl <= top for lbl in renumbered])),
    )


def split_threshold(t: Tableau, thresh: int) -> SplitResult:
    """Cut a full-rectangle or full-staircase tableau at a label threshold.

    The low piece is the subtableau of labels ``1..thresh``; the high piece
    is the renumbered reflection of the rest.  Both pieces are plain
    (ordinary or shifted) standard tableaux.
    """
    region = t.region
    layout = _threshold_layout(region)
    if not 0 <= thresh <= region.size:
        raise ValueError(f"threshold must lie in 0..{region.size}, got {thresh}")
    return SplitResult(thresh, *_split(t, layout, layout.threshold_flavor, thresh, thresh))


@lru_cache(maxsize=512)
def _tiling(layout: _Layout, low: CellRegion, high: CellRegion) -> Gather | None:
    """Where a reassembly into ``layout``'s region puts each label: the
    gather of the region's flat labels from the low piece's followed by the
    high piece's, or None when the pieces do not tile the region."""
    region = layout.region
    index = region.order.index
    n = low.size
    slots: list[int | None] = [None] * region.size
    places, reflected = _reflection(high, region.max_col, region.num_rows)
    for segments, sources in (
        (low.order.rows, range(n)),
        (reflected, [n + i for i in places]),
    ):
        for r, s, lo, hi in segments:
            i = index.get((r, s))
            if i is None or (r, s + hi - lo - 1) not in index:
                return None
            slots[i : i + hi - lo] = sources[lo:hi]
    # The piece sizes add up to the region's and every cell landed inside
    # it, so an overlap leaves a slot empty.
    if None in slots:
        return None
    return _gather(slots)


def unsplit_threshold(split: SplitResult, region: CellRegion) -> Tableau:
    """Reassemble a threshold split into a tableau of ``region``.

    Inverse of :func:`split_threshold`: the low piece embeds at its own
    coordinates and the high piece is reflected back.  Raises
    :class:`IncompatibleShapes` when the pieces do not tile the region.
    """
    layout = _threshold_layout(region)
    total = region.size
    low, high = split.first, split.second
    if low.size != split.t or high.size != total - split.t:
        raise IncompatibleShapes("piece sizes do not match the threshold")
    tiling = _tiling(layout, low.region, high.region)
    if tiling is None:
        raise IncompatibleShapes("pieces do not tile the region")
    labels = list(low.flat)
    labels += [total + 1 - lbl for lbl in high.flat]
    out = Tableau._of(region, tiling(labels))
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
    return SplitResult(label, *_split(t, _layout(region), _flavor_of(region), label - 1, label))


def piece_shape(t: Tableau) -> Partition | StrictPartition:
    """Row-length partition of a plain (ordinary or shifted) piece."""
    region = t.region
    lengths = tuple(e - s + 1 for s, e in region.rows)
    if region.kind == "shifted":
        return StrictPartition(lengths)
    if region.kind == "ordinary":
        return Partition(lengths)
    raise ShapeError("piece is not a plain diagram")


def pivot_shape_histogram(
    region: CellRegion, pivot: Cell
) -> dict[tuple[Partition | StrictPartition, Partition | StrictPartition], int]:
    """Count split piece shape pairs over every tableau of ``region``."""
    hist: Counter = Counter()
    for t in enumerate_syt(region):
        parts = split_pivot(t, pivot)
        hist[piece_shape(parts.first), piece_shape(parts.second)] += 1
    return dict(hist)


@dataclass(frozen=True)
class PivotReport:
    """Comparison of a brute-force count with a complementary-pair sum."""

    region: CellRegion
    pivot: Cell
    tableau_count: int
    identity_sum: int
    terms: tuple[tuple[tuple, int], ...]


def _pivot_report(
    geometry: str, mu: Partition | StrictPartition, params: tuple, terms, missing: str
) -> PivotReport:
    """Count the region of the family whose prefix at ``params`` is ``mu``
    by brute force, and sum the pair products of ``terms`` beside it."""
    for family in FAMILIES.values():
        if family.geometry == geometry and family.mu and family.mu(*params) == mu:
            break
    else:
        raise UnsupportedRegion(missing)
    region, pivot = family.region(*params), family.pivot(*params)
    terms = tuple(((a, b), prod) for _, _, a, b, prod in terms)
    return PivotReport(region, pivot, count_syt(region), sum(p for _, p in terms), terms)


def verify_pivot_identity_staircase(mu: PartitionLike, m: int) -> PivotReport:
    """Count the staircase-family truncated shape by brute force and
    compare with the sum of shifted pair products it must equal.
    """
    mu = _stair_prefix(mu, m)
    if not mu.parts:
        # Without a prefix the shape is the untruncated staircase, which
        # has no pivot cell; the fixed-size sum identity covers it instead.
        raise UnsupportedRegion("empty prefix: the full staircase has no pivot")
    return _pivot_report(
        "stair", mu, (m, len(mu.parts)), stair_pair_terms(mu, m),
        f"no truncated staircase corresponds to the prefix {mu} over order {m}",
    )


def verify_pivot_identity_rect(
    mu: PartitionLike, k: int, m: int, n: int
) -> PivotReport:
    """Count the rectangle-family truncated shape by brute force and
    compare with the sum of ordinary pair products it must equal.
    """
    mu = _rect_prefix(mu, k)
    return _pivot_report(
        "rect", mu, (m, n, k), rect_pair_terms(mu, k, m, n),
        f"no truncated rectangle corresponds to mu={mu}, k={k}",
    )
