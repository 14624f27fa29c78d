"""Partitions, strict partitions, and the cell regions built from them.

Cells are 1-based ``(row, column)`` pairs in English orientation: row 1 at
the top, columns growing to the right.  A :class:`CellRegion` records one
contiguous column interval per row plus a set of explicit precedence pairs
for order constraints that row/column adjacency alone does not capture
(the main diagonal of shifted shapes, where a row of length one would
otherwise disconnect consecutive diagonal cells).  The half-turn and the
transpose of row intervals and of precedence pairs are written here once,
for ``rotate180``, the line kernel in ``count`` and the splits in ``pivot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, combinations
from operator import add, itemgetter, le, lt
from typing import Callable, ClassVar, Iterable, Iterator, Sequence, Union

from .arith import TooLarge, _index_range  # TooLarge is importable from here too

Cell = tuple[int, int]
Interval = tuple[int, int]
Precedence = tuple[Cell, Cell]


class ShapeError(ValueError):
    """Malformed partition, region, or shape descriptor."""


class StrictnessViolation(ShapeError):
    """A union would repeat a part while a strict result was required."""


class NotContained(ShapeError):
    """Complement requested of a partition that does not fit the ambient shape."""


class InvalidTruncation(ShapeError):
    """Truncation partition sticks out of the diagram it is removed from."""


class InvalidSpec(ShapeError):
    """Unparseable shape descriptor string."""


@dataclass(frozen=True)
class _Parts:
    """Decreasing tuple of integers; trailing zeros stripped.

    The one body of :class:`Partition` and :class:`StrictPartition`.  Each
    names its order rule as ``_breaks``, true of a part and the part after
    it where the rule is broken (an ``operator`` builtin, which the class
    does not bind as a method), the error that such a break raises, and
    the words of its order and sign messages.
    """

    parts: tuple[int, ...] = ()

    _breaks: ClassVar[Callable[[int, int], bool]]
    _order_error: ClassVar[type[ShapeError]]
    _words: ClassVar[tuple[str, str]]  # the order's adverb, the sign's adjective

    def __post_init__(self) -> None:
        parts = tuple(map(int, self.parts))
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(map(self._breaks, parts, parts[1:])):
            order = self._words[0]
            raise self._order_error(f"parts must be {order} decreasing: {self.parts}")
        if parts and parts[-1] < 0:
            raise ShapeError(f"parts must be {self._words[1]}: {self.parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class Partition(_Parts):
    """Weakly decreasing tuple of nonnegative integers; trailing zeros stripped.

    ``Partition((3, 1, 0))`` and ``Partition((3, 1))`` compare equal.  The
    empty partition is ``Partition()``.
    """

    _breaks, _order_error, _words = lt, ShapeError, ("weakly", "nonnegative")

    def part(self, i: int) -> int:
        """The ``i``-th part, 1-based, with implicit zeros past the end."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __add__(self, other: "Partition") -> "Partition":
        """Componentwise sum after zero-padding to a common length."""
        other = coerce_partition(other)
        n = max(len(self.parts), len(other.parts))
        return Partition(
            tuple(self.part(i) + other.part(i) for i in range(1, n + 1))
        )

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: column lengths become parts."""
        return Partition(_conjugate_parts(self.parts))


def _conjugate_parts(parts: Sequence[int]) -> tuple[int, ...]:
    """The conjugate of decreasing ``parts``: its j-th part counts those >= j."""
    held = [0] * (parts[0] + 1 if parts else 1)
    for p in parts:
        held[p] += 1
    return tuple(accumulate(reversed(held[1:])))[::-1]


class StrictPartition(_Parts):
    """Strictly decreasing tuple of positive integers."""

    _breaks, _order_error, _words = le, StrictnessViolation, ("strictly", "positive")


PartitionLike = Union[Partition, StrictPartition, Sequence[int]]


def coerce_partition(p: PartitionLike) -> Partition:
    return p if isinstance(p, Partition) else Partition(tuple(p))


def coerce_strict(p: PartitionLike) -> StrictPartition:
    return p if isinstance(p, StrictPartition) else StrictPartition(tuple(p))


def union(a: PartitionLike, b: PartitionLike) -> Union[Partition, StrictPartition]:
    """Multiset union of parts, sorted decreasingly.

    Two strict partitions produce a strict partition; a repeated part then
    raises :class:`StrictnessViolation`.  Any other combination produces an
    ordinary partition.
    """
    if isinstance(a, StrictPartition) and isinstance(b, StrictPartition):
        merged = tuple(sorted(a.parts + b.parts, reverse=True))
        if any(x == y for x, y in zip(merged, merged[1:])):
            raise StrictnessViolation(f"union of {a} and {b} repeats a part")
        return StrictPartition(merged)
    pa, pb = coerce_partition(a), coerce_partition(b)
    return Partition(tuple(sorted(pa.parts + pb.parts, reverse=True)))


def staircase(m: int) -> StrictPartition:
    """The strict partition ``(m, m-1, ..., 1)``."""
    if m < 0:
        raise ShapeError(f"staircase order must be nonnegative: {m}")
    return StrictPartition(tuple(map(m.__sub__, _index_range(m, "staircase order"))))


def complement_in_staircase(lam: PartitionLike, m: int) -> StrictPartition:
    """Parts of ``{1..m}`` not used by ``lam``, as a strict partition."""
    lam = coerce_strict(lam)
    parts = set(lam.parts)
    if not parts <= set(range(1, m + 1)):
        raise NotContained(f"{lam} does not fit inside the staircase of order {m}")
    return StrictPartition(
        tuple(sorted(set(range(1, m + 1)) - parts, reverse=True))
    )


def complement_in_rectangle(lam: PartitionLike, m: int, n: int) -> Partition:
    """Complement of ``lam`` in the ``m x n`` box.

    Defined through staircase complementation of the padded strict partition:
    the result ``mu`` satisfies ``mu + staircase-of-n = complement of
    (lam + staircase-of-m) inside the staircase of order m + n``.  Sizes add
    up to ``m * n``.
    """
    lam = coerce_partition(lam)
    if len(lam.parts) > m or (lam.parts and lam.parts[0] > n):
        raise NotContained(f"{lam} does not fit inside a {m}x{n} box")
    _index_range(m + n, "staircase order")  # a set of m + n parts
    padded = {lam.part(i) + (m + 1 - i) for i in range(1, m + 1)}
    comp = sorted(set(range(1, m + n + 1)) - padded, reverse=True)
    return Partition(tuple(comp[j - 1] - (n + 1 - j) for j in range(1, n + 1)))


def _box_walk(m: int, n: int, size: int | None) -> Iterator[tuple[int, ...]]:
    """Parts of each partition in the ``m x n`` box (of ``size`` cells, if
    given), depth first from the empty one, each part counting down.  With
    ``size``, a part is at most the cells left and at least their share of
    the rows left, so no prefix that cannot reach ``size`` is placed.
    """
    if m < 0 or n < 0:
        raise ShapeError(f"box sides must be nonnegative: {m}x{n}")
    parts: list[int] = []
    lows: list[int] = []  # the least each part may drop to
    cells = 0
    while True:
        if size is None or cells == size:
            yield tuple(parts)
        if len(parts) < m:
            hi, lo = parts[-1] if parts else n, 1
            if size is not None:
                rest = size - cells
                hi, lo = min(hi, rest), max(1, -(-rest // (m - len(parts))))
            if hi >= lo:
                parts.append(hi)
                lows.append(lo)
                cells += hi
                continue
        while parts and parts[-1] == lows[-1]:
            cells -= parts.pop()
            lows.pop()
        if not parts:
            return
        parts[-1] -= 1
        cells -= 1


def partitions_in_box(m: int, n: int, size: int | None = None) -> Iterator[Partition]:
    """All partitions with at most ``m`` parts, each at most ``n``.

    Yields in depth-first order starting from the empty partition; pass
    ``size`` to keep only partitions of that many cells.  Subtrees that
    cannot reach ``size`` or already pass it are never entered.  A negative
    side raises :class:`ShapeError`.
    """
    yield from map(Partition, _box_walk(m, n, size))


def strict_partitions_in_staircase(
    m: int, size: int | None = None
) -> Iterator[StrictPartition]:
    """All strict partitions whose parts lie in ``{1..m}``.

    Yields by number of parts, then in lexicographically decreasing order;
    pass ``size`` to keep only partitions of that many cells.  Those with
    ``k`` parts are then ``(k, ..., 1)`` plus the partitions of ``size -
    k(k+1)/2`` in the ``k x (m - k)`` box, in the box walk's order.
    """
    for k in range(m + 1):
        if size is None:
            yield from map(StrictPartition, combinations(range(m, 0, -1), k))
        elif 0 <= size - k * (k + 1) // 2 <= k * (m - k):
            lift, pad = range(k, 0, -1), (0,) * k
            for parts in _box_walk(k, m - k, size - k * (k + 1) // 2):
                yield StrictPartition(tuple(map(add, parts + pad, lift)))


Gather = Callable[[Sequence[int]], tuple[int, ...]]


def _gather(indices: Sequence[int]) -> Gather:
    """``itemgetter`` over ``indices`` that returns a tuple for any length."""
    # itemgetter returns the bare item for one index and needs at least one
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


@dataclass(frozen=True)
class OrderTable:
    """A region's order relation, read off its cells in row-major order.

    A filling is listed row by row as one flat label sequence; ``index``
    gives each cell's position in it, and ``rows`` holds each row as (row,
    first column, start, stop) of its slice.  ``lower`` and ``upper``
    gather from the sequence the two sides of every covering pair (right
    neighbour, lower neighbour, extra precedence), so a filling keeps the
    order exactly when each gathered lower label is below the upper one.
    """

    index: dict[Cell, int]
    labels: list[int]  # 1..N, what a standard filling's sorted labels equal
    rows: tuple[tuple[int, int, int, int], ...]
    lower: Gather
    upper: Gather


@dataclass(frozen=True)
class CellRegion:
    """A finite set of cells, one contiguous column interval per row.

    ``rows[i]`` is the inclusive ``(start_col, end_col)`` interval of row
    ``i + 1``.  ``extra_precedences`` lists ordered cell pairs whose labels
    must increase in addition to the row/column constraints.  Columns must
    be contiguous across rows so that adjacency captures the column order.

    ``kind`` tags how the region was built: ``ordinary``, ``shifted``,
    ``truncated_staircase``, ``truncated_rectangle``, or ``general`` for
    regions produced by splitting or rotation.
    """

    rows: tuple[Interval, ...]
    extra_precedences: frozenset[Precedence] = frozenset()
    kind: str = "general"

    def __post_init__(self) -> None:
        rows = tuple((int(s), int(e)) for s, e in self.rows)
        for s, e in rows:
            if s < 1 or e < s:
                raise ShapeError(f"bad row interval ({s}, {e})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(
            self, "extra_precedences", frozenset(self.extra_precedences)
        )
        _index_range(self.size, "region size")  # the column walk visits every cell
        by_col: dict[int, list[int]] = {}
        for r, (s, e) in enumerate(rows, start=1):
            for c in range(s, e + 1):
                by_col.setdefault(c, []).append(r)
        for c, rs in by_col.items():
            if rs[-1] - rs[0] + 1 != len(rs):
                raise ShapeError(f"column {c} is not contiguous")
        for src, dst in self.extra_precedences:
            if src not in self or dst not in self:
                raise ShapeError(f"precedence {src} -> {dst} leaves the region")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Regions key the split caches in ``pivot``; the fields are frozen,
        # so the hash of the field tuple is taken once.
        return hash((self.rows, self.extra_precedences, self.kind))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @cached_property
    def size(self) -> int:
        return sum(e - s + 1 for s, e in self.rows)

    @cached_property
    def max_col(self) -> int:
        return max((e for _, e in self.rows), default=0)

    @cached_property
    def order(self) -> OrderTable:
        """The order table, built on first use and kept on the region."""
        index = {cell: i for i, cell in enumerate(self.cells())}
        pairs = [
            (i, index[nxt])
            for (r, c), i in index.items()
            for nxt in ((r, c + 1), (r + 1, c))
            if nxt in index
        ]
        pairs += [(index[a], index[b]) for a, b in self.extra_precedences]
        starts = accumulate((e - s + 1 for s, e in self.rows), initial=0)
        rows = tuple(
            (r, s, lo, lo + e - s + 1)
            for r, ((s, e), lo) in enumerate(zip(self.rows, starts), start=1)
        )
        return OrderTable(
            index,
            list(range(1, len(index) + 1)),
            rows,
            _gather([a for a, _ in pairs]),
            _gather([b for _, b in pairs]),
        )

    def cells(self) -> Iterator[Cell]:
        for r, (s, e) in enumerate(self.rows, start=1):
            for c in range(s, e + 1):
                yield (r, c)

    def __contains__(self, cell: Cell) -> bool:
        r, c = cell
        if not 1 <= r <= len(self.rows):
            return False
        s, e = self.rows[r - 1]
        return s <= c <= e


def _diagonal_precedences(rows: Sequence[Interval]) -> frozenset[Precedence]:
    # Pairs (i, i) -> (i+1, i+1) wherever both diagonal cells exist.  They
    # are redundant when row i reaches column i + 1 but are attached always
    # so shifted shapes stay correct when a row has length one.
    pairs = []
    for i in range(1, len(rows)):
        s1, e1 = rows[i - 1]
        s2, e2 = rows[i]
        if s1 <= i <= e1 and s2 <= i + 1 <= e2:
            pairs.append(((i, i), (i + 1, i + 1)))
    return frozenset(pairs)


def ordinary_region(lam: PartitionLike) -> CellRegion:
    """Left-justified diagram of a partition."""
    lam = coerce_partition(lam)
    return CellRegion(tuple((1, p) for p in lam.parts), frozenset(), "ordinary")


def shifted_region(lam: PartitionLike) -> CellRegion:
    """Shifted diagram of a strict partition: row i is indented i - 1 cells."""
    lam = coerce_strict(lam)
    rows = tuple((i, i + p - 1) for i, p in enumerate(lam.parts, start=1))
    return CellRegion(rows, _diagonal_precedences(rows), "shifted")


def truncated_staircase_region(m: int, kappa: PartitionLike = ()) -> CellRegion:
    """Shifted staircase of order ``m`` with ``kappa[i]`` cells cut from the
    right end of row ``i + 1``.

    Each truncation must leave at least one cell in its row, so ``kappa``
    must have fewer than ``m`` parts with ``kappa[i - 1] <= m - i``.
    """
    if m < 0:
        raise ShapeError(f"staircase order must be nonnegative: {m}")
    kappa = coerce_partition(kappa)
    if kappa.parts:
        if len(kappa.parts) >= m:
            raise InvalidTruncation(
                f"truncation {kappa} has too many rows for the staircase of order {m}"
            )
        for i, cut in enumerate(kappa.parts, start=1):
            if cut > m - i:
                raise InvalidTruncation(
                    f"truncation {kappa} would empty row {i} of the staircase of order {m}"
                )
    _index_range(m, "staircase order")  # a tuple of m rows
    rows = tuple((i, m - kappa.part(i)) for i in range(1, m + 1))
    return CellRegion(rows, _diagonal_precedences(rows), "truncated_staircase")


def truncated_rectangle_region(
    m: int, n: int, kappa: PartitionLike = ()
) -> CellRegion:
    """``m x n`` rectangle with ``kappa[i]`` cells cut from the right end of
    row ``i + 1``.  Rows truncated away entirely are dropped.
    """
    if m < 0 or n < 0:
        raise ShapeError(f"rectangle sides must be nonnegative: {m}x{n}")
    kappa = coerce_partition(kappa)
    if len(kappa.parts) > m or (kappa.parts and kappa.parts[0] > n):
        raise InvalidTruncation(f"truncation {kappa} does not fit inside {m}x{n}")
    _index_range(m, "rectangle side")  # a list of m rows
    lengths = [n - kappa.part(i) for i in range(1, m + 1)]
    while lengths and lengths[0] == 0:
        lengths.pop(0)
    rows = tuple((1, ln) for ln in lengths)
    return CellRegion(rows, frozenset(), "truncated_rectangle")


def _turned_rows(rows: Sequence[Interval], ncols: int) -> tuple[Interval, ...]:
    """Row intervals after a half-turn inside columns 1..``ncols``."""
    return tuple((ncols + 1 - e, ncols + 1 - s) for s, e in reversed(rows))


def _transposed_rows(rows: Sequence[Interval], ncols: int) -> tuple[Interval, ...] | None:
    """Row intervals of the transpose, or None when a column in 1..``ncols``
    is empty, since the transpose would have an empty row."""
    first, last = [0] * (ncols + 1), [0] * (ncols + 1)
    for r, (s, e) in enumerate(rows, start=1):
        last[s : e + 1] = [r] * (e - s + 1)
    for r, (s, e) in reversed(list(enumerate(rows, start=1))):
        first[s : e + 1] = [r] * (e - s + 1)
    return None if 0 in first[1:] else tuple(zip(first[1:], last[1:]))


def _oriented_pairs(
    pairs: Iterable[Precedence], nrows: int, ncols: int, transpose: bool = False, turn: bool = False
) -> Iterable[Precedence]:
    """The precedence pairs of a region in rows 1..``nrows`` and columns
    1..``ncols``, in the order given, after the transpose and then the
    half-turn inside the bounding box, each where asked for; the turn
    reverses each pair.  ``pairs`` itself when neither is asked for."""
    if transpose:
        pairs = [((sc, sr), (dc, dr)) for (sr, sc), (dr, dc) in pairs]
        nrows, ncols = ncols, nrows
    if turn:
        pairs = [((nrows + 1 - dr, ncols + 1 - dc), (nrows + 1 - sr, ncols + 1 - sc))
                 for (sr, sc), (dr, dc) in pairs]
    return pairs


def rotate180(region: CellRegion) -> CellRegion:
    """Half-turn of the region inside its bounding box.

    Precedence pairs reverse direction; counting is invariant under this
    because reversing the order and relabeling i -> N - i + 1 is a
    bijection on fillings.
    """
    nrows, ncols = region.num_rows, region.max_col
    pairs = _oriented_pairs(region.extra_precedences, nrows, ncols, turn=True)
    return CellRegion(_turned_rows(region.rows, ncols), pairs, "general")


@dataclass(frozen=True)
class ShapeDescriptor:
    """Parsed form of a shape descriptor string."""

    text: str
    family: str  # "part" | "shifted" | "stair" | "rect"
    lam: Partition | StrictPartition | None = None
    m: int = 0
    n: int = 0
    kappa: Partition = field(default_factory=Partition)

    @property
    def size(self) -> int:
        """Cell count read off the descriptor, for a valid one."""
        if self.lam is not None:
            return self.lam.size
        full = self.m * (self.m + 1) // 2 if self.family == "stair" else self.m * self.n
        return full - self.kappa.size

    def region(self) -> CellRegion:
        if self.family == "part":
            return ordinary_region(self.lam)
        if self.family == "shifted":
            return shifted_region(self.lam)
        if self.family == "stair":
            return truncated_staircase_region(self.m, self.kappa)
        return truncated_rectangle_region(self.m, self.n, self.kappa)


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InvalidSpec(f"expected comma-separated integers, got {text!r}") from None


def parse_descriptor(text: str) -> ShapeDescriptor:
    """Parse ``part:...``, ``shifted:...``, ``stair:m[/k,...]``, or
    ``rect:mxn[/k,...]``.
    """
    raw = text.strip()
    head, sep, rest = raw.partition(":")
    if not sep or not rest:
        raise InvalidSpec(f"bad shape descriptor {text!r}")
    if head == "part":
        return ShapeDescriptor(raw, "part", lam=Partition(_int_tuple(rest)))
    if head == "shifted":
        return ShapeDescriptor(raw, "shifted", lam=StrictPartition(_int_tuple(rest)))
    if head == "stair":
        body, _, ktxt = rest.partition("/")
        kappa = Partition(_int_tuple(ktxt)) if ktxt else Partition()
        try:
            m = int(body)
        except ValueError:
            raise InvalidSpec(f"bad staircase order in {text!r}") from None
        return ShapeDescriptor(raw, "stair", m=m, kappa=kappa)
    if head == "rect":
        body, _, ktxt = rest.partition("/")
        mtxt, x, ntxt = body.partition("x")
        if not x:
            raise InvalidSpec(f"rectangle descriptor needs mxn, got {text!r}")
        kappa = Partition(_int_tuple(ktxt)) if ktxt else Partition()
        try:
            m, n = int(mtxt), int(ntxt)
        except ValueError:
            raise InvalidSpec(f"bad rectangle sides in {text!r}") from None
        return ShapeDescriptor(raw, "rect", m=m, n=n, kappa=kappa)
    raise InvalidSpec(f"unknown shape family {head!r} in {text!r}")


def build_region(descriptor: str) -> CellRegion:
    """Build the cell region named by a shape descriptor string."""
    return parse_descriptor(descriptor).region()


@dataclass(frozen=True, init=False)
class Tableau:
    """A filling of a region, stored as one flat label tuple in the
    region's row-major order (``region.order``); ``rows`` is read off it.

    Rows may be given as any iterables; labels are kept as given.  A
    tableau is immutable.
    """

    region: CellRegion
    flat: tuple[int, ...]

    def __init__(self, region: CellRegion, rows: Iterable[Iterable[int]]) -> None:
        rows = tuple(map(tuple, rows))
        if [len(row) for row in rows] != [hi - lo for _, _, lo, hi in region.order.rows]:
            if len(rows) != region.num_rows:
                raise ShapeError("row count does not match the region")
            raise ShapeError("row length does not match the region")
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "flat", tuple(chain.from_iterable(rows)))

    @classmethod
    def _of(cls, region: CellRegion, flat: tuple[int, ...]) -> "Tableau":
        """The tableau of ``region`` whose row-major labels are ``flat``,
        taken as they are: the caller vouches for the length."""
        t = object.__new__(cls)
        fields = t.__dict__  # two item stores cost less than object.__setattr__
        fields["region"] = region
        fields["flat"] = flat
        return t

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple([self.flat[lo:hi] for _, _, lo, hi in self.region.order.rows])

    @property
    def size(self) -> int:
        return self.region.size

    def label_at(self, r: int, c: int) -> int:
        i = self.region.order.index.get((r, c))
        if i is None:
            raise ShapeError(f"{(r, c)} is not a cell of the region")
        return self.flat[i]
