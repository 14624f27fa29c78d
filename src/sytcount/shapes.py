"""Partitions, strict partitions, and the cell regions built from them.

Cells are 1-based ``(row, column)`` pairs in English orientation: row 1 at
the top, columns growing to the right.  A :class:`CellRegion` records one
contiguous column interval per row plus a set of explicit precedence pairs
for order constraints that row/column adjacency alone does not capture
(the main diagonal of shifted shapes, where a row of length one would
otherwise disconnect consecutive diagonal cells).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations
from operator import itemgetter
from typing import Callable, Iterator, Sequence, Union

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
class Partition:
    """Weakly decreasing tuple of nonnegative integers; trailing zeros stripped.

    ``Partition((3, 1, 0))`` and ``Partition((3, 1))`` compare equal.  The
    empty partition is ``Partition()``.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ShapeError(f"parts must be weakly decreasing: {self.parts}")
        if parts and parts[-1] < 0:
            raise ShapeError(f"parts must be nonnegative: {self.parts}")
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
        if not self.parts:
            return Partition()
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= c)
                for c in range(1, self.parts[0] + 1)
            )
        )


@dataclass(frozen=True)
class StrictPartition:
    """Strictly decreasing tuple of positive integers."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(a <= b for a, b in zip(parts, parts[1:])):
            raise StrictnessViolation(
                f"parts must be strictly decreasing: {self.parts}"
            )
        if parts and parts[-1] < 0:
            raise ShapeError(f"parts must be positive: {self.parts}")
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

    def as_partition(self) -> Partition:
        return Partition(self.parts)


PartitionLike = Union[Partition, StrictPartition, Sequence[int]]


def coerce_partition(p: PartitionLike) -> Partition:
    if isinstance(p, Partition):
        return p
    if isinstance(p, StrictPartition):
        return p.as_partition()
    return Partition(tuple(p))


def coerce_strict(p: PartitionLike) -> StrictPartition:
    if isinstance(p, StrictPartition):
        return p
    if isinstance(p, Partition):
        return StrictPartition(p.parts)
    return StrictPartition(tuple(p))


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


def partition_sum(a: PartitionLike, b: PartitionLike) -> Partition:
    """Componentwise sum with zero padding."""
    return coerce_partition(a) + coerce_partition(b)


def conjugate(p: PartitionLike) -> Partition:
    return coerce_partition(p).conjugate()


def staircase(m: int) -> StrictPartition:
    """The strict partition ``(m, m-1, ..., 1)``."""
    if m < 0:
        raise ShapeError(f"staircase order must be nonnegative: {m}")
    return StrictPartition(tuple(range(m, 0, -1)))


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
    padded = {lam.part(i) + (m + 1 - i) for i in range(1, m + 1)}
    comp = sorted(set(range(1, m + n + 1)) - padded, reverse=True)
    return Partition(tuple(comp[j - 1] - (n + 1 - j) for j in range(1, n + 1)))


def partitions_in_box(m: int, n: int, size: int | None = None) -> Iterator[Partition]:
    """All partitions with at most ``m`` parts, each at most ``n``.

    Yields in depth-first order starting from the empty partition; pass
    ``size`` to keep only partitions of that many cells.  Subtrees that
    cannot reach ``size`` or already pass it are never entered.
    """

    def rec(
        max_part: int, rows_left: int, prefix: list[int], cells: int
    ) -> Iterator[Partition]:
        if size is None or cells == size:
            yield Partition(tuple(prefix))
        if rows_left == 0:
            return
        hi, lo = max_part, 1
        if size is not None:
            # the next part p leaves room for at most p * (rows_left - 1) more
            hi = min(max_part, size - cells)
            lo = max(1, -(-(size - cells) // rows_left))
        for nxt in range(hi, lo - 1, -1):
            prefix.append(nxt)
            yield from rec(nxt, rows_left - 1, prefix, cells + nxt)
            prefix.pop()

    yield from rec(n, m, [], 0)


def strict_partitions_in_staircase(
    m: int, size: int | None = None
) -> Iterator[StrictPartition]:
    """All strict partitions whose parts lie in ``{1..m}``.

    Yields by number of parts, then in lexicographically decreasing order;
    pass ``size`` to keep only partitions of that many cells.  Prefixes
    that cannot reach ``size`` or already pass it are never extended.
    """
    if size is None:
        for k in range(m + 1):
            for combo in combinations(range(m, 0, -1), k):
                yield StrictPartition(combo)
        return

    def rec(k: int, max_part: int, rest: int, prefix: list[int]):
        # k distinct parts led by `part` sum to at most part*k - k(k-1)/2,
        # and the k - 1 parts after it to at least (k-1)k/2
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

    A filling is listed row by row as one flat label sequence; ``rows``
    holds each row as (row, first column, start, stop) of its slice.
    ``lower`` and ``upper`` gather from the sequence the two sides of every
    covering pair (right neighbour, lower neighbour, extra precedence), so
    a filling keeps the order exactly when each gathered lower label is
    below the upper one.  ``reflect`` gathers the labels column by column,
    right to left and each column bottom-up, which is row-major order after
    a reflection across the anti-diagonal; ``columns`` holds each column as
    (column, bottom row, start, stop) of its slice of the gathered labels.
    """

    index: dict[Cell, int]
    lengths: tuple[int, ...]
    labels: list[int]  # 1..N, what a standard filling's sorted labels equal
    rows: tuple[tuple[int, int, int, int], ...]
    lower: Gather
    upper: Gather
    reflect: Gather
    columns: tuple[tuple[int, int, int, int], ...]


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
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (r, c), i in index.items():
            by_col.setdefault(c, []).append((r, i))
        columns = sorted(by_col.items(), reverse=True)
        lengths = tuple(e - s + 1 for s, e in self.rows)
        row_starts = accumulate(lengths, initial=0)
        col_starts = accumulate((len(col) for _, col in columns), initial=0)
        return OrderTable(
            index,
            lengths,
            list(range(1, len(index) + 1)),
            tuple(
                (r, s, lo, lo + n)
                for r, ((s, _), n, lo) in enumerate(
                    zip(self.rows, lengths, row_starts), start=1
                )
            ),
            _gather([a for a, _ in pairs]),
            _gather([b for _, b in pairs]),
            _gather([i for _, col in columns for _, i in reversed(col)]),
            tuple(
                (c, col[-1][0], lo, lo + len(col))
                for (c, col), lo in zip(columns, col_starts)
            ),
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
    lengths = [n - kappa.part(i) for i in range(1, m + 1)]
    while lengths and lengths[0] == 0:
        lengths.pop(0)
    rows = tuple((1, ln) for ln in lengths)
    return CellRegion(rows, frozenset(), "truncated_rectangle")


def rotate180(region: CellRegion) -> CellRegion:
    """Half-turn of the region inside its bounding box.

    Precedence pairs reverse direction; counting is invariant under this
    because reversing the order and relabeling i -> N - i + 1 is a
    bijection on fillings.
    """
    nrows, ncols = region.num_rows, region.max_col
    rows = tuple(
        (ncols + 1 - e, ncols + 1 - s) for s, e in reversed(region.rows)
    )

    def flip(cell: Cell) -> Cell:
        return (nrows + 1 - cell[0], ncols + 1 - cell[1])

    extra = frozenset(
        (flip(dst), flip(src)) for src, dst in region.extra_precedences
    )
    return CellRegion(rows, extra, "general")


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


@dataclass(frozen=True)
class Tableau:
    """A filling of a region, stored as one label tuple per region row.

    Rows may be given as any iterables; they are stored as tuples, and
    labels as given.
    """

    region: CellRegion
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        if tuple(map(len, rows)) != self.region.order.lengths:
            if len(rows) != self.region.num_rows:
                raise ShapeError("row count does not match the region")
            raise ShapeError("row length does not match the region")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.region.size

    def label_at(self, r: int, c: int) -> int:
        s, _ = self.region.rows[r - 1]
        return self.rows[r - 1][c - s]

    def labels(self) -> Iterator[tuple[Cell, int]]:
        for r, ((s, _), row) in enumerate(
            zip(self.region.rows, self.rows), start=1
        ):
            for j, lbl in enumerate(row):
                yield (r, s + j), lbl
