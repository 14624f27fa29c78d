"""Ground-truth counting and enumeration of standard fillings of a region.

A standard filling places 1..N so labels grow along rows, down columns, and
across every explicit precedence pair.  The cells holding labels 1..k of a
partial filling form an order ideal of the cell poset, and the counter
stores each ideal as an int bitmask of cells.  It sweeps label by label
over a dictionary from reachable ideals to the number of ways of reaching
them, which stays small (it is the set of order ideals) even when the
number of fillings is astronomically large.
"""

from __future__ import annotations

from itertools import chain
from operator import lt
from typing import Iterator

from .shapes import CellRegion, Tableau


class LabelSetMismatch(ValueError):
    """Tableau labels are not exactly 1..N."""


def _preconditions(region: CellRegion):
    # needs[i][f]: requirements for filling the (f+1)-th cell of row i+1,
    # as (other_row_index, minimum_fill) pairs.  Left-neighbor order is
    # implicit in the prefix representation.
    rows = region.rows
    sources: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for src, dst in region.extra_precedences:
        sources.setdefault(dst, []).append(src)
    needs = []
    for i, (s, e) in enumerate(rows):
        per_fill = []
        for f in range(e - s + 1):
            c = s + f
            req = []
            if i > 0:
                s0, e0 = rows[i - 1]
                if s0 <= c <= e0:
                    req.append((i - 1, c - s0 + 1))
            for sr, sc in sorted(sources.get((i + 1, c), ())):
                req.append((sr - 1, sc - rows[sr - 1][0] + 1))
            per_fill.append(tuple(req))
        needs.append(tuple(per_fill))
    return tuple(needs)


def _cell_masks(region: CellRegion):
    # Cell (r, c) is bit (r - 1) * width + c; column 0 of every row is
    # padding, so a shift left by one never carries a row's last cell into
    # the next row's first.
    width = region.max_col + 1
    full = no_left = no_up = 0
    for i, (s, e) in enumerate(region.rows):
        up = region.rows[i - 1] if i else (0, -1)
        for c in range(s, e + 1):
            bit = 1 << (i * width + c)
            full |= bit
            if c == s:
                no_left |= bit
            if not up[0] <= c <= up[1]:
                no_up |= bit
    # Each cell with extra-precedence sources maps to the mask of them;
    # ``gated`` marks those cells.  A pair to the cell diagonally below-right
    # is dropped when a cell between the two is in the region, since the
    # row and column order then implies it.
    sources: dict[int, int] = {}
    gated = 0
    for (sr, sc), (dr, dc) in region.extra_precedences:
        src = 1 << ((sr - 1) * width + sc)
        bit = 1 << ((dr - 1) * width + dc)
        if bit != src << (width + 1) or not full & (src << 1 | src << width):
            sources[bit] = sources.get(bit, 0) | src
            gated |= bit
    return width, full, no_left, no_up, gated, tuple(sources.items())


def count_syt(region: CellRegion) -> int:
    """Number of standard fillings of ``region``. Exact.

    One step per order ideal of the cell poset plus one dictionary update
    per addable cell, whatever the orientation of the region.  An ideal
    ``S`` is a bitmask; its addable cells are those not in ``S`` whose left
    and upper neighbours (where the region has them) are in ``S``, minus
    any cell whose extra-precedence sources are not all in ``S``.
    """
    width, full, no_left, no_up, gated, sources = _cell_masks(region)
    states = {0: 1}
    for _ in range(region.size):
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, ways in states.items():
            addable = (
                (full ^ state)
                & ((state << 1) | no_left)
                & ((state << width) | no_up)
            )
            if addable & gated:
                for bit, need in sources:
                    if addable & bit and state & need != need:
                        addable ^= bit
            while addable:
                low = addable & -addable
                succ = state | low
                nxt[succ] = get(succ, 0) + ways
                addable ^= low
        states = nxt
    (total,) = states.values()
    return total


def count_syt_dfs(region: CellRegion) -> int:
    """Same count by plain depth-first search, with no profile sharing.

    Time grows with the number of fillings, so this is only usable for
    small regions; it exists as an independent cross-check of
    :func:`count_syt`.
    """
    nrows = region.num_rows
    if nrows == 0:
        return 1
    lens = tuple(e - s + 1 for s, e in region.rows)
    needs = _preconditions(region)
    fills = [0] * nrows
    total_cells = region.size

    def walk(depth: int) -> int:
        if depth == total_cells:
            return 1
        total = 0
        for i in range(nrows):
            f = fills[i]
            if f < lens[i] and all(fills[j] >= need for j, need in needs[i][f]):
                fills[i] += 1
                total += walk(depth + 1)
                fills[i] -= 1
        return total

    return walk(0)


def enumerate_syt(region: CellRegion, limit: int | None = None) -> Iterator[Tableau]:
    """Yield every standard filling of ``region``.

    Order: at each step the next label goes into the smallest eligible row
    index, backtracking exhaustively, so tableaux come out sorted by the
    sequence of row indices taken by labels 1..N.  ``limit`` stops early.
    """
    if limit is not None and limit <= 0:
        return
    nrows = region.num_rows
    if nrows == 0:
        yield Tableau(region, ())
        return
    lens = tuple(e - s + 1 for s, e in region.rows)
    needs = _preconditions(region)
    fills = [0] * nrows
    grid: list[list[int]] = [[] for _ in range(nrows)]
    total_cells = region.size

    def walk(depth: int) -> Iterator[Tableau]:
        if depth == total_cells:
            yield Tableau(region, tuple(tuple(row) for row in grid))
            return
        for i in range(nrows):
            f = fills[i]
            if f < lens[i] and all(fills[j] >= need for j, need in needs[i][f]):
                fills[i] += 1
                grid[i].append(depth + 1)
                yield from walk(depth + 1)
                fills[i] -= 1
                grid[i].pop()

    emitted = 0
    for t in walk(0):
        yield t
        emitted += 1
        if limit is not None and emitted >= limit:
            return


def is_valid_tableau(t: Tableau) -> bool:
    """Check a filling against every order constraint of its region.

    Raises :class:`LabelSetMismatch` when the labels are not exactly 1..N;
    returns False when the labels are right but some order is violated.
    The region's order table gathers, from the row-major labels, both
    sides of every covering pair (right neighbour, lower neighbour, extra
    precedence); the filling is standard when each pair increases.
    """
    order = t.region.order
    flat = list(chain.from_iterable(t.rows))
    if sorted(flat) != order.labels:
        raise LabelSetMismatch(f"labels are not 1..{len(flat)}")
    return all(map(lt, order.lower(flat), order.upper(flat)))
