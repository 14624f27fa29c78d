"""Ground-truth counting and enumeration of standard fillings of a region.

A standard filling places 1..N so labels grow along rows, down columns, and
across every explicit precedence pair.  The cells holding labels 1..k of a
partial filling form an order ideal of the cell poset, and the counter
stores each ideal as an int bitmask of cells.  It sweeps label by label
over a dictionary from reachable ideals to the number of ways of reaching
them, which stays small (it is the set of order ideals) even when the
number of fillings is astronomically large.

When one boundary row of the region is long and loosely tied to its
neighbour, the line kernel turns the region, by the orientation maps of
``shapes``, so that row comes last and sweeps only the ideals of the other
rows, each carrying one int packed with a count per filled prefix of the
last row.  Enumeration and the DFS
cross-check share one backtracking walker, independent of both sweeps.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial, inf, prod
from operator import lt
from typing import Iterator

from .shapes import CellRegion, Tableau, _oriented_pairs, _transposed_rows, _turned_rows


class LabelSetMismatch(ValueError):
    """Tableau labels are not exactly 1..N."""


def _preconditions(region: CellRegion):
    # needs[p]: requirements for filling the cell at row-major position p,
    # as (other_row_index, position) pairs: that row must be filled past
    # the position.  Left-neighbor order is implicit in the prefix
    # representation.
    index = region.order.index
    sources: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for src, dst in region.extra_precedences:
        sources.setdefault(dst, []).append(src)
    needs = []
    for r, c in index:
        before = sorted(sources.get((r, c), ()))
        if (r - 1, c) in index:
            before.insert(0, (r - 1, c))
        needs.append(tuple((sr - 1, index[sr, sc] + 1) for sr, sc in before))
    return tuple(needs)


def _cell_masks(rows, pairs):
    # Cell (r, c) is bit (r - 1) * width + c; column 0 of every row is
    # padding, so a shift left by one never carries a row's last cell into
    # the next row's first.
    width = max((e for _, e in rows), default=0) + 1
    full = no_left = no_up = row = 0
    for i, (s, e) in enumerate(rows):
        up, row = row << width, ((1 << (e - s + 1)) - 1) << (i * width + s)
        full |= row
        no_left |= row & -row
        no_up |= row & ~up
    # Each cell with extra-precedence sources maps to the mask of them;
    # ``gated`` marks those cells.  A pair to the cell diagonally below-right
    # is dropped when a cell between the two is in the region, since the
    # row and column order then implies it.
    sources: dict[int, int] = {}
    gated = 0
    for (sr, sc), (dr, dc) in pairs:
        src = 1 << ((sr - 1) * width + sc)
        bit = 1 << ((dr - 1) * width + dc)
        if bit != src << (width + 1) or not full & (src << 1 | src << width):
            sources[bit] = sources.get(bit, 0) | src
            gated |= bit
    return width, full, no_left, no_up, gated, tuple(sources.items())


# The line kernel runs once the region has at least this many order ideals
# per ideal of the region minus its last row, as ``_ideal_counts`` estimates
# them, and the last row holds two cells.  Timed on 341 random shapes, the
# kernel won on 191 of the 202 from this ratio on (README, "Counting").
_LINE_CROSSOVER = 1.75


def _ideal_counts(rows, limit) -> tuple[int, int] | None:
    """Order ideals of the rows above the last one, and of all the rows, or
    None once the first count reaches ``limit``.

    Extra precedences are ignored, so both are upper bounds.  An ideal
    fills a prefix of each row, and a row may hold ``x`` cells when the
    row above has filled every column the first ``x`` share with it.
    ``tail[k]`` counts the ideals of the rows so far whose last row holds
    at least ``k`` cells; each row gathers its ways from the row above's
    ``tail`` in three slices.  The first count never falls as rows are added.
    """
    tail = [1]
    ps = pe = 0  # the row above; column 0 is in no row
    for s, e in rows:
        size = e - s + 1
        above = tail[0]
        if above >= limit:
            return None
        if s > pe:  # the first row, or one that shares no column with it
            ways = [above] * (size + 1)
        else:
            # a fill of x needs s + x - ps cells of the row above, clamped
            # to 0..top: fills 1..loose need none, the fills after need
            # tail[lo:hi], and the rest need the whole row above
            top = pe - ps + 1
            shift = ps - s
            loose = min(max(shift, 0), size)
            lo = max(1 - shift, 1)
            hi = max(min(size - shift, top - 1) + 1, lo)
            ways = [above] * (1 + loose) + tail[lo:hi] + [tail[top]] * (size - loose - hi + lo)
        tail = list(accumulate(reversed(ways)))
        tail.reverse()
        ps, pe = s, e
    return above, tail[0]


def _line_region(region: CellRegion):
    """The rows and extra precedences of the orientation of ``region`` the
    line kernel should sweep, or None when the plain sweep should count it.

    Of the region as it is, turned, transposed, and transposed then turned,
    take the one whose rows above the last have the fewest order ideals;
    the kernel runs when the region has at least ``_LINE_CROSSOVER`` ideals
    per ideal of those rows, the orientation keeps two rows and two cells
    in its last one, and no extra precedence leaves its last row.  No
    region is built.
    """
    rows = region.rows
    if len(rows) < 2:
        return None
    ncols = region.max_col
    flipped = _transposed_rows(rows, ncols)
    options = [(rows, False, False), (_turned_rows(rows, ncols), False, True)]
    if flipped is not None:
        options += [(flipped, True, False),
                    (_turned_rows(flipped, len(rows)), True, True)]
    # the first of the fewest wins a tie, so a region stays as it is
    above = total = inf
    for option in options:
        counts = _ideal_counts(option[0], above)
        if counts:
            (above, total), (new_rows, transpose, turn) = counts, option
    s, e = new_rows[-1]
    if total < _LINE_CROSSOVER * above or len(new_rows) < 2 or s == e:
        return None
    pairs = _oriented_pairs(region.extra_precedences, len(rows), ncols, transpose, turn)
    if any(src[0] == len(new_rows) for src, _ in pairs):
        return None
    return new_rows, pairs


def count_syt(region: CellRegion) -> int:
    """Number of standard fillings of ``region``. Exact.

    Counts by the line kernel when ``_line_region`` picks an orientation
    for it, and by the plain sweep otherwise.
    """
    oriented = _line_region(region)
    return _sweep(region) if oriented is None else _line(*oriented)


def _sweep(region: CellRegion) -> int:
    """Number of standard fillings of ``region``, by the plain sweep.

    One step per order ideal of the cell poset plus one dictionary update
    per addable cell, whatever the orientation of the region.  An ideal
    ``S`` is a bitmask; its addable cells are those not in ``S`` whose left
    and upper neighbours (where the region has them) are in ``S``, minus
    any cell whose extra-precedence sources are not all in ``S``.
    """
    rows, pairs = region.rows, region.extra_precedences
    width, full, no_left, no_up, gated, sources = _cell_masks(rows, pairs)
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
    # no ideal is left when extra precedences leave no standard filling
    return sum(states.values())


def _line(rows, pairs) -> int:
    """Number of standard fillings of the region of ``rows`` with extra
    precedences ``pairs``, sweeping its last row as one packed vector.

    The sweep runs over the ideals ``y`` of the rows above the last one.
    Each carries one int of fixed-width fields; field ``x`` counts the
    fillings of ``y`` plus the first ``x`` cells of the last row, up to
    ``cap(y)``: the number of leading last-row cells whose upper neighbour
    and extra-precedence sources all lie in ``y``.  A vector is the running
    sum of the sum of its predecessors' vectors: one addition per merge and
    a few shifts per running sum.  A field counts the fillings of an order
    ideal, at most ``N! / prod(row length!)`` (the count with only the rows
    ordered), so no field carries into the next.  The region needs two rows
    and no extra precedence out of its last row.
    """
    width, full, no_left, no_up, gated, sources = _cell_masks(rows, pairs)
    s, e = rows[-1]
    length = e - s + 1
    lane = (1 << length) - 1
    line = (len(rows) - 1) * width  # bit of the last row's column 0
    upper = (1 << line) - 1
    body = full & upper
    base = line - width + s  # bit of the cell above the last row's first
    free = (no_up >> (line + s)) & lane  # last-row cells with no cell above
    # extra-precedence sources of last-row cells, as (bit in ``ready``, need)
    gates = tuple((bit >> (line + s), need) for bit, need in sources if bit > upper)
    sources = tuple((bit, need) for bit, need in sources if bit <= upper)
    gated &= upper
    rows_only = factorial(full.bit_count()) // prod(factorial(b - a + 1) for a, b in rows)
    field = rows_only.bit_length()
    # plan[2 ** cap]: the mask of fields 0..cap, and the shifts that take
    # the running sum over them
    plan = {
        1 << x: ((1 << field * (x + 1)) - 1, tuple(field << k for k in range(x.bit_length())))
        for x in range(length + 1)
    }
    states = {0: 1}
    for _ in range(body.bit_count()):
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, ways in states.items():
            # cap(state) is the number of trailing ones of ``ready``
            ready = ((state >> base) & lane) | free
            for bit, need in gates:
                if state & need != need:
                    ready &= ~bit
            keep, shifts = plan[(ready + 1) & ~ready]
            for shift in shifts:
                ways += ways << shift
            ways &= keep
            addable = (
                (body ^ state)
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
    # field x of the full upper rows' vector counts the fillings whose last
    # upper label follows x last-row cells, so the count is the field sum
    ways, mask = states.get(body, 0), plan[1][0]
    return sum(ways >> field * x & mask for x in range(length + 1))


def _fillings(region: CellRegion) -> Iterator[list[int]]:
    """Yield the labels of every standard filling of ``region``, as one flat
    list in the region's row-major order.

    At each step the next label goes into the smallest eligible row index,
    backtracking exhaustively with an explicit stack, so fillings come out
    sorted by the sequence of row indices taken by labels 1..N.  The list
    is the walker's own: it changes as soon as the next filling is asked
    for.
    """
    nrows = region.num_rows
    total = region.size
    flat = [0] * total
    if total == 0:
        yield flat
        return
    rows = region.order.rows
    stops = [hi for _, _, _, hi in rows]
    needs = _preconditions(region)
    fills = [lo for _, _, lo, _ in rows]  # the next position to fill in each row
    taken: list[int] = []  # the row of each label placed so far
    row = 0
    while True:
        if row < nrows:
            p = fills[row]
            if p < stops[row]:
                for j, need in needs[p]:
                    if fills[j] < need:
                        break
                else:
                    fills[row] = p + 1
                    taken.append(row)
                    flat[p] = len(taken)
                    if len(taken) < total:
                        row = 0
                        continue
                    yield flat
                    row = nrows  # a leaf: take its last label back
                    continue
            row += 1
        elif taken:
            # take the last label back and try the rows after its own
            row = taken.pop()
            fills[row] -= 1
            row += 1
        else:
            return


def count_syt_dfs(region: CellRegion) -> int:
    """Same count by plain depth-first search, with no profile sharing.

    Time grows with the number of fillings, so this is only usable for
    small regions; it exists as an independent cross-check of
    :func:`count_syt`.
    """
    return sum(1 for _ in _fillings(region))


def enumerate_syt(region: CellRegion, limit: int | None = None) -> Iterator[Tableau]:
    """Yield every standard filling of ``region``.

    Order: at each step the next label goes into the smallest eligible row
    index, backtracking exhaustively, so tableaux come out sorted by the
    sequence of row indices taken by labels 1..N.  ``limit`` stops early.
    """
    if limit is not None and limit <= 0:
        return
    for emitted, flat in enumerate(_fillings(region), start=1):
        yield Tableau._of(region, tuple(flat))
        if emitted == limit:
            return


def is_valid_tableau(t: Tableau) -> bool:
    """Check a filling against every order constraint of its region.

    Raises :class:`LabelSetMismatch` when the labels are not exactly 1..N;
    returns False when the labels are right but some order is violated.
    The region's order table gathers, from the tableau's row-major labels,
    both sides of every covering pair (right neighbour, lower neighbour,
    extra precedence); the filling is standard when each pair increases.
    """
    order, flat = t.region.order, t.flat
    if sorted(flat) != order.labels:
        raise LabelSetMismatch(f"labels are not 1..{len(flat)}")
    return all(map(lt, order.lower(flat), order.upper(flat)))
