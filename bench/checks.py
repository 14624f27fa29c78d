"""Answers computed apart from sytcount, used to check the benchmark's outputs.

Nothing here imports sytcount.  Counts come from the ordinary and shifted
hook-length formulas, from the paper's product formulas for the truncated
families, and from a corner-removal recursion over order ideals.  Every
product formula is held as lists of factorials and plain factors, so the
same object gives the exact value (``math.factorial`` and a checked
``divmod``) and a float estimate of its digit count (``math.lgamma``), which
the workload generators use to keep counts inside their size bands.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import sympy


class CheckFailed(AssertionError):
    """An output disagrees with the independent computation."""


@dataclass
class Product:
    """``prod(a!) * prod(x) / (prod(b!) * prod(y))``, expected to be whole."""

    num_facts: list[int] = field(default_factory=list)
    den_facts: list[int] = field(default_factory=list)
    num_ints: list[int] = field(default_factory=list)
    den_ints: list[int] = field(default_factory=list)

    def __mul__(self, other: "Product") -> "Product":
        return Product(
            self.num_facts + other.num_facts,
            self.den_facts + other.den_facts,
            self.num_ints + other.num_ints,
            self.den_ints + other.den_ints,
        )

    def value(self) -> int:
        num = math.prod(map(math.factorial, self.num_facts)) * math.prod(self.num_ints)
        den = math.prod(map(math.factorial, self.den_facts)) * math.prod(self.den_ints)
        q, r = divmod(num, den)
        if r:
            raise CheckFailed(f"product formula is not whole: {self}")
        return q

    def log10(self) -> float:
        ln = sum(math.lgamma(a + 1) for a in self.num_facts)
        ln -= sum(math.lgamma(b + 1) for b in self.den_facts)
        ln += sum(math.log(x) for x in self.num_ints)
        ln -= sum(math.log(y) for y in self.den_ints)
        return ln / math.log(10)


def superfactorial(k: int) -> list[int]:
    """Arguments of ``F_k = 0! 1! ... (k-1)!``."""
    return list(range(k))


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0])) if parts else ()


def hook_product(parts: tuple[int, ...]) -> Product:
    """Ordinary hook-length formula ``N! / prod(hooks)``."""
    conj = conjugate(parts)
    hooks = [
        (p - j) + (conj[j] - i) - 1 for i, p in enumerate(parts) for j in range(p)
    ]
    return Product([sum(parts)], [], [], hooks)


def shifted_hook_product(parts: tuple[int, ...]) -> Product:
    """Shifted hook-length formula for a strict partition.

    The shifted hook of cell ``(i, j)`` (0-based, ``i <= j``) is the cells to
    its right, the cells below it, and, when row ``j + 1`` exists, that whole
    row.
    """
    ell = len(parts)
    width = ell + parts[0] if parts else 0
    # rows holding column j are 0..col_len[j]-1, since r + parts[r] never grows
    col_len = [sum(1 for r in range(ell) if r <= j < r + parts[r]) for j in range(width)]
    hooks = []
    for i, p in enumerate(parts):
        for j in range(i, i + p):
            arm = i + p - 1 - j
            leg = col_len[j] - i - 1
            extra = parts[j + 1] if j + 1 < ell else 0
            hooks.append(arm + leg + 1 + extra)
    return Product([sum(parts)], [], [], hooks)


def staircase_theorem(mu: tuple[int, ...], m: int) -> Product:
    """Summation theorem for the staircase families:
    ``g(mu | m..1) g(mu) (M + 2u + 1)! u! / ((M + u)! (2u + 1)!)``.
    """
    big = m * (m + 1) // 2
    u = sum(mu)
    merged = tuple(sorted(mu + tuple(range(1, m + 1)), reverse=True))
    return (
        shifted_hook_product(merged)
        * shifted_hook_product(mu)
        * Product([big + 2 * u + 1, u], [big + u, 2 * u + 1])
    )


def stair_sq_plus1(m: int, k: int) -> Product:
    return staircase_theorem(tuple(range(m + k, m, -1)), m)


def stair_sq(m: int, k: int) -> Product:
    return staircase_theorem(tuple(range(m + k + 1, m + 2, -1)) + (m + 1,), m)


def stair_corner(m: int) -> Product:
    """Staircase of order m + 4 minus its corner cell."""
    top = (m + 3) * (m + 6) // 2
    return Product(
        [top] + list(range(m)),
        [4 * m + 9] + [2 * i + 1 for i in range(m)],
        [4, 2 * m + 3],
        [m + 3],
    )


def rect_sq_plus1(m: int, n: int, k: int) -> Product:
    top = m * n + (m + n) * k + 1
    return Product(
        [top, m * k, n * k] + superfactorial(m) + superfactorial(n) + superfactorial(k),
        [(m + n) * k + 1] + superfactorial(m + n + k),
    )


def rect_sq(m: int, n: int, k: int) -> Product:
    top = m * n + (m + n) * k + 2 * k - 1
    return Product(
        [top, m * k + k - 1, n * k + k - 1, m + n + 1]
        + superfactorial(m) + superfactorial(n) + superfactorial(k - 1),
        [(m + n) * k + 2 * k - 1] + superfactorial(m + n + k + 1),
        [k],
    )


def rect_corner(m: int, n: int) -> Product:
    """(m+2) x (n+2) rectangle minus one corner cell."""
    top = m * n + 2 * m + 2 * n + 3
    return Product(
        [top, 2 * m + 1, 2 * n + 1] + superfactorial(m) + superfactorial(n),
        [2 * m + 2 * n + 3] + superfactorial(m + n + 2),
        [2],
        [m + n + 2],
    )


def square_minus_two(n: int) -> Product:
    """The conjectured closed form for the n x n square minus (2)."""
    return Product(
        [n * n - 2, 3 * n - 4, 3 * n - 4] + 2 * superfactorial(n - 2),
        [6 * n - 8, 2 * n - 2, n - 2, n - 2] + superfactorial(2 * n - 4),
        [6],
    )


FAMILIES = {
    "stair-sq": stair_sq,
    "stair-sq+1": stair_sq_plus1,
    "stair-corner": stair_corner,
    "rect-sq": rect_sq,
    "rect-sq+1": rect_sq_plus1,
    "rect-corner": rect_corner,
    "square-minus-two": square_minus_two,
    "part": lambda *lam: hook_product(tuple(lam)),
    "shifted": lambda *lam: shifted_hook_product(tuple(lam)),
}


def expected(family: str, params) -> int:
    return FAMILIES[family](*params).value()


# --- exact counts by corner removal ----------------------------------------


def count_region(rows: list[tuple[int, int]], extra: list[tuple[tuple[int, int], tuple[int, int]]]) -> int:
    """Standard fillings of a region with one column interval per row.

    Counts by removing the largest label: the count of an order ideal is
    the sum over its maximal cells of the count without that cell.  States
    are per-row fill counts, as in any profile method, but the recursion
    runs from the full region down, opposite to the program's sweep.
    ``rows`` are 1-based inclusive column intervals; ``extra`` are
    ``(earlier, later)`` cell pairs beyond row and column order.
    """
    nrows = len(rows)
    later_of: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for src, dst in extra:
        later_of.setdefault(src, []).append(dst)

    def filled(fill: tuple[int, ...], r: int, c: int) -> bool:
        if not 1 <= r <= nrows:
            return False
        s, _ = rows[r - 1]
        return s <= c < s + fill[r - 1]

    memo: dict[tuple[int, ...], int] = {}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * sum(e - s + 1 for s, e in rows) + 100))

    def rec(fill: tuple[int, ...]) -> int:
        if not any(fill):
            return 1
        hit = memo.get(fill)
        if hit is not None:
            return hit
        total = 0
        for i in range(nrows):
            if not fill[i]:
                continue
            r, c = i + 1, rows[i][0] + fill[i] - 1
            if filled(fill, r + 1, c):
                continue
            if any(filled(fill, *dst) for dst in later_of.get((r, c), ())):
                continue
            total += rec(fill[:i] + (fill[i] - 1,) + fill[i + 1 :])
        memo[fill] = total
        return total

    try:
        return rec(tuple(e - s + 1 for s, e in rows))
    finally:
        sys.setrecursionlimit(limit)


def stair_rows(m: int, kappa: tuple[int, ...]):
    """Rows and diagonal order pairs of the order-m staircase minus kappa."""
    rows = [(i, m - (kappa[i - 1] if i <= len(kappa) else 0)) for i in range(1, m + 1)]
    diag = [((i, i), (i + 1, i + 1)) for i in range(1, m)]
    return rows, diag


def count_truncated_staircase(m: int, kappa: tuple[int, ...]) -> int:
    return count_region(*stair_rows(m, kappa))


# --- parsing and property checks on CLI output ------------------------------


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def parse_count(out: str) -> int:
    """The integer printed by ``sytcount count``, with or without the
    ``(N digits)`` suffix."""
    lines = out.split("\n")
    require(len(lines) == 2 and lines[1] == "", f"count output has extra lines: {out[:80]!r}")
    body = lines[0]
    value = int(body.split(" ", 1)[0])
    if " " in body:
        require(body.endswith(f" ({len(str(value))} digits)"), f"bad digit suffix: {body[-40:]!r}")
    return value


def check_smooth_factor(count: int, largest: int, cells: int) -> None:
    """``largest`` is prime, divides ``count``, and no larger prime does,
    and it is at most the number of cells (the families are N-smooth)."""
    require(sympy.isprime(largest) or (count == 1 and largest == 1), f"{largest} is not prime")
    require(largest <= cells, f"largest prime {largest} exceeds N={cells}")
    rest = count
    for p in sympy.primerange(2, largest + 1):
        while rest % p == 0:
            rest //= p
    require(rest == 1, f"count has a prime factor above {largest}")
    require(count == 1 or count % largest == 0, f"{largest} does not divide the count")


def check_factor_output(out: str, want: int, cells: int, smooth: bool) -> None:
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    value = int(fields["count"].split(" ", 1)[0])
    require(value == want, "factor: count differs from the independent value")
    pairs = []
    if fields["factorization"] != "1":
        for tok in fields["factorization"].split(" * "):
            p, _, e = tok.partition("^")
            pairs.append((int(p), int(e) if e else 1))
    require(math.prod(p**e for p, e in pairs) == value, "factor: factors do not multiply to the count")
    require(all(sympy.isprime(p) for p, _ in pairs), "factor: a factor is not prime")
    require([p for p, _ in pairs] == sorted({p for p, _ in pairs}), "factor: primes not increasing")
    largest = pairs[-1][0] if pairs else 1
    require(int(fields["largest_prime"]) == largest, "factor: wrong largest_prime")
    require(int(fields["N"]) == cells, "factor: wrong N")
    require(fields["N_smooth"] == ("yes" if largest <= cells else "no"), "factor: wrong N_smooth")
    if smooth:
        require(largest <= cells, f"factor: prime {largest} above N={cells} for a family shape")


def check_enumeration(out: str, rows: list[tuple[int, int]], want_count: int) -> None:
    """Every printed tableau fills ``rows`` (1-based column intervals) with
    1..N, grows along rows and down columns, and no tableau repeats; their
    number equals the hook-length count."""
    n = sum(e - s + 1 for s, e in rows)
    width = len(str(n))
    blocks = out.rstrip("\n").split("\n\n") if out.strip() else []
    require(len(blocks) == want_count, f"enumerate: {len(blocks)} tableaux, expected {want_count}")
    seen = set()
    for block in blocks:
        lines = block.split("\n")
        require(len(lines) == len(rows), "enumerate: wrong number of rows")
        where: dict[tuple[int, int], int] = {}
        grid = []
        for r, (line, (s, e)) in enumerate(zip(lines, rows), start=1):
            indent = " " * ((s - 1) * (width + 1))
            tokens = line[len(indent):].split()
            require(line == indent + " ".join(t.rjust(width) for t in tokens),
                    "enumerate: row not laid out by column")
            labels = [int(t) for t in tokens]
            grid.append(labels)
            require(len(labels) == e - s + 1, "enumerate: wrong row length")
            require(all(a < b for a, b in zip(labels, labels[1:])), "enumerate: row not increasing")
            for c, lbl in enumerate(labels, start=s):
                where[(r, c)] = lbl
        require(sorted(where.values()) == list(range(1, n + 1)), "enumerate: labels are not 1..N")
        for (r, c), lbl in where.items():
            below = where.get((r + 1, c))
            require(below is None or below > lbl, "enumerate: column not increasing")
        key = tuple(tuple(lbls) for lbls in grid)
        require(key not in seen, "enumerate: tableau repeated")
        seen.add(key)
