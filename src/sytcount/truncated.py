"""Closed-form tableau counts for truncated staircases and rectangles.

The shapes handled here cut a square (or a square minus its southwest
corner cell) from the northeast corner of a shifted staircase or a
rectangle.  Their counts come from summation identities over complementary
partition pairs; the two degenerate one-row truncations also have fully
factored specializations, kept as independent implementations so the
redundant routes can be tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Callable

from .arith import FactoredRatio, _index_range, factorial_ratio
from .formulas import (
    _rect_prefix,
    _stair_prefix,
    frobenius_young_ratio,
    rect_pair_terms,
    rectangle_ratio,
    schur_ratio,
    stair_pair_terms,
)
from .shapes import (
    Cell,
    CellRegion,
    Partition,
    PartitionLike,
    ShapeDescriptor,
    StrictPartition,
    staircase,
    union,
)


def theorem_staircase_sum_ratio(mu: PartitionLike, m: int) -> FactoredRatio:
    """Closed form for ``sum over lam in the order-m staircase of
    g(mu | lam) * g(mu | lam_c)``, for strict ``mu`` with parts above ``m``.

    ``g(mu | m..1) * g(mu) * (M + 2u + 1)! u! / ((M + u)! (2u + 1)!)``
    with ``M = m(m+1)/2`` and ``u = |mu|``.
    """
    mu = _stair_prefix(mu, m)
    big = m * (m + 1) // 2
    u = mu.size
    return (
        schur_ratio(union(mu, staircase(m)))
        * schur_ratio(mu)
        * factorial_ratio([big + 2 * u + 1, u], [big + u, 2 * u + 1])
    )


def theorem_staircase_sum(mu: PartitionLike, m: int) -> int:
    return theorem_staircase_sum_ratio(mu, m).to_integer()


def theorem_staircase_sum_direct(mu: PartitionLike, m: int) -> int:
    """The same sum assembled term by term; exponential in ``m``."""
    mu = _stair_prefix(mu, m)
    return sum(term[-1] for term in stair_pair_terms(mu, m))


def theorem_rect_sum_ratio(mu: PartitionLike, k: int, m: int, n: int) -> FactoredRatio:
    """Closed form for ``sum over lam in the m x n box of
    f((mu + n^k) | lam) * f((mu + m^k) | lam_c)``.

    ``f(mu + (m+n)^k) * f(mu) * f(n^m) * C(mn + 2u + mk + nk + 1, mn)
    * (u + mk)! (u + nk)! / ((u + mk + nk)! u!)`` with ``u = |mu|``.
    """
    mu = _rect_prefix(mu, k)
    u = mu.size
    top = m * n + 2 * u + (m + n) * k + 1
    return (
        frobenius_young_ratio(mu + Partition((m + n,) * k))
        * frobenius_young_ratio(mu)
        * rectangle_ratio(m, n)
        * factorial_ratio(
            [top, u + m * k, u + n * k],
            [m * n, top - m * n, u + (m + n) * k, u],
        )
    )


def theorem_rect_sum(mu: PartitionLike, k: int, m: int, n: int) -> int:
    return theorem_rect_sum_ratio(mu, k, m, n).to_integer()


def theorem_rect_sum_direct(mu: PartitionLike, k: int, m: int, n: int) -> int:
    """The same sum assembled term by term."""
    mu = _rect_prefix(mu, k)
    return sum(term[-1] for term in rect_pair_terms(mu, k, m, n))


# --- the truncated families ---------------------------------------------
#
# Family "sq+1": cut a k x k square but put back its southwest corner cell,
# so the truncation partition is (k^{k-1}, k-1).  Family "sq": cut a
# (k-1) x (k-1) square, truncation ((k-1)^{k-1}).  Each family has a
# staircase and a rectangle variant.  FAMILIES, at the end, is the one
# table of these families that the CLI and the pivot verifies read: each
# entry gives the least value of each parameter and a member's descriptor,
# and its range check, region and descriptor matching derive from them.


def stair_plus1_mu(m: int, k: int) -> StrictPartition:
    """Prefix partition (m+k, ..., m+1) attached in the sq+1 staircase family."""
    _index_range(k, "k")  # a tuple of k parts
    return StrictPartition(tuple(range(m + k, m, -1)))


def stair_sq_mu(m: int, k: int) -> StrictPartition:
    """Prefix partition (m+k+1, ..., m+3, m+1) for the sq staircase family."""
    _index_range(k, "k")  # a tuple of k parts
    return StrictPartition(tuple(range(m + k + 1, m + 2, -1)) + (m + 1,))


def _plus1_kappa(k: int) -> tuple[int, ...]:
    return (k,) * (k - 1) + (k - 1,) if k > 1 else ()


def _sq_kappa(k: int) -> tuple[int, ...]:
    return (k - 1,) * (k - 1)


def stair_minus_square_plus1_region(m: int, k: int) -> CellRegion:
    """Staircase of order m + 2k minus a k x k corner square plus one cell."""
    return FAMILIES["stair-sq+1"].region(m, k)


def stair_minus_square_region(m: int, k: int) -> CellRegion:
    """Staircase of order m + 2k minus a (k-1) x (k-1) corner square."""
    return FAMILIES["stair-sq"].region(m, k)


def rect_minus_square_plus1_region(m: int, n: int, k: int) -> CellRegion:
    """(m+k) x (n+k) rectangle minus a k x k corner square plus one cell."""
    return FAMILIES["rect-sq+1"].region(m, n, k)


def rect_minus_square_region(m: int, n: int, k: int) -> CellRegion:
    """(m+k) x (n+k) rectangle minus a (k-1) x (k-1) corner square."""
    return FAMILIES["rect-sq"].region(m, n, k)


def square_minus_two_region(n: int) -> CellRegion:
    """n x n square minus two cells at the end of the first row."""
    return FAMILIES["square-minus-two"].region(n)


def stair_minus_square_plus1_ratio(m: int, k: int) -> FactoredRatio:
    """Tableaux of the staircase sq+1 family, via the summation theorem
    applied to the prefix (m+k, ..., m+1).
    """
    FAMILIES["stair-sq+1"].check(m, k)
    mu = stair_plus1_mu(m, k)
    assert mu.size == k * (2 * m + k + 1) // 2
    return theorem_staircase_sum_ratio(mu, m)


def count_stair_minus_square_plus1(m: int, k: int) -> int:
    return stair_minus_square_plus1_ratio(m, k).to_integer()


def stair_minus_square_ratio(m: int, k: int) -> FactoredRatio:
    """Tableaux of the staircase sq family, via the summation theorem
    applied to the prefix (m+k+1, ..., m+3, m+1).
    """
    FAMILIES["stair-sq"].check(m, k)
    mu = stair_sq_mu(m, k)
    assert mu.size == k * (2 * m + k + 3) // 2 - 1
    return theorem_staircase_sum_ratio(mu, m)


def count_stair_minus_square(m: int, k: int) -> int:
    return stair_minus_square_ratio(m, k).to_integer()


def stair_minus_corner_ratio(m: int) -> FactoredRatio:
    """Staircase of order m + 4 minus one corner cell, fully factored.

    ``N! * 4(2m+3) / ((4m+9)! (m+3)) * prod_{i<m} i!/(2i+1)!`` with
    ``N = (m+3)(m+6)/2``.  Must agree with the sq family at k = 2.
    """
    FAMILIES["stair-corner"].check(m)
    top = (m + 3) * (m + 6) // 2
    return factorial_ratio(
        [top, *_index_range(m, "m")], [4 * m + 9] + [2 * i + 1 for i in range(m)]
    ).times(4, 2 * m + 3).over(m + 3)


def count_stair_minus_corner(m: int) -> int:
    return stair_minus_corner_ratio(m).to_integer()


def stair_minus_substaircase2_ratio(m: int) -> FactoredRatio:
    """Staircase of order m + 4 minus the substaircase (2, 1), factored.

    ``N! * 2 / ((4m+7)! (m+2)) * prod_{i<m} i!/(2i+1)!`` with
    ``N = (m+2)(m+7)/2``.  Must agree with the sq+1 family at k = 2.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    top = (m + 2) * (m + 7) // 2
    return factorial_ratio(
        [top, *_index_range(m, "m")], [4 * m + 7] + [2 * i + 1 for i in range(m)]
    ).times(2).over(m + 2)


def count_stair_minus_substaircase2(m: int) -> int:
    return stair_minus_substaircase2_ratio(m).to_integer()


def rect_minus_square_plus1_ratio(m: int, n: int, k: int) -> FactoredRatio:
    """Tableaux of the rectangle sq+1 family, fully factored.

    ``N! (mk)! (nk)! / ((mk+nk+1)!) * F_m F_n F_k / F_{m+n+k}`` with
    ``N = mn + mk + nk + 1``.
    """
    FAMILIES["rect-sq+1"].check(m, n, k)
    top = m * n + (m + n) * k + 1
    return factorial_ratio(
        [top, m * k, n * k, *_index_range(m, "m"), *_index_range(n, "n"), *_index_range(k, "k")],
        [(m + n) * k + 1] + list(range(m + n + k)),
    )


def count_rect_minus_square_plus1(m: int, n: int, k: int) -> int:
    return rect_minus_square_plus1_ratio(m, n, k).to_integer()


def rect_minus_square_ratio(m: int, n: int, k: int) -> FactoredRatio:
    """Tableaux of the rectangle sq family, fully factored.

    ``N! (mk+k-1)! (nk+k-1)! (m+n+1)! k / ((mk+nk+2k-1)!)
    * F_m F_n F_{k-1} / F_{m+n+k+1}`` with ``N = mn + mk + nk + 2k - 1``.
    """
    FAMILIES["rect-sq"].check(m, n, k)
    top = m * n + (m + n) * k + 2 * k - 1
    return factorial_ratio(
        [top, m * k + k - 1, n * k + k - 1, m + n + 1,
         *_index_range(m, "m"), *_index_range(n, "n"), *_index_range(k - 1, "k - 1")],
        [(m + n) * k + 2 * k - 1] + list(range(m + n + k + 1)),
    ).times(k)


def count_rect_minus_square(m: int, n: int, k: int) -> int:
    return rect_minus_square_ratio(m, n, k).to_integer()


def rect_minus_corner_ratio(m: int, n: int) -> FactoredRatio:
    """(m+2) x (n+2) rectangle minus one corner cell, fully factored.

    ``N! (2m+1)! (2n+1)! * 2 / ((2m+2n+3)! (m+n+2)) * F_m F_n / F_{m+n+2}``
    with ``N = mn + 2m + 2n + 3``.  Must agree with the rectangle sq
    family at k = 2.
    """
    FAMILIES["rect-corner"].check(m, n)
    top = m * n + 2 * m + 2 * n + 3
    return factorial_ratio(
        [top, 2 * m + 1, 2 * n + 1, *_index_range(m, "m"), *_index_range(n, "n")],
        [2 * m + 2 * n + 3] + list(range(m + n + 2)),
    ).times(2).over(m + n + 2)


def count_rect_minus_corner(m: int, n: int) -> int:
    return rect_minus_corner_ratio(m, n).to_integer()


def conjecture_square_minus_two_ratio(n: int) -> FactoredRatio:
    """CONJECTURE: n x n square minus two corner cells in the first row.

    ``(n^2-2)! ((3n-4)!)^2 * 6 / ((6n-8)! (2n-2)! ((n-2)!)^2)
    * (F_{n-2})^2 / F_{2n-4}``.

    This closed form is conjectural, not proved; it matches brute-force
    counts for every n checked here (and is reported as CONJECTURE by the
    command-line tools).
    """
    FAMILIES["square-minus-two"].check(n)
    return factorial_ratio(
        [n * n - 2, 3 * n - 4, 3 * n - 4] + 2 * [*_index_range(n - 2, "n - 2")],
        [6 * n - 8, 2 * n - 2, n - 2, n - 2] + list(range(2 * n - 4)),
    ).times(6)


def conjecture_square_minus_two(n: int) -> int:
    return conjecture_square_minus_two_ratio(n).to_integer()


_LEAST_WORDS = {0: "nonnegative", 1: "positive"}


@dataclass(frozen=True)
class Family:
    """One closed-form family, truncating a ``stair`` or ``rect`` geometry.

    A member is named by the parameters in ``params``, each at least its
    value in ``least``; ``shape`` maps them to the sides and truncation of
    the member's descriptor, and ``ratio`` counts its tableaux.  ``check``,
    ``cells``, ``region`` and ``match`` are derived from these.
    ``propose(desc)`` reads the parameters a descriptor would have as a
    member, which ``match`` takes only when ``shape`` gives that descriptor
    back; a family without it leaves its members to another.  The square
    families also give the prefix ``mu`` of their summation theorem (None
    where another family owns it) and the ``pivot`` cell.
    """

    name: str
    params: tuple[str, ...]
    least: tuple[int, ...]
    geometry: str
    shape: Callable[..., tuple[tuple[int, ...], tuple[int, ...]]]
    ratio: Callable[..., FactoredRatio]
    propose: Callable[[ShapeDescriptor], tuple[int, ...]] | None = None
    mu: Callable[..., Partition | StrictPartition | None] | None = None
    pivot: Callable[..., Cell] | None = None
    conjectural: bool = False

    def check(self, *values: int) -> None:
        """Raise ValueError for the first parameter below its least value."""
        for name, value, least in zip(self.params, values, self.least):
            if value < least:
                word = _LEAST_WORDS.get(least, f"at least {least}")
                raise ValueError(f"{name} must be {word}, got {value}")

    def _member(self, *values: int) -> ShapeDescriptor:
        """The descriptor of the member, built from ``shape`` unchecked."""
        sides, kappa = self.shape(*values)
        return ShapeDescriptor("", self.geometry, None, *sides, kappa=Partition(kappa))

    def region(self, *values: int) -> CellRegion:
        self.check(*values)
        return self._member(*values).region()

    def cells(self, *values: int) -> int:
        """Cells of the member, read off ``shape`` without building its
        region; the range is not checked."""
        return self._member(*values).size

    def match(self, desc: ShapeDescriptor) -> tuple[int, ...] | None:
        """The parameters of the member that ``desc`` names, or None."""
        if self.propose is None or desc.family != self.geometry:
            return None
        values = self.propose(desc)
        sides = (desc.m,) if self.geometry == "stair" else (desc.m, desc.n)
        if all(map(ge, values, self.least)) and self.shape(*values) == (sides, desc.kappa.parts):
            return values
        return None


# The sq prefixes need k >= 2: at k = 1 they equal the sq+1 prefixes.
# At n = 0 the rect-sq+1 cut spans the full width, so the region loses its
# top k - 1 rows and the pivot moves to row 1.  The corner families are the
# sq families at k = 2, which count their descriptors.
FAMILIES: dict[str, Family] = {family.name: family for family in (
    Family(
        "stair-sq", ("m", "k"), (0, 2), "stair",
        lambda m, k: ((m + 2 * k,), _sq_kappa(k)), stair_minus_square_ratio,
        propose=lambda d: (d.m - 2 * len(d.kappa) - 2, len(d.kappa) + 1),
        mu=lambda m, k: stair_sq_mu(m, k) if k >= 2 else None,
        pivot=lambda m, k: (k, m + k + 1),
    ),
    Family(
        "stair-sq+1", ("m", "k"), (0, 1), "stair",
        lambda m, k: ((m + 2 * k,), _plus1_kappa(k)), stair_minus_square_plus1_ratio,
        propose=lambda d: (d.m - 2 * len(d.kappa), len(d.kappa)),
        mu=stair_plus1_mu,
        pivot=lambda m, k: (k, m + k + 1),
    ),
    Family(
        "rect-sq", ("m", "n", "k"), (0, 0, 2), "rect",
        lambda m, n, k: ((m + k, n + k), _sq_kappa(k)), rect_minus_square_ratio,
        propose=lambda d: (d.m - len(d.kappa) - 1, d.n - len(d.kappa) - 1, len(d.kappa) + 1),
        mu=lambda m, n, k: Partition((1,) * (k - 1)) if k >= 2 else None,
        pivot=lambda m, n, k: (k, n + 1),
    ),
    Family(
        "rect-sq+1", ("m", "n", "k"), (0, 0, 1), "rect",
        lambda m, n, k: ((m + k, n + k), _plus1_kappa(k)), rect_minus_square_plus1_ratio,
        propose=lambda d: (d.m - len(d.kappa), d.n - len(d.kappa), len(d.kappa)),
        mu=lambda m, n, k: Partition(),
        pivot=lambda m, n, k: (k if n else 1, n + 1),
    ),
    Family(
        "stair-corner", ("m",), (0,), "stair",
        lambda m: ((m + 4,), (1,)), stair_minus_corner_ratio,
    ),
    Family(
        "rect-corner", ("m", "n"), (0, 0), "rect",
        lambda m, n: ((m + 2, n + 2), (1,)), rect_minus_corner_ratio,
    ),
    Family(
        "square-minus-two", ("n",), (2,), "rect",
        lambda n: ((n, n), (2,)), conjecture_square_minus_two_ratio,
        propose=lambda d: (d.n,),
        conjectural=True,
    ),
)}
