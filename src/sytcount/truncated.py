"""Closed-form tableau counts for truncated staircases and rectangles.

The shapes handled here cut a square (or a square minus its southwest
corner cell) from the northeast corner of a shifted staircase or a
rectangle.  Their counts come from summation identities over complementary
partition pairs; the two degenerate one-row truncations also have fully
factored specializations, kept as independent implementations so the
redundant routes can be tested against each other.
"""

from __future__ import annotations

from .arith import FactoredRatio, factorial_ratio
from .formulas import (
    PartTooSmall,
    frobenius_young,
    frobenius_young_ratio,
    rectangle_ratio,
    schur_count,
    schur_ratio,
)
from .shapes import (
    CellRegion,
    Partition,
    PartitionLike,
    StrictPartition,
    coerce_partition,
    coerce_strict,
    complement_in_rectangle,
    complement_in_staircase,
    partitions_in_box,
    staircase,
    strict_partitions_in_staircase,
    truncated_rectangle_region,
    truncated_staircase_region,
    union,
)


def theorem_staircase_sum_ratio(mu: PartitionLike, m: int) -> FactoredRatio:
    """Closed form for ``sum over lam in the order-m staircase of
    g(mu | lam) * g(mu | lam_c)``, for strict ``mu`` with parts above ``m``.

    ``g(mu | m..1) * g(mu) * (M + 2u + 1)! u! / ((M + u)! (2u + 1)!)``
    with ``M = m(m+1)/2`` and ``u = |mu|``.
    """
    mu = coerce_strict(mu)
    if mu.parts and mu.parts[-1] <= m:
        raise PartTooSmall(f"every part of {mu} must exceed {m}")
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
    mu = coerce_strict(mu)
    if mu.parts and mu.parts[-1] <= m:
        raise PartTooSmall(f"every part of {mu} must exceed {m}")
    total = 0
    for lam in strict_partitions_in_staircase(m):
        lam_c = complement_in_staircase(lam, m)
        total += schur_count(union(mu, lam)) * schur_count(union(mu, lam_c))
    return total


def theorem_rect_sum_ratio(mu: PartitionLike, k: int, m: int, n: int) -> FactoredRatio:
    """Closed form for ``sum over lam in the m x n box of
    f((mu + n^k) | lam) * f((mu + m^k) | lam_c)``.

    ``f(mu + (m+n)^k) * f(mu) * f(n^m) * C(mn + 2u + mk + nk + 1, mn)
    * (u + mk)! (u + nk)! / ((u + mk + nk)! u!)`` with ``u = |mu|``.
    """
    mu = coerce_partition(mu)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(mu.parts) > k:
        raise ValueError(f"{mu} has more than {k} parts")
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
    mu = coerce_partition(mu)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(mu.parts) > k:
        raise ValueError(f"{mu} has more than {k} parts")
    alpha = mu + Partition((n,) * k)
    beta = mu + Partition((m,) * k)
    total = 0
    for lam in partitions_in_box(m, n):
        lam_c = complement_in_rectangle(lam, m, n)
        total += frobenius_young(union(alpha, lam)) * frobenius_young(
            union(beta, lam_c)
        )
    return total


# --- the truncated families ---------------------------------------------
#
# Family "sq+1": cut a k x k square but put back its southwest corner cell,
# so the truncation partition is (k^{k-1}, k-1).  Family "sq": cut a
# (k-1) x (k-1) square, truncation ((k-1)^{k-1}).  Each family has a
# staircase and a rectangle variant.


def stair_plus1_mu(m: int, k: int) -> StrictPartition:
    """Prefix partition (m+k, ..., m+1) attached in the sq+1 staircase family."""
    return StrictPartition(tuple(range(m + k, m, -1)))


def stair_sq_mu(m: int, k: int) -> StrictPartition:
    """Prefix partition (m+k+1, ..., m+3, m+1) for the sq staircase family."""
    return StrictPartition(tuple(range(m + k + 1, m + 2, -1)) + (m + 1,))


def _plus1_kappa(k: int) -> Partition:
    return Partition((k,) * (k - 1) + (k - 1,))


def _sq_kappa(k: int) -> Partition:
    return Partition((k - 1,) * (k - 1))


def stair_minus_square_plus1_region(m: int, k: int) -> CellRegion:
    """Staircase of order m + 2k minus a k x k corner square plus one cell."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return truncated_staircase_region(m + 2 * k, _plus1_kappa(k))


def stair_minus_square_region(m: int, k: int) -> CellRegion:
    """Staircase of order m + 2k minus a (k-1) x (k-1) corner square."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return truncated_staircase_region(m + 2 * k, _sq_kappa(k))


def rect_minus_square_plus1_region(m: int, n: int, k: int) -> CellRegion:
    """(m+k) x (n+k) rectangle minus a k x k corner square plus one cell."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return truncated_rectangle_region(m + k, n + k, _plus1_kappa(k))


def rect_minus_square_region(m: int, n: int, k: int) -> CellRegion:
    """(m+k) x (n+k) rectangle minus a (k-1) x (k-1) corner square."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return truncated_rectangle_region(m + k, n + k, _sq_kappa(k))


def square_minus_two_region(n: int) -> CellRegion:
    """n x n square minus two cells at the end of the first row."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return truncated_rectangle_region(n, n, Partition((2,)))


def stair_minus_square_plus1_ratio(m: int, k: int) -> FactoredRatio:
    """Tableaux of the staircase sq+1 family, via the summation theorem
    applied to the prefix (m+k, ..., m+1).
    """
    if m < 0 or k < 1:
        raise ValueError(f"need m >= 0 and k >= 1, got m={m}, k={k}")
    mu = stair_plus1_mu(m, k)
    assert mu.size == k * (2 * m + k + 1) // 2
    return theorem_staircase_sum_ratio(mu, m)


def count_stair_minus_square_plus1(m: int, k: int) -> int:
    return stair_minus_square_plus1_ratio(m, k).to_integer()


def stair_minus_square_ratio(m: int, k: int) -> FactoredRatio:
    """Tableaux of the staircase sq family, via the summation theorem
    applied to the prefix (m+k+1, ..., m+3, m+1).
    """
    if m < 0 or k < 2:
        raise ValueError(f"need m >= 0 and k >= 2, got m={m}, k={k}")
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
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    top = (m + 3) * (m + 6) // 2
    return factorial_ratio(
        [top] + list(range(m)), [4 * m + 9] + [2 * i + 1 for i in range(m)]
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
        [top] + list(range(m)), [4 * m + 7] + [2 * i + 1 for i in range(m)]
    ).times(2).over(m + 2)


def count_stair_minus_substaircase2(m: int) -> int:
    return stair_minus_substaircase2_ratio(m).to_integer()


def rect_minus_square_plus1_ratio(m: int, n: int, k: int) -> FactoredRatio:
    """Tableaux of the rectangle sq+1 family, fully factored.

    ``N! (mk)! (nk)! / ((mk+nk+1)!) * F_m F_n F_k / F_{m+n+k}`` with
    ``N = mn + mk + nk + 1``.
    """
    if m < 0 or n < 0 or k < 1:
        raise ValueError(f"need m, n >= 0 and k >= 1, got m={m}, n={n}, k={k}")
    top = m * n + (m + n) * k + 1
    return factorial_ratio(
        [top, m * k, n * k] + list(range(m)) + list(range(n)) + list(range(k)),
        [(m + n) * k + 1] + list(range(m + n + k)),
    )


def count_rect_minus_square_plus1(m: int, n: int, k: int) -> int:
    return rect_minus_square_plus1_ratio(m, n, k).to_integer()


def rect_minus_square_ratio(m: int, n: int, k: int) -> FactoredRatio:
    """Tableaux of the rectangle sq family, fully factored.

    ``N! (mk+k-1)! (nk+k-1)! (m+n+1)! k / ((mk+nk+2k-1)!)
    * F_m F_n F_{k-1} / F_{m+n+k+1}`` with ``N = mn + mk + nk + 2k - 1``.
    """
    if m < 0 or n < 0 or k < 2:
        raise ValueError(f"need m, n >= 0 and k >= 2, got m={m}, n={n}, k={k}")
    top = m * n + (m + n) * k + 2 * k - 1
    return factorial_ratio(
        [top, m * k + k - 1, n * k + k - 1, m + n + 1]
        + list(range(m)) + list(range(n)) + list(range(k - 1)),
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
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got m={m}, n={n}")
    top = m * n + 2 * m + 2 * n + 3
    return factorial_ratio(
        [top, 2 * m + 1, 2 * n + 1] + list(range(m)) + list(range(n)),
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
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return factorial_ratio(
        [n * n - 2, 3 * n - 4, 3 * n - 4] + 2 * list(range(n - 2)),
        [6 * n - 8, 2 * n - 2, n - 2, n - 2] + list(range(2 * n - 4)),
    ).times(6)


def conjecture_square_minus_two(n: int) -> int:
    return conjecture_square_minus_two_ratio(n).to_integer()
