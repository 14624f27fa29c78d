"""Product formulas for tableau counts and the coefficients of the
pair-splitting identities.

Every formula is evaluated exactly, so a wrong (non-integral) evaluation
fails loudly instead of rounding.  The Frobenius-Young and Schur products
are each written once, as ``n!`` times pairwise factors over factorials; a
tall ordinary shape through its conjugate, since f(lam) = f(lam').
Their ``*_ratio`` forms count the pairwise factors in bulk and hand the
multisets to :func:`factorial_ratio`.  Their integer counts, for shapes
up to ``_EXACT_DIVISION_SIZE``, multiply both sides out and divide with
:func:`exact_quotient`, which raises :class:`NotAnInteger` on a remainder;
larger shapes convert the factored ratio.  Every other formula is a
:class:`FactoredRatio` converted to an integer at the end.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, starmap
from math import factorial, perm, prod
from operator import add, sub
from typing import Iterator

from .arith import FactoredRatio, _index_range, binomial, exact_quotient, factorial_ratio
from .shapes import (
    Partition,
    PartitionLike,
    StrictPartition,
    _conjugate_parts,
    coerce_partition,
    coerce_strict,
    complement_in_rectangle,
    complement_in_staircase,
    partitions_in_box,
    staircase,
    strict_partitions_in_staircase,
    union,
)


class PartTooSmall(ValueError):
    """A prefix partition part does not clear the required threshold."""


def _stair_prefix(mu: PartitionLike, m: int) -> StrictPartition:
    """``mu`` as the strict prefix of a staircase identity over order ``m``:
    every part must exceed ``m``."""
    mu = coerce_strict(mu)
    if mu.parts and mu.parts[-1] <= m:
        raise PartTooSmall(f"every part of {mu} must exceed {m}")
    return mu


def _rect_prefix(mu: PartitionLike, k: int) -> Partition:
    """``mu`` as the prefix of a rectangle identity with ``k`` rows: k must
    be positive and ``mu`` has at most k parts."""
    mu = coerce_partition(mu)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    _index_range(k, "k")  # its identities build partitions of k parts
    if len(mu.parts) > k:
        raise ValueError(f"{mu} has more than {k} parts")
    return mu


# The Frobenius-Young and Schur counts are one exact integer division while
# the cells plus the square of the number of parts (about the pairwise
# factors multiplied out) is at most this size; past it, the multiplied-out
# sides outgrow the count so far that building the factored ratio is
# faster.  Chosen from both paths timed on a grid of cells x parts.
_EXACT_DIVISION_SIZE = 1200


def _frobenius_young_terms(lam: PartitionLike) -> tuple:
    """``(n, bottoms, ups, downs)`` with the Frobenius-Young count equal to
    ``n! * prod(ups) / (prod(b! for b in bottoms) * prod(downs))``.

    ``|lam|! / prod((lam_i + m - i)!) * prod_{i<j}(lam_i - lam_j - i + j)``
    over the ``m`` parts of ``lam``; stable under trailing zeros.
    """
    parts = coerce_partition(lam).parts
    # Transposing a tableau gives one of the conjugate shape, which has fewer
    # pairwise factors; that pays once it cuts parts squared by more than 64.
    if parts and len(parts) ** 2 - parts[0] ** 2 > 64:
        parts = _conjugate_parts(parts)
    m = len(parts)
    # lam_i - lam_j - i + j is the difference of the first-column hooks.
    hooks = list(map(add, parts, range(m - 1, -1, -1)))
    return sum(parts), hooks, starmap(sub, combinations(hooks, 2)), ()


def _schur_terms(lam: PartitionLike) -> tuple:
    """``(n, bottoms, ups, downs)`` as for :func:`_frobenius_young_terms`:
    ``|lam|! / prod(lam_i!) * prod_{i<j}(lam_i - lam_j)/(lam_i + lam_j)``.
    """
    parts = coerce_strict(lam).parts
    return (sum(parts), parts, starmap(sub, combinations(parts, 2)),
            starmap(add, combinations(parts, 2)))


def _as_ratio(n: int, bottoms, ups, downs) -> FactoredRatio:
    powers = Counter(ups)
    powers.subtract(Counter(downs))
    return factorial_ratio([n], bottoms, powers)


def _as_count(n: int, bottoms, ups, downs) -> int:
    if n + len(bottoms) ** 2 > _EXACT_DIVISION_SIZE:
        return _as_ratio(n, bottoms, ups, downs).to_integer()
    # n! over the first (largest) bottom factorial is a falling factorial;
    # min(n, top) keeps it exact should a wrong formula put top above n.
    top = bottoms[0] if bottoms else 0
    low = min(n, top)
    return exact_quotient(
        perm(n, n - low) * prod(ups),
        perm(top, top - low) * prod(map(factorial, bottoms[1:])) * prod(downs),
    )


def frobenius_young_ratio(lam: PartitionLike) -> FactoredRatio:
    """Count of standard tableaux of an ordinary shape, in factored form
    (see :func:`_frobenius_young_terms`)."""
    return _as_ratio(*_frobenius_young_terms(lam))


def frobenius_young(lam: PartitionLike) -> int:
    """Count of standard tableaux of an ordinary shape."""
    return _as_count(*_frobenius_young_terms(lam))


def schur_ratio(lam: PartitionLike) -> FactoredRatio:
    """Count of standard tableaux of a shifted shape, in factored form
    (see :func:`_schur_terms`)."""
    return _as_ratio(*_schur_terms(lam))


def schur_count(lam: PartitionLike) -> int:
    """Count of standard tableaux of a shifted shape."""
    return _as_count(*_schur_terms(lam))


def staircase_ratio(m: int) -> FactoredRatio:
    """Tableau count of the full shifted staircase with parts m..1.

    ``M! * prod_{i<m} i!/(2i+1)!`` where ``M = m(m+1)/2``.
    """
    if m < 0:
        raise ValueError(f"staircase order must be nonnegative: {m}")
    big = m * (m + 1) // 2
    orders = _index_range(m, "staircase order")
    return factorial_ratio([big, *orders], [2 * i + 1 for i in orders])


def staircase_count(m: int) -> int:
    return staircase_ratio(m).to_integer()


def rectangle_ratio(m: int, n: int) -> FactoredRatio:
    """Tableau count of the full ``m x n`` rectangle.

    ``(mn)! * F_m * F_n / F_{m+n}`` with ``F_k = 0! 1! ... (k-1)!``.  With
    ``a <= b`` the sides, ``F_b`` cancels first and leaves
    ``F_a / (b! ... (a+b-1)!)``, ``O(a)`` factorials for any ``b``.
    """
    if m < 0 or n < 0:
        raise ValueError(f"rectangle sides must be nonnegative: {m}x{n}")
    a, b = sorted((m, n))
    return factorial_ratio([m * n, *_index_range(a, "rectangle side")], range(b, a + b))


def rectangle_count(m: int, n: int) -> int:
    return rectangle_ratio(m, n).to_integer()


def coeff_c(mu: PartitionLike, m: int, t: int) -> FactoredRatio:
    """Rational coefficient linking shifted pair products over a staircase.

    For strict ``mu`` with every part above ``m`` and any strict ``lam``
    contained in the order-``m`` staircase with ``|lam| = t``::

        g(mu | lam) * g(mu | lam_c) = coeff_c(mu, m, t) * g(lam) * g(lam_c)

    where ``|`` is part union, ``lam_c`` the staircase complement, and
    ``g`` the shifted tableau count.
    """
    mu = _stair_prefix(mu, m)
    big = m * (m + 1) // 2
    if not 0 <= t <= big:
        raise ValueError(f"need 0 <= t <= {big}, got {t}")
    u = mu.size
    return (
        schur_ratio(union(mu, staircase(m)))
        * schur_ratio(mu)
        / schur_ratio(staircase(m))
        * factorial_ratio([big, u + t, u + big - t], [u + big, u, t, big - t])
    )


def coeff_d(mu: PartitionLike, k: int, m: int, n: int, t: int) -> FactoredRatio:
    """Rational coefficient linking ordinary pair products over a rectangle.

    For ``mu`` with at most ``k`` parts and any ``lam`` inside the
    ``m x n`` box with ``|lam| = t``::

        f((mu + n^k) | lam) * f((mu + m^k) | lam_c)
            = coeff_d(mu, k, m, n, t) * f(lam) * f(lam_c)

    with ``lam_c`` the box complement and ``f`` the ordinary tableau count.
    """
    mu = coerce_partition(mu)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _index_range(k, "k")  # the coefficient builds a partition of k parts
    if len(mu.parts) > k:
        raise ValueError(f"{mu} has more than {k} parts")
    cells = m * n
    if not 0 <= t <= cells:
        raise ValueError(f"need 0 <= t <= {cells}, got {t}")
    u = mu.size
    return (
        frobenius_young_ratio(mu + Partition((m + n,) * k))
        * frobenius_young_ratio(mu)
        * factorial_ratio(
            [u + n * k + t, u + m * k + cells - t],
            [u + (m + n) * k, u, t, cells - t],
        )
    )


def stair_pair_terms(
    mu: PartitionLike, m: int, size: int | None = None
) -> Iterator[tuple]:
    """Terms ``(lam, lam_c, a, b, g(a) * g(b))`` with ``a = mu | lam``, ``b =
    mu | lam_c``, for strict ``lam`` in the order-``m`` staircase (of ``size``
    cells, if given).  Callers check that ``mu``'s parts exceed ``m``."""
    mu = coerce_strict(mu)
    for lam in strict_partitions_in_staircase(m, size=size):
        lam_c = complement_in_staircase(lam, m)
        a, b = union(mu, lam), union(mu, lam_c)
        yield lam, lam_c, a, b, schur_count(a) * schur_count(b)


def rect_pair_terms(
    mu: PartitionLike, k: int, m: int, n: int, size: int | None = None
) -> Iterator[tuple]:
    """Terms ``(lam, lam_c, a, b, f(a) * f(b))`` with ``a = (mu + n^k) | lam``,
    ``b = (mu + m^k) | lam_c``, for ``lam`` in the ``m x n`` box (of ``size``
    cells, if given)."""
    mu = coerce_partition(mu)
    alpha = mu + Partition((n,) * k)
    beta = mu + Partition((m,) * k)
    for lam in partitions_in_box(m, n, size=size):
        lam_c = complement_in_rectangle(lam, m, n)
        a, b = union(alpha, lam), union(beta, lam_c)
        yield lam, lam_c, a, b, frobenius_young(a) * frobenius_young(b)


def sum_identity_shifted(m: int, t: int) -> int:
    """Sum of ``g(lam) * g(lam_c)`` over strict ``lam`` in the staircase
    of order ``m`` with ``|lam| = t``.

    Equals the full staircase count for every ``t``; computed directly here
    so the equality stays a theorem to test, not an assumption.
    """
    big = m * (m + 1) // 2
    if not 0 <= t <= big:
        raise ValueError(f"need 0 <= t <= {big}, got {t}")
    total = 0
    for lam in strict_partitions_in_staircase(m, size=t):
        total += schur_count(lam) * schur_count(complement_in_staircase(lam, m))
    return total


def sum_identity_rect(m: int, n: int, t: int) -> int:
    """Sum of ``f(lam) * f(lam_c)`` over ``lam`` in the ``m x n`` box with
    ``|lam| = t``; equals the full rectangle count for every ``t``.
    """
    cells = m * n
    if not 0 <= t <= cells:
        raise ValueError(f"need 0 <= t <= {cells}, got {t}")
    total = 0
    for lam in partitions_in_box(m, n, size=t):
        total += frobenius_young(lam) * frobenius_young(
            complement_in_rectangle(lam, m, n)
        )
    return total


def binomial_convolution_lhs(t1: int, t2: int, upper: int) -> int:
    """``sum_i C(t1 + i, t1) * C(t2 + upper - i, t2)`` for ``i = 0..upper``.

    Closed form: ``C(t1 + t2 + upper + 1, t1 + t2 + 1)``; the closed form is
    what the identity tests compare against.  The two factors are running
    products, ``C(t1 + i, t1)`` up from 1 and ``C(t2 + upper - i, t2)`` down
    from ``C(t2 + upper, t2)``.  A negative ``upper`` sums nothing; a
    negative ``t1`` or ``t2`` raises as :func:`binomial` does on the first
    term with a negative top.
    """
    if upper < 0:
        return 0
    if t1 < 0:
        binomial(t1, t1)  # raises, at the term i = 0
    if t2 < 0:
        binomial(min(t2 + upper, -1), t2)  # raises, at the first i whose top is negative
    a, b = 1, binomial(t2 + upper, t2)
    total = b
    for i in range(upper):
        a = a * (t1 + i + 1) // (i + 1)
        b = b * (upper - i) // (t2 + upper - i)
        total += a * b
    return total
