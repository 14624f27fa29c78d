"""The bulk closed forms against copies of their per-pair versions.

``reference_factorial_ratio`` sums Legendre's formula prime by prime over
every argument, and the reference Frobenius-Young and Schur ratios pass
each pairwise difference and sum to the ratio one at a time.  The library
versions count these in bulk, handle the large-prime tail of the largest
factorial in one step and factor a close quotient of the two largest
factorials directly; they must return the same ratio, down to the factors
tuple and the sign.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sytcount.arith import FactoredRatio, factorial_ratio, factorize, primes_up_to
from sytcount.formulas import frobenius_young_ratio, schur_ratio
from sytcount.shapes import coerce_partition, coerce_strict


def reference_scaled(ratio, ints, scale):
    """``ratio`` times (``scale`` = 1) or over (-1) every integer in
    ``ints``, each factored on its own."""
    acc = dict(ratio.factors)
    sign = ratio.sign
    for k in ints:
        if k < 0:
            sign, k = -sign, -k
        for p, e in factorize(k).pairs:
            acc[p] = acc.get(p, 0) + scale * e
    return FactoredRatio(tuple(sorted((p, e) for p, e in acc.items() if e)), sign)


def reference_factorial_ratio(numerators, denominators):
    weight = {}
    for a in numerators:
        weight[int(a)] = weight.get(int(a), 0) + 1
    for b in denominators:
        weight[int(b)] = weight.get(int(b), 0) - 1
    if any(a < 0 for a in weight):
        raise ValueError("factorials of negative integers are undefined")
    # Equal factorials above and below cancel, and a! holds no prime above
    # a, so each prime visits only the arguments at least as large.
    terms = sorted((a, w) for a, w in weight.items() if w and a > 1)
    factors = []
    lo = 0
    for p in primes_up_to(terms[-1][0] if terms else 0):
        while terms[lo][0] < p:
            lo += 1
        e = 0
        for a, w in terms[lo:]:
            # Legendre's formula: a! holds p to the power sum(a // p**i).
            while a >= p:
                a //= p
                e += w * a
        if e:
            factors.append((p, e))
    return FactoredRatio(tuple(factors), 1)


def reference_frobenius_young_ratio(lam):
    lam = coerce_partition(lam)
    parts = lam.parts
    m = len(parts)
    return reference_scaled(
        reference_factorial_ratio([lam.size], [parts[i] + m - i - 1 for i in range(m)]),
        (parts[i] - parts[j] + j - i for i in range(m) for j in range(i + 1, m)),
        1,
    )


def reference_schur_ratio(lam):
    lam = coerce_strict(lam)
    parts = lam.parts
    pairs = [(a, b) for i, a in enumerate(parts) for b in parts[i + 1 :]]
    return reference_scaled(
        reference_scaled(
            reference_factorial_ratio([lam.size], list(parts)), (a - b for a, b in pairs), 1
        ),
        (a + b for a, b in pairs),
        -1,
    )


@st.composite
def factorial_lists(draw):
    """Numerator and denominator lists: small arguments with repeats, 0 and
    1, some shared by both sides, and a largest argument (up to 2^16 +
    3000) on either side, once or several times, often with a close partner
    on the other side, of equal or unequal multiplicity."""
    small = st.lists(st.integers(0, 60), max_size=8)
    nums, dens = draw(small), draw(small)
    shared = draw(st.lists(st.integers(0, 60), max_size=4))
    nums, dens = nums + shared, dens + shared
    top = draw(st.one_of(st.integers(2, 300), st.integers(2**16 - 50, 2**16 + 3000)))
    copies = draw(st.integers(1, 3))
    upper, lower = (nums, dens) if draw(st.booleans()) else (dens, nums)
    upper += [top] * copies
    if draw(st.booleans()):
        lower += [max(top - draw(st.integers(0, 300)), 0)] * draw(
            st.sampled_from([copies, 1, 2])
        )
    return nums, dens


@st.composite
def partitions(draw):
    """Partitions with up to 30 parts below 41, trailing zeros allowed."""
    parts = draw(st.lists(st.integers(0, 40), max_size=30))
    return tuple(sorted(parts, reverse=True))


class TestFactorialRatio:
    @settings(max_examples=150, deadline=None)
    @given(factorial_lists())
    def test_equals_reference(self, lists):
        nums, dens = lists
        assert factorial_ratio(nums, dens) == reference_factorial_ratio(nums, dens)

    @pytest.mark.parametrize(
        "nums, dens",
        [
            ([], []),
            ([0, 1], [1, 0]),
            ([7], [7]),
            ([2**16 + 7], [2**16 + 1]),  # the quotient of the two largest
            ([2**16 + 7] * 2, [2**16 + 1] * 2),
            ([3], [2**16 + 7, 2**16 + 1]),  # largest one below, weight -1
            ([2**16 + 7, 5], [2**16 + 1, 3, 3]),
            ([100, 99, 40], [98, 97]),  # a close pair, then another
            ([4900] + list(range(70)) * 2, list(range(140))),  # rect:70x70
        ],
    )
    def test_equals_reference_on_edges(self, nums, dens):
        assert factorial_ratio(nums, dens) == reference_factorial_ratio(nums, dens)


class TestFrobeniusYoung:
    @settings(max_examples=150, deadline=None)
    @given(partitions())
    def test_equals_reference(self, lam):
        assert frobenius_young_ratio(lam) == reference_frobenius_young_ratio(lam)

    @pytest.mark.parametrize(
        "lam",
        [(), (0,), (1,), (9,), (5, 0, 0), (3, 3, 3), (70000, 3, 1), (100000, 5)],
    )
    def test_equals_reference_on_edges(self, lam):
        assert frobenius_young_ratio(lam) == reference_frobenius_young_ratio(lam)


class TestSchur:
    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.integers(1, 200), max_size=40))
    def test_equals_reference(self, parts):
        lam = tuple(sorted(parts, reverse=True))
        assert schur_ratio(lam) == reference_schur_ratio(lam)

    @pytest.mark.parametrize("lam", [(), (1,), (2, 1), (200, 1), (70000, 3, 1)])
    def test_equals_reference_on_edges(self, lam):
        assert schur_ratio(lam) == reference_schur_ratio(lam)
