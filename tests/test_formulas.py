"""Product formulas checked against independent oracles.

Ordinary-shape counts get a third, test-local oracle (the hook product) on
top of the cell-poset counter, so a shared bug in the library cannot hide.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

from sytcount import formulas
from sytcount.arith import NotAnInteger, exact_quotient
from sytcount.count import count_syt
from sytcount.formulas import (
    _EXACT_DIVISION_SIZE,
    PartTooSmall,
    binomial_convolution_lhs,
    coeff_c,
    coeff_d,
    frobenius_young,
    frobenius_young_ratio,
    rectangle_count,
    schur_count,
    schur_ratio,
    staircase_count,
    sum_identity_rect,
    sum_identity_shifted,
)
from sytcount.shapes import (
    Partition,
    StrictPartition,
    complement_in_rectangle,
    complement_in_staircase,
    ordinary_region,
    partitions_in_box,
    shifted_region,
    staircase,
    strict_partitions_in_staircase,
    truncated_staircase_region,
    union,
)


def hook_count(lam):
    """Hook product oracle for ordinary shapes, local to the tests."""
    parts = lam.parts
    if not parts:
        return 1
    conj = [sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1)]
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (conj[j] - i) - 1
    return math.factorial(lam.size) // hooks


def shifted_hook_count(lam):
    """Shifted hook product oracle, local to the tests.  The hook of cell
    (i, j) holds the cells right of it, the cells below it, and all of row
    j + 1."""
    parts = lam.parts
    hooks = 1
    # 0-based: row i covers columns i .. i + parts[i] - 1
    for i, p in enumerate(parts):
        for j in range(i, i + p):
            arm = i + p - 1 - j
            rows_below = range(i + 1, min(j + 1, len(parts)))
            leg = sum(1 for r in rows_below if r + parts[r] > j)
            next_row = parts[j + 1] if j + 1 < len(parts) else 0
            hooks *= arm + leg + 1 + next_row
    count, rest = divmod(math.factorial(lam.size), hooks)
    assert rest == 0
    return count


def all_partitions_of(n):
    return partitions_in_box(n, n, size=n)


class TestOrdinaryFormula:
    @pytest.mark.parametrize("n", range(11))
    def test_matches_both_oracles(self, n):
        for lam in all_partitions_of(n):
            got = frobenius_young(lam)
            assert got == hook_count(lam)
            assert got == count_syt(ordinary_region(lam))

    def test_trailing_zeros_ignored(self):
        assert frobenius_young((3, 1, 0, 0)) == frobenius_young((3, 1)) == 3

    def test_empty(self):
        assert frobenius_young(()) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_hook_product_up_to_120_parts(self, seed):
        rng = random.Random(seed)
        n_parts = rng.randint(20 * seed + 1, 20 * seed + 20)
        parts = sorted((rng.randint(1, 40) for _ in range(n_parts)), reverse=True)
        lam = Partition(tuple(parts))
        assert frobenius_young(lam) == hook_count(lam)

    def test_ratio_factors(self):
        f = frobenius_young_ratio((4, 4, 4)).factorization()
        assert f.pairs == ((2, 1), (3, 1), (7, 1), (11, 1))


class TestShiftedFormula:
    def test_matches_counter(self):
        for lam in strict_partitions_in_staircase(6):
            assert schur_count(lam) == count_syt(shifted_region(lam))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_hook_product_up_to_120_parts(self, seed):
        rng = random.Random(seed)
        n_parts = rng.randint(20 * seed + 1, 20 * seed + 20)
        parts = sorted(rng.sample(range(1, n_parts + 30), n_parts), reverse=True)
        lam = StrictPartition(tuple(parts))
        assert schur_count(lam) == shifted_hook_count(lam)

    def test_shifted_hook_oracle(self):
        for lam in strict_partitions_in_staircase(6):
            assert shifted_hook_count(lam) == count_syt(shifted_region(lam))

    def test_known_values(self):
        assert schur_count(()) == 1
        assert schur_count((2, 1)) == 1
        assert schur_count((4, 2, 1)) == 7
        assert schur_ratio((5, 3)).to_integer() == 14


def division_size(lam):
    """What the crossover between the two count paths is measured in: the
    cells plus the square of the number of nonzero parts."""
    return sum(lam) + sum(1 for p in lam if p) ** 2


def near_the_crossover():
    """Ordinary shapes of 3 parts and shifted shapes of 5, from three cells
    below the crossover to three above."""
    for d in range(-3, 4):
        cells = _EXACT_DIVISION_SIZE - 9 + d
        yield Partition((cells - 2 * (cells // 5), cells // 5, cells // 5))
        cells = _EXACT_DIVISION_SIZE - 25 + d
        yield StrictPartition((cells - 10, 4, 3, 2, 1))


# Up to 45 parts of up to 60 (ordinary) or 120 (shifted) cells: both sides
# of the crossover.  The ordinary shapes keep their trailing zeros.
ordinary_shapes = st.lists(st.integers(0, 60), max_size=45).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
shifted_shapes = st.sets(st.integers(1, 120), max_size=45).map(
    lambda xs: StrictPartition(tuple(sorted(xs, reverse=True)))
)


# Up to 60 parts of at most a drawn width of 1 to 60: tall shapes, which
# are counted through their conjugates, and wide ones, which are not.
tall_or_wide_shapes = st.tuples(st.integers(1, 60), st.integers(0, 60)).flatmap(
    lambda wm: st.lists(st.integers(1, wm[0]), min_size=wm[1], max_size=wm[1])
).map(lambda xs: Partition(tuple(sorted(xs, reverse=True))))


class TestConjugation:
    """The Frobenius-Young counts against the product over the shape's own
    parts, multiplied out in the test, never through the conjugate."""

    @settings(max_examples=150)
    @given(tall_or_wide_shapes)
    def test_counts_equal_the_unconjugated_product(self, lam):
        parts = lam.parts
        m = len(parts)
        hooks = [p + m - 1 - i for i, p in enumerate(parts)]
        top, rest = divmod(
            math.factorial(lam.size) * math.prod(a - b for a, b in combinations(hooks, 2)),
            math.prod(map(math.factorial, hooks)),
        )
        assert rest == 0
        # the two lines formulas draws: through the conjugate, and the exact division
        conjugated = bool(parts) and m**2 - parts[0] ** 2 > 64
        rows = parts[0] if conjugated else m
        event(f"conjugated: {conjugated}, exact division: "
              f"{lam.size + rows**2 <= _EXACT_DIVISION_SIZE}")
        assert frobenius_young(lam) == top
        assert frobenius_young_ratio(lam).to_integer() == top


class TestExactDivision:
    """The integer counts against the factored ratios they short-cut."""

    def count_of(self, lam):
        if isinstance(lam, StrictPartition):
            return schur_count(lam), schur_ratio(lam).to_integer()
        return frobenius_young(lam), frobenius_young_ratio(lam).to_integer()

    @given(ordinary_shapes)
    def test_ordinary_paths_agree(self, lam):
        got, want = self.count_of(lam)
        assert got == want

    @given(shifted_shapes)
    def test_shifted_paths_agree(self, lam):
        got, want = self.count_of(lam)
        assert got == want

    @pytest.mark.parametrize("lam", list(near_the_crossover()), ids=str)
    def test_paths_agree_near_the_crossover(self, lam):
        assert abs(division_size(lam.parts) - _EXACT_DIVISION_SIZE) <= 3
        got, want = self.count_of(lam)
        assert got == want

    def test_the_crossover_picks_the_path(self, monkeypatch):
        divided = []

        def spy(num, den):
            divided.append(num)
            return exact_quotient(num, den)

        monkeypatch.setattr(formulas, "exact_quotient", spy)
        for lam in near_the_crossover():
            divided.clear()
            self.count_of(lam)
            below = division_size(lam.parts) <= _EXACT_DIVISION_SIZE
            assert len(divided) == below, lam

    @pytest.mark.parametrize("lam", [(), (0,), (0, 0), (3, 1, 0, 0), (5, 0)])
    def test_empty_and_trailing_zeros(self, lam):
        assert frobenius_young(lam) == frobenius_young_ratio(lam).to_integer()
        assert frobenius_young(lam) == frobenius_young(tuple(p for p in lam if p))

    @pytest.mark.parametrize("lam", [(), (0,), (5, 3, 0), (4, 2, 1, 0, 0)])
    def test_shifted_empty_and_trailing_zeros(self, lam):
        assert schur_count(lam) == schur_ratio(lam).to_integer()
        assert schur_count(lam) == schur_count(tuple(p for p in lam if p))

    @given(ordinary_shapes)
    def test_conjugation(self, lam):
        lam = Partition(lam)
        assert frobenius_young(lam) == frobenius_young(lam.conjugate())

    @pytest.mark.parametrize(
        "lam", [(2, 1), (6, 5, 5, 3, 2, 1), (1250, 1), (1300,), (1000000, 790, 3)])
    def test_a_wrong_formula_raises_on_both_paths(self, monkeypatch, lam):
        # the first two shapes lie below the crossover, the rest above; the
        # last is lopsided and far past the int-to-str digit limit
        right = formulas._frobenius_young_terms

        def hooks_off_by_one(lam):
            n, hooks, ups, downs = right(lam)
            return n, [h + 1 for h in hooks], ups, downs

        monkeypatch.setattr(formulas, "_frobenius_young_terms", hooks_off_by_one)
        with pytest.raises(NotAnInteger):
            frobenius_young(lam)


class TestStaircaseFormula:
    @pytest.mark.parametrize("m", range(6))
    def test_matches_counter(self, m):
        assert staircase_count(m) == count_syt(truncated_staircase_region(m))

    def test_is_schur_of_staircase(self):
        for m in range(8):
            assert staircase_count(m) == schur_count(staircase(m))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            staircase_count(-1)


class TestRectangleFormula:
    @pytest.mark.parametrize("m,n", [(0, 4), (1, 5), (2, 3), (3, 3), (3, 4)])
    def test_matches_counter(self, m, n):
        want = count_syt(ordinary_region(Partition((n,) * m)))
        assert rectangle_count(m, n) == want

    def test_symmetric(self):
        for m in range(5):
            for n in range(5):
                assert rectangle_count(m, n) == rectangle_count(n, m)

    def test_is_ordinary_count_of_box(self):
        assert rectangle_count(4, 4) == frobenius_young((4, 4, 4, 4)) == 24024

    @pytest.mark.parametrize("m,n", [(1, 60), (3, 40), (40, 3), (0, 30), (30, 0), (5, 5)])
    def test_factorials_grow_with_the_short_side(self, monkeypatch, m, n):
        seen = []
        real = formulas.factorial_ratio

        def spy(numerators, denominators, *rest):
            seen.append((len(numerators), len(denominators)))
            return real(numerators, denominators, *rest)

        monkeypatch.setattr(formulas, "factorial_ratio", spy)
        count = rectangle_count(m, n)
        assert seen and max(map(max, seen)) <= 2 * min(m, n) + 3
        # the hook length formula: hooks i + j - 1 over the m x n box
        assert count == math.factorial(m * n) // math.prod(
            (i + j - 1) for i in range(1, m + 1) for j in range(1, n + 1)
        )

    def test_one_row_or_no_row_of_any_length(self):
        assert rectangle_count(1, 10**9) == rectangle_count(10**9, 0) == 1


class TestPairCoefficientShifted:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_links_pair_products(self, m):
        big = m * (m + 1) // 2
        for mu in [StrictPartition(), StrictPartition((m + 1,)), StrictPartition((m + 2, m + 1))]:
            for lam in strict_partitions_in_staircase(m):
                lam_c = complement_in_staircase(lam, m)
                lhs = Fraction(
                    schur_count(union(mu, lam)) * schur_count(union(mu, lam_c))
                )
                coeff = coeff_c(mu, m, lam.size)
                rhs = coeff.to_fraction() * schur_count(lam) * schur_count(lam_c)
                assert lhs == rhs, (m, mu, lam)

    def test_part_threshold(self):
        with pytest.raises(PartTooSmall):
            coeff_c(StrictPartition((3,)), 3, 0)

    def test_t_range(self):
        with pytest.raises(ValueError):
            coeff_c(StrictPartition((4,)), 3, 7)


class TestPairCoefficientRect:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("k", range(3))
    def test_links_pair_products(self, m, n, k):
        for mu in partitions_in_box(k, 2):
            for lam in partitions_in_box(m, n):
                lam_c = complement_in_rectangle(lam, m, n)
                first = union(mu + Partition((n,) * k), lam)
                second = union(mu + Partition((m,) * k), lam_c)
                lhs = Fraction(frobenius_young(first) * frobenius_young(second))
                coeff = coeff_d(mu, k, m, n, lam.size)
                rhs = (
                    coeff.to_fraction()
                    * frobenius_young(lam)
                    * frobenius_young(lam_c)
                )
                assert lhs == rhs, (m, n, k, mu, lam)

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            coeff_d(Partition((1, 1)), 1, 2, 2, 0)

    def test_t_range(self):
        with pytest.raises(ValueError):
            coeff_d(Partition(), 0, 2, 2, 5)


class TestSumIdentities:
    @pytest.mark.parametrize("m", range(6))
    def test_shifted_sum_constant_in_t(self, m):
        want = staircase_count(m)
        big = m * (m + 1) // 2
        for t in range(big + 1):
            assert sum_identity_shifted(m, t) == want

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 4), (2, 3), (3, 3), (2, 5)])
    def test_rect_sum_constant_in_t(self, m, n):
        want = rectangle_count(m, n)
        for t in range(m * n + 1):
            assert sum_identity_rect(m, n, t) == want

    def test_t_range(self):
        with pytest.raises(ValueError):
            sum_identity_shifted(3, 7)
        with pytest.raises(ValueError):
            sum_identity_rect(2, 2, -1)


class TestBinomialConvolution:
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 30))
    def test_closed_form(self, t1, t2, upper):
        assert binomial_convolution_lhs(t1, t2, upper) == math.comb(
            t1 + t2 + upper + 1, t1 + t2 + 1
        )

    def test_small_case_by_hand(self):
        # 1*1 + 1*1 + 1*1 == C(3,1) at t1 = t2 = 0, upper = 2
        assert binomial_convolution_lhs(0, 0, 2) == 3

    @staticmethod
    def comb_sum(t1, t2, upper):
        """The sum term by term, each term from ``math.comb``; a negative top
        raises as ``binomial`` does, and a negative bottom gives 0."""
        def c(n, k):
            if n < 0:
                raise ValueError(f"binomial needs nonnegative n, got {n}")
            return math.comb(n, k) if 0 <= k <= n else 0

        return sum(c(t1 + i, t1) * c(t2 + upper - i, t2) for i in range(upper + 1))

    @pytest.mark.parametrize("t1", range(-4, 7))
    def test_running_products_match_the_comb_sum(self, t1):
        # zero and negative arguments included: a negative upper sums
        # nothing, a negative t1 or t2 raises with the first negative top
        for t2 in range(-4, 7):
            for upper in range(-3, 12):
                try:
                    want = self.comb_sum(t1, t2, upper)
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        binomial_convolution_lhs(t1, t2, upper)
                    assert str(info.value) == str(exc), (t1, t2, upper)
                else:
                    assert binomial_convolution_lhs(t1, t2, upper) == want, (t1, t2, upper)
