"""Factorization, primality, and factored-ratio arithmetic."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sytcount.arith import (
    FactoredRatio,
    Factorization,
    NotAnInteger,
    binomial,
    exact_quotient,
    factorial_ratio,
    factorize,
    is_probable_prime,
    is_smooth,
    primes_up_to,
)


class TestPrimes:
    def test_primes_up_to(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert len(primes_up_to(10**6)) == 78498

    @pytest.mark.parametrize("n", [2, 3, 5, 97, 5333, 2**31 - 1, 2**61 - 1])
    def test_primes_accepted(self, n):
        assert is_probable_prime(n)

    @pytest.mark.parametrize(
        "n",
        [
            0,
            1,
            4,
            2047,  # strong pseudoprime to base 2
            561,  # Carmichael
            29341,  # Carmichael
            2**67 - 1,  # 193707721 * 761838257287
        ],
    )
    def test_composites_rejected(self, n):
        assert not is_probable_prime(n)


class TestFactorize:
    def test_one(self):
        f = factorize(1)
        assert f.pairs == ()
        assert f.largest_prime == 1
        assert str(f) == "1"

    def test_known(self):
        assert factorize(720).pairs == ((2, 4), (3, 2), (5, 1))
        assert str(factorize(720)) == "2^4 * 3^2 * 5"
        assert factorize(5333).pairs == ((5333, 1),)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_splits_semiprime_beyond_trial_division(self):
        p, q = 2**31 - 1, 2**61 - 1
        assert factorize(p * q).pairs == ((p, 1), (q, 1))
        assert factorize(p * p).pairs == ((p, 2),)

    # Products of 1-4 primes between 2**16 and 10**6, times a small integer:
    # trial division stops below them, so a product of two or more reaches rho.
    MEDIUM = st.builds(
        lambda primes, k: k * math.prod(primes),
        st.lists(
            st.sampled_from([p for p in primes_up_to(10**6) if p > 1 << 16]),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 1000),
    )

    @settings(max_examples=120)
    @given(st.integers(1, 10**6) | MEDIUM)
    def test_roundtrip(self, v):
        f = factorize(v)
        assert math.prod(p**e for p, e in f.pairs) == v
        assert all(e >= 1 and is_probable_prime(p) for p, e in f.pairs)
        assert [p for p, _ in f.pairs] == sorted(p for p, _ in f.pairs)

    def test_trial_division_sieves_no_prime_past_the_table(self):
        # rect:7x8/3,3,1 has the factors 106273 * 2262437; a fresh process
        # factors its count without sieving past 2**16.
        script = (
            "import contextlib, io\n"
            "from sytcount import arith, cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['factor', '--method', 'oracle', 'rect:7x8/3,3,1'])\n"
            "print(arith._sieve_limit)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout == f"{1 << 16}\n"

    def test_smooth(self):
        assert is_smooth(1, 1)
        assert is_smooth(1, 0)  # 1 has no prime factor
        assert is_smooth(960, 5)
        assert not is_smooth(960 * 7, 5)
        with pytest.raises(ValueError):
            is_smooth(0, 10)


class TestIntegerHelpers:
    def test_binomial(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 0) == 1
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_exact_quotient(self):
        assert exact_quotient(1001, 13) == 77
        assert exact_quotient(0, 5) == 0
        assert exact_quotient(math.factorial(30), math.factorial(29)) == 30
        with pytest.raises(NotAnInteger) as err:
            exact_quotient(1000, 37)
        assert "1000" in str(err.value) and "37" in str(err.value)


class TestFactoredRatio:
    def test_one(self):
        assert FactoredRatio().to_integer() == 1
        assert FactoredRatio().factorization().pairs == ()

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_must_be_a_unit(self, sign):
        with pytest.raises(ValueError, match=f"sign must be \\+1 or -1, got {sign}"):
            FactoredRatio(sign=sign)

    def test_from_integer(self):
        r = FactoredRatio.from_integer(-12)
        assert r.factors == ((2, 2), (3, 1))
        assert r.sign == -1
        assert r.to_fraction() == Fraction(-12)
        with pytest.raises(NotAnInteger):
            r.to_integer()
        with pytest.raises(ValueError):
            FactoredRatio.from_integer(0)

    def test_times_over(self):
        r = FactoredRatio().times(6, 35).over(10)
        assert r.to_integer() == 21
        half = FactoredRatio().times(3).over(2)
        assert half.to_fraction() == Fraction(3, 2)
        with pytest.raises(NotAnInteger):
            half.to_integer()

    def test_batched_non_integral_raises(self):
        # 2 * 3 * 5 * 7 / (4 * 9 * 7) = 5 / 6
        r = FactoredRatio().times(2, 3, 5, 7).over(4, 9, 7)
        assert r.to_fraction() == Fraction(5, 6)
        with pytest.raises(NotAnInteger):
            r.to_integer()
        with pytest.raises(NotAnInteger):
            r.factorization()
        with pytest.raises(NotAnInteger):
            factorial_ratio([5], [3]).times(2, 5).over(7, 3).factorization()

    def test_batched_signs_and_large_factors(self):
        big = 2**61 - 1  # prime, past the small-factor table
        r = FactoredRatio().times(-6, big, -35).over(-10, 21)
        assert (r.factors, r.sign) == (((big, 1),), -1)
        with pytest.raises(NotAnInteger):
            r.factorization()
        assert FactoredRatio.from_integer(12 * big).factors == ((2, 2), (3, 1), (big, 1))
        with pytest.raises(ValueError):
            FactoredRatio().over(3, 0)

    def test_str(self):
        assert str(FactoredRatio().times(6).over(5)) == "2 * 3 / 5"
        assert str(FactoredRatio.from_integer(-2)) == "-2"

    def test_factorization_view(self):
        f = factorial_ratio([6], [3]).factorization()
        assert isinstance(f, Factorization)
        assert f.pairs == ((2, 3), (3, 1), (5, 1))
        assert f.largest_prime == 5
        with pytest.raises(NotAnInteger):
            FactoredRatio().over(2).factorization()

    @given(st.integers(-300, 300).filter(bool), st.integers(-300, 300).filter(bool))
    def test_mul_div_match_fractions(self, a, b):
        fa, fb = FactoredRatio.from_integer(a), FactoredRatio.from_integer(b)
        assert (fa * fb).to_fraction() == Fraction(a) * b
        assert (fa / fb).to_fraction() == Fraction(a, b)


# Integers for times/over: small ones (through the factor table), 1 and -1,
# and values above 2**16 (through factorize), each with either sign.
_BIG = 1 << 16
ratio_ints = st.one_of(
    st.integers(-300, 300).filter(bool),
    st.sampled_from([1, -1, _BIG, -_BIG, _BIG + 1, -(_BIG + 1), 2**61 - 1]),
    st.integers(_BIG + 1, 2**40).flatmap(lambda v: st.sampled_from([v, -v])),
)


@st.composite
def repeated_ints(draw):
    """A list drawn from a few distinct integers, so most of them repeat,
    with odd and even multiplicities alike."""
    pool = draw(st.lists(ratio_ints, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=25))


class TestRepeatedFactors:
    """``times``/``over`` count equal integers before factoring them."""

    @given(repeated_ints(), repeated_ints())
    def test_times_over_match_fractions(self, xs, ys):
        r = FactoredRatio().times(*xs).over(*ys)
        want = Fraction(math.prod(xs), math.prod(ys))
        assert r.to_fraction() == want
        assert [p for p, _ in r.factors] == sorted({p for p, _ in r.factors})
        assert all(e for _, e in r.factors)
        if want.denominator == 1 and want > 0:
            assert r.to_integer() == want
            assert math.prod(p**e for p, e in r.factorization().pairs) == want
        else:
            with pytest.raises(NotAnInteger):
                r.to_integer()
            with pytest.raises(NotAnInteger):
                r.factorization()

    @given(repeated_ints(), st.integers(1, 4))
    def test_one_call_equals_one_call_per_integer(self, xs, copies):
        batched = FactoredRatio().times(*xs * copies)
        single = FactoredRatio()
        for _ in range(copies):
            for x in xs:
                single = single.times(x)
        assert batched == single

    @pytest.mark.parametrize(
        "xs, want",
        [
            ((-3, -3), 9),
            ((-3, -3, -3), -27),
            ((-1, -1), 1),
            ((-1,) * 5, -1),
            ((-7, 7, -7, -7), -(7**4)),
            ((-(2**61 - 1),) * 2, (2**61 - 1) ** 2),
            ((_BIG + 1,) * 3, (_BIG + 1) ** 3),
            ((-(_BIG + 1),) * 3, -((_BIG + 1) ** 3)),
        ],
    )
    def test_multiplicity_sets_sign_and_exponent(self, xs, want):
        assert FactoredRatio().times(*xs).to_fraction() == want
        assert FactoredRatio().over(*xs).to_fraction() == Fraction(1, want)

    @pytest.mark.parametrize("xs", [(0,), (3, 0, 3), (0, 0), (-5, 0), (0, _BIG + 1)])
    def test_zero_raises(self, xs):
        for method in (FactoredRatio().times, FactoredRatio().over):
            with pytest.raises(ValueError, match="zero has no factored form"):
                method(*xs)


small_factorial_lists = st.lists(st.integers(0, 40), max_size=4)


class TestFactorialRatios:
    @given(small_factorial_lists, small_factorial_lists)
    def test_matches_direct_product(self, nums, dens):
        r = factorial_ratio(nums, dens)
        want = Fraction(
            math.prod(math.factorial(a) for a in nums),
            math.prod(math.factorial(b) for b in dens),
        )
        assert r.to_fraction() == want

    @given(st.lists(st.integers(0, 80), max_size=10), st.data())
    def test_equal_terms_cancel(self, nums, data):
        # Terms drawn from nums appear above and below, some of them twice.
        shared = data.draw(st.lists(st.sampled_from(nums), max_size=6)) if nums else []
        nums = nums + shared
        dens = data.draw(st.lists(st.integers(0, 80), max_size=6)) + shared
        want = Fraction(
            math.prod(math.factorial(a) for a in nums),
            math.prod(math.factorial(b) for b in dens),
        )
        assert factorial_ratio(nums, dens).to_fraction() == want
        assert factorial_ratio(nums, nums).factors == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            factorial_ratio([3, -1], [])

    @given(st.integers(0, 60), st.data())
    def test_binomial_ratio(self, n, data):
        k = data.draw(st.integers(0, n))
        assert factorial_ratio([n], [k, n - k]).to_integer() == math.comb(n, k)

    @pytest.mark.parametrize("m", range(9))
    def test_superfactorial_ratio(self, m):
        want = math.prod(math.factorial(i) for i in range(m))
        assert factorial_ratio(range(m), []).to_integer() == want
