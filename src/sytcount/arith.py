"""Exact integer arithmetic: factorials as prime-exponent vectors, integer
factorization, and smoothness tests.

A ratio of factorials is kept as prime exponents, accumulated with
Legendre's formula and summed inline per prime, and converted to an
integer only at the end; a negative exponent at that point raises
:class:`NotAnInteger` instead of silently rounding.  Many small factorials
are summed per prime over slices of one suffix-sum list.  A quotient whose
two sides are small enough to multiply out is divided by :func:`exact_quotient`,
which raises the same error on a nonzero remainder.
Integer factors arrive as a multiset ``{k: count}`` (the many repeated
differences of a Frobenius-Young or Schur product are counted in bulk by
the caller), so each distinct integer is factored once.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat, starmap
from operator import add, floordiv, itemgetter, mul
from typing import Iterable, Mapping, Sequence

# Deterministic Miller-Rabin witness set below 3.3 * 10**24 (covers 2**64).
_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_WIDE = _MR_BASES_SMALL + (
    41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173,
)
_MR_SMALL_BOUND = 3317044064679887385961981

# The one small-prime bound: integers up to it are factored through the
# smallest-prime-factor table, and factorize trial-divides larger ones by
# the primes up to it before rho.  Below 257**2 every composite has a prime
# factor under 256, so the table fits in a bytearray.
_SPF_LIMIT = 1 << 16

# factorial_ratio's crossover to slice sums, per bit of the second largest
# argument (see there).  Chosen from both paths timed on the workloads' calls.
_SLICE_SUM_TERMS = 2

_sieve_primes: list[int] = []
_sieve_limit = 0
_spf = bytearray()


class NotAnInteger(ValueError):
    """A quantity expected to be a whole number is not."""


class TooLarge(ValueError):
    """A size past the longest sequence Python can build."""


def _index_range(n: int, what: str) -> range:
    """``range(n)``, or :class:`TooLarge` naming ``what`` where a list of
    ``n`` items would raise ``OverflowError``."""
    if n > sys.maxsize:
        raise TooLarge(f"{what} is too large to count: {n}")
    return range(n)


def _extend_sieve(limit: int) -> None:
    global _sieve_primes, _sieve_limit
    if limit <= _sieve_limit:
        return
    limit = max(limit, _SPF_LIMIT)
    mask = bytearray([1]) * (limit + 1)
    mask[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    _sieve_primes = [i for i, flag in enumerate(mask) if flag]
    _sieve_limit = limit


def _build_spf() -> bytearray:
    """The smallest-prime-factor table of ``0.._SPF_LIMIT``, built once:
    entry k is the smallest prime factor of a composite k, and 0 for a prime."""
    global _spf
    spf = bytearray(_SPF_LIMIT + 1)
    # Largest primes first, so each entry ends with its smallest prime.
    for p in reversed(primes_up_to(math.isqrt(_SPF_LIMIT))):
        spf[p * p :: p] = bytes([p]) * len(range(p * p, _SPF_LIMIT + 1, p))
    _spf = spf
    return spf


def primes_up_to(n: int) -> list[int]:
    """Primes ``<= n``, cached."""
    _extend_sieve(n)
    return _sieve_primes[: bisect.bisect_right(_sieve_primes, n)]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for ``n < 3.3e24`` (in particular below 2**64); above that
    the fixed wide witness set makes the verdict probabilistic with error
    probability far below 4**-40.
    """
    if n < 2:
        return False
    for p in _MR_BASES_SMALL:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    bases = _MR_BASES_SMALL if n < _MR_SMALL_BOUND else _MR_BASES_WIDE
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    # Brent's cycle variant of Pollard rho; n must be odd and composite.
    # The polynomial increment walks a fixed sequence, so results are
    # reproducible run to run.
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += 128
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"could not split {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``value = prod(p**e)`` with primes increasing."""

    pairs: tuple[tuple[int, int], ...] = ()

    @property
    def largest_prime(self) -> int:
        """Largest prime factor; 1 for the empty factorization of 1."""
        return self.pairs[-1][0] if self.pairs else 1

    def is_smooth(self, bound: int) -> bool:
        """True when every prime factor is at most ``bound``; 1 has none."""
        return all(p <= bound for p, _ in self.pairs)

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        return " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.pairs
        )


def factorize(v: int) -> Factorization:
    """Full prime factorization of a positive integer.

    Trial division by the primes up to ``_SPF_LIMIT`` (stopping once the
    cofactor is prime), then Pollard rho splitting for anything left.
    """
    if v < 1:
        raise ValueError(f"can only factor positive integers, got {v}")
    n = v
    found: dict[int, int] = {}
    _extend_sieve(_SPF_LIMIT)
    # factorial_ratio may have grown the sieve past the bound
    for p in islice(_sieve_primes, bisect.bisect_right(_sieve_primes, _SPF_LIMIT)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            found[p] = e
            if is_probable_prime(n):
                break
    pending = [n] if n > 1 else []
    while pending:
        x = pending.pop()
        if is_probable_prime(x):
            found[x] = found.get(x, 0) + 1
        else:
            d = _brent_rho(x)
            pending.append(d)
            pending.append(x // d)
    return Factorization(tuple(sorted(found.items())))


def is_smooth(v: int, bound: int) -> bool:
    """True when every prime factor of ``v`` is at most ``bound``."""
    if v < 1:
        raise ValueError(f"smoothness is defined for positive integers, got {v}")
    return factorize(v).is_smooth(bound)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside ``0 <= k <= n``."""
    if n < 0:
        raise ValueError(f"binomial needs nonnegative n, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_quotient(num: int, den: int) -> int:
    """``num / den`` for a ``den`` that divides ``num``; a nonzero remainder
    raises :class:`NotAnInteger` instead of rounding."""
    quotient, remainder = divmod(num, den)
    if remainder:
        num, den, remainder = (x if x.bit_length() < 10**4 else f"a {x.bit_length()}-bit integer"
                               for x in (num, den, remainder))  # str() fails past 4,300 digits
        raise NotAnInteger(f"{num} / {den} leaves remainder {remainder}")
    return quotient


def _merge(
    acc: dict[int, int], pairs: Iterable[tuple[int, int]], scale: int
) -> None:
    for p, e in pairs:
        acc[p] = acc.get(p, 0) + scale * e


@dataclass(frozen=True)
class FactoredRatio:
    """Nonzero rational number as a sparse prime -> exponent map plus sign.

    ``factors`` holds (prime, exponent) pairs with primes increasing and
    exponents nonzero; negative exponents are denominator primes.
    """

    factors: tuple[tuple[int, int], ...] = ()
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "factors", tuple(self.factors))

    @classmethod
    def from_integer(cls, k: int) -> "FactoredRatio":
        return cls().times(k)

    def __mul__(self, other: "FactoredRatio") -> "FactoredRatio":
        acc = dict(self.factors)
        _merge(acc, other.factors, 1)
        return _from_exponents(acc, self.sign * other.sign)

    def __truediv__(self, other: "FactoredRatio") -> "FactoredRatio":
        acc = dict(self.factors)
        _merge(acc, other.factors, -1)
        return _from_exponents(acc, self.sign * other.sign)

    def times(self, *ints: int) -> "FactoredRatio":
        """This ratio multiplied by every integer in ``ints``."""
        return _times_powers(self.factors, self.sign, Counter(ints))

    def over(self, *ints: int) -> "FactoredRatio":
        """This ratio divided by every integer in ``ints``."""
        return _times_powers(
            self.factors, self.sign, {k: -w for k, w in Counter(ints).items()}
        )

    def _check_integral(self) -> None:
        if self.sign < 0:
            raise NotAnInteger(f"{self} is negative")
        for p, e in self.factors:
            if e < 0:
                raise NotAnInteger(f"prime {p} has exponent {e}")

    def to_integer(self) -> int:
        """The integer this ratio equals; :class:`NotAnInteger` otherwise."""
        self._check_integral()
        # Large primes first: the running product stays short until the
        # big powers of the small primes, which are multiplied in last.
        return math.prod(starmap(pow, reversed(self.factors)))

    def to_fraction(self) -> Fraction:
        num = math.prod(p**e for p, e in self.factors if e > 0)
        den = math.prod(p**-e for p, e in self.factors if e < 0)
        return Fraction(self.sign * num, den)

    def factorization(self) -> Factorization:
        """Factorization of an integral ratio; :class:`NotAnInteger`
        otherwise.  Needs no factoring: the primes are already known."""
        self._check_integral()
        return Factorization(self.factors)

    def __str__(self) -> str:
        body = str(Factorization(tuple((p, abs(e)) for p, e in self.factors if e > 0)))
        den = tuple((p, -e) for p, e in self.factors if e < 0)
        if den:
            body += " / " + str(Factorization(den))
        return ("-" if self.sign < 0 else "") + body


def _from_exponents(acc: dict[int, int], sign: int) -> FactoredRatio:
    return FactoredRatio(tuple(sorted(filter(itemgetter(1), acc.items()))), sign)


def _times_powers(
    factors: Iterable[tuple[int, int]], sign: int, powers: Mapping[int, int]
) -> FactoredRatio:
    """The ratio with ``factors`` and ``sign`` multiplied by ``k ** w`` for
    every ``k: w`` in ``powers``.  Each distinct integer is factored once,
    and all factors go into one exponent map, sorted once at the end."""
    acc = dict(factors)
    spf = _spf or _build_spf()
    for k, w in powers.items():
        if k == 0:
            raise ValueError("zero has no factored form")
        if k < 0:  # the sign flips only at an odd multiplicity
            sign, k = (-sign if w % 2 else sign), -k
        if k > _SPF_LIMIT:
            _merge(acc, factorize(k).pairs, w)
            continue
        while k > 1:
            p = spf[k] or k
            acc[p] = acc.get(p, 0) + w
            k //= p
    return _from_exponents(acc, sign)


def factorial_ratio(
    numerators: Sequence[int],
    denominators: Sequence[int],
    powers: Mapping[int, int] | None = None,
) -> FactoredRatio:
    """``prod(a!) / prod(b!)``, times ``k ** w`` for every ``k: w`` in
    ``powers``, as a :class:`FactoredRatio`.

    Exponents come from Legendre's formula applied per prime, so no big
    factorial is ever multiplied out; the primes that divide only the
    largest factorial are handled in one step.  More arguments below the
    largest than ``_SLICE_SUM_TERMS`` times the bit length of the second
    largest go, with the ``powers`` up to it, into one suffix-sum list: a
    prime costs a slice sum per power of it, and those above the square
    root of the largest one pass in C.  Fewer arguments cost a Python step
    per argument and prime, which is cheaper for them.
    """
    weight: dict[int, int] = {}
    for a in map(int, numerators):
        weight[a] = weight.get(a, 0) + 1
    for b in map(int, denominators):
        weight[b] = weight.get(b, 0) - 1
    if min(weight, default=0) < 0:
        raise ValueError("factorials of negative integers are undefined")
    # Equal factorials above and below cancel, 0! = 1! = 1, and a! holds no
    # prime above a, so each prime visits only the arguments at least as large.
    terms = sorted((a, w) for a, w in weight.items() if w and a > 1)
    # a!^w / b!^w is (b+1 ... a)^w.  Factoring those integers beats sieving
    # up to a when they are fewer than a / log2(a)**2, well below the primes
    # up to a that the sieve route visits.
    if len(terms) > 1 and terms[-1][1] == -terms[-2][1]:
        (b, _), (a, w) = terms[-2:]
        if (a - b) * a.bit_length() ** 2 < a:
            powers = Counter(powers)
            powers.update(dict.fromkeys(range(b + 1, a + 1), w))
            del terms[-2:]
    factors = []
    if terms:
        top, w_top = terms[-1]
        if top >= sys.maxsize:  # the sieve would hold one entry for each of 0..top
            raise TooLarge(f"factorial argument is too large to count: {top}")
        _extend_sieve(top)
        end = bisect.bisect_right(_sieve_primes, top)
        below = terms[-2][0] if len(terms) > 1 else 1
        root = math.isqrt(top)
        cut = bisect.bisect_right(_sieve_primes, max(root, below), 0, end)
        small, reach, late = cut, 0, ()
        if len(terms) - 1 > _SLICE_SUM_TERMS * below.bit_length():
            # held[j] is the weight of the arguments below top that are at
            # least j, so p**i divides their product sum(held[p**i::p**i])
            # times; a power k <= below, k!/(k-1)!, weighs on j = k alone.
            held = [0] * (below + 1)
            for a, w in terms[:-1]:
                held[a] = w
            held = list(accumulate(reversed(held)))[::-1]
            powers = dict(powers or {})
            for k in [k for k in powers if 1 < k <= below]:
                held[k] += powers.pop(k)
            small = bisect.bisect_right(_sieve_primes, root, 0, cut)
            reach, terms = below, terms[-1:]
            mid = _sieve_primes[small:cut]  # above sqrt(top) only p itself divides
            exponents = map(add, map(mul, repeat(w_top), map(floordiv, repeat(top), mid)),
                            map(sum, map(held.__getitem__, map(slice, mid, repeat(None), mid))))
            late = filter(itemgetter(1), zip(mid, exponents))
        lo = 0
        for p in _sieve_primes[:small]:
            while terms[lo][0] < p:
                lo += 1
            e, q = 0, p
            while q <= reach:
                e, q = e + sum(held[q::q]), q * p
            for a, w in terms[lo:]:
                # Legendre's formula: a! holds p to the power sum(a // p**i).
                while a >= p:
                    a //= p
                    e += w * a
            if e:
                factors.append((p, e))
        factors += late
        # Each prime above sqrt(top) and every other argument divides only
        # top!, exactly top // p times.
        tail = _sieve_primes[cut:end]
        exponents = map(floordiv, repeat(top), tail)
        if w_top != 1:
            exponents = map(mul, repeat(w_top), exponents)
        factors += zip(tail, exponents)
    return _times_powers(factors, 1, powers) if powers else FactoredRatio(tuple(factors))

