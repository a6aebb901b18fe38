"""Exact rational and modular integer arithmetic.

Everything here runs on arbitrary-precision integers: the series coefficients
handled downstream grow to thousands of digits at moderate truncations, so
fixed-width arithmetic anywhere in this layer would be a correctness bug, not
a performance choice.  A residue is a plain int, the least nonnegative one
(``psi``); routes that can lose ell-adic digits count them themselves and
raise ``PrecisionError`` when too few are left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

#: Sentinel for ord_ell(0).  Strictly greater than every finite valuation and
#: never silently usable as an integer (int(inf) raises).
INFINITE_VALUATION = math.inf

Rational = Union[int, Fraction, str, "FracExponent"]


class NotEllIntegralError(ValueError):
    """The working prime divides a denominator that must stay invertible."""


class PrecisionError(ArithmeticError):
    """A residue route cannot guarantee the requested number of digits."""


class MemoryLimitError(MemoryError):
    """A computation would need more memory than the machine has; raised
    before anything is allocated."""


def as_fraction(x: Rational) -> Fraction:
    """Coerce int / str ("a/b") / FracExponent / Fraction to Fraction."""
    if isinstance(x, FracExponent):
        return x.fraction
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class FracExponent:
    """A rational exponent a/b kept in lowest terms with b >= 1."""

    a: int
    b: int = 1

    def __post_init__(self):
        if self.b == 0:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(self.a, self.b)
        a, b = self.a // g, self.b // g
        if b < 0:
            a, b = -a, -b
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def parse(cls, text: Rational) -> "FracExponent":
        f = as_fraction(text)
        return cls(f.numerator, f.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.a, self.b)

    def is_ell_integral(self, ell: int) -> bool:
        return self.b % ell != 0

    def __str__(self):
        return str(self.a) if self.b == 1 else f"{self.a}/{self.b}"


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return [n for n in range(bound + 1) if sieve[n]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin witnesses for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in increasing order."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def mod_inverse(x: int, modulus: int) -> int:
    """Inverse of x modulo modulus; error when gcd(x, modulus) != 1."""
    try:
        return pow(x, -1, modulus)
    except ValueError:
        raise ValueError(f"{x} is not invertible modulo {modulus}") from None


def legendre_symbol(a: int, ell: int) -> int:
    """(a/ell) in {-1, 0, 1} for an odd prime ell."""
    a %= ell
    if a == 0:
        return 0
    s = pow(a, (ell - 1) // 2, ell)
    return -1 if s == ell - 1 else 1


def factorial_valuation(n: int, ell: int) -> int:
    """ord_ell(n!) by Legendre's formula, sum of floor(n / ell^i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total, power = 0, ell
    while power <= n:
        total += n // power
        power *= ell
    return total


def ell_valuation(x: Rational, ell: int):
    """ord_ell(x) for a rational x; INFINITE_VALUATION for x = 0.

    Negative when ell divides the denominator.
    """
    f = as_fraction(x)
    if f == 0:
        return INFINITE_VALUATION
    v = 0
    num = f.numerator
    while num % ell == 0:
        num //= ell
        v += 1
    den = f.denominator
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def psi(m: int, x: Rational) -> int:
    """Least nonnegative residue of an m-integral rational x modulo m.

    Computed as numerator times the modular inverse of the denominator; the
    denominator must be coprime to m.
    """
    f = as_fraction(x)
    if math.gcd(f.denominator, m) != 1:
        raise ValueError(
            f"psi undefined: denominator {f.denominator} not invertible modulo {m}"
        )
    return f.numerator * mod_inverse(f.denominator, m) % m
