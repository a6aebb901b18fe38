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
from fractions import Fraction
from typing import Union

#: Sentinel for ord_ell(0).  Strictly greater than every finite valuation and
#: never silently usable as an integer (int(inf) raises).
INFINITE_VALUATION = math.inf

Rational = Union[int, Fraction, str]


class NotEllIntegralError(ValueError):
    """The working prime divides a denominator that must stay invertible."""


class PrecisionError(ArithmeticError):
    """A residue route cannot guarantee the requested number of digits."""


class MemoryLimitError(MemoryError):
    """A computation would need more memory than the machine has; raised
    before anything is allocated."""


def as_fraction(x: Rational) -> Fraction:
    """Coerce int / str ("a/b") / Fraction to Fraction.

    str() of the result is the canonical spelling of an exponent alpha:
    lowest terms, the sign on the numerator, no "/1".
    """
    if type(x) is Fraction:
        return x  # immutable: no copy needed
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def ell_integral(alpha: Rational, ell: int) -> Fraction:
    """alpha as a Fraction; ValueError when ell is not prime,
    NotEllIntegralError when ell divides its denominator."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    f = as_fraction(alpha)
    if f.denominator % ell == 0:
        raise NotEllIntegralError(f"alpha not {ell}-integral")
    return f


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


#: deterministic Miller-Rabin bases below 3.3e24; the first four decide
#: every n below 3,215,031,751, the least strong pseudoprime to all of
#: them (Jaeschke 1993)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_SMALL_BOUND = 3_215_031_751


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
    # n >= 37 here, so no base is a multiple of n
    for a in _MR_BASES[:4] if n < _MR_SMALL_BOUND else _MR_BASES:
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
    if ell < 3 or ell % 2 == 0:
        # every unit mod 2 is a square: (./2) has no -1 to give
        raise ValueError(f"the Legendre symbol needs an odd prime, not {ell}")
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
