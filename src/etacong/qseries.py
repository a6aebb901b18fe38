"""Truncated power series of eta powers, exact and modulo ell^v.

A series is a plain list: coefficient n is f[n] and the truncation is
len(f) - 1.  Exact coefficients are Python ints or Fractions; residues mod
ell^v are ints.  The central objects are the eta-power series
(q;q)_infinity^alpha whose coefficients are the fractional partition
numbers p_alpha(n).

Three independent routes compute those coefficients:

* ``eta_power_rational`` -- exact rationals from the logarithmic-derivative
  recurrence n*c(n) = -alpha * sum sigma_1(j) c(n-j);
* ``_eta_power_mod_ledger`` -- the same recurrence run on residues at a
  padded modulus, charging one lost ell-adic digit per factor of ell it
  divides by;
* ``eta_power_residues`` -- repeated exponent reduction through the
  Frobenius congruence
  (q;q)^{ell^r a} = (q^ell;q^ell)^{ell^(r-1) a} (mod ell^r),
  which never divides by the running index and therefore needs no padding.

The first two are O(T^2) exact arithmetic; the descent route is the
scalable one (FFT-backed) used for searches and brute-force verification.
Each descent level is one power of (q;q) and one product by the next
level's series in q^ell, taken one residue class mod ell at a time once
the classes outgrow the direct product (``_times_dilated``).
``eta_power_mod`` returns the residues mod ell^v from the descent while
ell^v fits its FFT backend and from the ledger above that.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from ._convolve import (
    _DIRECT_SIZE_LIMIT,
    FFT_MODULUS_LIMIT,
    convolve_mod,
    eta_integer_power_mod,
    fixed_operand_mod,
    product_bytes,
)
from .numerics import (
    MemoryLimitError,
    NotEllIntegralError,
    PrecisionError,
    Rational,
    as_fraction,
    ell_integral,
    ell_valuation,
    factorial_valuation,
    mod_inverse,
    prime_factors,
    psi,
)


class HorizonError(ValueError):
    """An operation would need more coefficients than the series carries."""


def divisor_sum_table(exponent: int, trunc: int) -> list[int]:
    """sigma_e(0..T), the sums of e-th powers of divisors (sigma_e(0) = 0)."""
    values = [0] * (trunc + 1)
    for d in range(1, trunc + 1):
        step = d ** exponent
        for n in range(d, trunc + 1, d):
            values[n] += step
    return values


def _eta_numerators(alpha: Fraction, trunc: int):
    """(u, steps): integers u(n) = p_alpha(n) * D(n), where D(n) = b^n
    prod_{p|b} p^ord_p(n!), b the denominator of alpha, is the denominator
    of p_alpha(n) in lowest terms, and the small ints steps[n] = D(n)/D(n-1).

    Clearing the predicted denominators keeps the whole recurrence in Z,
    which is much faster than Fraction arithmetic.  D(n) sum_j sigma(j)
    c(n - j) is summed by Horner over the steps, with no big division; the
    one division per n is checked to be exact.
    """
    a, b = alpha.numerator, alpha.denominator
    b_primes = prime_factors(b)
    sigma = divisor_sum_table(1, trunc)
    steps = [1] * (trunc + 1)
    for n in range(1, trunc + 1):
        step = b
        for p in b_primes:
            nn = n
            while nn % p == 0:
                step *= p
                nn //= p
        steps[n] = step
    u = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        acc = 0
        for sig, x, step in zip(sigma[n:0:-1], u, steps[1:n + 1]):
            acc = (acc + sig * x) * step
        q, r = divmod(-a * acc, b * n)
        if r:
            raise ArithmeticError("eta recurrence lost integrality")
        u[n] = q
    return u, steps


def eta_power_rational(alpha: Rational, trunc: int) -> list:
    """(q;q)_infinity^alpha over Q, exact, coefficients in lowest terms:
    ints for integral alpha, else Fractions."""
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    f = as_fraction(alpha)
    u, steps = _eta_numerators(f, trunc)
    if f.denominator == 1:
        return u
    return [Fraction(x, den) for x, den in zip(u, accumulate(steps, mul))]


def physical_memory_bytes() -> int | None:
    """The machine's physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def eta_power_residues(alpha: Rational, ell: int, precision: int, trunc: int):
    """Raw coefficients of (q;q)^alpha mod ell^precision as an int64 array.

    The Frobenius-descent route: write alpha = e + ell^v * gamma with an
    integer e in [0, ell^v), compute (q;q)^e exactly mod ell^v, and recurse on
    (q^ell;q^ell)^{ell^(v-1) gamma} at truncation T // ell.  No division by
    the series index ever happens, so the result is exact mod ell^precision.
    """
    f = ell_integral(alpha, ell)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    m = ell ** precision
    if m >= FFT_MODULUS_LIMIT:
        raise PrecisionError(
            f"modulus {ell}^{precision} too large for the descent backend"
        )
    # the top level's product dominates the descent's memory: refuse a
    # truncation it could not hold before allocating anything
    need, have = product_bytes(trunc + 1, m), physical_memory_bytes()
    if have is not None and need > have:
        raise MemoryLimitError(
            f"{trunc + 1} coefficients mod {m} need about {need / 2**30:.2f} "
            f"GiB for one product, more than the {have / 2**30:.2f} GiB of "
            f"physical memory")
    e = psi(m, f)
    out = eta_integer_power_mod(e, m, trunc + 1)
    gamma = (f - e) / m
    if gamma != 0 and trunc >= ell:
        out = _times_dilated(out, eta_power_residues(
            ell ** (precision - 1) * gamma, ell, precision, trunc // ell),
            ell, m)
    return out


def _times_dilated(series, inner, ell, m):
    """series(q) * inner(q^ell) mod m, to len(series) coefficients.

    The product keeps each residue class mod ell to itself: coefficients
    r, r + ell, ... of the result are series[r::ell] * inner.  Classes
    longer than the direct path's size limit take one product each by
    inner's spectra, computed once, and the result is written in place;
    shorter ones take the one product by inner zero-padded to full length.
    """
    width = len(inner)
    if width > _DIRECT_SIZE_LIMIT:
        times_inner = fixed_operand_mod(inner, m, width)
        for r in range(ell):
            row = series[r::ell]
            row[:] = times_inner(row)[:len(row)]
        return series
    dilated = np.zeros(len(series), dtype=np.int64)
    dilated[::ell] = inner
    return convolve_mod(series, dilated, m, len(series))


def _eta_power_mod_ledger(alpha: Rational, ell: int, precision: int,
                          trunc: int) -> list[int]:
    """Padded-modulus recurrence, residues mod ell^precision.

    Works at ell^R with R = precision + ord_ell(trunc!) so the worst possible
    precision loss along the recurrence (one ord_ell(n) per division) still
    leaves >= precision guaranteed digits; the loss is verified at the end.
    """
    f = ell_integral(alpha, ell)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    big_exp = precision + factorial_valuation(trunc, ell)
    modulus = ell ** big_exp
    scale = -f.numerator * mod_inverse(f.denominator, modulus) % modulus
    sigma = divisor_sum_table(1, trunc)
    values = [1] + [0] * trunc
    worst = 0  # digits lost so far; each coefficient feeds all later ones
    for n in range(1, trunc + 1):
        acc = sum(map(mul, sigma[n:0:-1], values))  # sigma(n - i) c(i), i < n
        e = ell_valuation(n, ell)
        acc, rest = divmod(acc * scale % modulus, ell ** e)
        if rest:
            raise PrecisionError("insufficient padding in ledger recurrence")
        values[n] = acc * mod_inverse(n // ell ** e, modulus) % modulus
        worst += e
    # a-posteriori check: every coefficient keeps >= precision digits
    if big_exp - worst < precision:
        raise PrecisionError("insufficient padding in ledger recurrence")
    m = ell ** precision
    return [v % m for v in values]


def eta_power_mod(alpha: Rational, ell: int, precision: int,
                  trunc: int) -> list[int]:
    """(q;q)_infinity^alpha mod ell^precision: values[n] is p_alpha(n) mod
    ell^precision.

    The descent while ell^precision fits its FFT backend, the padded ledger
    recurrence (quadratic) above it.
    """
    if ell ** precision < FFT_MODULUS_LIMIT:
        return eta_power_residues(alpha, ell, precision, trunc).tolist()
    return _eta_power_mod_ledger(alpha, ell, precision, trunc)


def reduce_series(f: list, ell: int, precision: int) -> list[int]:
    """Coefficients of an exact series reduced mod ell^precision."""
    m = ell ** precision
    out = []
    for c in f:
        fc = Fraction(c)
        if fc.denominator % ell == 0:
            raise NotEllIntegralError(f"coefficient {c} not {ell}-integral")
        out.append(psi(m, fc))
    return out


def frobenius_congruence_check(alpha: Rational, ell: int, r: int,
                               trunc: int) -> bool:
    """Check (q;q)^{ell^r alpha} == (q^ell;q^ell)^{ell^(r-1) alpha} mod ell^r.

    Both sides come from the exact rational recurrence, keeping the check
    independent of the descent backend (which is built on this very
    congruence and would make the comparison circular).
    """
    f = ell_integral(alpha, ell)
    if r < 1:
        raise ValueError("r must be >= 1")
    lhs = reduce_series(eta_power_rational(ell ** r * f, trunc), ell, r)
    inner = reduce_series(
        eta_power_rational(ell ** (r - 1) * f, trunc // ell), ell, r
    )
    rhs = [0] * (trunc + 1)
    for n, v in enumerate(inner):
        rhs[ell * n] = v
    return lhs == rhs


def partition_numbers(trunc: int) -> list[int]:
    """p(0..T) by the pentagonal-number recurrence (independent oracle)."""
    p = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if j % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p
