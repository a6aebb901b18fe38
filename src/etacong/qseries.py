"""Truncated formal power series with exact coefficients.

A ``QSeries`` holds exact coefficients (Python ints or Fractions); residues
mod ell^v are plain lists of ints.  The central objects are the eta-power
series (q;q)_infinity^alpha whose coefficients are the fractional partition
numbers p_alpha(n).

Three independent routes compute those coefficients:

* ``eta_power_rational`` -- exact rationals from the logarithmic-derivative
  recurrence n*c(n) = -alpha * sum sigma_1(j) c(n-j);
* ``eta_power_mod(..., method="ledger")`` -- the same recurrence run on
  residues at a padded modulus, charging each coefficient one lost ell-adic
  digit per factor of ell it is divided by;
* ``eta_power_mod(..., method="descent")`` -- repeated exponent reduction
  through the Frobenius congruence
  (q;q)^{ell^r a} = (q^ell;q^ell)^{ell^(r-1) a} (mod ell^r),
  which never divides by the running index and therefore needs no padding.

The first two are O(T^2) exact arithmetic and serve as oracles; the descent
route is the scalable one (FFT-backed) used for searches and brute-force
verification.  ``eta_power_mod`` returns the residues together with the
number of guaranteed ell-adic digits of each one.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction

import numpy as np

from ._convolve import (
    FFT_MODULUS_LIMIT,
    binary_power,
    convolve_mod,
    eta_integer_power_mod,
    product_bytes,
)
from .numerics import (
    MemoryLimitError,
    NotEllIntegralError,
    PrecisionError,
    Rational,
    as_fraction,
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


class QSeries:
    """A power series known modulo q^(truncation+1), coefficients dense."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation=None):
        coeffs = list(coeffs)
        if truncation is None:
            truncation = len(coeffs) - 1
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        if len(coeffs) < truncation + 1:
            coeffs = coeffs + [0] * (truncation + 1 - len(coeffs))
        self.coeffs = coeffs[: truncation + 1]
        self.truncation = truncation

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self):
        return self.truncation + 1

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        more = ", ..." if self.truncation > 5 else ""
        return f"QSeries([{head}{more}], T={self.truncation})"

    def __add__(self, other):
        t = min(self.truncation, other.truncation)
        return QSeries([self.coeffs[n] + other.coeffs[n] for n in range(t + 1)], t)

    def __sub__(self, other):
        t = min(self.truncation, other.truncation)
        return QSeries([self.coeffs[n] - other.coeffs[n] for n in range(t + 1)], t)

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.truncation)

    def __mul__(self, other):
        """Truncated Cauchy product; result truncation is min(T1, T2)."""
        t = min(self.truncation, other.truncation)
        out = [0] * (t + 1)
        for i in range(t + 1):
            ci = self.coeffs[i]
            if ci == 0:
                continue
            for j in range(t + 1 - i):
                cj = other.coeffs[j]
                if cj != 0:
                    out[i + j] = out[i + j] + ci * cj
        return QSeries(out, t)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("not invertible: constant term is zero")
        inv0 = c0 if isinstance(c0, int) and c0 in (1, -1) else Fraction(1) / Fraction(c0)
        out = [inv0] + [0] * self.truncation
        for n in range(1, self.truncation + 1):
            acc = 0
            for j in range(1, n + 1):
                cj = self.coeffs[j]
                if cj != 0:
                    acc = acc + cj * out[n - j]
            out[n] = -(inv0 * acc)
        return QSeries(out, self.truncation)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            return self.inverse() ** (-e)
        return binary_power(self, e, QSeries([1], self.truncation), operator.mul)

    def frobenius(self, ell: int) -> "QSeries":
        """Substitute q -> q^ell; coefficients beyond floor(T/ell) drop."""
        if ell < 1:
            raise ValueError("ell must be >= 1")
        out = [0] * (self.truncation + 1)
        for n in range(self.truncation // ell + 1):
            out[ell * n] = self.coeffs[n]
        return QSeries(out, self.truncation)

    def extract_progression(self, modulus: int, residue: int) -> "QSeries":
        """g with g[n] = f[modulus*n + residue]; truncation floor((T-c)/m)."""
        if not 0 <= residue < modulus:
            raise ValueError("residue must lie in [0, modulus)")
        t = (self.truncation - residue) // modulus
        if t < 0:
            raise HorizonError("horizon too small for this progression")
        return QSeries([self.coeffs[modulus * n + residue] for n in range(t + 1)], t)


def coefficient_denominator(alpha: Rational, n: int) -> int:
    """Denominator of p_alpha(n) in lowest terms: b^n * prod_{p|b} p^ord_p(n!)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = as_fraction(alpha).denominator
    den = b ** n
    for p in prime_factors(b):
        den *= p ** factorial_valuation(n, p)
    return den


def _eta_numerators(alpha: Fraction, trunc: int):
    """Integers u(n) = p_alpha(n) * coefficient_denominator(alpha, n).

    Clearing the predicted denominators keeps the whole recurrence in Z,
    which is much faster than Fraction arithmetic; every division below is
    checked to be exact.
    """
    a, b = alpha.numerator, alpha.denominator
    b_primes = prime_factors(b)
    sigma = divisor_sum_table(1, trunc)
    dens = [1] * (trunc + 1)
    for n in range(1, trunc + 1):
        step = b
        for p in b_primes:
            nn = n
            while nn % p == 0:
                step *= p
                nn //= p
        dens[n] = dens[n - 1] * step
    u = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        acc = 0
        dn = dens[n]
        for j in range(1, n + 1):
            if u[n - j]:
                acc += sigma[j] * u[n - j] * (dn // dens[n - j])
        q, r = divmod(-a * acc, b * n)
        if r:
            raise ArithmeticError("eta recurrence lost integrality")
        u[n] = q
    return u, dens


def eta_power_rational(alpha: Rational, trunc: int) -> QSeries:
    """(q;q)_infinity^alpha over Q, exact, coefficients in lowest terms."""
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    f = as_fraction(alpha)
    u, dens = _eta_numerators(f, trunc)
    if f.denominator == 1:
        return QSeries(u, trunc)
    return QSeries([Fraction(u[n], dens[n]) for n in range(trunc + 1)], trunc)


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
    f = as_fraction(alpha)
    if f.denominator % ell == 0:
        raise NotEllIntegralError(f"alpha not {ell}-integral")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if trunc < 0:
        return np.zeros(0, dtype=np.int64)
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
        dilated = np.zeros(trunc + 1, dtype=np.int64)
        dilated[::ell] = eta_power_residues(
            ell ** (precision - 1) * gamma, ell, precision, trunc // ell)
        out = convolve_mod(out, dilated, m, trunc + 1)
    return out


def _eta_power_mod_ledger(alpha: Fraction, ell: int, precision: int, trunc: int):
    """Padded-modulus recurrence with an explicit per-coefficient ledger.

    Works at ell^R with R = precision + ord_ell(trunc!) so the worst possible
    precision loss along the recurrence (one ord_ell(n) per division) still
    leaves >= precision guaranteed digits; the ledger is verified at the end.
    Returns (values mod ell^R, losses, R).
    """
    pad = factorial_valuation(trunc, ell) if trunc > 0 else 0
    big_exp = precision + pad
    modulus = ell ** big_exp
    a, b = alpha.numerator, alpha.denominator
    scale = -a * mod_inverse(b, modulus) % modulus
    sigma = divisor_sum_table(1, trunc)
    values = [1] + [0] * trunc
    losses = [0] * (trunc + 1)
    worst = 0  # max loss among coefficients 0..n-1; the sum feeds them all in
    for n in range(1, trunc + 1):
        acc = 0
        for j in range(1, n + 1):
            v = values[n - j]
            if v:
                acc += sigma[j] * v
        acc = acc * scale % modulus
        e = 0
        nn = n
        while nn % ell == 0:
            nn //= ell
            e += 1
        if e:
            if acc % ell ** e:
                raise PrecisionError("insufficient padding in ledger recurrence")
            acc //= ell ** e
        values[n] = acc * mod_inverse(nn, modulus) % modulus
        losses[n] = worst + e
        worst = losses[n]
    # a-posteriori ledger check: every coefficient keeps >= precision digits
    if big_exp - worst < precision:
        raise PrecisionError("insufficient padding in ledger recurrence")
    return values, losses, big_exp


def eta_power_mod(alpha: Rational, ell: int, precision: int, trunc: int,
                  method: str = "auto") -> tuple[list[int], list[int]]:
    """(q;q)_infinity^alpha mod ell^precision as (values, digits).

    values[n] is p_alpha(n) mod ell^precision and digits[n] the number of
    ell-adic digits guaranteed for it, never fewer than ``precision``.
    ``method`` selects the route: "descent" (exact mod ell^precision, so
    digits are ``precision``), "ledger" (padded recurrence, quadratic,
    oracle-grade; digits are what its padding keeps), or "auto" (the descent
    while ell^precision fits its FFT backend, else the ledger).
    """
    f = as_fraction(alpha)
    if f.denominator % ell == 0:
        raise NotEllIntegralError(f"alpha not {ell}-integral")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    if method == "auto":
        method = "descent" if ell ** precision < FFT_MODULUS_LIMIT else "ledger"
    if method == "descent":
        values = eta_power_residues(f, ell, precision, trunc).tolist()
        return values, [precision] * len(values)
    if method == "ledger":
        values, losses, big_exp = _eta_power_mod_ledger(f, ell, precision, trunc)
        m = ell ** precision
        return [v % m for v in values], [big_exp - loss for loss in losses]
    raise ValueError(f"unknown method {method!r}")


def reduce_series(f: QSeries, ell: int, precision: int) -> list[int]:
    """Coefficients of an exact series reduced mod ell^precision."""
    m = ell ** precision
    out = []
    for c in f.coeffs:
        fc = Fraction(c)
        if fc.denominator % ell == 0:
            raise NotEllIntegralError(f"coefficient {c} not {ell}-integral")
        out.append(psi(m, fc))
    return out


def frobenius_congruence_check(alpha: Rational, ell: int, r: int, trunc: int,
                               method: str = "rational") -> bool:
    """Check (q;q)^{ell^r alpha} == (q^ell;q^ell)^{ell^(r-1) alpha} mod ell^r.

    The default route computes both sides from the exact rational recurrence,
    keeping the check independent of the descent backend (which is built on
    this very congruence and would make the comparison circular).
    """
    f = as_fraction(alpha)
    if f.denominator % ell == 0:
        raise NotEllIntegralError(f"alpha not {ell}-integral")
    if r < 1:
        raise ValueError("r must be >= 1")
    if method == "rational":
        lhs = reduce_series(eta_power_rational(ell ** r * f, trunc), ell, r)
        inner = reduce_series(
            eta_power_rational(ell ** (r - 1) * f, trunc // ell), ell, r
        )
    elif method == "ledger":
        lhs = eta_power_mod(ell ** r * f, ell, r, trunc, "ledger")[0]
        inner = eta_power_mod(ell ** (r - 1) * f, ell, r, trunc // ell, "ledger")[0]
    else:
        raise ValueError(f"unknown method {method!r}")
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
