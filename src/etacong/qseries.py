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
  ell-adic logarithm of (q;q), log (q;q) = Y + log (q^ell;q^ell) / ell
  with Y ell-integral, which also gives the Frobenius congruence
  (q;q)^{ell^r a} = (q^ell;q^ell)^{ell^(r-1) a} (mod ell^r).  It divides
  only by the ell-free parts N' of indices, units mod ell, and only mod
  ell, so it needs no padding.

The first two are O(T^2) exact arithmetic; the descent route is the
scalable one (FFT-backed) used for searches and brute-force verification.
Each descent level is one power of (q;q), at most one product by the
correction 1 + ell^(v-1) a Y, and one product by the next level's series
in q^ell, taken one residue class mod ell at a time once the classes
outgrow the direct product (``_times_dilated``); a caller that reads one
class mod ell asks for that class alone (``residue=``), which the top
level's last product forms alone.  The level's split (b, a) is the one
of 2 ell whose power and correction cost fewest transforms
(``_level_split``); a negative b is the power of its absolute value,
inverted, so p(n) = 1/(q;q) takes one level.  ``eta_power_mod`` returns
the residues mod ell^v from the descent while ell^v fits its FFT backend
and from the ledger above that.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from ._convolve import (
    _DIRECT_SIZE_LIMIT,
    FFT_MODULUS_LIMIT,
    _power_chain,
    convolve_class_mod,
    convolve_mod,
    eta_integer_power_mod,
    fixed_operand_mod,
    inverse_mod,
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


def eta_power_residues(alpha: Rational, ell: int, precision: int, trunc: int,
                       *, residue: int | None = None):
    """Raw coefficients of (q;q)^alpha mod ell^precision as an int64 array.

    The descent route.  Write v = precision, m = ell^v and Y = sum Y_N q^N,
    Y_N = -sigma(N')/N' with N' the ell-free part of N (``_log_part_mod``).
    Over Q, log (q;q) = Y + log (q^ell;q^ell) / ell, so for any integer b
    with alpha - b = ell^(v-1) c:

        (q;q)^alpha = (q;q)^b exp(ell^(v-1) c Y) (q^ell;q^ell)^((alpha-b)/ell)

    and, for odd ell and v >= 2, exp(ell^(v-1) c Y) = 1 + ell^(v-1) a Y
    mod m with a = c mod ell: the k-th term has valuation
    k (v - 1) - ord_ell(k!) >= v from k = 2 on.  A level takes the (b, a),
    b in (-m, m), whose power and correction cost fewest transforms
    (``_level_split``), computes (q;q)^b mod m (a negative b is (q;q)^|b|
    inverted by ``inverse_mod``), multiplies by 1 + ell^(v-1) a Y where
    a != 0, and recurses on (alpha - b) / ell at truncation T // ell.
    a = 0 exactly when b == alpha (mod m), the Frobenius descent; ell = 2
    and v = 1 keep to it.  Nothing divides by a power of ell, so the result
    is exact mod ell^precision.  The correction is built in the Y sieve's
    own array as ell^(v-1) (a Y mod ell), plus 1 at q^0
    (``_correction_mod``): no value in it passes max(ell^2, m), so it
    stays int32 wherever m < 2^31 and the sieve's sums fit int32 (to about
    1.1*10^8 coefficients).  The product by it reads that array as it is;
    the result is int64.  The correction shares no data with the power:
    past ``_CORRECTION_BESIDE`` coefficients its sieve runs on a worker
    thread while the power runs on the calling thread
    (``_correction_beside``); below that size, and where a = 0, no thread
    starts.

    With ``residue`` = r in [0, ell), only coefficients r, r + ell, ... up
    to T are returned: inner(q^ell) keeps each class mod ell to itself, so
    that class is the one product out[r::ell] * inner, and the other
    ell - 1 are never formed.  The level's last product forms class r
    alone too: the product by the correction (``convolve_class_mod``), or,
    where a = 0 and b >= 0, the power's own last product
    (``eta_integer_power_mod`` with the class); a power that is inverted
    is sliced.  The inner level is the full series.
    """
    f = ell_integral(alpha, ell)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    if residue is not None and not 0 <= residue < ell:
        raise ValueError(f"residue must lie in [0, {ell})")
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
    b, a = _level_split(f, ell, precision)
    n_out = trunc + 1
    with _correction_beside(ell, precision, a, n_out) as correction:
        if b < 0:
            # inverse_mod holds the only reference to the power
            out = inverse_mod(eta_integer_power_mod(-b, m, n_out), m, n_out)
        else:
            # the power forms the class alone where no product follows it
            out = eta_integer_power_mod(b, m, n_out, ell=ell,
                                        residue=None if a else residue)
    if a:
        z = correction()
        out = (convolve_mod(out, z, m, n_out) if residue is None else
               convolve_class_mod(out, z, m, n_out, residue, ell))
        del z
    elif residue is not None and b < 0:
        out = out[residue::ell].copy()
    inner_alpha = (f - b) / ell
    if inner_alpha == 0 or trunc < ell:
        return out
    inner = eta_power_residues(inner_alpha, ell, precision, trunc // ell)
    if residue is not None:
        return convolve_mod(out, inner[:len(out)], m, len(out))
    return _times_dilated(out, inner, ell, m)


# one correction 1 + ell^(v-1) a Y in _power_chain's units, half the time
# of a dense square of the level's length: its sieve, Y and the full
# product by it took 3.0 to 4.6 of them mod 289, 5^6 and 5^13 at 10^4 to
# 4*10^6 coefficients on a 2-core box (best of 3 to 5 runs), and 2.6 to
# 3.5 where it forms one class mod 17.  Those runs timed the sieve
# serially, before the power; past _CORRECTION_BESIDE it now runs beside
# the power, and the constant is kept so that no level's split moves
_LOG_PART_COST = 4

# a level's correction is built on a worker beside its power past this
# many coefficients, below it after the power on the calling thread.  With
# (q;q)^4 mod 289 (verify's levels; a pair product, loops of short numpy
# calls) the two beside each other took 1.07 to 1.22 times the serial
# time at 1.3*10^5 to 2.6*10^5, 0.99 to 1.05 at 3*10^5 to 4.5*10^5, 0.95
# at 2^19, 0.81 at 2^20 and 0.64 at 4*10^6; with (q;q)^24 (FFT squares)
# 0.95, 0.92 and 0.92 at 2^18, 2^19 and 2^20, and with (q;q)^-5 0.98 to
# 1.01: medians of 9 alternating runs on a 2-core box
_CORRECTION_BESIDE = 1 << 19


def _level_runs(f, ell, precision):
    """Every (b, a) a descent level of f mod m = ell^precision may take, as
    two runs, each by increasing |b|: b >= 0 upward, then b < 0 downward.

    b is an integer in (-m, m) with f - b divisible by ell^(precision - 1),
    and a = (f - b) / ell^(precision - 1) mod ell: then (q;q)^f is
    (q;q)^b (1 + ell^(precision - 1) a Y) (q^ell;q^ell)^((f - b) / ell) mod
    m.  a = 0 exactly for psi(m, f) and psi(m, f) - m.  At
    ell = 2 or precision 1 the higher terms of exp((f - b) Y) do not vanish
    mod m, and only those two remain.
    """
    m = ell ** precision
    e = psi(m, f)
    if ell == 2 or precision == 1:
        return [(e, 0)], [(e - m, 0)]
    # b = low + j step in [0, m): (f - b) / step is (f - e) / step, which
    # ell divides, plus top - j
    step = m // ell
    low, top = e % step, e // step
    return (((low + j * step, (top - j) % ell) for j in range(ell)),
            ((low + j * step - m, (top - j) % ell)
             for j in reversed(range(ell))))


def _level_split(f, ell, precision):
    """The (b, a) of one descent level whose power (q;q)^b and correction
    cost fewest transforms (``_power_chain``, and ``_LOG_PART_COST`` where
    a != 0): a = 0 on a tie, then the nonnegative b, then the smaller.

    No (q;q)^b costs fewer than 2 (bits(|b|) - 4) transforms (2 (bits(e)
    - 2) or more, and e / 3 has at least bits(e) - 2 bits), so the two
    runs are merged by |b| and read until that bound passes the best cost.
    """
    best = split = None
    for b, a in heapq.merge(*_level_runs(f, ell, precision),
                            key=lambda c: abs(c[0])):
        if best is not None and 2 * (abs(b).bit_length() - 4) > best[0]:
            break
        cost = (_power_chain(b)[0] + (_LOG_PART_COST if a else 0), a != 0,
                b < 0, abs(b))
        if best is None or cost < best:
            best, split = cost, (b, a)
    return split


# every value the descent holds in int32 stays below this: the divisor
# sums, the products of two residues mod ell, and the correction's residues
# mod ell^v
_INT32_SIGMA_LIMIT = 1 << 31


def _divisor_sums(trunc):
    """sigma(0..T) as an int32 array, or int64 once sigma(N) <= N (1 +
    ln N), its bound, could reach ``_INT32_SIGMA_LIMIT``; sigma(0) = 0.

    Each divisor pair (d, k) of N = d k, d <= k, is added once, as d + k
    (or d when k = d), from the rows d <= sqrt(T): no partial sum passes
    sigma(N).  The row d = 1 is the array's start, N + 1 at every N >= 2.
    A row's values d + k come from aranges of at most 2^16 k, so no
    temporary is long beside the result.
    """
    bound = trunc * (1 + math.log(trunc)) if trunc else 0
    dtype = np.int32 if bound < _INT32_SIGMA_LIMIT else np.int64
    sigma = np.arange(1, trunc + 2, dtype=dtype)
    sigma[0] = 0
    sigma[1:2] = 1
    chunk = 1 << 16
    for d in range(2, math.isqrt(trunc) + 1):
        sigma[d * d] += d
        # d + k at N = d k for k in (d, T / d], at most chunk at a time
        end = trunc // d + 1
        for k in range(d + 1, end, chunk):
            top = min(k + chunk, end)
            sigma[d * k:d * top:d] += np.arange(d + k, d + top, dtype=dtype)
    return sigma


def _correction_mod(ell, precision, a, n_out):
    """1 + ell^(v-1) (a Y mod ell) mod ell^v to n_out coefficients, v =
    precision, built in the Y sieve's own array (``_log_part_mod``): no
    value passes max(ell^2, m), so it stays int32 where m fits it."""
    z = _log_part_mod(ell, n_out)
    if ell ** precision >= _INT32_SIGMA_LIMIT:
        z = z.astype(np.int64, copy=False)
    z *= a
    z %= ell
    z *= ell ** (precision - 1)
    z[0] = 1
    return z


@contextlib.contextmanager
def _correction_beside(ell, precision, a, n_out):
    """Yields a callable that returns ``_correction_mod(ell, precision, a,
    n_out)``.

    Past ``_CORRECTION_BESIDE`` coefficients with a != 0 the correction
    starts at once on a one-worker pool and is built beside the block's
    work; leaving the block joins the worker, whether the block returns or
    raises, and the callable then returns the correction or raises its
    error.  Otherwise the callable builds it on the calling thread, and no
    thread starts.
    """
    if not a or n_out <= _CORRECTION_BESIDE:
        yield lambda: _correction_mod(ell, precision, a, n_out)
        return
    # imported once a worker is needed, as for the products
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        yield pool.submit(_correction_mod, ell, precision, a, n_out).result


def _log_part_mod(ell, n_out):
    """Y mod ell to n_out coefficients: the ell-integral part of log (q;q),
    Y_N = -sigma(N')/N' with N' = N less every factor ell.  int32 while
    the divisor sums and (ell - 1)^2 stay below ``_INT32_SIGMA_LIMIT``,
    int64 otherwise.

    log (q;q) = -sum sigma(N)/N q^N = Y + log (q^ell;q^ell) / ell, since
    sigma(N) - sigma(N/ell) = ell^k sigma(N') at N = ell^k N'.  N' is an
    ell-unit, so dividing by it mod ell loses nothing.  The sieve's own
    array becomes Y in place.  Class c != 0 mod ell is ell-free, and
    Y_N = sigma(N) (-1/c) mod ell there: the array, reduced mod ell, is
    read as rows of ell coefficients, whose column c is class c, times
    the row of the -1/c.  Class 0 follows from Y_(ell k) = Y_k: one copy
    y[ell::ell] = y[1:...] per power of ell below n_out, the i-th of
    which sets every N of valuation i (numpy buffers the overlap).
    """
    y = _divisor_sums(n_out - 1)
    if (ell - 1) ** 2 >= _INT32_SIGMA_LIMIT:
        y = y.astype(np.int64, copy=False)
    y %= ell
    # class 0's column is 0 until the copies below set it
    inverses = np.array([0] + [-pow(c, -1, ell) % ell
                               for c in range(1, min(ell, n_out))],
                        dtype=y.dtype)
    rows = n_out // ell
    if rows:
        body = y[:rows * ell].reshape(rows, ell)
        body *= inverses
    tail = y[rows * ell:]
    tail *= inverses[:len(tail)]
    y %= ell
    width, power = len(range(0, n_out, ell)), ell
    while power < n_out:
        y[ell::ell] = y[1:width]
        power *= ell
    return y


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
