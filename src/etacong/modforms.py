"""Level-one modular forms as exact integer q-expansions.

Provides Eisenstein series, Delta and its powers, the integral echelon
(Victor-Miller) basis of S_k, Hecke operator matrices on it, the Gram
determinant of trace pairings, the theta operator and the mod-ell weight
filtration.

The Gram matrix G[m][n] = Tr(T_m T_n) is the bridge to eigenform data
without any number-field arithmetic: the Hecke operators diagonalize
simultaneously with eigenvalues a_i(m), so G = A A^t for the matrix A whose
columns hold the first d_k coefficients of the normalized eigenforms, and
det G = (det A)^2 is an ordinary integer.  A rational prime divides the norm
of det A exactly when it divides det G, which is the divisibility the
good-prime test needs.

Exact (big-integer) arithmetic is used for small weights; the search-scale
path reduces everything mod ell up front and works on numpy arrays.  The
exact path builds the matrices T_1..T_d on the echelon basis and sums
Tr(T_m T_n) over them.  The mod-ell path climbs a ladder of single Hecke
operators T_p, p = 2, 3, 5, 7, each on a basis to horizon p d.  One
elimination of the Krylov rows e_1^T T_p^i (i <= d) gives the minimal
polynomial mu of e_1^T under T_p, and Euclid's loop on (mu, mu') its
discriminant.  With K the first d rows, det G = disc(mu) / det(K)^2
whenever ell does not divide det K.  Where K is singular mod ell, a T_p
that is not semisimple (disc(mu) == 0: mu has a repeated factor) still
proves ell | det G: det G is the discriminant of the Hecke algebra T, and
such a T_p shows a nilpotent in T (x) F_ell, which the trace form kills.
Where no rung decides, the trace t(N) = Tr T_N does: at level one
T_m T_n is the sum over e | (m, n) of e^(k-1) T_(mn/e^2), so
G[m][n] = sum e^(k-1) t(mn/e^2).  The trace form sum t(N) q^N lies in
S_k, so t up to d^2 is one combination of the d rows of a basis to d^2,
with weights t(1..d) read off the same rows.  The mod-ell basis takes E4
and E6 from a divisor sieve mod ell and computes the limb spectra of its
fixed factor X = Delta / E4^3 once.  Its residue products, and every
elimination's, exact for every ell < 2^33, are ``_convolve.mul_mod``
(elementwise) and ``_matmul_mod``.  On both paths the caller builds each
echelon basis at the horizon it needs; nothing is cached between calls.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._convolve import (
    FFT_MODULUS_LIMIT,
    _matmul_mod,
    binary_power,
    convolve_exact,
    convolve_mod,
    eta_integer_power_mod,
    fixed_operand_mod,
    inverse_mod,
    mul_mod,
    power_mod,
)
from .numerics import (
    Rational,
    ell_integral,
    is_prime,
    mod_inverse,
    psi,
)
from .qseries import HorizonError, divisor_sum_table, eta_power_rational

#: m values in the non-ordinarity weight test (k - m divisible by ell - 1)
NONORDINARY_M_SET = (4, 6, 8, 10, 14)


class WeightCapExceeded(RuntimeError):
    """A good-prime check needs a cusp form space beyond the weight cap."""


def dim_cusp_forms(weight: int) -> int:
    """dim S_k at level one: k // 12, less one when k == 2 mod 12 (zero for
    odd k and k < 4)."""
    if weight < 4 or weight % 2:
        return 0
    return weight // 12 - 1 if weight % 12 == 2 else weight // 12


def eisenstein(weight: int, trunc: int) -> list[int]:
    """E4 or E6 as an exact integer q-expansion."""
    if weight == 4:
        sig = divisor_sum_table(3, trunc)
        return [1] + [240 * sig[n] for n in range(1, trunc + 1)]
    if weight == 6:
        sig = divisor_sum_table(5, trunc)
        return [1] + [-504 * sig[n] for n in range(1, trunc + 1)]
    raise ValueError("only weights 4 and 6 are generators")


def delta(trunc: int) -> list[int]:
    """Ramanujan's Delta = q (q;q)^24, exact integers."""
    return [0] + (eta_power_rational(24, trunc - 1) if trunc else [])


def delta_power(k: int, trunc: int) -> list[int]:
    """Delta^k; coefficient n is tau_k(n)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return binary_power(delta(trunc), k, [1] + [0] * trunc,
                        lambda f, g: convolve_exact(f, g, trunc + 1))


def _monomial_exponents(weight: int, j: int):
    """(a, b) with 4a + 6b = weight - 12j, b in {0, 1}; None if insoluble."""
    w = weight - 12 * j
    if w < 0:
        return None
    b = (w // 2) % 2
    if w - 6 * b < 0:
        return None
    return (w - 6 * b) // 4, b


def victor_miller_basis(weight: int, trunc: int) -> list[list[int]]:
    """Integral echelon basis of S_weight to the given horizon.

    Row i has coefficient 1 at q^(i+1) and 0 at the other pivot columns; a
    horizon below dim + 1 is raised to it.  Built from the monomials
    Delta^j E4^a E6^b with 4a + 6b + 12j = weight.  Going down one j raises
    a by 3, so the rows are made from the top j down, one product with E4^3
    per step, and the Delta^j come from an ascending ladder: three exact
    products per row.  The mod-ell route's step Delta / E4^3 = 1/j is
    not used here: its integer coefficients grow like e^(pi sqrt(3) n).
    """
    if weight < 0 or weight % 2:
        raise ValueError("weight must be even and nonnegative")
    d = dim_cusp_forms(weight)
    if d == 0:
        return []
    trunc = max(trunc, d + 1)
    if _monomial_exponents(weight, d) is None:
        raise ArithmeticError("monomial spanning set disagrees with dimension")
    a, b = _monomial_exponents(weight, d)
    e4 = eisenstein(4, trunc)
    dlt = delta(trunc)
    n_out = trunc + 1

    def mul(f, g):
        return convolve_exact(f, g, n_out)

    # rows[i] holds Delta^(i+1) until the loop below multiplies it out
    rows = [dlt]
    for _ in range(d - 1):
        rows.append(mul(rows[-1], dlt))
    mono = binary_power(e4, a, [1] + [0] * trunc, mul)
    if b:
        mono = mul(mono, eisenstein(6, trunc))
    e4_cubed = mul(mul(e4, e4), e4)
    for i in range(d - 1, -1, -1):
        rows[i] = mul(rows[i], mono)
        if i:
            mono = mul(mono, e4_cubed)
    # echelonize; pivots are already 1 (Delta^j has leading coefficient 1) so
    # only integer row subtractions occur and no denominator can appear
    for i in range(d):
        if rows[i][i + 1] != 1:
            raise ArithmeticError("echelon pivot is not 1")
        for i2 in range(d):
            if i2 != i and rows[i2][i + 1]:
                c = rows[i2][i + 1]
                rows[i2] = [x - c * y for x, y in zip(rows[i2], rows[i])]
    return rows


def hecke_action(f, weight: int, m: int, trunc: int) -> list:
    """f | T_m: coefficient n is sum over d | (m, n) of d^(weight-1) a(mn/d^2).

    Producing trunc + 1 coefficients consumes coefficients of f up to
    m * trunc; short input raises instead of silently truncating.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(f) - 1 < m * trunc:
        raise HorizonError(
            f"horizon too small: need {m * trunc}, have {len(f) - 1}"
        )
    out = []
    for n in range(trunc + 1):
        acc = None
        for d in _divisors(math.gcd(m, n)):
            term = d ** (weight - 1) * f[m * n // (d * d)]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _divisors(n):
    """Divisors of n >= 1 in increasing order, by trial division to sqrt(n)."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def hecke_matrix(weight: int, m: int, basis) -> list[list[int]]:
    """Matrix of T_m on S_weight, given its cuspidal echelon basis rows;
    column j expands row_j | T_m in the basis.

    Coordinates in the echelon basis are just the coefficients at q^1..q^d,
    so the basis needs m*d coefficients; hecke_action refuses a shorter one.
    """
    d = len(basis)
    cols = [hecke_action(row, weight, m, d)[1:] for row in basis]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _bareiss_determinant(mat) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [list(row) for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def gram_matrix(mats):
    """G[m][n] = Tr(T_m T_n) for the matrices T_1..T_d, exact integers."""
    d = len(mats)
    return [[sum(a[i][j] * b[j][i] for i in range(d) for j in range(d))
             for b in mats] for a in mats]


def gram_determinant_of(mats) -> int:
    """det gram_matrix(mats): the square of the eigenform coefficient
    determinant.  Empty space gives 1 by convention."""
    return _bareiss_determinant(gram_matrix(mats))


def gram_determinant(weight: int) -> int:
    """gram_determinant_of T_1..T_d on S_weight, over one basis built to the
    d*d coefficients T_d needs."""
    d = dim_cusp_forms(weight)
    if d == 0:
        return 1
    basis = victor_miller_basis(weight, d * d)
    return gram_determinant_of([hecke_matrix(weight, m, basis)
                                for m in range(1, d + 1)])


# ---------------------------------------------------------------------------
# mod-ell fast path: basis, Hecke stack and Gram determinant as int64 arrays
# ---------------------------------------------------------------------------

#: columns per block when the basis is solved in place (bounds the float64
#: copies the solve makes to about d * 4096 * 8 bytes each)
_SOLVE_BLOCK = 4096

#: pivots per panel of ``_solve_mod``: the panel's rank-1 updates cost one
#: numpy pass each, the update of the rows below it one BLAS product
_ELIMINATION_BLOCK = 16


def _delta_mod(ell: int, n_out: int) -> np.ndarray:
    """Delta mod ell to n_out coefficients, from the pentagonal product
    q*(q;q)^24: no division by 1728 is needed, so ell = 2, 3 stay valid."""
    dlt = np.zeros(n_out, dtype=np.int64)
    dlt[1:] = eta_integer_power_mod(24, ell, n_out - 1)
    return dlt


def _eisenstein_mod(weight: int, ell: int, trunc: int) -> np.ndarray:
    """E4 or E6 mod ell to trunc + 1 coefficients, by a divisor sieve.

    sigma_(w-1)(n) sums dd^(w-1) over the divisors dd of n <= T = trunc.
    Each dd <= s = isqrt(T) is added into its multiples; each larger
    divisor dd = n/k has its cofactor k <= T/(s+1) <= s, so for each k the
    powers of every dd in (s, T/k] are added into the k*dd at once: about
    2s Python steps.  Exact for ell < 2^33: a sum of at most tau(n) terms
    below ell stays far inside int64, and the powers go through mul_mod.
    """
    scale = {4: 240, 6: -504}.get(weight)
    if scale is None:
        raise ValueError("only weights 4 and 6 are generators")
    sig = np.zeros(trunc + 1, dtype=np.int64)
    s = math.isqrt(trunc)
    for dd in range(1, s + 1):
        sig[dd::dd] += pow(dd, weight - 1, ell)
    base = np.arange(s + 1, trunc + 1, dtype=np.int64) % ell
    powers = binary_power(base, weight - 2, base,
                          lambda f, g: mul_mod(f, g, ell))
    for k in range(1, trunc // (s + 1) + 1):
        top = trunc // k
        sig[k * (s + 1):k * top + 1:k] += powers[:top - s]
    # |scale| < 2^9, so the signed product stays below 2^42; % is floored
    series = sig % ell * scale % ell
    series[0] = 1 % ell
    return series


def _vm_cusp_basis_mod(weight: int, trunc: int, ell: int):
    """Cuspidal echelon basis rows reduced mod ell (d x (trunc+1) int64).

    Row j of the spanning set is Delta^j E4^(a0-3j) E6^b = P X^j with
    P = E4^a0 E6^b and X = Delta / E4^3 (E4^3 has constant term 1, a unit
    for every ell), so each row is one product with X, whose limb spectra
    are computed once.  The lead block U = basis[:, 1:d+1] is unit upper
    triangular, so U^-1 @ basis is the reduced echelon form.
    """
    d = dim_cusp_forms(weight)
    n_out = trunc + 1
    basis = np.zeros((d, n_out), dtype=np.int64)
    if d == 0:
        return basis
    if _monomial_exponents(weight, d) is None:
        raise ArithmeticError("monomial spanning set disagrees with dimension")
    e4 = _eisenstein_mod(4, ell, trunc)
    times_x = fixed_operand_mod(convolve_mod(
        _delta_mod(ell, n_out),
        inverse_mod(power_mod(e4, 3, ell, n_out), ell, n_out),
        ell, n_out), ell, n_out)
    a0, b = _monomial_exponents(weight, 0)
    row = power_mod(e4, a0, ell, n_out)
    if b:
        row = convolve_mod(row, _eisenstein_mod(6, ell, trunc), ell, n_out)
    for j in range(d):
        row = times_x(row)
        basis[j] = row
    lead = basis[:, 1:d + 1]
    if (np.diagonal(lead) != 1 % ell).any() or np.tril(lead, -1).any():
        raise ArithmeticError("echelon pivot is not a unit mod ell")
    # U^-1 by back substitution: row i is e_i - U[i, i+1:] @ U^-1[i+1:]
    u_inv = np.eye(d, dtype=np.int64)
    for i in range(d - 2, -1, -1):
        u_inv[i, i + 1:] = -_matmul_mod(lead[i:i + 1, i + 1:],
                                        u_inv[i + 1:, i + 1:], ell) % ell
    for start in range(0, n_out, _SOLVE_BLOCK):
        block = basis[:, start:start + _SOLVE_BLOCK]
        block[...] = _matmul_mod(u_inv, block, ell)
    return basis


def _hecke_matrix_mod(weight: int, m: int, ell: int, basis) -> np.ndarray:
    """T_m mod ell on the echelon basis; row n-1 holds the q^n coefficients
    sum over dd | (m, n) of dd^(weight-1) * basis[:, m n / dd^2]."""
    d = basis.shape[0]
    n = np.arange(1, d + 1)
    out = basis[:, m * n].T.copy()
    for dd in _divisors(m)[1:]:
        rows = n[dd - 1::dd] - 1  # the n <= d divisible by dd, less one
        cols = basis[:, m // dd * n[: len(rows)]].T
        scaled = mul_mod(cols, pow(dd, weight - 1, ell), ell)
        out[rows] = (out[rows] + scaled) % ell
    return out


def _solve_mod(matrix, ell: int):
    """(j, det, x) for a d x n integer matrix mod a prime ell: j is the first
    column in the span of the columns before it (n if none), x its
    coordinates in them (None when j == n), and det the determinant of the
    first d columns when j == d.

    Blocked elimination of the columns left to right, with row pivoting, to
    a unit upper triangular U: within a panel of _ELIMINATION_BLOCK columns
    each pivot updates the panel's columns below it and its own row's tail;
    the rows below the panel take all of the panel's pivots in one
    ``_matmul_mod``.  The multipliers stay in place below each pivot.
    Column j has no pivot left below row j; its rows above are carried back
    through U.
    """
    a = np.asarray(matrix, dtype=np.int64) % ell
    d, n = a.shape
    j, det = min(d, n), 1 % ell  # j drops to the first column with no pivot
    for start in range(0, j, _ELIMINATION_BLOCK):
        stop = min(start + _ELIMINATION_BLOCK, j)
        for i in range(start, stop):
            nonzero = np.flatnonzero(a[i:, i])
            if nonzero.size == 0:
                j = i
                break
            pivot = i + int(nonzero[0])
            if pivot != i:
                a[[i, pivot]] = a[[pivot, i]]
                det = -det % ell
            det = det * int(a[i, i]) % ell
            tail = _matmul_mod(a[i:i + 1, start:i], a[start:i, stop:], ell)
            a[i, stop:] = (a[i, stop:] - tail[0]) % ell
            a[i, i + 1:] = mul_mod(a[i, i + 1:],
                                   mod_inverse(int(a[i, i]), ell), ell)
            a[i + 1:, i + 1:stop] = (
                a[i + 1:, i + 1:stop]
                - mul_mod(a[i + 1:, i:i + 1], a[i, i + 1:stop], ell)) % ell
        if j < stop:
            break
        a[stop:, stop:] = (a[stop:, stop:] - _matmul_mod(
            a[stop:, start:stop], a[start:stop, stop:], ell)) % ell
    if j == n:
        return j, det, None
    x = a[:j, j]
    for i in range(j - 2, -1, -1):
        x[i] = (x[i] - _matmul_mod(a[i:i + 1, i + 1:j], x[i + 1:, None],
                                   ell)[0, 0]) % ell
    return j, det, x


def _det_mod(matrix, ell: int) -> int:
    """det of a square integer matrix mod a prime ell."""
    j, det, _ = _solve_mod(matrix, ell)
    return det if j == len(matrix) else 0


def _divisor_scaled_sum(weight: int, ell: int, d: int, term, dims: int):
    """sum over e <= d of e^(weight-1) * term(e, j), mod ell, placed at the
    indices (e j_1 - 1, ..., e j_dims - 1): a d^dims int64 array.

    term(e, j) gets j = 1..d//e and returns, on that grid, integers below
    2^62.
    """
    out = np.zeros((d,) * dims, dtype=np.int64)
    for e in range(1, d + 1):
        block = term(e, np.arange(1, d // e + 1)) % ell
        scaled = mul_mod(block, pow(e, weight - 1, ell), ell)
        grid = (slice(e - 1, None, e),) * dims
        out[grid] = (out[grid] + scaled) % ell
    return out


def _poly_rem(a: list, b: list, ell: int) -> list:
    """a mod b over F_ell; coefficient lists low to high, b's top nonzero.
    The remainder comes back without trailing zeros ([] for zero)."""
    a = list(a)
    inv = mod_inverse(b[-1], ell)
    while len(a) >= len(b):
        c = a.pop() * inv % ell
        shift = len(a) - len(b) + 1
        for i, x in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - c * x) % ell
    while a and not a[-1]:
        a.pop()
    return a


def _krylov_rows(matrix, ell: int, count: int) -> np.ndarray:
    """The first ``count`` rows e_1^T M^i of the d x d matrix M mod ell, as
    a count x d int64 array, doubling their number per step: the rows so
    far times M^r, then M^r squared."""
    rows, power = np.eye(1, matrix.shape[0], dtype=np.int64), matrix
    while rows.shape[0] < count:
        rows = np.vstack([rows, _matmul_mod(rows, power, ell)])
        if rows.shape[0] < count:
            power = _matmul_mod(power, power, ell)
    return rows[:count]


def _krylov_residue(krylov, ell: int):
    """det G mod ell from the Krylov rows e_1^T M^i (i <= d) of a Hecke
    operator M on the echelon basis, or None when neither case below
    decides.

    Duality a_1(T_n f) = a_n(f) makes T_1..T_d the basis of T dual to the
    echelon rows, so row i of K (the first d rows) holds the coordinates of
    M^i in it, and the Hankel matrix of the power sums Tr M^(i+j), of
    determinant disc(charpoly M), is K G K^t.  One elimination finds the
    first row that depends on the rows before it, e_1^T M^j = sum c_i
    e_1^T M^i: mu = x^j - sum c_i x^i is the minimal polynomial of e_1^T
    under M, which divides M's own.  Euclid's loop on (mu, mu') gives
    disc(mu) = (-1)^(j(j-1)/2) Res(mu, mu') with no division by an integer,
    so ell = 2, 3 stay valid: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a -
    deg r) Res(b, r) for r = a mod b, and lc(b)^(deg a) for a constant b.
    When j = d, mu is the characteristic polynomial and det G = disc(mu) /
    (det K)^2.  disc(mu) == 0, a repeated factor of mu, shows M is not
    semisimple mod ell, also when j < d.  F_ell is perfect, so M's
    nilpotent part is a nonzero polynomial in M, in T (x) F_ell, where the
    trace form kills it: det G == 0.
    """
    j, det_k, coords = _solve_mod(krylov.T, ell)
    a = (-coords % ell).tolist() + [1]
    b = [i * c % ell for i, c in enumerate(a)][1:]
    while b and not b[-1]:
        b.pop()
    disc = (-1) ** (j * (j - 1) // 2)
    while len(b) > 1:
        r = _poly_rem(a, b, ell)
        disc = disc * (-1) ** ((len(a) - 1) * (len(b) - 1)) * pow(
            b[-1], len(a) - len(r), ell) % ell
        a, b = b, r
    disc = disc * pow(b[-1], len(a) - 1, ell) % ell if b else 0
    if disc == 0:
        return 0
    if j < krylov.shape[1]:
        return None
    return disc * mod_inverse(det_k * det_k, ell) % ell


def gram_determinant_residue(weight: int, ell: int) -> int:
    """det of the Gram matrix mod ell (scales to the weights the good-prime
    search visits).

    A ladder runs first on bases to horizon p d: for p = 2, 3, 5, 7, one
    elimination of T_p's d + 1 Krylov rows (``_krylov_residue``) gives
    det G whenever ell does not divide their determinant, and otherwise
    may still prove det G == 0 before the next rung is built: det G is the
    discriminant of the trace form on T = Z[T_1..T_d], and a T_p that is
    not semisimple mod ell shows a nilpotent in T (x) F_ell, which the
    trace form kills.

    Where no rung decides, the trace form does, on a basis to d^2.  With
    t(N) = Tr T_N, T_m T_n = sum over e | (m, n) of e^(k-1) T_(mn/e^2)
    gives G[m][n] = sum e^(k-1) t(mn/e^2), which reads t to d^2.  The trace
    form sum t(N) q^N lies in S_k, so it is c @ basis with c_i = t(i) =
    sum over j of (T_i)_jj = sum over e | (i, j) of e^(k-1) a_(ij/e^2)(f_j).
    """
    d = dim_cusp_forms(weight)
    if d == 0:
        return 1 % ell
    for p in (2, 3, 5, 7):
        short = _vm_cusp_basis_mod(weight, p * d, ell)
        krylov = _krylov_rows(_hecke_matrix_mod(weight, p, ell, short),
                              ell, d + 1)
        residue = _krylov_residue(krylov, ell)
        if residue is not None:
            return residue
    basis = _vm_cusp_basis_mod(weight, d * d, ell)

    def diagonal(e, j):  # [i', j'] -> a_(i' j')(f_(e j')), summed over j'
        return basis[(e * j - 1)[None, :], np.outer(j, j)].sum(axis=1)

    trace = _divisor_scaled_sum(weight, ell, d, diagonal, 1)
    t = _matmul_mod(trace[None, :], basis, ell)[0]
    gram = _divisor_scaled_sum(weight, ell, d,
                               lambda e, j: t[np.outer(j, j)], 2)
    return _det_mod(gram, ell)


# ---------------------------------------------------------------------------
# good primes
# ---------------------------------------------------------------------------

#: Exact Gram determinants are recorded on certificates up to this weight;
#: beyond it only the residue mod ell is kept (the integers explode while the
#: divisibility test needs only the residue).
EXACT_GRAM_WEIGHT_CAP = 120

DEFAULT_MAX_WEIGHT = 12 * 200


@dataclass(frozen=True)
class GoodPrimeCertificate:
    """Witness that ell is good for alpha with parameter k.

    r = ord_ell(24k - alpha) >= 1; m is the matching element of the
    non-ordinarity set with (ell-1) | (12k - m); the Gram determinant of
    weight 12k is prime to ell (residue recorded, exact value kept only for
    small weights)."""

    alpha: str
    ell: int
    k: int
    r: int
    m: int
    weight: int
    gram_det: int | None
    gram_det_residue: int

    def __bool__(self):
        return True


@dataclass(frozen=True)
class GoodPrimeRejection:
    alpha: str
    ell: int
    k: int
    reason: str

    def __bool__(self):
        return False


def is_good_prime(alpha: Rational, ell: int, k: int, *,
                  max_weight: int = DEFAULT_MAX_WEIGHT,
                  allow_small_primes: bool = False, _sieved: bool = False):
    """Decide whether ell is good for alpha with parameter k.

    Checks, in order: k < ell; cond1, ell divides 24k - alpha in the
    ell-integral rationals, recording r = ord_ell(24k - alpha); cond2, some
    m in {4, 6, 8, 10, 14} has (ell - 1) | (12k - m); cond3, ell does not
    divide the weight-12k Gram determinant.  Returns a certificate or a
    rejection naming the first failing condition.  Raises WeightCapExceeded
    when cond3 would need a space beyond the weight cap.  ``_sieved`` is
    the search's entry: its ell comes from a prime sieve and its alpha is a
    Fraction whose denominator ell does not divide, so ``ell_integral``'s
    primality test is not run again.
    """
    f = alpha if _sieved else ell_integral(alpha, ell)
    alpha_str = str(f)
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell in (2, 3) and not allow_small_primes:
        return GoodPrimeRejection(
            alpha_str, ell, k,
            "ell in {2, 3} excluded by default (allow_small_primes)")
    if k >= ell:
        return GoodPrimeRejection(alpha_str, ell, k, "k >= ell")
    # ell does not divide b, so ord_ell(24k - a/b) = ord_ell(24kb - a)
    gap = 24 * k * f.denominator - f.numerator
    if gap == 0:
        return GoodPrimeRejection(alpha_str, ell, k, "r undefined (24k = alpha)")
    r = 0
    while gap % ell == 0:
        gap //= ell
        r += 1
    if r < 1:
        return GoodPrimeRejection(
            alpha_str, ell, k, "cond1 failed: ell does not divide 24k - alpha")
    m_hit = next(
        (m for m in NONORDINARY_M_SET if (12 * k - m) % (ell - 1) == 0), None)
    if m_hit is None:
        return GoodPrimeRejection(
            alpha_str, ell, k,
            "cond2 failed: no m in {4,6,8,10,14} with (ell-1) | (12k - m)")
    weight = 12 * k
    if weight > max_weight:
        raise WeightCapExceeded(
            f"weight {weight} exceeds the cap {max_weight}")
    residue = gram_determinant_residue(weight, ell)
    if residue == 0:
        return GoodPrimeRejection(
            alpha_str, ell, k,
            "cond3 failed: ell divides the weight-12k Gram determinant")
    exact = gram_determinant(weight) if weight <= EXACT_GRAM_WEIGHT_CAP else None
    if exact is not None and exact % ell != residue:
        raise ArithmeticError("gram determinant routes disagree")
    return GoodPrimeCertificate(alpha_str, ell, k, r, m_hit, weight,
                                exact, residue)


# ---------------------------------------------------------------------------
# theta operator and mod-ell filtration
# ---------------------------------------------------------------------------

def theta(f: list) -> list:
    """q d/dq: multiply the n-th coefficient by n."""
    return [n * c for n, c in enumerate(f)]


ZERO_FORM = None  # filtration sentinel for f == 0 mod ell


def check_kernel_prime(ell: int, task: str) -> None:
    """Refuse ell >= 2^33, beyond the moduli of the mod-ell kernel, before
    any work: ``task`` names what needs it."""
    if ell >= FFT_MODULUS_LIMIT:
        raise ValueError(f"{task} requires ell < 2^33")


def check_filtration_prime(ell: int) -> None:
    """Refuse ell < 5, a composite ell, and ell >= 2^33, beyond the mod-ell
    kernel's moduli."""
    if ell < 5:
        raise ValueError("filtration requires ell >= 5")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    check_kernel_prime(ell, "filtration")


def filtration(f: list, weight: int, ell: int):
    """Least weight w == weight mod (ell-1) whose mod-ell space contains f.

    f must be (the reduction of) a weight-`weight` form with ell-integral
    coefficients, known to floor(weight/12) + 2 coefficients: past the
    Sturm bound of every candidate weight.  Delta = q*(unit) maps M_w onto
    S_(w+12) over Z, so f lies in M_w mod ell exactly when Delta*f lies in
    S_(w+12) mod ell, compared one coefficient further out: against the
    mod-ell cusp echelon rows combined by Delta*f's pivot coefficients.
    E_(ell-1) == 1 mod ell puts M_w inside M_(w+ell-1), so membership only
    grows along the candidates and a bisection finds the least one.
    Returns ZERO_FORM (None) when f vanishes mod ell.
    """
    check_filtration_prime(ell)
    if weight < 0 or weight % 2:
        raise ValueError("weight must be even and nonnegative")
    horizon = weight // 12 + 2
    if len(f) - 1 < horizon:
        raise HorizonError(
            f"horizon too small: filtration at weight {weight} needs "
            f"{horizon} coefficients"
        )
    reduced = np.array([psi(ell, c) for c in f[: horizon + 1]], dtype=np.int64)
    if not reduced.any():
        return ZERO_FORM
    n_out = horizon + 2
    target = convolve_mod(_delta_mod(ell, n_out), reduced, ell, n_out)

    def contains(w):
        basis = _vm_cusp_basis_mod(w + 12, n_out - 1, ell)
        lead = target[None, 1:basis.shape[0] + 1]
        return np.array_equal(_matmul_mod(lead, basis, ell)[0], target)

    # the even w == weight mod ell - 1; w = 2 gives S_14 = 0, which no f fits
    candidates = range(weight % (ell - 1), weight + 1, ell - 1)
    first = bisect.bisect_left(candidates, True, key=contains)
    if first == len(candidates):
        raise ArithmeticError(
            "no candidate weight contains f; the nominal weight is wrong"
        )
    return candidates[first]
