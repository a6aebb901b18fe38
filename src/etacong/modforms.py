"""Level-one modular forms as exact integer q-expansions.

Provides Eisenstein series, Delta and its powers, integral echelon
(Victor-Miller) bases of M_k and S_k, Hecke operator matrices on the
cuspidal echelon basis, the Gram determinant of trace pairings, the theta
operator and the mod-ell weight filtration.

The Gram matrix G[m][n] = Tr(T_m T_n) is the bridge to eigenform data
without any number-field arithmetic: the Hecke operators diagonalize
simultaneously with eigenvalues a_i(m), so G = A A^t for the matrix A whose
columns hold the first d_k coefficients of the normalized eigenforms, and
det G = (det A)^2 is an ordinary integer.  A rational prime divides the norm
of det A exactly when it divides det G, which is the divisibility the
good-prime test needs.

Exact (big-integer) arithmetic is used for small weights; the search-scale
path reduces everything mod ell up front and works on numpy arrays.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._convolve import (
    binary_power,
    convolve_exact,
    convolve_mod,
    eta_integer_power_mod,
    inverse_mod,
    power_mod,
)
from .numerics import (
    FracExponent,
    NotEllIntegralError,
    Rational,
    as_fraction,
    ell_valuation,
    is_prime,
    mod_inverse,
    psi,
)
from .qseries import HorizonError, QSeries, divisor_sum_table

FULL = "full"
CUSPIDAL = "cuspidal"

#: m values in the non-ordinarity weight test (k - m divisible by ell - 1)
NONORDINARY_M_SET = (4, 6, 8, 10, 14)


class WeightCapExceeded(RuntimeError):
    """A good-prime check needs a cusp form space beyond the weight cap."""


def dim_modular_forms(weight: int) -> int:
    """dim M_k at level one (even k; zero for odd or negative weight)."""
    if weight < 0 or weight % 2:
        return 0
    return weight // 12 if weight % 12 == 2 else weight // 12 + 1


def dim_cusp_forms(weight: int) -> int:
    d = dim_modular_forms(weight)
    return d - 1 if weight >= 4 else 0


def eisenstein(weight: int, trunc: int) -> QSeries:
    """E4 or E6 as an exact integer q-expansion."""
    if weight == 4:
        sig = divisor_sum_table(3, trunc)
        return QSeries([1] + [240 * sig[n] for n in range(1, trunc + 1)], trunc)
    if weight == 6:
        sig = divisor_sum_table(5, trunc)
        return QSeries([1] + [-504 * sig[n] for n in range(1, trunc + 1)], trunc)
    raise ValueError("only weights 4 and 6 are generators")


def delta(trunc: int) -> QSeries:
    """Ramanujan's Delta = (E4^3 - E6^2)/1728, exact integers."""
    e4 = eisenstein(4, trunc)
    e6 = eisenstein(6, trunc)
    diff = e4 ** 3 - e6 ** 2
    out = []
    for c in diff.coeffs:
        q, r = divmod(c, 1728)
        if r:
            raise ArithmeticError("Delta construction lost integrality")
        out.append(q)
    return QSeries(out, trunc)


def delta_power(k: int, trunc: int) -> QSeries:
    """Delta^k; coefficient n is tau_k(n)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return delta(trunc) ** k


@dataclass(frozen=True)
class FormSpace:
    """An integral echelon basis of M_k or S_k up to a coefficient horizon.

    Row i has coefficient 1 at q^(i+offset) and 0 at the other pivot columns,
    offset being 0 for the full space and 1 for cusp forms.
    """

    weight: int
    kind: str
    dim: int
    basis: tuple
    horizon: int

    @property
    def offset(self) -> int:
        return 1 if self.kind == CUSPIDAL else 0

    def row(self, i: int) -> QSeries:
        return QSeries(list(self.basis[i]), self.horizon)


_VM_LOCK = threading.Lock()
_VM_CACHE: dict = {}


def _monomial_exponents(weight: int, j: int):
    """(a, b) with 4a + 6b = weight - 12j, b in {0, 1}; None if insoluble."""
    w = weight - 12 * j
    if w < 0:
        return None
    b = (w // 2) % 2
    if w - 6 * b < 0:
        return None
    return (w - 6 * b) // 4, b


def _build_vm_rows(weight: int, kind: str, trunc: int):
    d = dim_cusp_forms(weight) if kind == CUSPIDAL else dim_modular_forms(weight)
    off = 1 if kind == CUSPIDAL else 0
    if d == 0:
        return []
    e4 = eisenstein(4, trunc).coeffs
    e6 = eisenstein(6, trunc).coeffs
    dlt = delta(trunc).coeffs
    n_out = trunc + 1

    def mul(f, g):
        return convolve_exact(f, g, n_out)

    rows = []
    delta_j = [1] + [0] * trunc
    for _ in range(off):
        delta_j = mul(delta_j, dlt)
    for j in range(off, off + d):
        ab = _monomial_exponents(weight, j)
        if ab is None:
            raise ArithmeticError("monomial spanning set disagrees with dimension")
        a, b = ab
        mono = binary_power(e4, a, [1] + [0] * trunc, mul)
        if b:
            mono = mul(mono, e6)
        rows.append(mul(delta_j, mono))
        delta_j = mul(delta_j, dlt)
    # echelonize; pivots are already 1 (Delta^j has leading coefficient 1) so
    # only integer row subtractions occur and no denominator can appear
    for i in range(d):
        if rows[i][i + off] != 1:
            raise ArithmeticError("echelon pivot is not 1")
        for i2 in range(d):
            if i2 != i and rows[i2][i + off]:
                c = rows[i2][i + off]
                rows[i2] = [x - c * y for x, y in zip(rows[i2], rows[i])]
    return rows


def victor_miller_basis(weight: int, kind: str = CUSPIDAL,
                        trunc: int | None = None) -> FormSpace:
    """Integral echelon basis of M_weight or S_weight to the given horizon.

    Built from the monomials Delta^j E4^a E6^b with 4a + 6b + 12j = weight;
    results are cached per (weight, kind) at the largest horizon seen.
    """
    if weight < 0 or weight % 2:
        raise ValueError("weight must be even and nonnegative")
    if kind not in (FULL, CUSPIDAL):
        raise ValueError(f"unknown kind {kind!r}")
    d = dim_cusp_forms(weight) if kind == CUSPIDAL else dim_modular_forms(weight)
    off = 1 if kind == CUSPIDAL else 0
    if trunc is None:
        trunc = d + off
    trunc = max(trunc, d + off)
    with _VM_LOCK:
        cached = _VM_CACHE.get((weight, kind))
        if cached is None or cached.horizon < trunc:
            rows = _build_vm_rows(weight, kind, trunc)
            cached = FormSpace(weight, kind, d,
                               tuple(tuple(r) for r in rows), trunc)
            _VM_CACHE[(weight, kind)] = cached
    if cached.horizon == trunc:
        return cached
    return FormSpace(weight, kind, d,
                     tuple(r[: trunc + 1] for r in cached.basis), trunc)


def hecke_action(f: QSeries, weight: int, m: int, trunc: int) -> QSeries:
    """f | T_m: coefficient n is sum over d | (m, n) of d^(weight-1) a(mn/d^2).

    Producing trunc + 1 coefficients consumes coefficients of f up to
    m * trunc; short input raises instead of silently truncating.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if f.truncation < m * trunc:
        raise HorizonError(
            f"horizon too small: need {m * trunc}, have {f.truncation}"
        )
    out = []
    for n in range(trunc + 1):
        acc = None
        for d in _divisors(math.gcd(m, n)):
            term = d ** (weight - 1) * f.coeffs[m * n // (d * d)]
            acc = term if acc is None else acc + term
        out.append(acc)
    return QSeries(out, trunc)


def _divisors(n):
    """Divisors of n >= 1 in increasing order, by trial division to sqrt(n)."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


@dataclass(frozen=True)
class HeckeMatrix:
    """Integer matrix of T_m on the cuspidal echelon basis of S_weight."""

    weight: int
    index: int
    entries: tuple

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "HeckeMatrix"):
        n = self.dim
        return tuple(
            tuple(
                sum(self.entries[i][t] * other.entries[t][j] for t in range(n))
                for j in range(n)
            )
            for i in range(n)
        )


def hecke_matrix(weight: int, m: int) -> HeckeMatrix:
    """Matrix of T_m on S_weight; column j expands row_j | T_m in the basis.

    Coordinates in the echelon basis are just the coefficients at
    q^1..q^d, so the basis needs m*d coefficients.
    """
    d = dim_cusp_forms(weight)
    space = victor_miller_basis(weight, CUSPIDAL, max(m * d, d + 1))
    cols = []
    for j in range(d):
        img = hecke_action(space.row(j), weight, m, d)
        cols.append([img[n] for n in range(1, d + 1)])
    entries = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
    return HeckeMatrix(weight, m, entries)


def _trace_product(a, b):
    n = len(a)
    return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


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


def gram_matrix(weight: int):
    """G[m][n] = Tr(T_m T_n) for 1 <= m, n <= dim S_weight, exact integers."""
    d = dim_cusp_forms(weight)
    if d:
        # prime the cache at the largest horizon any T_m below will need
        victor_miller_basis(weight, CUSPIDAL, d * d + 1)
    mats = [hecke_matrix(weight, m).entries for m in range(1, d + 1)]
    return tuple(
        tuple(_trace_product(mats[i], mats[j]) for j in range(d)) for i in range(d)
    )


def gram_determinant(weight: int) -> int:
    """det of the trace-pairing Gram matrix; the square of the eigenform
    coefficient determinant.  Empty space gives 1 by convention."""
    if dim_cusp_forms(weight) == 0:
        return 1
    return _bareiss_determinant(gram_matrix(weight))


# ---------------------------------------------------------------------------
# mod-ell fast path: basis, Hecke stack and Gram determinant as int64 arrays
# ---------------------------------------------------------------------------

#: exact-sum limits of the two numpy dtypes _matmul_mod can multiply in
_FLOAT_MATMUL_LIMIT = 1 << 52
_INT_MATMUL_LIMIT = 1 << 62
#: columns per block when the basis is solved in place (bounds the float64
#: copies the solve makes to about d * 4096 * 8 bytes each)
_SOLVE_BLOCK = 4096


def _matmul_mod(a, b, ell: int) -> np.ndarray:
    """a @ b mod ell, exact, for int64 matrices with entries in [0, ell).

    Every product-sum is below (ell-1)^2 * inner: float64 BLAS when that is
    below 2^52, int64 below 2^62, Python ints beyond.
    """
    magnitude = (ell - 1) ** 2 * a.shape[-1]
    if magnitude < _FLOAT_MATMUL_LIMIT:
        prod = np.round(a.astype(np.float64) @ b.astype(np.float64))
        return prod.astype(np.int64) % ell
    if magnitude < _INT_MATMUL_LIMIT:
        return (a @ b) % ell
    return ((a.astype(object) @ b.astype(object)) % ell).astype(np.int64)


def _vm_cusp_basis_mod(weight: int, trunc: int, ell: int):
    """Cuspidal echelon basis rows reduced mod ell (d x (trunc+1) int64).

    Row j of the spanning set is Delta^j E4^(a0-3j) E6^b = P X^j with
    P = E4^a0 E6^b and X = Delta / E4^3, so each row is one product with X
    (E4^3 has constant term 1, a unit for every ell).  Delta is built from
    the pentagonal product q*(q;q)^24 so that no division by 1728 is needed
    and ell = 2, 3 stay valid.  The lead block U = basis[:, 1:d+1] is unit
    upper triangular, so U^-1 @ basis is the reduced echelon form.
    """
    d = dim_cusp_forms(weight)
    n_out = trunc + 1
    basis = np.zeros((d, n_out), dtype=np.int64)
    if d == 0:
        return basis
    # reduced from the exact expansions, so no int64 sum can overflow
    e4, e6 = (np.array([c % ell for c in eisenstein(w, trunc).coeffs],
                       dtype=np.int64) for w in (4, 6))
    dlt = np.zeros(n_out, dtype=np.int64)
    dlt[1:] = eta_integer_power_mod(24, ell, n_out - 1)
    if _monomial_exponents(weight, d) is None:
        raise ArithmeticError("monomial spanning set disagrees with dimension")
    a0, b = _monomial_exponents(weight, 0)
    row = power_mod(e4, a0, ell, n_out)
    if b:
        row = convolve_mod(row, e6, ell, n_out)
    x = convolve_mod(dlt, inverse_mod(power_mod(e4, 3, ell, n_out), ell, n_out),
                     ell, n_out)
    for j in range(d):
        row = convolve_mod(row, x, ell, n_out)
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
        # scaled as a matmul with inner size 1: exact also where ell^2 > 2^63
        scale = np.array([[pow(dd, weight - 1, ell)]], dtype=np.int64)
        scaled = _matmul_mod(cols.reshape(-1, 1), scale, ell).reshape(cols.shape)
        out[rows] = (out[rows] + scaled) % ell
    return out


def _det_mod(matrix, ell: int) -> int:
    """det of an integer matrix mod a prime ell, by Gaussian elimination."""
    a = np.asarray(matrix, dtype=np.int64) % ell
    d = a.shape[0]
    det = 1 % ell
    for i in range(d):
        nonzero = np.flatnonzero(a[i:, i])
        if nonzero.size == 0:
            return 0
        pivot = i + int(nonzero[0])
        if pivot != i:
            a[[i, pivot]] = a[[pivot, i]]
            det = -det % ell
        det = det * int(a[i, i]) % ell
        inv = np.array([[mod_inverse(int(a[i, i]), ell)]], dtype=np.int64)
        a[i:i + 1, i:] = _matmul_mod(inv, a[i:i + 1, i:], ell)
        # one rank-1 update clears column i below the pivot
        a[i + 1:, i:] = (a[i + 1:, i:]
                         - _matmul_mod(a[i + 1:, i:i + 1], a[i:i + 1, i:], ell)) % ell
    return det


def gram_determinant_residue(weight: int, ell: int) -> int:
    """det of the Gram matrix mod ell, via the mod-ell basis (scales to the
    weights the good-prime search visits)."""
    d = dim_cusp_forms(weight)
    if d == 0:
        return 1 % ell
    basis = _vm_cusp_basis_mod(weight, d * d + 1, ell)
    mats = np.stack([_hecke_matrix_mod(weight, m, ell, basis)
                     for m in range(1, d + 1)])
    # Tr(T_m T_n) as one matmul of the flattened stacks
    flat = mats.reshape(d, d * d)
    flat_t = mats.transpose(0, 2, 1).reshape(d, d * d)
    return _det_mod(_matmul_mod(flat, flat_t.T, ell), ell)


def hecke_ell_vanishes(weight: int, ell: int) -> bool:
    """True iff every entry of the T_ell matrix on S_weight is divisible by
    ell.  Computed mod ell on the scalable basis."""
    d = dim_cusp_forms(weight)
    if d == 0:
        return True
    basis = _vm_cusp_basis_mod(weight, ell * d + 1, ell)
    mat = _hecke_matrix_mod(weight, ell, ell, basis)
    return not mat.any()


def cusp_divisibility_check(g: QSeries, weight: int, ell: int, r: int,
                            trunc: int) -> bool:
    """True iff g[ell^s * n] == 0 mod ell^s for all 1 <= s <= r in range."""
    if g.truncation < trunc:
        raise HorizonError("horizon too small")
    for s in range(1, r + 1):
        step = ell ** s
        for idx in range(0, trunc + 1, step):
            if g.coeffs[idx] % step:
                return False
    return True


# ---------------------------------------------------------------------------
# good primes
# ---------------------------------------------------------------------------

#: Exact Gram determinants are recorded on certificates up to this weight;
#: beyond it only the residue mod ell is kept (the integers explode while the
#: divisibility test needs only the residue).
EXACT_GRAM_WEIGHT_CAP = 120

DEFAULT_MAX_WEIGHT = 12 * 200


def resolved_max_weight(max_weight: int | None = None) -> int:
    if max_weight is not None:
        return max_weight
    import os

    env = os.environ.get("ETACONG_MAX_WEIGHT")
    return int(env) if env else DEFAULT_MAX_WEIGHT


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
                  max_weight: int | None = None,
                  allow_small_primes: bool = False):
    """Decide whether ell is good for alpha with parameter k.

    Checks, in order: k < ell; cond1, ell divides 24k - alpha in the
    ell-integral rationals, recording r = ord_ell(24k - alpha); cond2, some
    m in {4, 6, 8, 10, 14} has (ell - 1) | (12k - m); cond3, ell does not
    divide the weight-12k Gram determinant.  Returns a certificate or a
    rejection naming the first failing condition.  Raises WeightCapExceeded
    when cond3 would need a space beyond the weight cap.
    """
    f = as_fraction(alpha)
    alpha_str = str(FracExponent.parse(f))
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if f.denominator % ell == 0:
        raise NotEllIntegralError(f"alpha not {ell}-integral")
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell in (2, 3) and not allow_small_primes:
        return GoodPrimeRejection(
            alpha_str, ell, k,
            "ell in {2, 3} excluded by default (allow_small_primes)")
    if k >= ell:
        return GoodPrimeRejection(alpha_str, ell, k, "k >= ell")
    gap = 24 * k - f
    if gap == 0:
        return GoodPrimeRejection(alpha_str, ell, k, "r undefined (24k = alpha)")
    r = ell_valuation(gap, ell)
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
    cap = resolved_max_weight(max_weight)
    if weight > cap:
        raise WeightCapExceeded(
            f"weight {weight} exceeds the cap {cap} (ETACONG_MAX_WEIGHT)")
    residue = gram_determinant_residue(weight, ell)
    if residue == 0:
        return GoodPrimeRejection(
            alpha_str, ell, k,
            "cond3 failed: ell divides the weight-12k Gram determinant")
    exact = gram_determinant(weight) if weight <= EXACT_GRAM_WEIGHT_CAP else None
    if exact is not None and exact % ell != residue:
        raise ArithmeticError("gram determinant routes disagree")
    return GoodPrimeCertificate(alpha_str, ell, k, int(r), m_hit, weight,
                                exact, residue)


# ---------------------------------------------------------------------------
# theta operator and mod-ell filtration
# ---------------------------------------------------------------------------

def theta(f: QSeries) -> QSeries:
    """q d/dq: multiply the n-th coefficient by n."""
    return QSeries([n * c for n, c in enumerate(f.coeffs)], f.truncation)


def theta_power(f: QSeries, e: int) -> QSeries:
    if e < 0:
        raise ValueError("e must be >= 0")
    for _ in range(e):
        f = theta(f)
    return f


def theta_fixed_point_check(f: QSeries, ell: int, trunc: int) -> bool:
    """Whether theta^(ell-1) fixes f mod ell: equivalently every coefficient
    at an exponent divisible by ell vanishes mod ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if f.truncation < trunc:
        raise HorizonError("horizon too small")
    for idx in range(0, trunc + 1, ell):
        if psi(ell, f.coeffs[idx]):
            return False
    return True


ZERO_FORM = None  # filtration sentinel for f == 0 mod ell


def filtration(f: QSeries, weight: int, ell: int):
    """Least weight w == weight mod (ell-1) whose mod-ell space contains f.

    f must be (the reduction of) a weight-`weight` form with ell-integral
    coefficients, known to at least floor(weight/12) + 2 coefficients.  For
    each candidate w the unique combination of echelon basis rows matching
    f's leading coefficients is compared against f up to the nominal
    weight's horizon, which determines forms of weight <= `weight` at level
    one.  Returns ZERO_FORM (None) when f vanishes mod ell.
    """
    if ell < 5:
        raise ValueError("filtration requires ell >= 5")
    if weight < 0 or weight % 2:
        raise ValueError("weight must be even and nonnegative")
    horizon = weight // 12 + 2
    if f.truncation < horizon:
        raise HorizonError(
            f"horizon too small: filtration at weight {weight} needs "
            f"{horizon} coefficients"
        )
    reduced = [psi(ell, c) for c in f.coeffs[: horizon + 1]]
    if not any(reduced):
        return ZERO_FORM
    candidates = [w for w in range(0, weight + 1, 2)
                  if w % (ell - 1) == weight % (ell - 1) and w != 2]
    for w in candidates:
        d = dim_modular_forms(w)
        if d == 0:
            continue
        space = victor_miller_basis(w, FULL, horizon)
        combo = [0] * (horizon + 1)
        for i in range(min(d, horizon + 1)):
            c = reduced[i]
            if c:
                row = space.basis[i]
                combo = [(x + c * y) % ell for x, y in zip(combo, row)]
        if all(x == y % ell for x, y in zip(combo, reduced)):
            return w
    raise ArithmeticError(
        "no candidate weight contains f; the nominal weight is wrong"
    )
