"""Oracles that only the tests use: independent checks of the package's
results and of the paper's statements, kept out of the public API.

Each is a direct transcription of the statement it checks; none is on a
route the CLI or the search takes.
"""

import functools
from dataclasses import dataclass

import numpy as np

from etacong.congruences import SQUARE_CLASS, CongruenceClaim
from etacong.modforms import (
    _det_mod,
    _hecke_matrix_mod,
    _matmul_mod,
    _vm_cusp_basis_mod,
    dim_cusp_forms,
    theta,
)
from etacong.numerics import (
    Rational,
    as_fraction,
    factorial_valuation,
    prime_factors,
    psi,
)
from etacong.qseries import HorizonError, eta_power_residues


def coefficient_denominator(alpha: Rational, n: int) -> int:
    """Denominator of p_alpha(n) in lowest terms: b^n * prod_{p|b} p^ord_p(n!)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = as_fraction(alpha).denominator
    den = b ** n
    for p in prime_factors(b):
        den *= p ** factorial_valuation(n, p)
    return den


def cusp_divisibility_check(g: list, weight: int, ell: int, r: int,
                            trunc: int) -> bool:
    """True iff g[ell^s * n] == 0 mod ell^s for all 1 <= s <= r in range."""
    if len(g) - 1 < trunc:
        raise HorizonError("horizon too small")
    for s in range(1, r + 1):
        step = ell ** s
        for idx in range(0, trunc + 1, step):
            if g[idx] % step:
                return False
    return True


def theta_power(f: list, e: int) -> list:
    if e < 0:
        raise ValueError("e must be >= 0")
    for _ in range(e):
        f = theta(f)
    return f


def theta_fixed_point_check(f: list, ell: int, trunc: int) -> bool:
    """Whether theta^(ell-1) fixes f mod ell: equivalently every coefficient
    at an exponent divisible by ell vanishes mod ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if len(f) - 1 < trunc:
        raise HorizonError("horizon too small")
    for idx in range(0, trunc + 1, ell):
        if psi(ell, f[idx]):
            return False
    return True


@dataclass(frozen=True)
class IntegralPrimeBound:
    """|alpha| + 4 bound on balanced-congruence primes for integral alpha.

    Only asserted in the two proved parity cases: alpha even and negative,
    or alpha odd and greater than 3.
    """

    bound: int
    applicable: bool


def integral_prime_bound(alpha: Rational) -> IntegralPrimeBound:
    f = as_fraction(alpha)
    if f.denominator != 1:
        raise ValueError("this bound requires integral alpha")
    a = f.numerator
    applicable = (a < 0 and a % 2 == 0) or (a > 3 and a % 2 == 1)
    return IntegralPrimeBound(abs(a) + 4, applicable)


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


def square_class_nonvacuous(claim: CongruenceClaim, n_max: int = 200) -> bool:
    """True when some n <= n_max on the residue side (stride*n + shift a
    nonzero square mod ell) has p_alpha(n) != 0 mod ell^v: the family says
    something only because the non-residue side is special."""
    if claim.variant != SQUARE_CLASS:
        raise ValueError("only meaningful for square-class claims")
    f = as_fraction(claim.alpha)
    vals = eta_power_residues(f, claim.ell, claim.v, n_max)
    for n in range(n_max + 1):
        if legendre_symbol(claim.stride * n + claim.shift, claim.ell) == 1:
            if int(vals[n]) % claim.modulus:
                return True
    return False


def hecke_ell_vanishes(weight: int, ell: int) -> bool:
    """True iff every entry of the T_ell matrix on S_weight is divisible by
    ell.  Computed mod ell on the scalable basis."""
    d = dim_cusp_forms(weight)
    if d == 0:
        return True
    basis = _vm_cusp_basis_mod(weight, ell * d + 1, ell)
    mat = _hecke_matrix_mod(weight, ell, ell, basis)
    return not mat.any()


def gram_residue_by_stack(weight: int, ell: int) -> int:
    """det of the Gram matrix Tr(T_m T_n) mod ell from the d x d x d stack
    of the Hecke matrices T_1..T_d mod ell, as one matmul of the flattened
    stack.  Shares the mod-ell basis with gram_determinant_residue, not its
    trace-form route."""
    d = dim_cusp_forms(weight)
    if d == 0:
        return 1 % ell
    basis = _vm_cusp_basis_mod(weight, d * d, ell)
    mats = np.stack([_hecke_matrix_mod(weight, m, ell, basis)
                     for m in range(1, d + 1)])
    flat = mats.reshape(d, d * d)
    flat_t = mats.transpose(0, 2, 1).reshape(d, d * d)
    return _det_mod(_matmul_mod(flat, flat_t.T, ell), ell)


def _product_mod(f, g, ell: int) -> tuple:
    """Schoolbook product of two series of equal length, truncated, mod ell."""
    out = [0] * len(f)
    for i, a in enumerate(f):
        if a:
            for j in range(len(f) - i):
                out[i + j] = (out[i + j] + a * g[j]) % ell
    return tuple(out)


@functools.cache
def _generators_mod(ell: int, n: int) -> dict:
    """E4, E6 and Delta mod ell to n coefficients, each from its definition:
    1 + 240 sum sigma_3(m) q^m, 1 - 504 sum sigma_5(m) q^m and
    q prod (1 - q^m)^24."""
    def eisenstein(power, scale):
        return (1 % ell,) + tuple(
            scale * sum(dd ** power for dd in range(1, m + 1) if m % dd == 0)
            % ell for m in range(1, n))

    delta = [0, 1 % ell] + [0] * (n - 2)
    for m in range(1, n):
        for _ in range(24):
            for i in range(n - 1, m - 1, -1):  # times 1 - q^m, in place
                delta[i] = (delta[i] - delta[i - m]) % ell
    return {"e4": eisenstein(3, 240), "e6": eisenstein(5, -504),
            "delta": tuple(delta)}


@functools.cache
def _power_mod(name: str, e: int, ell: int, n: int) -> tuple:
    if e == 0:
        return (1 % ell,) + (0,) * (n - 1)
    return _product_mod(_power_mod(name, e - 1, ell, n),
                        _generators_mod(ell, n)[name], ell)


@functools.cache
def _monomials_mod(w: int, ell: int, n: int) -> tuple:
    """Every E4^a E6^b Delta^j with 4a + 6b + 12j = w, mod ell, n
    coefficients: a spanning set of M_w (empty for w = 2 and odd w)."""
    out = []
    for j in range(w // 12 + 1):
        for b in range((w - 12 * j) // 6 + 1):
            rest = w - 12 * j - 6 * b
            if rest % 4 == 0:
                e4_e6 = _product_mod(_power_mod("e4", rest // 4, ell, n),
                                     _power_mod("e6", b, ell, n), ell)
                out.append(_product_mod(e4_e6, _power_mod("delta", j, ell, n),
                                        ell))
    return tuple(out)


def _rank_mod(rows, ell: int) -> int:
    """Rank of integer rows mod a prime ell, by Gaussian elimination."""
    rows = [[x % ell for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, ell)
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                t = rows[i][col] * inv
                rows[i] = [(x - t * y) % ell for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def monomial_rank(w: int, ell: int, horizon: int) -> int:
    """Rank mod ell of the monomials E4^a E6^b Delta^j of weight w on the
    coefficients 0..horizon: dim M_w once the horizon reaches w/12."""
    return _rank_mod(_monomials_mod(w, ell, horizon + 1), ell)


def in_weight_mod(f: list, w: int, ell: int, horizon: int) -> bool:
    """Whether the integer series f lies in M_w mod ell, decided on the
    coefficients 0..horizon (at least the Sturm bound w/12): appending f to
    the monomials of weight w leaves their rank mod ell unchanged.  Shares
    no code with either echelon basis."""
    monomials = _monomials_mod(w, ell, horizon + 1)
    reduced = tuple(c % ell for c in f[: horizon + 1])
    return _rank_mod(monomials, ell) == _rank_mod(monomials + (reduced,), ell)


def filtration_by_rank(f: list, weight: int, ell: int, horizon: int):
    """Least w == weight mod (ell - 1) in [0, weight] with f in M_w mod ell
    (in_weight_mod); None when f vanishes mod ell to the horizon."""
    if not any(c % ell for c in f[: horizon + 1]):
        return None
    return next(w for w in range(weight % (ell - 1), weight + 1, ell - 1)
                if in_weight_mod(f, w, ell, horizon))
