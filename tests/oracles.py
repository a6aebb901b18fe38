"""Oracles that only the tests use: independent checks of the package's
results and of the paper's statements, kept out of the public API.

Each is a direct transcription of the statement it checks; none is on a
route the CLI or the search takes.
"""

from dataclasses import dataclass

from etacong.congruences import SQUARE_CLASS, CongruenceClaim
from etacong.modforms import theta
from etacong.numerics import (
    Rational,
    as_fraction,
    factorial_valuation,
    legendre_symbol,
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
