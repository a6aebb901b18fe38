import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from etacong.numerics import (
    INFINITE_VALUATION,
    NotEllIntegralError,
    as_fraction,
    ell_integral,
    ell_valuation,
    factorial_valuation,
    mod_inverse,
    prime_factors,
    primes_up_to,
    psi,
)


def test_ell_integral():
    assert ell_integral(" 2/4", 3) == Fraction(1, 2)
    assert ell_integral(-7, 2) == Fraction(-7)
    with pytest.raises(NotEllIntegralError, match="alpha not 61-integral"):
        ell_integral(Fraction(57, 61), 61)


def test_ell_valuation_examples():
    # 4335 = 3 * 5 * 17^2
    assert ell_valuation(Fraction(4335, 61), 17) == 2
    assert ell_valuation(1, 5) == 0
    assert ell_valuation(Fraction(25, 3), 5) == 2
    assert ell_valuation(Fraction(1, 25), 5) == -2


def test_ell_valuation_zero_sentinel():
    v = ell_valuation(0, 7)
    assert v == INFINITE_VALUATION
    assert v > 10 ** 100
    with pytest.raises(OverflowError):
        int(v)


def test_psi_examples():
    assert psi(5, -12) == 3
    # 367 = 3*122 + 1, so the least nonnegative residue is 1 (== 123 mod 122)
    assert psi(122, 367) == 1
    assert psi(122, 367) == 123 % 122
    # 57/123 reduces to 19/41 and 41 inverts to 3 mod 122
    assert psi(122, Fraction(57, 123)) == 57


def test_psi_rejects_non_invertible_denominator():
    with pytest.raises(ValueError, match="psi undefined"):
        psi(10, Fraction(1, 5))


def test_mod_inverse():
    inv = mod_inverse(61, 289)
    assert 61 * inv % 289 == 1
    assert inv == 199
    with pytest.raises(ValueError):
        mod_inverse(17, 289)


def test_primes_and_factorials():
    assert primes_up_to(12) == [2, 3, 5, 7, 11]
    assert primes_up_to(1) == []
    assert factorial_valuation(10, 5) == 2
    assert factorial_valuation(86697, 17) == 5099 + 299 + 17 + 1
    assert prime_factors(1729) == [7, 13, 19]


def test_is_prime_agrees_with_sieve():
    from etacong.numerics import is_prime

    # below 3,215,031,751 the bases 2, 3, 5 and 7 decide alone; that
    # bound and 3825123056546413051 are strong pseudoprimes to them, the
    # latter to every prime base up to 23 too
    sieve = set(primes_up_to(10 ** 6))
    assert all(is_prime(n) == (n in sieve) for n in range(10 ** 6))
    assert not is_prime(3215031751)  # 151 * 751 * 28351
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1)


def test_frac_exponent_normalization():
    # str() of the Fraction is the canonical alpha string the claims carry
    assert str(as_fraction(Fraction(57, 61))) == "57/61"
    assert str(as_fraction(Fraction(2, -4))) == "-1/2"
    assert as_fraction("-3/4") == Fraction(-3, 4)
    assert str(as_fraction("5")) == "5"
    assert [str(as_fraction(t)) for t in (" 3/6 ", "1.5", "-0", "10/5")] == \
        ["1/2", "3/2", "0", "2"]
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")


@given(st.integers(min_value=2, max_value=400),
       st.fractions(max_denominator=50))
def test_psi_reflection(m, x):
    if math.gcd(x.denominator, m) != 1:
        return
    total = psi(m, x) + psi(m, -x)
    assert total in (0, m)


@given(st.fractions(max_denominator=1000), st.sampled_from([2, 3, 5, 7, 13]))
def test_valuation_strips_to_unit(x, ell):
    if x == 0:
        return
    v = ell_valuation(x, ell)
    unit = x * Fraction(ell) ** (-v)
    assert ell_valuation(unit, ell) == 0
