import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etacong import qseries
from etacong._convolve import _limb_layout, convolve_mod, product_bytes
from etacong.numerics import MemoryLimitError, NotEllIntegralError
from etacong.qseries import (
    QSeries,
    coefficient_denominator,
    divisor_sum_table,
    eta_power_mod,
    eta_power_rational,
    eta_power_residues,
    frobenius_congruence_check,
    partition_numbers,
    reduce_series,
)


def partition_oracle(n_max):
    """Independent partition counts: coin-change dynamic programming."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            table[n] += table[n - part]
    return table


def pentagonal_set(n_max):
    out = {0}
    j = 1
    while j * (3 * j - 1) // 2 <= n_max:
        out.add(j * (3 * j - 1) // 2)
        if j * (3 * j + 1) // 2 <= n_max:
            out.add(j * (3 * j + 1) // 2)
        j += 1
    return out


def test_divisor_sum_table():
    sig = divisor_sum_table(1, 12)
    assert sig[6] == 1 + 2 + 3 + 6
    for p in (2, 3, 5, 7, 11):
        assert sig[p] == 1 + p
    sig3 = divisor_sum_table(3, 4)
    assert sig3[4] == 1 + 8 + 64


def test_eta_power_rational_is_partition_function():
    series = eta_power_rational(-1, 60)
    assert list(series.coeffs) == partition_oracle(60)
    assert series.coeffs[:6] == [1, 1, 2, 3, 5, 7]


def test_partition_numbers_helper_agrees_with_dp():
    assert partition_numbers(200) == partition_oracle(200)


def test_eta_power_rational_leading_terms():
    for alpha in (Fraction(1, 2), Fraction(-3, 4), Fraction(57, 61), Fraction(5)):
        series = eta_power_rational(alpha, 8)
        assert series[0] == 1
        assert series[1] == -alpha


def test_eta_power_rational_hand_value():
    # 2 c2 = -(1/2) (sigma1(1) c1 + sigma1(2) c0) with c1 = -1/2
    assert eta_power_rational(Fraction(1, 2), 2)[2] == Fraction(-5, 8)


def test_pentagonal_support():
    series = eta_power_rational(1, 100)
    support = {n for n, c in enumerate(series.coeffs) if c}
    assert support == pentagonal_set(100)
    assert all(series[n] in (1, -1) for n in support)


def test_coefficient_denominator_examples():
    assert coefficient_denominator(Fraction(1, 2), 2) == 8
    assert coefficient_denominator(Fraction(7, 1), 30) == 1
    assert coefficient_denominator(Fraction(57, 61), 3) == 61 ** 3


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(-3, 4),
                                   Fraction(5, 6), Fraction(57, 61)])
def test_denominator_formula(alpha):
    series = eta_power_rational(alpha, 60)
    for n in range(61):
        assert series[n].denominator == coefficient_denominator(alpha, n)


def test_series_mul_identity_and_inverse():
    f = eta_power_rational(Fraction(-3, 4), 30)
    one = QSeries([1], 30)
    assert f * one == f
    g = eta_power_rational(Fraction(3, 4), 30)
    assert f * g == one
    assert f.inverse() == g


def test_series_pow_routes_negative_through_inverse():
    f = eta_power_rational(1, 20)
    assert f ** -1 == eta_power_rational(-1, 20)
    assert f ** 24 == eta_power_rational(24, 20)


def test_series_inverse_requires_unit():
    with pytest.raises(ValueError, match="not invertible"):
        QSeries([0, 1], 5).inverse()


@settings(max_examples=25, deadline=None)
@given(st.fractions(max_denominator=6), st.fractions(max_denominator=6))
def test_eta_power_homomorphism(alpha, beta):
    t = 25
    lhs = eta_power_rational(alpha + beta, t)
    rhs = eta_power_rational(alpha, t) * eta_power_rational(beta, t)
    assert [Fraction(c) for c in lhs.coeffs] == [Fraction(c) for c in rhs.coeffs]


def test_eta_power_homomorphism_fixed_grid():
    t = 100
    for alpha, beta in ((Fraction(1, 2), Fraction(-3, 4)),
                        (Fraction(57, 61), Fraction(-1)),
                        (Fraction(5, 6), Fraction(1, 6))):
        lhs = eta_power_rational(alpha + beta, t)
        rhs = eta_power_rational(alpha, t) * eta_power_rational(beta, t)
        assert [Fraction(c) for c in lhs.coeffs] == [Fraction(c) for c in rhs.coeffs]


def test_frobenius_substitute():
    f = QSeries([1, -1, 0], 2)
    assert f.frobenius(2).coeffs == [1, 0, -1]
    assert f.frobenius(1) == f
    g = eta_power_rational(Fraction(1, 2), 20)
    # extracting the dilation recovers g up to the shrunken truncation
    section = g.frobenius(3).extract_progression(3, 0)
    assert section.coeffs == g.coeffs[: section.truncation + 1]


def test_extract_progression():
    f = eta_power_rational(-1, 54)
    assert f.extract_progression(1, 0) == f
    assert f.extract_progression(5, 4)[0] == 5  # p(4)
    assert f.extract_progression(5, 4).truncation == 10
    with pytest.raises(ValueError):
        f.extract_progression(5, 5)


def test_descent_beyond_int64_square_matches_partition_numbers():
    # 5^14 > 2^31.5: a product of two residues no longer fits int64
    m = 5 ** 14
    got = eta_power_residues(-1, 5, 14, 10000)
    assert got.tolist() == [p % m for p in partition_numbers(10000)]


def test_eta_power_mod_headline_coefficient():
    values, digits = eta_power_mod(Fraction(57, 61), 17, 2, 300)
    assert values[286] == 0
    assert digits[286] >= 2


def test_eta_power_mod_ramanujan_progression():
    values, _ = eta_power_mod(-1, 5, 1, 100)
    for n in range(4, 101, 5):
        assert values[n] == 0


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(-3, 4),
                                   Fraction(57, 61)])
@pytest.mark.parametrize("ell", [5, 7, 17])
@pytest.mark.parametrize("r", [1, 2])
def test_eta_power_mod_matches_rational_oracle(alpha, ell, r):
    t = 150
    exact = reduce_series(eta_power_rational(alpha, t), ell, r)
    for method in ("descent", "ledger"):
        values, digits = eta_power_mod(alpha, ell, r, t, method=method)
        assert values == exact
        assert all(p >= r for p in digits)


def test_eta_power_mod_rejects_bad_prime():
    with pytest.raises(NotEllIntegralError, match="not 61-integral"):
        eta_power_mod(Fraction(57, 61), 61, 1, 10)
    with pytest.raises(NotEllIntegralError):
        eta_power_residues(Fraction(57, 61), 61, 1, 10)


def test_eta_power_residues_matches_object_route():
    vals = eta_power_residues(Fraction(-3, 4), 7, 2, 80)
    values, _ = eta_power_mod(Fraction(-3, 4), 7, 2, 80)
    assert [int(v) for v in vals] == values


@pytest.mark.parametrize("alpha,ell,r", [
    (Fraction(1, 2), 5, 1),
    (Fraction(57, 61), 17, 2),
    (Fraction(3), 7, 2),
])
def test_frobenius_congruence(alpha, ell, r):
    assert frobenius_congruence_check(alpha, ell, r, 200)


def test_frobenius_congruence_ledger_route_agrees():
    assert frobenius_congruence_check(Fraction(1, 2), 5, 1, 60, method="ledger")


def test_residue_series_multiplication_tracks_precision():
    f, f_digits = eta_power_mod(Fraction(1, 2), 5, 2, 20)
    g, g_digits = eta_power_mod(Fraction(-1, 2), 5, 2, 20)
    assert min(f_digits + g_digits) >= 2
    prod = convolve_mod(f, g, 5 ** 2, 21)
    assert prod[0] == 1
    for n in range(1, 21):
        assert prod[n] == 0


def test_descent_refuses_what_memory_cannot_hold(monkeypatch):
    need = product_bytes(1001, 5 ** 6)
    # one 14-bit limb: two spectra of 1025 complex128 at length 2048 and
    # four int64 series of 1001 coefficients
    assert need == 2 * 16 * (2048 // 2 + 1) + 4 * 8 * 1001
    monkeypatch.setattr(qseries, "physical_memory_bytes", lambda: need)
    full = eta_power_residues(-1, 5, 6, 1000)
    assert full.tolist() == [p % 5 ** 6 for p in partition_numbers(1000)]

    def no_work(*args):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(qseries, "physical_memory_bytes", lambda: need - 1)
    monkeypatch.setattr(qseries, "eta_integer_power_mod", no_work)
    with pytest.raises(MemoryLimitError, match=f"about {need / 2**30:.2f} GiB"):
        eta_power_residues(-1, 5, 6, 1000)


def test_verify_workload_stays_far_below_physical_memory():
    # p_alpha(289 n + 286) for n <= 13840: one limb at 2^23 points
    n_out = 289 * 13840 + 286 + 1
    need = product_bytes(n_out, 289)
    assert need == 2 * 16 * (2 ** 23 // 2 + 1) + 4 * 8 * n_out
    assert need < 2 ** 30
    have = qseries.physical_memory_bytes()
    assert have is None or have > 0


# one limb (the first three), two limbs (5^13) and three (5^14)
PEAK_CASES = [
    (Fraction(57, 61), 17, 2, 25_000),
    (Fraction(57, 61), 17, 2, 100_000),
    (Fraction(-1), 5, 6, 10_000),
    (Fraction(1, 2), 5, 13, 25_000),
    (Fraction(1, 2), 5, 14, 40_000),
]


def test_peak_cases_cover_one_two_and_three_limbs():
    assert [_limb_layout(ell ** v, trunc + 1)[0]
            for _, ell, v, trunc in PEAK_CASES] == [1, 1, 1, 2, 3]


@pytest.mark.parametrize("alpha,ell,v,trunc", PEAK_CASES)
def test_descent_peak_stays_within_product_bytes(alpha, ell, v, trunc):
    # the first FFT-sized call loads numpy.fft
    eta_power_residues(alpha, ell, v, 1000)
    tracemalloc.start()
    try:
        eta_power_residues(alpha, ell, v, trunc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= product_bytes(trunc + 1, ell ** v)
