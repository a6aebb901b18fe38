import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etacong import qseries
from etacong._convolve import (
    _DIRECT_SIZE_LIMIT,
    _limb_layout,
    binary_power,
    convolve_exact,
    convolve_mod,
    product_bytes,
)
from etacong.numerics import (
    MemoryLimitError,
    NotEllIntegralError,
    PrecisionError,
)
from etacong.qseries import (
    divisor_sum_table,
    eta_power_mod,
    eta_power_rational,
    eta_power_residues,
    frobenius_congruence_check,
    partition_numbers,
    reduce_series,
)
from oracles import coefficient_denominator


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
    assert series == partition_oracle(60)
    assert series[:6] == [1, 1, 2, 3, 5, 7]


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


@pytest.mark.parametrize("alpha", [Fraction(57, 61), Fraction(-7, 1000),
                                   Fraction(3, 997), Fraction(5, 12)])
def test_eta_power_rational_matches_the_fraction_recurrence(alpha):
    # n c(n) = -alpha sum_j sigma_1(j) c(n - j), in Fractions throughout
    trunc = 80
    sigma = [sum(d for d in range(1, j + 1) if j % d == 0)
             for j in range(trunc + 1)]
    c = [Fraction(1)]
    for n in range(1, trunc + 1):
        c.append(-alpha * sum(sigma[j] * c[n - j] for j in range(1, n + 1))
                 / n)
    assert eta_power_rational(alpha, trunc) == c


def test_pentagonal_support():
    series = eta_power_rational(1, 100)
    support = {n for n, c in enumerate(series) if c}
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
    one = [1] + [0] * 30
    assert convolve_exact(f, one, 31) == f
    g = eta_power_rational(Fraction(3, 4), 30)
    assert convolve_exact(f, g, 31) == one


def test_series_pow_routes_negative_through_inverse():
    f = eta_power_rational(1, 20)
    one = [1] + [0] * 20
    assert convolve_exact(f, eta_power_rational(-1, 20), 21) == one
    power = binary_power(f, 24, one, lambda a, b: convolve_exact(a, b, 21))
    assert power == eta_power_rational(24, 20)


@settings(max_examples=25, deadline=None)
@given(st.fractions(max_denominator=6), st.fractions(max_denominator=6))
def test_eta_power_homomorphism(alpha, beta):
    t = 25
    lhs = eta_power_rational(alpha + beta, t)
    rhs = convolve_exact(eta_power_rational(alpha, t),
                         eta_power_rational(beta, t), t + 1)
    assert [Fraction(c) for c in lhs] == [Fraction(c) for c in rhs]


def test_eta_power_homomorphism_fixed_grid():
    t = 100
    for alpha, beta in ((Fraction(1, 2), Fraction(-3, 4)),
                        (Fraction(57, 61), Fraction(-1)),
                        (Fraction(5, 6), Fraction(1, 6))):
        lhs = eta_power_rational(alpha + beta, t)
        rhs = convolve_exact(eta_power_rational(alpha, t),
                             eta_power_rational(beta, t), t + 1)
        assert [Fraction(c) for c in lhs] == [Fraction(c) for c in rhs]


def test_descent_beyond_int64_square_matches_partition_numbers():
    # 5^14 > 2^31.5: a product of two residues no longer fits int64
    m = 5 ** 14
    got = eta_power_residues(-1, 5, 14, 10000)
    assert got.tolist() == [p % m for p in partition_numbers(10000)]


def test_eta_power_mod_headline_coefficient():
    values = eta_power_mod(Fraction(57, 61), 17, 2, 300)
    assert values[286] == 0
    # one plain list of least residues mod 17^2, no digit annotation
    assert type(values) is list and len(values) == 301
    assert all(0 <= v < 17 ** 2 for v in values)


def test_eta_power_mod_ramanujan_progression():
    values = eta_power_mod(-1, 5, 1, 100)
    for n in range(4, 101, 5):
        assert values[n] == 0


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(-3, 4),
                                   Fraction(57, 61)])
@pytest.mark.parametrize("ell", [5, 7, 17])
@pytest.mark.parametrize("r", [1, 2])
def test_eta_power_mod_matches_rational_oracle(alpha, ell, r):
    t = 150
    exact = reduce_series(eta_power_rational(alpha, t), ell, r)
    # both routes, each returning least residues mod ell^r
    assert eta_power_residues(alpha, ell, r, t).tolist() == exact
    assert qseries._eta_power_mod_ledger(alpha, ell, r, t) == exact
    assert eta_power_mod(alpha, ell, r, t) == exact


@pytest.mark.parametrize("alpha,ell,r", [(Fraction(1, 2), 5, 15),
                                         (Fraction(57, 61), 17, 9)])
def test_eta_power_mod_above_the_fft_modulus_takes_the_ledger(alpha, ell, r):
    # ell^r > 2^33: the descent refuses it, eta_power_mod takes the ledger
    t = 60
    with pytest.raises(PrecisionError):
        eta_power_residues(alpha, ell, r, t)
    exact = reduce_series(eta_power_rational(alpha, t), ell, r)
    assert eta_power_mod(alpha, ell, r, t) == exact


@pytest.mark.parametrize("route", [eta_power_residues,
                                   qseries._eta_power_mod_ledger,
                                   eta_power_mod])
def test_both_routes_refuse_a_negative_truncation(route):
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        route(Fraction(1, 2), 5, 2, -1)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        route(Fraction(1, 2), 5, 0, 10)


def test_eta_power_mod_rejects_bad_prime():
    with pytest.raises(NotEllIntegralError, match="not 61-integral"):
        eta_power_mod(Fraction(57, 61), 61, 1, 10)
    with pytest.raises(NotEllIntegralError):
        eta_power_residues(Fraction(57, 61), 61, 1, 10)
    with pytest.raises(NotEllIntegralError):
        qseries._eta_power_mod_ledger(Fraction(57, 61), 61, 1, 10)


def test_eta_power_residues_matches_object_route():
    # the descent's int64 array against the ledger's list
    vals = eta_power_residues(Fraction(-3, 4), 7, 2, 80)
    values = qseries._eta_power_mod_ledger(Fraction(-3, 4), 7, 2, 80)
    assert [int(v) for v in vals] == values


@pytest.mark.parametrize("alpha,ell,r", [
    (Fraction(1, 2), 5, 1),
    (Fraction(57, 61), 17, 2),
    (Fraction(3), 7, 2),
])
def test_frobenius_congruence(alpha, ell, r):
    assert frobenius_congruence_check(alpha, ell, r, 200)


def test_frobenius_congruence_ledger_route_agrees():
    # both sides of the congruence from the ledger route, for alpha = 1/2
    # mod 5 to 60 coefficients
    lhs = qseries._eta_power_mod_ledger(Fraction(5, 2), 5, 1, 60)
    inner = qseries._eta_power_mod_ledger(Fraction(1, 2), 5, 1, 12)
    rhs = [0] * 61
    rhs[::5] = inner
    assert lhs == rhs


def test_residue_series_multiplication_tracks_precision():
    # one factor from each route, both least residues mod 5^2
    f = eta_power_residues(Fraction(1, 2), 5, 2, 20)
    g = qseries._eta_power_mod_ledger(Fraction(-1, 2), 5, 2, 20)
    assert all(0 <= v < 5 ** 2 for v in [*f.tolist(), *g])
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


@pytest.mark.parametrize("ell", [2, 3, 5, 17, 101])
@pytest.mark.parametrize("width", [_DIRECT_SIZE_LIMIT, _DIRECT_SIZE_LIMIT + 1])
def test_dilated_product_by_class_equals_the_padded_product(ell, width):
    # width is inner's length, the longest class: 512 takes the padded
    # product, 513 the class route, at the largest power of ell below 2^33
    m = ell
    while m * ell < 2 ** 33:
        m *= ell
    assert _limb_layout(m, width)[0] == 2
    rng = np.random.default_rng(ell * width)
    inner = rng.integers(0, m, width, dtype=np.int64)
    series = rng.integers(0, m, ell * width, dtype=np.int64)
    dilated = np.zeros(len(series), dtype=np.int64)
    dilated[::ell] = inner
    want = convolve_mod(series, dilated, m, len(series))
    # the truncations T with T // ell + 1 == width: every T mod ell on the
    # class route, whose classes it changes, the two ends on the padded one
    lengths = range(ell * (width - 1) + 1, ell * width + 1)
    if width <= _DIRECT_SIZE_LIMIT:
        lengths = lengths[::ell - 1]
    for n in lengths:
        got = qseries._times_dilated(series[:n].copy(), inner, ell, m)
        assert np.array_equal(got, want[:n]), n


@pytest.mark.parametrize("alpha,ell,v,trunc", [
    (Fraction(57, 61), 2, 12, 40_000),
    (Fraction(57, 61), 101, 2, 101 * 600),
])
def test_class_route_peak_stays_within_product_bytes(alpha, ell, v, trunc):
    # the top level multiplies by inner(q^ell) one residue class at a time
    assert trunc // ell + 1 > _DIRECT_SIZE_LIMIT
    eta_power_residues(alpha, ell, v, 1000)
    tracemalloc.start()
    try:
        eta_power_residues(alpha, ell, v, trunc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= product_bytes(trunc + 1, ell ** v)
