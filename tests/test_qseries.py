import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etacong import qseries
from etacong._convolve import (
    _BLOCKED_OUTPUT,
    _DIRECT_SIZE_LIMIT,
    _limb_layout,
    _power_chain,
    binary_power,
    convolve_exact,
    convolve_mod,
    product_bytes,
)
from etacong.numerics import (
    MemoryLimitError,
    NotEllIntegralError,
    PrecisionError,
    psi,
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


@pytest.mark.parametrize("ell,v", [(7, 11), (11, 9)])
def test_partitions_mod_the_largest_powers_below_the_fft_limit(ell, v):
    # e = -1 at the top level: the pentagonal series, inverted
    m = ell ** v
    assert m < 2 ** 33 < m * ell
    got = eta_power_residues(-1, ell, v, 5000)
    assert got.tolist() == [p % m for p in partition_numbers(5000)]


def forced_signs(signs):
    """A stand-in for qseries._level_split that gives level i the split
    (psi(m, f), 0) for signs[i] == "+" and (psi(m, f) - m, 0) for "-": the
    two exponents that need no correction."""
    levels = iter(signs)

    def level_split(f, ell, precision):
        m = ell ** precision
        e = psi(m, f)
        return (e - m if next(levels) == "-" else e), 0

    return level_split


# the verify workload's alpha at seed 1 (bench/workloads.verify_alpha)
VERIFY_ALPHA = Fraction(-168596, 147)


@pytest.mark.parametrize("alpha,ell,v", [
    *[(a, 5, 6) for a in (Fraction(-1), Fraction(-5), Fraction(1, 2),
                          Fraction(57, 61), Fraction(-7, 999))],
    (VERIFY_ALPHA, 17, 2), (Fraction(57, 61), 17, 2),
])
def test_either_sign_at_every_level_gives_the_same_residues(
        monkeypatch, alpha, ell, v):
    # e and e - ell^v both leave alpha - e divisible by ell^v; the levels
    # below see a different alpha but the same series
    trunc = 3000
    want = eta_power_residues(alpha, ell, v, trunc)
    for signs in ("+" * 9, "-" * 9, "+-" * 5, "-+" * 5):
        monkeypatch.setattr(qseries, "_level_split", forced_signs(signs))
        got = eta_power_residues(alpha, ell, v, trunc)
        assert np.array_equal(got, want), signs
    assert want[:201].tolist() == qseries._eta_power_mod_ledger(
        alpha, ell, v, 200)


def level_candidates(f, ell, precision):
    """The 2 ell splits (b, a) of ``qseries._level_runs``, in one list."""
    return [split for run in qseries._level_runs(f, ell, precision)
            for split in run]


def forced_candidates(start):
    """A stand-in for qseries._level_split that gives level i candidate
    start + i of its ``level_candidates``, cyclically."""
    level = iter(range(start, start + 100))

    def level_split(f, ell, precision):
        found = level_candidates(f, ell, precision)
        return found[next(level) % len(found)]

    return level_split


# (ell, v, trunc): two levels at least, up to v = 13, ell = 92681 (the
# largest prime with ell^2 < 2^33) and ell^v just under 2^33 (5^14 > 2^33)
SPLIT_CASES = [(3, 2, 3000), (3, 3, 3000), (5, 2, 3000), (5, 6, 3000),
               (5, 13, 3000), (7, 4, 3000), (17, 2, 3000),
               (101, 4, 207), (92681, 2, 92681 + 7)]


@pytest.mark.parametrize("ell,v,trunc", SPLIT_CASES)
def test_every_split_gives_the_parent_route_residues(monkeypatch, ell, v,
                                                     trunc):
    # each level forced through every candidate (b, a): b in (-ell^v,
    # ell^v) with alpha - b divisible by ell^(v - 1), corrected by
    # 1 + ell^(v - 1) a Y; the route with a = 0 at every level and the
    # ledger give the same residues, full series and one class.  At
    # ell = 92681, where each forced power of up to 33 bits takes seconds,
    # three of its 185,362 top-level candidates: the first, the last (a
    # negative b) and the level's own choice
    alpha = Fraction(57, 61)
    residue = trunc % ell
    found = level_candidates(qseries.ell_integral(alpha, ell), ell, v)
    assert len(found) == 2 * ell
    starts = range(len(found)) if ell < 1000 else [
        0, len(found) - 1, found.index(qseries._level_split(alpha, ell, v))]
    monkeypatch.setattr(qseries, "_level_split", forced_signs("+" * 9))
    want = eta_power_residues(alpha, ell, v, trunc)
    assert want[:201].tolist() == qseries._eta_power_mod_ledger(
        alpha, ell, v, 200)
    for start in starts:
        monkeypatch.setattr(qseries, "_level_split", forced_candidates(start))
        got = eta_power_residues(alpha, ell, v, trunc)
        assert np.array_equal(got, want), start
        monkeypatch.setattr(qseries, "_level_split", forced_candidates(start))
        got = eta_power_residues(alpha, ell, v, trunc, residue=residue)
        assert np.array_equal(got, want[residue::ell]), start


@pytest.mark.parametrize("v", [1, 2, 5, 32])
def test_two_and_the_first_power_never_take_a_correction(v):
    # at ell = 2, and at v = 1, exp((alpha - b) Y) keeps terms past the
    # first mod ell^v: only the two splits with a = 0 remain
    for alpha in (Fraction(57, 61), Fraction(-1), Fraction(1, 3), 6):
        f = qseries.ell_integral(alpha, 2)
        e = psi(2 ** v, f)
        assert level_candidates(f, 2, v) == [(e, 0), (e - 2 ** v, 0)]
        assert qseries._level_split(f, 2, v)[1] == 0
        assert all(a == 0 for _, a in level_candidates(f, 17, 1))
    assert {a for _, a in level_candidates(
        Fraction(57, 61), 17, 2)} == set(range(17))


@pytest.mark.parametrize("ell", [3, 5, 17, 101, 1009])
@pytest.mark.parametrize("v", [2, 3])
def test_level_split_is_the_cheapest_candidate(ell, v):
    # the split reads the candidates by |b| and stops at its bound: the
    # same split as the least cost over all 2 ell of them
    def cost(split):
        b, a = split
        return (_power_chain(b)[0] + (qseries._LOG_PART_COST if a else 0),
                a != 0, b < 0, abs(b))

    for alpha in (Fraction(57, 61), Fraction(1, 2), Fraction(-1),
                  Fraction(-5, 7), Fraction(72)):
        found = level_candidates(alpha, ell, v)
        assert len(set(found)) == 2 * ell
        assert qseries._level_split(alpha, ell, v) == min(found, key=cost)


@pytest.mark.parametrize("ell,trunc", [
    # N past ell^3, whose class 0 takes three copies (ell^5 for 2 and 3)
    (2, 250), (3, 250), (5, 250), (17, 17 ** 3 + 17),
    (101, 101 ** 2 + 101),
    # n_out <= ell: no full row of ell coefficients
    (17, 15), (17, 16), (101, 50),
    # (ell - 1)^2 >= 2^31: int64
    (46349, 2 * 46349 + 7),
], ids=["2", "3", "5", "17", "101", "17-n16", "17-n17", "101-n51", "46349"])
def test_log_part_is_the_ell_integral_part_of_log_eta(ell, trunc):
    # Y_N = -sigma(N)/N + sigma(N/ell)/N, which is ell-integral, reduced mod
    # ell.  int32 while (ell - 1)^2 and the sieve's bound fit it
    sigma = divisor_sum_table(1, trunc)
    got = qseries._log_part_mod(ell, trunc + 1)
    wide = (ell - 1) ** 2 >= qseries._INT32_SIGMA_LIMIT
    assert got.dtype == (np.int64 if wide else np.int32) and got[0] == 0
    for n in range(1, trunc + 1):
        y = Fraction(-sigma[n], n)
        if n % ell == 0:
            y += Fraction(sigma[n // ell], n)
        assert y.denominator % ell
        assert got[n] == psi(ell, y), n


def test_divisor_sums_take_int64_past_the_bound(monkeypatch):
    # sigma(N) <= N (1 + ln N): int32 while that bound stays below the
    # limit, int64 from the first T where it does not.  At the real limit,
    # 2^31, the boundary lies near 1.1*10^8
    assert qseries._INT32_SIGMA_LIMIT == 2 ** 31
    limit = 5000
    monkeypatch.setattr(qseries, "_INT32_SIGMA_LIMIT", limit)
    edge = 1
    while (edge + 1) * (1 + np.log(edge + 1)) < limit:
        edge += 1
    want = divisor_sum_table(1, edge + 1)
    assert max(want[:edge + 1]) < limit
    for trunc, dtype in ((edge, np.int32), (edge + 1, np.int64)):
        got = qseries._divisor_sums(trunc)
        assert got.dtype == dtype and got.tolist() == want[:trunc + 1]
    # the row d = 1 alone below 4
    for trunc in range(4):
        assert qseries._divisor_sums(trunc).tolist() == want[:trunc + 1]


@pytest.mark.parametrize("alpha,ell,v,trunc,residue,levels", [
    # residues: p(n) mod 5^6 to 10^6 and mod 5^13 to 10^4
    (Fraction(-1), 5, 6, 10 ** 6, None, [(-1, 0)]),
    (Fraction(-1), 5, 13, 10 ** 4, None, [(-1, 0)]),
    # verify: the class of 286 mod 17 to 289 * 13840 + 286; both long
    # levels take (q;q)^4, the sparse pair product, and one correction
    (VERIFY_ALPHA, 17, 2, 289 * 13840 + 286, 14,
     [(4, 4), (4, 7), (24, 1), (1, 1), (1, 13), (-4, 0)]),
    (Fraction(57, 61), 17, 2, 289 * 13840 + 286, 14,
     [(4, 4), (4, 7), (24, 10), (27, 0), (0, 13), (30, 13)]),
    # J^8 (4 transforms) ties with (q;q)^0 and one correction (4)
    (Fraction(-1), 5, 2, 100, None, [(24, 0), (0, 4), (24, 0)]),
    (Fraction(1, 2), 5, 14, 10 ** 5, None,
     [(610351563, 2)] + [(2929687500, 0), (0, 2)] * 3 + [(2929687500, 0)]),
])
def test_each_workload_level_takes_its_pinned_sign(
        monkeypatch, alpha, ell, v, trunc, residue, levels):
    # the splits are recorded, and the exponents the powers run: each
    # power, and each correction's Y, is a zero series, and a negative
    # exponent is the power of |b| followed by one inverse_mod
    taken, powers = [], []
    split = qseries._level_split

    def recorded(f, ell, precision):
        taken.append(split(f, ell, precision))
        return taken[-1]

    def power(e, m, n_out, residue=None, ell=None):
        powers.append(e)
        if residue is not None:
            n_out = len(range(residue, n_out, ell))
        return np.zeros(n_out, dtype=np.int64)

    def inverse(f, m, n_out):
        powers[-1] = -powers[-1]
        return f

    monkeypatch.setattr(qseries, "_level_split", recorded)
    monkeypatch.setattr(qseries, "eta_integer_power_mod", power)
    monkeypatch.setattr(qseries, "inverse_mod", inverse)
    monkeypatch.setattr(qseries, "_log_part_mod",
                        lambda ell, n_out: np.zeros(n_out, dtype=np.int64))
    eta_power_residues(alpha, ell, v, trunc, residue=residue)
    assert taken == levels
    assert powers == [b for b, _ in levels]


def test_three_limb_descent_with_a_negative_level_matches_the_ledger():
    # p(n) mod 5^14 ends at its first level; -1/2 takes a negative b, and
    # a correction, at the top level and three limbs past 2^15 coefficients
    m, trunc = 5 ** 14, 40_000
    b, a = qseries._level_split(Fraction(-1, 2), 5, 14)
    assert b < 0 and a != 0
    assert _limb_layout(m, trunc + 1)[0] == 3
    got = eta_power_residues(Fraction(-1, 2), 5, 14, trunc)
    assert got[:301].tolist() == qseries._eta_power_mod_ledger(
        Fraction(-1, 2), 5, 14, 300)
    # its square is 1/(q;q), the partition numbers
    want = [p % m for p in partition_numbers(trunc)]
    assert convolve_mod(got, got, m, trunc + 1).tolist() == want


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


# (ell, v): one limb, and the largest power of ell below 2^33, which takes
# two or three limbs at these lengths
RESIDUE_MODULI = [(2, 4), (2, 32), (5, 2), (5, 14), (17, 2), (17, 8),
                  (101, 1), (101, 4)]


@pytest.mark.parametrize("ell,v", RESIDUE_MODULI)
def test_residue_route_is_one_class_of_the_full_series(ell, v):
    alpha = Fraction(57, 61)
    # inner has T // ell + 1 coefficients, T's class and those below it as
    # many, the classes above it one fewer.  Every class at T < ell and at
    # one longer T; every T mod ell at inner width 3, and the T next to a
    # class edge at 40 and (but for 101, for time) past the direct path's
    # size limit, each with the classes on both sides of T's own
    widths = [40] + ([_DIRECT_SIZE_LIMIT + 1] if ell < 101 else [])
    full = eta_power_residues(alpha, ell, v, ell * widths[-1] + ell - 1)
    cases = [(trunc, range(ell)) for trunc in (0, 1, ell - 1, 5 * ell + 1)]
    truncs = list(range(3 * ell - 1, 4 * ell - 1))
    for w in widths:
        truncs += [ell * w - 1, ell * w, ell * w + 1, ell * w + ell - 2]
    cases += [(trunc, {0, trunc % ell, (trunc + 1) % ell, ell - 1})
              for trunc in truncs]
    for trunc, classes in cases:
        for r in classes:
            got = eta_power_residues(alpha, ell, v, trunc, residue=r)
            assert np.array_equal(got, full[:trunc + 1][r::ell]), (trunc, r)


@pytest.mark.parametrize("ell,v", RESIDUE_MODULI)
def test_residue_route_without_an_inner_level(ell, v):
    # 0 and 1 are their own exponents and end at the first level; 72 and
    # m - 1 may take a correction and go on
    m = ell ** v
    for alpha in {0, 1, 72 % m, m - 1}:
        full = eta_power_residues(alpha, ell, v, 3 * ell + 1)
        for r in range(ell):
            got = eta_power_residues(alpha, ell, v, 3 * ell + 1, residue=r)
            assert np.array_equal(got, full[r::ell]), (alpha, r)


@pytest.mark.parametrize("residue", [-1, 17, 18, 10 ** 6])
def test_residue_outside_the_classes_is_refused(residue):
    with pytest.raises(ValueError, match=r"residue must lie in \[0, 17\)"):
        eta_power_residues(Fraction(57, 61), 17, 2, 1000, residue=residue)


# one limb (the first three), two limbs (5^13) and three (5^14); the top
# level's products at 100,001 coefficients take the blocked route, at one
# limb and at three limbs mod 5^14, whose limb products overflow int64
PEAK_CASES = [
    (Fraction(57, 61), 17, 2, 25_000),
    (Fraction(57, 61), 17, 2, 100_000),
    (Fraction(-1), 5, 6, 10_000),
    (Fraction(1, 2), 5, 13, 25_000),
    (Fraction(1, 2), 5, 14, 40_000),
    (Fraction(1, 2), 5, 14, 100_000),
]


def test_peak_cases_cover_one_two_and_three_limbs():
    assert [_limb_layout(ell ** v, trunc + 1)[0]
            for _, ell, v, trunc in PEAK_CASES] == [1, 1, 1, 2, 3, 3]
    assert [trunc + 1 > _BLOCKED_OUTPUT for *_, trunc in PEAK_CASES] == [
        False, True, False, False, False, True]


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


def test_blocked_descent_peak_stays_within_product_bytes():
    # the top level's squares and product at 1,100,001 coefficients take
    # the blocked route, two output blocks at a time on two threads
    trunc = 1_100_000
    assert trunc + 1 > _BLOCKED_OUTPUT
    eta_power_residues(Fraction(57, 61), 17, 2, 1000)
    tracemalloc.start()
    try:
        eta_power_residues(Fraction(57, 61), 17, 2, trunc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= product_bytes(trunc + 1, 17 ** 2)


@pytest.mark.parametrize("v,trunc,limbs", [(6, 200_000, 1), (14, 100_000, 3)])
def test_inverted_level_peak_stays_within_product_bytes(v, trunc, limbs):
    # p(n) mod 5^v: one level, the pentagonal series inverted, its long
    # products blocked
    m = 5 ** v
    assert qseries._level_split(Fraction(-1), 5, v) == (-1, 0)
    assert _limb_layout(m, trunc + 1)[0] == limbs
    assert trunc + 1 > _BLOCKED_OUTPUT
    eta_power_residues(-1, 5, v, 1000)
    tracemalloc.start()
    try:
        eta_power_residues(-1, 5, v, trunc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= product_bytes(trunc + 1, m)


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


@pytest.mark.parametrize("trunc", [25_000, 100_000])
def test_residue_route_peak_stays_within_product_bytes(trunc):
    # verify's shape: the class of 286 mod 17 of p_alpha mod 17^2
    eta_power_residues(Fraction(57, 61), 17, 2, 1000, residue=14)
    tracemalloc.start()
    try:
        eta_power_residues(Fraction(57, 61), 17, 2, trunc, residue=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= product_bytes(trunc + 1, 17 ** 2)


def test_residue_route_peak_at_verify_shape():
    # the top level's (q;q)^4 from two seeds' terms, Y's sieve in its own
    # int32 array and the narrow correction 1 + 68 Y: at most 20 bytes a
    # coefficient, about 2.5 int64 series
    trunc = 1_100_000
    eta_power_residues(Fraction(57, 61), 17, 2, 1000, residue=14)
    tracemalloc.start()
    try:
        got = eta_power_residues(Fraction(57, 61), 17, 2, trunc, residue=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int64
    assert peak <= 20 * (trunc + 1)


def test_residue_route_forms_only_its_class_in_the_last_product():
    # verify's shape at 1.1*10^6: the top level's (q;q)^4 (1 + 68 Y) forms
    # class 14 alone in its product by the correction, instead of all
    # 1,100,001 coefficients and both operands' block spectra
    alpha, trunc = Fraction(57, 61), 1_100_000
    eta_power_residues(alpha, 17, 2, 1000, residue=14)
    peaks, got = {}, {}
    for residue in (14, None):
        tracemalloc.start()
        try:
            got[residue] = eta_power_residues(alpha, 17, 2, trunc,
                                              residue=residue)
            peaks[residue] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[14] <= 2 * peaks[None] / 3
    assert np.array_equal(got[14], got[None][14::17])
