import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from etacong import _convolve, modforms
from etacong.numerics import NotEllIntegralError, PrecisionError, ell_valuation
from etacong._convolve import convolve_exact, mul_mod
from etacong.qseries import HorizonError
from etacong.modforms import (
    GoodPrimeCertificate,
    GoodPrimeRejection,
    WeightCapExceeded,
    _bareiss_determinant,
    _det_mod,
    _divisors,
    _hecke_matrix_mod,
    _matmul_mod,
    _vm_cusp_basis_mod,
    delta,
    delta_power,
    dim_cusp_forms,
    eisenstein,
    filtration,
    gram_determinant,
    gram_determinant_of,
    gram_determinant_residue,
    gram_matrix,
    hecke_action,
    hecke_matrix,
    is_good_prime,
    theta,
    victor_miller_basis,
)
from oracles import (
    cusp_divisibility_check,
    filtration_by_rank,
    gram_residue_by_stack,
    hecke_ell_vanishes,
    monomial_rank,
    theta_fixed_point_check,
    theta_power,
)

TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
       8: 84480, 9: -113643, 10: -115920, 11: 534612}


@functools.cache
def _cusp_basis(weight):
    """The exact echelon basis of S_weight, built once per weight, to
    max(d^2, 13 d) + 1 coefficients: T_d needs d^2 and the mod-ell basis is
    compared up to 13 d + 1."""
    d = dim_cusp_forms(weight)
    return victor_miller_basis(weight, max(d * d, 13 * d) + 1)


def test_eisenstein_expansions():
    assert eisenstein(4, 2) == [1, 240, 2160]
    assert eisenstein(6, 3) == [1, -504, -16632, -122976]
    with pytest.raises(ValueError):
        eisenstein(8, 3)


@pytest.mark.parametrize("ell", [2, 3, 691, 4294967311, 2 ** 33 - 9])
def test_eisenstein_sieve_matches_the_exact_series(ell):
    # horizons at, just below and just above squares, where the sieve's
    # two loops meet
    for trunc in (0, 1, 2, 3, 4, 8, 24, 25, 26, 1000):
        for weight in (4, 6):
            got = modforms._eisenstein_mod(weight, ell, trunc)
            assert got.dtype == np.int64
            assert got.tolist() == [c % ell
                                    for c in eisenstein(weight, trunc)]
    with pytest.raises(ValueError):
        modforms._eisenstein_mod(8, ell, 10)


def test_delta_expansion_and_tau():
    d = delta(11)
    assert d[:4] == [0, 1, -24, 252]
    for n, value in TAU.items():
        assert d[n] == value


def test_two_delta_constructions_agree():
    # the product q (q;q)^24 against (E4^3 - E6^2) / 1728 from divisor sums
    t = 300
    e4, e6 = eisenstein(4, t), eisenstein(6, t)
    e4_cubed = convolve_exact(convolve_exact(e4, e4, t + 1), e4, t + 1)
    gap = [x - y for x, y in zip(e4_cubed, convolve_exact(e6, e6, t + 1))]
    assert all(x % 1728 == 0 for x in gap)
    assert delta(t) == [x // 1728 for x in gap]
    assert delta(0) == [0]


def test_delta_power_tau_k():
    assert delta_power(1, 10) == delta(10)
    d2 = delta_power(2, 6)
    assert d2[:3] == [0, 0, 1]
    # tau_2(3) = 2*tau(1)*tau(2)
    assert d2[3] == -48


def test_dimension_formulas():
    assert [dim_cusp_forms(k) for k in (0, 2, 4, 6, 8, 10, 12, 14)] == \
        [0, 0, 0, 0, 0, 0, 1, 0]
    assert dim_cusp_forms(12) == 1
    assert dim_cusp_forms(24) == 2
    assert dim_cusp_forms(36) == 3
    assert dim_cusp_forms(0) == 0
    assert dim_cusp_forms(-12) == dim_cusp_forms(25) == 0
    # dim S_k = dim M_k - 1 for k >= 4, dim M_k being the monomials' rank
    for k in range(0, 122, 2):
        rank = monomial_rank(k, 13, k // 12 + 2)
        assert dim_cusp_forms(k) == max(rank - 1, 0)


def test_victor_miller_basis_echelon_and_integrality():
    for weight in (12, 24, 36, 48):
        basis = victor_miller_basis(weight, 40)
        d = dim_cusp_forms(weight)
        assert len(basis) == d
        for i, row in enumerate(basis):
            assert len(row) == 41
            assert all(isinstance(c, int) for c in row)
            for j in range(d):
                assert row[j + 1] == (1 if i == j else 0)


def test_victor_miller_small_spaces():
    assert victor_miller_basis(12, 10) == [delta(10)]
    assert len(victor_miller_basis(36, 10)) == 3
    assert victor_miller_basis(0, 5) == victor_miller_basis(14, 5) == []
    # a horizon below the pivots is raised to d + 1
    short = victor_miller_basis(36, 1)
    assert [len(row) for row in short] == [5] * 3
    with pytest.raises(ValueError):
        victor_miller_basis(11, 5)
    with pytest.raises(ValueError):
        victor_miller_basis(-4, 5)


def test_divisors_in_increasing_order():
    for n in range(1, 200):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_hecke_action_is_identity_at_one():
    f = delta(30)
    assert hecke_action(f, 12, 1, 30) == f


def test_hecke_action_horizon_guard():
    f = delta(10)
    with pytest.raises(HorizonError, match="horizon too small"):
        hecke_action(f, 12, 3, 10)
    # so does a Hecke matrix whose basis is shorter than m * d
    with pytest.raises(HorizonError, match="need 6, have 5"):
        hecke_matrix(24, 3, victor_miller_basis(24, 5))


def test_hecke_action_eigenvalue_on_delta():
    f = delta(36)
    image = hecke_action(f, 12, 3, 12)
    assert image == [TAU[3] * c for c in delta(12)]


def test_hecke_matrix_weight_12_is_tau():
    for m in range(1, 11):
        assert hecke_matrix(12, m, _cusp_basis(12)) == [[TAU[m]]]


def test_hecke_commutativity():
    for weight in (24, 36):
        mats = {m: np.array(hecke_matrix(weight, m, _cusp_basis(weight)),
                            dtype=object) for m in range(1, 6)}
        for m in range(1, 6):
            for n in range(m + 1, 6):
                assert (mats[m] @ mats[n]).tolist() == \
                    (mats[n] @ mats[m]).tolist()


def test_gram_matrix_symmetry_and_values():
    mats = [hecke_matrix(24, m, _cusp_basis(24)) for m in (1, 2)]
    g = gram_matrix(mats)
    assert g[0][1] == g[1][0]
    assert gram_determinant_of(mats) == gram_determinant(24)
    assert gram_determinant(12) == 1
    assert gram_determinant(24) == 2 ** 6 * 3 ** 2 * 144169


def test_gram_determinant_two_routes_weight_24():
    t2 = hecke_matrix(24, 2, _cusp_basis(24))
    trace = t2[0][0] + t2[1][1]
    det = t2[0][0] * t2[1][1] - t2[0][1] * t2[1][0]
    assert gram_determinant(24) == trace * trace - 4 * det


# small primes, primes dividing the weight-120 determinant (47, 79), and
# moduli past 2^31.5, where (ell - 1)^2 no longer fits int64
GRAM_PRIMES = (2, 3, 5, 7, 13, 47, 79, 179, 431, 4099, 65537, 4294967311,
               8589934583)


def test_gram_residue_matches_exact():
    # at weight 120, 2, 3, 5, 7, 11, 13, 17, 37, 47 and 79 divide it; at
    # (132, 17) no ladder step decides and the trace form does
    cases = [(24, 5), (24, 11), (36, 17), (36, 13), (132, 17)] + [
        (120, ell) for ell in (2, 3, 5, 7, 13, 47, 79, 19, 4099, 65537,
                               4294967311, 2 ** 33 - 9)] + [
        (weight, ell) for weight in (12, 24, 36, 48, 60, 72, 96, 120)
        for ell in GRAM_PRIMES]
    exact = {}
    for weight, ell in cases:
        if weight not in exact:
            exact[weight] = gram_determinant(weight)
        assert gram_determinant_residue(weight, ell) == exact[weight] % ell
    assert gram_determinant_residue(36, 17) != 0
    assert gram_determinant_residue(120, 79) == 0
    assert gram_determinant_residue(120, 19) != 0


@pytest.mark.parametrize("weight", [12, 24, 132, 240, 396])
def test_gram_residue_matches_the_stack_oracle(weight):
    for ell in GRAM_PRIMES:
        assert gram_determinant_residue(weight, ell) == \
            gram_residue_by_stack(weight, ell), ell


@pytest.mark.parametrize("weight, ell, residue", [(1968, 179, 0),
                                                  (1728, 431, 391)])
def test_gram_residue_of_the_search_candidates(weight, ell, residue):
    # two cond3 decisions of the 57/61 search, a rejection and a certificate
    assert gram_determinant_residue(weight, ell) == residue
    assert gram_residue_by_stack(weight, ell) == residue


def _similar_mod(blocks, ell, seed):
    """P M P^-1 mod ell for the block-diagonal M of the given blocks and a
    random unit upper triangular P, as an int64 array: a matrix with M's
    minimal polynomial whose entries are spread over all of F_ell."""
    d = sum(len(b) for b in blocks)
    m = [[0] * d for _ in range(d)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            m[at + i][at:at + len(row)] = row
        at += len(block)
    rng = random.Random(seed)
    p = [[rng.randrange(ell) if c > r else int(c == r) for c in range(d)]
         for r in range(d)]
    p_inv = [[int(c == r) for c in range(d)] for r in range(d)]
    for col in range(d - 1, -1, -1):  # back substitution, unit diagonal
        for row in range(col - 1, -1, -1):
            p_inv[row][col] = -sum(p[row][k] * p_inv[k][col]
                                   for k in range(row + 1, col + 1)) % ell

    def mul(a, b):
        return [[sum(x * y for x, y in zip(r, c)) % ell for c in zip(*b)]
                for r in a]

    return np.array(mul(mul(p, m), p_inv), dtype=np.int64)


def _companion(coeffs):
    """Companion matrix of x^n - sum c_i x^i, coeffs = (c_0, ..., c_(n-1))."""
    n = len(coeffs)
    return [[int(i == j + 1) if j < n - 1 else coeffs[i] for j in range(n)]
            for i in range(n)]


def _witness(matrix, ell):
    """The witness on the 2d Krylov rows e_1^T M^i that it reads."""
    return modforms._nilpotent_witness(
        modforms._krylov_rows(matrix, ell, 2 * len(matrix)), ell)


@pytest.mark.parametrize("blocks, ell, witness", [
    ([[[3, 1], [0, 3]]], 7, True),                      # Jordan block
    ([[[1]], [[2]], [[5]]], 7, False),                  # distinct eigenvalues
    ([_companion([2, 0, 0, 0, 0])], 5, True),           # x^5 - 2, mu' = 0
    ([_companion([2, 0, 0, 0, 0, 0, 0])], 7, True),     # x^7 - 2, mu' = 0
    ([[[4]]], 7, False),                                # d = 1
    ([[[0]]], 7, False),
    ([_companion([6, 0]), [[0, 1], [0, 0]]], 7, True),  # x^2 + 1 and x^2
    ([_companion([6, 0]), [[3]]], 7, False),            # irreducible x^2 + 1
], ids=["jordan", "diagonal", "x^5-2", "x^7-2", "d-1", "zero-1x1",
        "field-and-nilpotent", "field-and-scalar"])
def test_nilpotent_witness_on_hand_built_matrices(blocks, ell, witness):
    assert _witness(_similar_mod(blocks, ell, 0), ell) is witness


@pytest.mark.parametrize("repeated", [False, True])
def test_nilpotent_witness_is_exact_below_2_33(repeated):
    # 28 distinct eigenvalues plus one 2 x 2 block, conjugated so that the
    # Krylov products run on full-width residues near 2^33
    ell = 2 ** 33 - 9
    last = [[7, 1], [0, 7]] if repeated else [[7, 0], [0, 8]]
    blocks = [[[ell - 3 * i - 100]] for i in range(28)] + [last]
    assert _witness(_similar_mod(blocks, ell, 1), ell) is repeated


# primes dividing det G at weight 288, 420 or 600 among them: 2, 5, 13, 29,
# 37, 47, 89, 131, 173 and 239; at (420, 37) T_2 is semisimple mod 37
WITNESS_PRIMES = (2, 5, 13, 29, 37, 47, 89, 101, 131, 173, 239, 4099, 65537,
                  2 ** 33 - 9)


@pytest.mark.parametrize("weight", [288, 420, 600])
def test_gram_residue_with_the_witness_matches_the_stack(weight, monkeypatch):
    # the witness runs where T_2's Krylov rows leave ell | det K; its proofs
    # are rejections, and every answer must still be the stack oracle's
    witness = modforms._nilpotent_witness
    proofs = {}

    def recorded(krylov, ell):
        proofs[ell] = witness(krylov, ell)
        return proofs[ell]

    monkeypatch.setattr(modforms, "_nilpotent_witness", recorded)
    residues = {ell: gram_determinant_residue(weight, ell)
                for ell in WITNESS_PRIMES}
    monkeypatch.undo()
    for ell, residue in residues.items():
        assert residue == gram_residue_by_stack(weight, ell), ell
        assert residue == 0 or not proofs.get(ell), ell
    assert any(proofs.values())


@pytest.mark.parametrize("weight", range(276, 709, 72))
def test_ladder_matches_the_stack_above_the_gate(weight):
    # small ell, where eigenvalues of T_p collide mod ell, and one near 2^33
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 2 ** 33 - 9):
        assert gram_determinant_residue(weight, ell) == \
            gram_residue_by_stack(weight, ell), ell


@pytest.mark.parametrize("weight, ell, residue, horizons", [
    (276, 43, 21, (2, 3)),              # decided by T_3
    (276, 59, 43, (2, 3, 5)),           # by T_5
    (300, 59, 48, (2, 3, 5, 7)),        # by T_7
    (288, 37, 0, (2,)),                 # T_2's witness
    (300, 29, 19, (2, 3, 5, 7, 25)),    # no step: the trace form, d = 25
    (420, 29, 12, (2, 3, 5, 7, 35)),
    (420, 37, 0, (2, 3, 5, 7, 35)),     # 0 with T_2 semisimple mod 37
    (132, 17, 0, (2, 3, 5, 7, 11)),     # the trace form at d = 11
    (84, 79, 65, (2,)),                 # T_2 at d = 7
])
def test_ladder_step_that_decides(weight, ell, residue, horizons, monkeypatch):
    # horizons of the bases built, in units of d: p for the step T_p, d for
    # the trace form's basis to d^2.  (1728, 431), 57/61's certificate, is
    # pinned at T_5 in test_trace_shape
    build, built = modforms._vm_cusp_basis_mod, []

    def recorded(weight, trunc, ell):
        built.append(trunc // dim_cusp_forms(weight))
        return build(weight, trunc, ell)

    monkeypatch.setattr(modforms, "_vm_cusp_basis_mod", recorded)
    assert gram_determinant_residue(weight, ell) == residue
    assert tuple(built) == horizons
    monkeypatch.undo()
    assert gram_residue_by_stack(weight, ell) == residue


@pytest.mark.parametrize("weight", range(36, 229, 12))
def test_gram_determinant_is_disc_of_t2_over_index_squared(weight):
    # over Z, from an exact basis to horizon 2d: with K[i] = e_1^T M^i for
    # M = T_2 and W the Hankel matrix of the power sums Tr M^n, det W =
    # disc(charpoly M) = det(K)^2 det G
    d = dim_cusp_forms(weight)
    m = hecke_matrix(weight, 2, victor_miller_basis(weight, 2 * d))

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a]

    powers = [[[int(i == j) for j in range(d)] for i in range(d)]]
    for _ in range(d - 1):
        powers.append(mul(powers[-1], m))
    # Tr M^n = sum over i, j of (M^a)_ij (M^(n-a))_ji, a = min(n, d - 1)
    sums = [sum(x * y for row, col in zip(powers[min(n, d - 1)],
                                          zip(*powers[n - min(n, d - 1)]))
                for x, y in zip(row, col)) for n in range(2 * d - 1)]
    disc = _bareiss_determinant([sums[i:i + d] for i in range(d)])
    det_k = _bareiss_determinant([p[0] for p in powers])
    assert det_k != 0
    assert disc == det_k ** 2 * gram_determinant(weight)


def test_search_builds_no_long_basis_above_the_gate(search_57_61_bases):
    # every cond3 candidate of 57/61 is decided by T_2, T_3 or T_5, so no
    # basis passes horizon 5d
    assert search_57_61_bases
    for weight, trunc in search_57_61_bases:
        assert trunc <= 5 * dim_cusp_forms(weight), (weight, trunc)


def test_hecke_ell_vanishes_weight_12():
    expected = {2: True, 3: True, 5: True, 7: True, 11: False, 13: False,
                17: False, 19: False}
    for ell, want in expected.items():
        assert hecke_ell_vanishes(12, ell) is want
    # the mod-ell matrix route agrees with the exact integer matrices
    for ell in (5, 11):
        exact = hecke_matrix(12, ell, _cusp_basis(12))[0][0]
        assert (exact % ell == 0) is hecke_ell_vanishes(12, ell)


def test_hecke_ell_vanishes_weight_36_at_17():
    assert hecke_ell_vanishes(36, 17)


def test_cusp_divisibility():
    assert cusp_divisibility_check(delta_power(3, 600), 36, 17, 2, 600)
    assert cusp_divisibility_check(delta(200), 12, 5, 2, 200)
    assert not cusp_divisibility_check(delta(200), 12, 11, 1, 200)


def test_is_good_prime_certificate():
    cert = is_good_prime(Fraction(57, 61), 17, 3)
    assert isinstance(cert, GoodPrimeCertificate)
    assert (cert.r, cert.m, cert.weight) == (2, 4, 36)
    assert cert.gram_det_residue != 0
    assert cert.gram_det == gram_determinant(36)


def test_is_good_prime_rejections():
    rej = is_good_prime(Fraction(57, 61), 17, 1)
    assert isinstance(rej, GoodPrimeRejection)
    assert "cond1" in rej.reason
    assert not rej
    big_k = is_good_prime(Fraction(57, 61), 17, 17)
    assert "k >= ell" in big_k.reason
    degenerate = is_good_prime(Fraction(24), 7, 1)
    assert "r undefined" in degenerate.reason
    small = is_good_prime(Fraction(57, 61), 3, 1)
    assert "excluded" in small.reason
    with pytest.raises(NotEllIntegralError):
        is_good_prime(Fraction(57, 61), 61, 1)
    # (179, 164) passes cond1 and cond2, so a lower cap must error, not reject
    with pytest.raises(WeightCapExceeded):
        is_good_prime(Fraction(57, 61), 179, 164, max_weight=1900)


@pytest.mark.parametrize("alpha", [
    Fraction(57, 61),                   # r = 2 at (17, 3)
    72 - Fraction(17 ** 3 * 2, 61),     # r = 3 at (17, 3)
    Fraction(-1),
    Fraction(3, 997),
])
def test_cond1_takes_the_valuation_of_24k_minus_alpha(alpha):
    # r = ord_ell(24k - alpha) on the Fraction, against is_good_prime's
    # integer valuation of 24kb - a: cond1 rejects exactly r = 0, and a
    # candidate past cond1 keeps r in its certificate
    for ell in (5, 7, 17):
        for k in range(1, ell):
            r = ell_valuation(24 * k - alpha, ell)
            outcome = is_good_prime(alpha, ell, k)
            cond1 = getattr(outcome, "reason", "").startswith("cond1")
            assert cond1 == (r == 0), (ell, k)
            if outcome:
                assert outcome.r == r, (ell, k)


def test_good_prime_implies_hecke_vanishing(search_57_61):
    # cross-route agreement on every certificate the search accepts
    for cert in search_57_61.certificates:
        assert hecke_ell_vanishes(cert.weight, cert.ell)


def test_theta_operator():
    assert theta(delta(3)) == [0, 1, -48, 756]
    f = delta(10)
    assert theta_power(f, 0) == f
    # Fermat: theta^ell == theta coefficientwise mod ell
    for ell in (5, 7):
        lhs = theta_power(f, ell)
        rhs = theta(f)
        assert all((a - b) % ell == 0 for a, b in zip(lhs, rhs))


def test_theta_fixed_point_check():
    assert theta_fixed_point_check(delta(100), 5, 100)
    assert theta_fixed_point_check(delta(100), 7, 100)
    assert not theta_fixed_point_check(delta(100), 13, 100)
    one = [1] + [0] * 10
    assert not theta_fixed_point_check(one, 5, 10)
    # same predicate as literally iterating theta ell-1 times
    for ell in (5, 13):
        f = delta(60)
        iterated = theta_power(f, ell - 1)
        literal = all((a - b) % ell == 0
                      for a, b in zip(iterated, f))
        assert literal is theta_fixed_point_check(f, ell, 60)


def test_filtration_of_delta_powers():
    for d in (1, 2, 3):
        for ell in (5, 7, 13):
            assert filtration(delta_power(d, d + 8), 12 * d, ell) == 12 * d


def test_filtration_of_eisenstein_like_reduction():
    # E4 == 1 mod 5, so its filtration collapses to weight 0
    assert filtration(eisenstein(4, 10), 4, 5) == 0


def test_filtration_zero_form_sentinel():
    f = [5, 10, 15, 20, 25]
    assert filtration(f, 12, 5) is None


def test_filtration_congruence_invariant():
    f = delta(30)
    for i in range(5):
        w = filtration(f, 12 + i * 6, 5)
        assert w % 4 == (12 + i * 6) % 4
        f = theta(f)


def test_filtration_theta_iterates_stay_above_base_weight():
    # theta never pushes Delta^d below its own weight
    for d in (1, 2):
        for ell in (5, 7):
            nominal = 12 * d
            horizon = (nominal + (ell - 1) * (ell + 1)) // 12 + 3
            f = delta_power(d, horizon)
            for _ in range(ell):
                assert filtration(f, nominal, ell) >= 12 * d
                f = theta(f)
                nominal += ell + 1


def test_filtration_requires_ell_at_least_5():
    with pytest.raises(ValueError, match="requires ell >= 5"):
        filtration(delta(10), 12, 3)
    # and below the moduli the mod-ell basis multiplies, before any product
    with pytest.raises(ValueError, match=r"requires ell < 2\^33"):
        filtration(delta(10), 12, 2 ** 33 + 17)


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 19])
def test_filtration_matches_the_rank_oracle(ell):
    # Delta and Delta^2 with their theta iterates up to ell - 1, then E4, E6
    # and E4 * Delta; the oracle compares ranks of the monomials of each
    # candidate weight with and without f
    cases = []
    for d in (1, 2):
        horizon = (12 * d + (ell - 1) * (ell + 1)) // 12 + 2
        f = delta_power(d, horizon)
        for i in range(ell):
            cases.append((f, 12 * d + i * (ell + 1), horizon))
            f = theta(f)
    e4 = eisenstein(4, 3)
    cases += [(e4, 4, 2), (eisenstein(6, 3), 6, 2),
              (convolve_exact(e4, delta(3), 4), 16, 3)]
    for f, weight, horizon in cases:
        assert filtration(f, weight, ell) == \
            filtration_by_rank(f, weight, ell, horizon), (weight, ell)


def _theta_iterates_of_delta(ell):
    """(theta^i Delta, 12 + i (ell + 1)) for i < ell, each to the horizon
    filtration needs at its nominal weight."""
    f = delta((12 + (ell - 1) * (ell + 1)) // 12 + 2)
    out = []
    for i in range(ell):
        out.append((f, 12 + i * (ell + 1)))
        f = theta(f)
    return out


def _filtration_by_scan(f, weight, ell):
    """The least candidate w == weight mod (ell - 1) with Delta*f in
    S_(w+12) mod ell, trying every candidate from the lowest up."""
    horizon = weight // 12 + 2
    target = np.array(convolve_exact(delta(horizon + 1), f[:horizon + 1],
                                     horizon + 2)) % ell
    for w in range(weight % (ell - 1), weight + 1, ell - 1):
        basis = _vm_cusp_basis_mod(w + 12, horizon + 1, ell)
        if np.array_equal(target[1:basis.shape[0] + 1] @ basis % ell, target):
            return w
    return None


def test_filtration_bisects_the_candidate_weights(monkeypatch):
    # theta^51 Delta at ell 53 has nominal weight 2766: K = 54 candidates
    ell = 53
    f, weight = _theta_iterates_of_delta(ell)[51]
    calls = []

    def counted(weight, trunc, ell):
        calls.append(weight)
        return _vm_cusp_basis_mod(weight, trunc, ell)

    monkeypatch.setattr(modforms, "_vm_cusp_basis_mod", counted)
    got = filtration(f, weight, ell)
    candidates = len(range(weight % (ell - 1), weight + 1, ell - 1))
    assert candidates == 54
    assert 0 < len(calls) <= math.ceil(math.log2(candidates)) + 1
    assert got == 582


def test_filtration_matches_a_linear_scan_on_every_theta_iterate():
    ell = 53
    weights = []
    for f, weight in _theta_iterates_of_delta(ell):
        weights.append(filtration(f, weight, ell))
        assert weights[-1] == _filtration_by_scan(f, weight, ell), weight
    # the cycle drops once, at theta^42 (2280 to 96), and never below 12
    drops = [i for i in range(1, ell) if weights[i] - weights[i - 1] != ell + 1]
    assert drops == [42] and weights[42] == 96
    assert min(weights) == weights[0] == 12


def test_filtration_of_one_theta_step_at_a_large_prime():
    # the step law: ell does not divide 12, so theta adds ell + 1
    ell = 10007
    weight = 12 + ell + 1
    assert filtration(theta(delta(weight // 12 + 2)), weight, ell) == ell + 13


def test_filtration_theta_step_law():
    # one theta step adds ell+1 exactly when ell does not divide the weight
    for ell in (5, 7):
        f = delta((12 + (ell - 1) * (ell + 1)) // 12 + 3)
        weights = []
        nominal = 12
        for i in range(ell):
            weights.append(filtration(f, nominal, ell))
            f = theta(f)
            nominal += ell + 1
        for i in range(ell - 1):
            step = weights[i + 1] - weights[i]
            if weights[i] % ell:
                assert step == ell + 1
            else:
                # a drop of s(ell-1) with s >= 1
                assert (ell + 1 - step) % (ell - 1) == 0
                assert step < ell + 1
            assert weights[i + 1] >= 12
        assert weights[ell - 1] == weights[0] == 12


# ---------------------------------------------------------------------------
# the mod-ell fast path against the exact routes
# ---------------------------------------------------------------------------

def _random_matrix(rng, rows, cols, ell):
    return np.array([[rng.randrange(ell) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


def _python_matmul_mod(a, b, ell):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % ell
             for col in zip(*b.tolist())] for row in a.tolist()]


# the limbs _matmul_mod splits a into: one while (ell-1)^2 * inner < 2^52
MATMUL_LIMBS = {
    (4099, 30): 1,
    (33554467, 3): 1,           # (ell-1)^2 * inner just below 2^52
    (33554467, 4): 2,           # and just above
    (2 ** 29 - 3, 8): 2,        # int64 would not overflow, float64 would round
    (2 ** 31 - 1, 4): 2,        # int64 would overflow
    (2 ** 33 - 9, 40000): 11,   # 3-bit limbs at about d^2 for the weight cap
}


@pytest.mark.parametrize("ell, inner, error", [
    (ell, inner, None) for ell, inner in MATMUL_LIMBS] + [
    (2 ** 33 - 9, 2 ** 19 + 1, PrecisionError),  # not even 1-bit limbs fit
])
def test_matmul_mod_every_branch_is_exact(monkeypatch, ell, inner, error):
    if error is not None:
        with pytest.raises(error):
            _matmul_mod(np.zeros((1, inner), dtype=np.int64),
                        np.zeros((inner, 1), dtype=np.int64), ell)
        return
    rng = random.Random(ell + inner)
    a = _random_matrix(rng, 5, inner, ell)
    b = _random_matrix(rng, inner, 7, ell)
    a[0, :] = ell - 1  # the worst case sums to (ell-1)^2 * inner
    b[:, 0] = ell - 1
    calls = []

    def counted_mul_mod(x, y, m):
        calls.append(y)
        return mul_mod(x, y, m)

    # every limb but the lowest is recombined by one mul_mod
    monkeypatch.setattr(_convolve, "mul_mod", counted_mul_mod)
    got = _matmul_mod(a, b, ell)
    assert len(calls) + 1 == MATMUL_LIMBS[ell, inner]
    assert got.dtype == np.int64
    assert got.tolist() == _python_matmul_mod(a, b, ell)


@pytest.mark.parametrize("ell", [2, 3, 4099, 2 ** 31 - 1, 4294967311,
                                 2 ** 33 - 9])
def test_det_mod_matches_bareiss(ell):
    rng = random.Random(ell)
    # 17 and 40 cross the elimination's panels of 16 pivots
    for size in (*range(1, 9), 17, 40):
        for _ in range(4):
            mat = [[rng.randrange(-50, 50) for _ in range(size)]
                   for _ in range(size)]
            singular = [row[:] for row in mat]
            if size > 1:
                singular[-1] = [x + y for x, y in zip(mat[0], mat[1 % size])]
                singular[0] = [3 * x for x in singular[-1]]
            for m in (mat, singular):
                assert _det_mod(np.array(m), ell) == \
                    _bareiss_determinant(m) % ell
    # a zero pivot forces a row swap, which flips the sign
    assert _det_mod(np.array([[0, 1], [1, 0]]), ell) == (-1) % ell
    assert _det_mod(np.array([[ell, 1], [2 * ell, 5]]), ell) == 0


@pytest.mark.parametrize("ell", [2, 3, 431, 2 ** 33 - 9])
def test_solve_mod_solves_across_panels(ell):
    # A X == B mod ell from the returned X, at sizes on both sides of the
    # panel width; a row that depends on rows of two panels makes A singular
    rng = random.Random(ell)
    for size in (1, 5, 16, 17, 40):
        a = [[rng.randrange(ell) for _ in range(size)] for _ in range(size)]
        b = [[rng.randrange(ell) for _ in range(2)] for _ in range(size)]
        det, x = modforms._solve_mod(np.hstack([a, b]), ell)
        assert det == _bareiss_determinant(a) % ell
        if det:
            assert [[sum(r * int(c) for r, c in zip(row, col)) % ell
                     for col in x.T] for row in a] == b
        else:
            assert x is None
    a[-1] = [(u + 5 * v) % ell for u, v in zip(a[0], a[20])]
    assert modforms._solve_mod(np.array(a), ell) == (0, None)


@pytest.mark.parametrize("weight", [120, 180])
@pytest.mark.parametrize("ell", [2, 3, 5, 13, 4099, 4294967311])
def test_cusp_basis_mod_matches_exact_basis(weight, ell):
    d = dim_cusp_forms(weight)
    # the exact basis is quadratic in the horizon: for large ell only d^2+1
    horizons = {d * d + 1, ell * d + 1} if ell < 100 else {d * d + 1}
    for trunc in horizons:
        exact = [row[:trunc + 1] for row in _cusp_basis(weight)]
        got = _vm_cusp_basis_mod(weight, trunc, ell)
        assert got.tolist() == [[c % ell for c in row] for row in exact]


@pytest.mark.parametrize("weight", [120, 180])
def test_hecke_matrix_mod_matches_exact(weight):
    d = dim_cusp_forms(weight)
    exact = [hecke_matrix(weight, m, _cusp_basis(weight))
             for m in range(1, d + 1)]
    # above 2^32, dd^(weight-1) * coefficient no longer fits int64
    for ell in (5, 13, 4099, 4294967311):
        basis = _vm_cusp_basis_mod(weight, d * d + 1, ell)
        for m in range(1, d + 1):
            want = [[c % ell for c in row] for row in exact[m - 1]]
            assert _hecke_matrix_mod(weight, m, ell, basis).tolist() == want


@pytest.mark.parametrize("fault, value", [("diagonal", 2), ("below", 1)])
def test_cusp_basis_mod_refuses_a_bad_lead_block(monkeypatch, fault, value):
    d = dim_cusp_forms(120)
    fixed_operand_mod = modforms.fixed_operand_mod

    def corrupting(b, m, n_out):
        # the rows are the products by X, the basis's fixed operand
        times_b = fixed_operand_mod(b, m, n_out)

        def corrupt_last_row(a):
            out = times_b(a)
            if np.flatnonzero(out)[:1].tolist() == [d]:  # the row led by q^d
                out[d if fault == "diagonal" else 1] = value
            return out

        return corrupt_last_row

    monkeypatch.setattr(modforms, "fixed_operand_mod", corrupting)
    with pytest.raises(ArithmeticError, match="pivot"):
        _vm_cusp_basis_mod(120, d * d + 1, 5)
