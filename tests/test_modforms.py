import random
from fractions import Fraction

import numpy as np
import pytest

from etacong import modforms
from etacong.numerics import NotEllIntegralError
from etacong.qseries import HorizonError, QSeries, eta_power_rational
from etacong.modforms import (
    CUSPIDAL,
    FULL,
    GoodPrimeCertificate,
    GoodPrimeRejection,
    WeightCapExceeded,
    _bareiss_determinant,
    _det_mod,
    _divisors,
    _hecke_matrix_mod,
    _matmul_mod,
    _vm_cusp_basis_mod,
    cusp_divisibility_check,
    delta,
    delta_power,
    dim_cusp_forms,
    dim_modular_forms,
    eisenstein,
    filtration,
    gram_determinant,
    gram_determinant_residue,
    hecke_action,
    hecke_ell_vanishes,
    hecke_matrix,
    is_good_prime,
    theta,
    theta_fixed_point_check,
    theta_power,
    victor_miller_basis,
)

TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
       8: 84480, 9: -113643, 10: -115920, 11: 534612}


def test_eisenstein_expansions():
    assert eisenstein(4, 2).coeffs == [1, 240, 2160]
    assert eisenstein(6, 3).coeffs == [1, -504, -16632, -122976]
    with pytest.raises(ValueError):
        eisenstein(8, 3)


def test_delta_expansion_and_tau():
    d = delta(11)
    assert d.coeffs[:4] == [0, 1, -24, 252]
    for n, value in TAU.items():
        assert d[n] == value


def test_two_delta_constructions_agree():
    # Eisenstein route vs the shifted 24th power of the Euler product
    t = 200
    eta24 = eta_power_rational(1, t - 1) ** 24
    shifted = QSeries([0] + list(eta24.coeffs), t)
    assert delta(t) == shifted


def test_delta_power_tau_k():
    assert delta_power(1, 10) == delta(10)
    d2 = delta_power(2, 6)
    assert d2.coeffs[:3] == [0, 0, 1]
    # tau_2(3) = 2*tau(1)*tau(2)
    assert d2[3] == -48


def test_dimension_formulas():
    assert [dim_modular_forms(k) for k in (0, 2, 4, 6, 8, 10, 12, 14)] == \
        [1, 0, 1, 1, 1, 1, 2, 1]
    assert dim_cusp_forms(12) == 1
    assert dim_cusp_forms(24) == 2
    assert dim_cusp_forms(36) == 3
    assert dim_cusp_forms(0) == 0


def test_victor_miller_basis_echelon_and_integrality():
    for weight, kind in ((12, CUSPIDAL), (24, CUSPIDAL), (36, CUSPIDAL),
                         (24, FULL), (48, FULL)):
        space = victor_miller_basis(weight, kind, 40)
        off = space.offset
        for i, row in enumerate(space.basis):
            assert all(isinstance(c, int) for c in row)
            for j in range(space.dim):
                assert row[j + off] == (1 if i == j else 0)


def test_victor_miller_small_spaces():
    s12 = victor_miller_basis(12, CUSPIDAL, 10)
    assert s12.dim == 1
    assert list(s12.basis[0]) == delta(10).coeffs
    assert victor_miller_basis(36, CUSPIDAL, 10).dim == 3
    m0 = victor_miller_basis(0, FULL, 5)
    assert m0.dim == 1 and list(m0.basis[0]) == [1, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        victor_miller_basis(11, CUSPIDAL, 5)
    with pytest.raises(ValueError):
        victor_miller_basis(-4, FULL, 5)


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


def test_hecke_action_eigenvalue_on_delta():
    f = delta(36)
    image = hecke_action(f, 12, 3, 12)
    assert image.coeffs == [TAU[3] * c for c in delta(12).coeffs]


def test_hecke_matrix_weight_12_is_tau():
    for m in range(1, 11):
        assert hecke_matrix(12, m).entries == ((TAU[m],),)


def test_hecke_commutativity():
    for weight in (24, 36):
        mats = {m: hecke_matrix(weight, m) for m in range(1, 6)}
        for m in range(1, 6):
            for n in range(m + 1, 6):
                assert mats[m] @ mats[n] == mats[n] @ mats[m]


def test_gram_matrix_symmetry_and_values():
    from etacong.modforms import gram_matrix

    g = gram_matrix(24)
    assert g[0][1] == g[1][0]
    assert gram_determinant(12) == 1
    assert gram_determinant(24) == 2 ** 6 * 3 ** 2 * 144169


def test_gram_determinant_two_routes_weight_24():
    t2 = hecke_matrix(24, 2).entries
    trace = t2[0][0] + t2[1][1]
    det = t2[0][0] * t2[1][1] - t2[0][1] * t2[1][0]
    assert gram_determinant(24) == trace * trace - 4 * det


def test_gram_residue_matches_exact():
    # at weight 120, 2, 3, 5, 7, 11, 13, 17, 37, 47 and 79 divide it
    cases = [(24, 5), (24, 11), (36, 17), (36, 13)] + [
        (120, ell) for ell in (2, 3, 5, 7, 13, 47, 79, 19, 4099, 65537,
                               4294967311)]
    for weight, ell in cases:
        assert gram_determinant_residue(weight, ell) == \
            gram_determinant(weight) % ell
    assert gram_determinant_residue(36, 17) != 0
    assert gram_determinant_residue(120, 79) == 0
    assert gram_determinant_residue(120, 19) != 0


def test_hecke_ell_vanishes_weight_12():
    expected = {2: True, 3: True, 5: True, 7: True, 11: False, 13: False,
                17: False, 19: False}
    for ell, want in expected.items():
        assert hecke_ell_vanishes(12, ell) is want
    # the mod-ell matrix route agrees with the exact integer matrices
    for ell in (5, 11):
        exact = hecke_matrix(12, ell).entries[0][0]
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


def test_good_prime_implies_hecke_vanishing(search_57_61):
    # cross-route agreement on every certificate the search accepts
    for cert in search_57_61.certificates:
        assert hecke_ell_vanishes(cert.weight, cert.ell)


def test_theta_operator():
    assert theta(delta(3)).coeffs == [0, 1, -48, 756]
    f = delta(10)
    assert theta_power(f, 0) == f
    # Fermat: theta^ell == theta coefficientwise mod ell
    for ell in (5, 7):
        lhs = theta_power(f, ell)
        rhs = theta(f)
        assert all((a - b) % ell == 0 for a, b in zip(lhs.coeffs, rhs.coeffs))


def test_theta_fixed_point_check():
    assert theta_fixed_point_check(delta(100), 5, 100)
    assert theta_fixed_point_check(delta(100), 7, 100)
    assert not theta_fixed_point_check(delta(100), 13, 100)
    one = QSeries([1], 10)
    assert not theta_fixed_point_check(one, 5, 10)
    # same predicate as literally iterating theta ell-1 times
    for ell in (5, 13):
        f = delta(60)
        iterated = theta_power(f, ell - 1)
        literal = all((a - b) % ell == 0
                      for a, b in zip(iterated.coeffs, f.coeffs))
        assert literal is theta_fixed_point_check(f, ell, 60)


def test_filtration_of_delta_powers():
    for d in (1, 2, 3):
        for ell in (5, 7, 13):
            assert filtration(delta_power(d, d + 8), 12 * d, ell) == 12 * d


def test_filtration_of_eisenstein_like_reduction():
    # E4 == 1 mod 5, so its filtration collapses to weight 0
    assert filtration(eisenstein(4, 10), 4, 5) == 0


def test_filtration_zero_form_sentinel():
    f = QSeries([5, 10, 15, 20, 25], 4)
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


@pytest.mark.parametrize("ell, inner, limits", [
    (4099, 30, None),                    # float64 BLAS
    (4099, 30, (0, 1 << 62)),            # int64, forced
    (4099, 30, (0, 0)),                  # Python ints, forced
    (2 ** 29 - 3, 8, None),              # int64: float64 would round
    (2 ** 31 - 1, 4, None),              # Python ints: int64 would overflow
])
def test_matmul_mod_every_branch_is_exact(monkeypatch, ell, inner, limits):
    if limits is not None:
        monkeypatch.setattr(modforms, "_FLOAT_MATMUL_LIMIT", limits[0])
        monkeypatch.setattr(modforms, "_INT_MATMUL_LIMIT", limits[1])
    rng = random.Random(ell + inner)
    a = _random_matrix(rng, 5, inner, ell)
    b = _random_matrix(rng, inner, 7, ell)
    a[0, :] = ell - 1  # the worst case sums to (ell-1)^2 * inner
    b[:, 0] = ell - 1
    got = _matmul_mod(a, b, ell)
    assert got.dtype == np.int64
    assert got.tolist() == _python_matmul_mod(a, b, ell)


@pytest.mark.parametrize("ell", [2, 3, 4099, 2 ** 31 - 1])
def test_det_mod_matches_bareiss(ell):
    rng = random.Random(ell)
    for size in range(1, 9):
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


@pytest.mark.parametrize("weight", [120, 180])
@pytest.mark.parametrize("ell", [2, 3, 5, 13, 4099, 4294967311])
def test_cusp_basis_mod_matches_exact_basis(weight, ell):
    d = dim_cusp_forms(weight)
    # the exact basis is quadratic in the horizon: for large ell only d^2+1
    horizons = {d * d + 1, ell * d + 1} if ell < 100 else {d * d + 1}
    for trunc in horizons:
        exact = victor_miller_basis(weight, CUSPIDAL, trunc).basis
        got = _vm_cusp_basis_mod(weight, trunc, ell)
        assert got.tolist() == [[c % ell for c in row] for row in exact]


@pytest.mark.parametrize("weight", [120, 180])
def test_hecke_matrix_mod_matches_exact(weight):
    d = dim_cusp_forms(weight)
    # above 2^32, dd^(weight-1) * coefficient no longer fits int64
    for ell in (5, 13, 4099, 4294967311):
        basis = _vm_cusp_basis_mod(weight, d * d + 1, ell)
        for m in range(1, d + 1):
            want = [[c % ell for c in row] for row in hecke_matrix(weight, m).entries]
            assert _hecke_matrix_mod(weight, m, ell, basis).tolist() == want


@pytest.mark.parametrize("fault, value", [("diagonal", 2), ("below", 1)])
def test_cusp_basis_mod_refuses_a_bad_lead_block(monkeypatch, fault, value):
    d = dim_cusp_forms(120)
    convolve = modforms.convolve_mod

    def corrupt_last_row(f, g, m, n_out):
        out = convolve(f, g, m, n_out)
        if np.flatnonzero(out)[:1].tolist() == [d]:  # the row led by q^d
            out[d if fault == "diagonal" else 1] = value
        return out

    monkeypatch.setattr(modforms, "convolve_mod", corrupt_last_row)
    with pytest.raises(ArithmeticError, match="pivot"):
        _vm_cusp_basis_mod(120, d * d + 1, 5)
