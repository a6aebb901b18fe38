"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (the statements under test are identities).
"""

import time
from fractions import Fraction

import etacong as ec
from etacong.cli import main as cli_main
from etacong.congruences import progression_identity_check
from etacong.qseries import _eta_power_mod_ledger
from oracles import (
    coefficient_denominator,
    cusp_divisibility_check,
    hecke_ell_vanishes,
    integral_prime_bound,
    square_class_nonvacuous,
    theta_fixed_point_check,
)

ALPHA = Fraction(57, 61)


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_headline_congruence():
    claim = ec.CongruenceClaim(
        variant="balanced", alpha="57/61", ell=17, v=2, offset=286,
        raw_offset=-3)
    started = time.perf_counter()
    rep = ec.verify_claim(claim, 299)  # arguments 286 .. 289*299+286 = 86697
    elapsed = time.perf_counter() - started
    assert rep.verified
    assert rep.n_tested == 300
    assert 289 * 299 + 286 == 86697
    assert elapsed < 120.0
    report(1, f"p_57/61(17^2 n - 3) == 0 (mod 17^2) up to argument 86697 "
              f"in {elapsed:.2f}s (< 120s)")


def test_criterion_02_search_recovery(search_57_61):
    certs = {(c.ell, c.k): c for c in search_57_61.certificates}
    headline = certs[(17, 3)]
    assert headline.r == 2 and headline.m == 4
    assert headline.gram_det_residue != 0
    assert headline.gram_det == ec.gram_determinant(36)
    assert ec.gram_determinant(36) % 17 != 0
    for cert in search_57_61.certificates:
        assert cert.k < cert.ell
    for claim in search_57_61.claims:
        k = dict(claim.provenance)["k"]
        assert k < claim.ell
    for rej in search_57_61.rejections:
        assert rej.k < rej.ell
    report(2, f"search(57/61) emits (ell=17, k=3, r=2, m=4); "
              f"{len(search_57_61.certificates)} certificates, all k < ell")


def test_criterion_03_ramanujan_congruences():
    expected = {5: 4, 7: 5, 11: 6}
    for ell, offset in expected.items():
        claim = ec.CongruenceClaim(variant="balanced", alpha="-1", ell=ell,
                                   v=1, offset=offset)
        assert ec.verify_claim(claim, 1000).verified
        hits = ec.scan_balanced(-1, ell, 1, 1000)
        assert [c.offset for c in hits] == [offset]
        assert hits[0].offset_admissible
    report(3, "p(5n+4), p(7n+5), p(11n+6) verified to n=1000; scans find "
              "exactly offsets {4}, {5}, {6}, all filter-consistent")


def test_criterion_04_frobenius_congruence_suite():
    grid = [(a, ell, r)
            for a in (Fraction(1, 2), Fraction(-3, 4), Fraction(3), ALPHA)
            for ell in (5, 7, 13, 17)
            for r in (1, 2)]
    for alpha, ell, r in grid:
        assert ec.frobenius_congruence_check(alpha, ell, r, 200), \
            (alpha, ell, r)
    report(4, f"exponent-scaling congruence holds on all {len(grid)} "
              f"(alpha, ell, r) combinations at T=200")


def test_criterion_05_denominator_formula():
    alphas = (Fraction(1, 2), Fraction(-3, 4), Fraction(3), Fraction(5, 6),
              ALPHA)
    for alpha in alphas:
        series = ec.eta_power_rational(alpha, 60)
        for n in range(61):
            assert Fraction(series[n]).denominator == \
                coefficient_denominator(alpha, n)
    report(5, "reduced denominators equal b^n prod p^ord_p(n!) for all "
              "sampled alpha, n <= 60")


def test_criterion_06_hecke_gram_suite():
    tau = ec.delta_power(1, 10)
    s12 = ec.victor_miller_basis(12, 10)
    for m in range(1, 11):
        assert ec.hecke_matrix(12, m, s12) == [[tau[m]]]
    assert ec.gram_determinant(12) == 1
    t2 = ec.hecke_matrix(24, 2, ec.victor_miller_basis(24, 4))
    trace = t2[0][0] + t2[1][1]
    det = t2[0][0] * t2[1][1] - t2[0][1] * t2[1][0]
    disc = trace * trace - 4 * det
    gram24 = ec.gram_determinant(24)
    assert gram24 == disc == 2 ** 6 * 3 ** 2 * 144169
    report(6, "T_m on S_12 matches tau(m) for m <= 10; gram(12) = 1; "
              "gram(24) equals the T_2 charpoly discriminant (both routes)")


def test_criterion_07_nonordinarity_cross_check():
    vanishing = {ell for ell in ec.primes_up_to(20)
                 if hecke_ell_vanishes(12, ell)}
    assert vanishing == {2, 3, 5, 7}
    assert cusp_divisibility_check(ec.delta_power(3, 600), 36, 17, 2, 600)
    report(7, "T_ell == 0 mod ell on S_12 exactly for ell in {2,3,5,7}; "
              "tau_3(17^s n) == 0 mod 17^s up to 600")


def test_criterion_08_progression_identity():
    for i in (1, 2):
        assert progression_identity_check(ALPHA, 17, 3, 2, i, 150)
    report(8, "the extraction identity holds mod 17^2 at i = 1, 2, T = 150")


def test_criterion_09_filtration_suite():
    for d in (1, 2, 3):
        for ell in (5, 7, 13):
            assert ec.filtration(ec.delta_power(d, d + 10), 12 * d, ell) == 12 * d
    for ell in (5, 7, 13):
        horizon = (12 + (ell - 1) * (ell + 1)) // 12 + 3
        f = ec.delta(horizon)
        weights = []
        nominal = 12
        for i in range(ell):
            weights.append(ec.filtration(f, nominal, ell))
            f = ec.theta(f)
            nominal += ell + 1
        for i in range(ell - 1):
            step = weights[i + 1] - weights[i]
            s = (ell + 1 - step) // (ell - 1)
            assert s >= 0 and step == (ell + 1) - s * (ell - 1)
            if weights[i] % ell:
                assert s == 0
            else:
                assert s >= 1
            assert weights[i + 1] >= 12
        if theta_fixed_point_check(ec.delta(100), ell, 100):
            assert weights[ell - 1] == weights[0]
    report(9, "filtration(Delta^d) = 12d for d <= 3, ell in {5,7,13}; theta "
              "steps follow the (ell+1) - s(ell-1) law with s >= 0 and stay "
              ">= 12; fixed-point primes return to the base weight")


def test_criterion_10_square_class_families():
    euler = ec.square_class_families(26, 5)
    assert [(c.stride, c.shift, c.v) for c in euler] == [(24, 1, 2)]
    assert ec.verify_claim(euler[0], 300).verified
    assert square_class_nonvacuous(euler[0], 200)
    jacobi = ec.square_class_families(8, 5)
    assert [(c.stride, c.shift, c.v) for c in jacobi] == [(8, 1, 1)]
    assert ec.verify_claim(jacobi[0], 300).verified
    assert square_class_nonvacuous(jacobi[0], 200)
    report(10, "p_26 mod 25 (24n+1 non-residue) and p_8 mod 5 (8n+1 "
               "non-residue) verified to n=300, both non-vacuous")


def test_criterion_11_filter_suite():
    res = ec.balanced_prime_admissible(ALPHA, 367)
    assert not res
    assert res.r == 367 % 122 == 123 % 122  # == 1; 367 = 3*122 + 1
    assert res.psi_value == 57
    assert ec.psi(122, Fraction(57, 123)) == 57
    samples = [-20, -14, -8, -2, -13, -7, -3, -1, 1, 3, 5, 7, 9, 15, 2, 6,
               8, 10, 14, 26]
    for a in samples:
        bound = integral_prime_bound(a)
        assert bound.bound == abs(a) + 4
        assert bound.applicable == ((a < 0 and a % 2 == 0) or
                                    (a > 3 and a % 2 == 1))
    report(11, "prime filter rules out ell=367 for 57/61 with witness "
               "psi_122(57/r) = 57 < 61; parity flags match on 20 integers")


def test_criterion_12_oracle_and_determinism(capsys):
    for alpha in (Fraction(1, 2), Fraction(-3, 4), ALPHA):
        for ell in (5, 7, 17):
            for r in (1, 2):
                exact = ec.eta_power_rational(alpha, 150)
                reduced = [ec.psi(ell ** r, Fraction(c)) for c in exact]
                got = ec.eta_power_residues(alpha, ell, r, 150).tolist()
                assert got == reduced
                assert _eta_power_mod_ledger(alpha, ell, r, 150) == reduced
    code1 = cli_main(["selftest"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["selftest"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    with capsys.disabled():
        report(12, "residue engines match the rational oracle on the full "
                   "grid; selftest exits 0 with byte-identical output")
