from fractions import Fraction

import pytest

from etacong import congruences, modforms, qseries
from etacong.numerics import (
    NotEllIntegralError,
    ell_integral,
    psi,
)
from etacong.qseries import eta_power_mod, eta_power_residues
from etacong.congruences import (
    BALANCED,
    SQUARE_CLASS,
    CongruenceClaim,
    balanced_prime_admissible,
    good_prime_bound,
    offset_admissible,
    progression_identity_check,
    scan_balanced,
    search_good_congruences,
    square_class_families,
    verify_claim,
)
from etacong.modforms import (
    GoodPrimeRejection,
    filtration,
    gram_determinant,
    is_good_prime,
)
from oracles import (
    gram_residue_by_stack,
    integral_prime_bound,
    legendre_symbol,
    square_class_nonvacuous,
)


def test_good_prime_bound():
    assert good_prime_bound(Fraction(57, 61)) == 1529
    assert good_prime_bound(2) is None
    assert good_prime_bound(-1) == 27
    assert good_prime_bound(28) == 42  # even but outside [-14, 26]: bounded


def test_search_requires_cap_when_unbounded():
    with pytest.raises(ValueError, match="ell_max"):
        search_good_congruences(2)


def test_search_degenerate_integral_alpha():
    result = search_good_congruences(24, ell_max=30)
    reasons = {(r.ell, r.k): r.reason for r in result.rejections}
    for ell in (5, 7, 11, 13, 17, 19, 23, 29):
        assert reasons[(ell, 1)] == "r undefined (24k = alpha)"
    assert not result.certificates


def test_search_57_61_certificates(search_57_61):
    found = {(c.ell, c.k, c.r, c.m) for c in search_57_61.certificates}
    assert (17, 3, 2, 4) in found
    assert {c.ell for c in search_57_61.certificates} == \
        {7, 11, 17, 79, 103, 431, 797}
    for cert in search_57_61.certificates:
        assert 1 <= cert.k < cert.ell
        assert cert.gram_det_residue != 0
    for rej in search_57_61.rejections:
        assert 1 <= rej.k < rej.ell


def test_search_57_61_claims_shape(search_57_61):
    headline = [c for c in search_57_61.claims if c.ell == 17 and c.v == 2]
    assert len(headline) == 1
    claim = headline[0]
    assert claim.offset == 286 and claim.raw_offset == -3
    assert dict(claim.provenance)["canonical"] is True
    weaker = [c for c in search_57_61.claims if c.ell == 17 and c.v == 1]
    assert weaker[0].offset == 14
    assert dict(weaker[0].provenance)["canonical"] is False


def test_search_soundness_at_200(search_57_61):
    for claim in search_57_61.claims:
        report = verify_claim(claim, 200)
        assert report.verified, claim.describe()


def test_search_monotonicity_headline(search_57_61):
    # the v-1 companion of every multi-exponent claim verifies as well
    tops = [c for c in search_57_61.claims
            if c.v > 1 and dict(c.provenance)["canonical"]]
    assert tops
    for claim in tops:
        lowered = CongruenceClaim(
            variant=BALANCED, alpha=claim.alpha, ell=claim.ell, v=claim.v - 1,
            offset=claim.offset % claim.ell ** (claim.v - 1))
        assert verify_claim(lowered, 200).verified


def test_search_respects_residue_filter(search_57_61):
    for claim in search_57_61.claims:
        assert balanced_prime_admissible(Fraction(57, 61), claim.ell)


def test_weight_cap_override():
    result = search_good_congruences(Fraction(57, 61), ell_max=110,
                                     max_weight=100)
    # (103, 26) sits at weight 312 > 100: an error entry, not a certificate
    reasons = {(r.ell, r.k): r.reason for r in result.rejections}
    assert "exceeds the cap" in reasons[(103, 26)]
    # every entry, the cap's included, is the good-prime test's own rejection
    assert all(isinstance(r, GoodPrimeRejection) and r.alpha == "57/61"
               for r in result.rejections)
    assert all(c.weight <= 100 for c in result.certificates)
    assert {c.ell for c in result.certificates} == {7, 11, 17, 79}


def test_offset_admissible():
    assert offset_admissible(-1, 5, 4)
    assert [offset_admissible(-1, 5, c) for c in range(4)] == [False] * 4
    assert offset_admissible(Fraction(57, 61), 17, 286 % 17)
    with pytest.raises(NotEllIntegralError):
        offset_admissible(Fraction(1, 5), 5, 0)


def test_integral_prime_bound_cases():
    assert (integral_prime_bound(-2).bound,
            integral_prime_bound(-2).applicable) == (6, True)
    assert (integral_prime_bound(5).bound,
            integral_prime_bound(5).applicable) == (9, True)
    assert integral_prime_bound(2).applicable is False
    assert integral_prime_bound(-3).applicable is False
    assert integral_prime_bound(3).applicable is False
    with pytest.raises(ValueError):
        integral_prime_bound(Fraction(1, 2))


def test_balanced_prime_admissible_details():
    res = balanced_prime_admissible(Fraction(57, 61), 367)
    assert not res
    assert res.r == 367 % 122 == 1
    assert res.psi_value == 57
    # the same witness written through the congruent representative 123
    assert psi(122, Fraction(57, 123)) == 57
    silent = balanced_prime_admissible(Fraction(57, 61), 17)
    assert silent and silent.silent
    with pytest.raises(ValueError):
        balanced_prime_admissible(Fraction(2), 11)


def test_balanced_prime_admissible_never_blocks_partition_function():
    # alpha = -1 is odd and small, so no prime bound is asserted for it; the
    # least-residue filter agrees by staying consistent at every prime
    for ell in (7, 11, 13, 101, 367):
        assert balanced_prime_admissible(-1, ell)


def test_square_class_families_euler():
    claims = square_class_families(26, 5)
    assert len(claims) == 1
    claim = claims[0]
    assert (claim.stride, claim.shift, claim.v) == (24, 1, 2)
    assert verify_claim(claim, 300).verified
    assert square_class_nonvacuous(claim, 200)


def test_square_class_families_jacobi():
    claims = square_class_families(8, 5)
    assert [(c.stride, c.shift, c.v) for c in claims] == [(8, 1, 1)]
    assert verify_claim(claims[0], 300).verified
    assert square_class_nonvacuous(claims[0], 200)


def test_square_class_families_empty():
    # alpha == 2 mod 5 hits neither valuation
    assert square_class_families(22, 5) == []
    with pytest.raises(ValueError, match="identity unavailable"):
        square_class_families(26, 3)
    with pytest.raises(NotEllIntegralError):
        square_class_families(Fraction(1, 5), 5)


def test_verify_claim_counterexample():
    claim = CongruenceClaim(variant=BALANCED, alpha="-1", ell=5, v=1, offset=1)
    report = verify_claim(claim, 10)
    assert report.outcome == "counterexample"
    assert report.counterexample == (0, 1, 1)  # p(1) = 1


def balanced_by_full_series(claim, n_max):
    """(outcome, counterexample, n_tested) of a balanced claim, read off
    the whole series at every argument."""
    vals = eta_power_residues(claim.alpha, claim.ell, claim.v,
                              claim.modulus * n_max + claim.offset)
    for n in range(n_max + 1):
        arg = claim.modulus * n + claim.offset
        if vals[arg]:
            return "counterexample", (n, arg, int(vals[arg])), n_max + 1
    return "verified", None, n_max + 1


@pytest.mark.parametrize("alpha, ell, v, offset, holds", [
    ("57/61", 17, 2, 286, True),     # the headline, k = 3
    ("57/61", 17, 1, 14, True),
    ("57/61", 17, 2, 285, False),
    ("57/61", 17, 2, 14, False),     # the class of 286, another offset
    ("-1", 5, 2, 24, True),          # Ramanujan
    ("-1", 7, 1, 5, True),
    ("-1", 5, 1, 3, False),
    ("-1", 2, 3, 5, False),
    ("57/61", 101, 2, 10200, False),
    ("-1", 5, 13, 1000, False),      # two limbs mod 5^13
    ("7", 5, 2, 3, False),           # gamma == 0: no inner level
])
def test_balanced_verify_matches_the_full_series(alpha, ell, v, offset, holds):
    claim = CongruenceClaim(variant=BALANCED, alpha=alpha, ell=ell, v=v,
                            offset=offset)
    for n_max in (0, 1, 5, 60):
        if claim.modulus * n_max > 10 ** 5:
            break
        report = verify_claim(claim, n_max)
        want = balanced_by_full_series(claim, n_max)
        assert (report.outcome, report.counterexample, report.n_tested,
                report.precision_used) == (*want, v), n_max
    assert report.verified == holds


def test_legendre_symbol():
    assert legendre_symbol(4, 5) == 1
    assert legendre_symbol(2, 5) == -1
    assert legendre_symbol(10, 5) == 0
    assert [legendre_symbol(a, 3) for a in range(-1, 3)] == [-1, 0, 1, -1]
    # every unit mod 2 is a square, so (1/2) has no -1 to give
    for ell in (2, 4, 1):
        with pytest.raises(ValueError, match="odd prime"):
            legendre_symbol(1, ell)


def square_class_by_loop(claim, n_max):
    """(outcome, counterexample, n_tested) of a square-class claim, one
    Legendre symbol per argument."""
    vals = eta_power_residues(claim.alpha, claim.ell, claim.v, n_max)
    tested = 0
    for n in range(n_max + 1):
        if legendre_symbol(claim.stride * n + claim.shift, claim.ell) == -1:
            tested += 1
            if vals[n] % claim.modulus:
                return "counterexample", (n, n, int(vals[n])), tested
    return "verified", None, tested


@pytest.mark.parametrize("alpha, ell, v, stride, holds", [
    ("26", 5, 2, 24, True),          # euler family, alpha - 1 = 5^2
    ("8", 5, 1, 8, True),            # jacobi family, alpha - 3 = 5
    ("10008", 10007, 1, 24, True),   # more residues than arguments
    ("-1", 5, 1, 24, False),
    ("26", 7, 2, 8, False),
    ("-1", 3, 1, 8, False),
    ("57/61", 3, 1, 24, True),       # 24n + 1 == 1 (mod 3): nothing tested
    ("-1", 10007, 1, 8, False),
    # 2^33 - 9: Euler's squarings take mul_mod's split path
    ("-1", 8589934583, 1, 24, False),
    ("57/61", 8589934583, 1, 8, False),
    ("8589934584", 8589934583, 1, 24, True),   # alpha - 1 = ell
    ("3", 8589934583, 1, 8, True),             # Jacobi's cube itself
])
def test_square_class_verify_matches_the_loop(alpha, ell, v, stride, holds):
    claim = CongruenceClaim(variant=SQUARE_CLASS, alpha=alpha, ell=ell, v=v,
                            stride=stride, shift=1)
    for n_max in (0, 1, 2 * ell, 700) if ell < 10 ** 5 else (0, 1, 300):
        report = verify_claim(claim, n_max)
        want = square_class_by_loop(claim, n_max)
        assert (report.outcome, report.counterexample,
                report.n_tested) == want, n_max
    assert report.verified == holds


@pytest.mark.parametrize("ell", [9, 35])
@pytest.mark.parametrize("entry", [
    lambda ell: ell_integral(-1, ell),
    lambda ell: eta_power_residues(-1, ell, 1, 40),
    lambda ell: eta_power_mod(-1, ell, 1, 40),
    lambda ell: eta_power_mod(-1, ell, 12, 40),  # past 2^33: the ledger
    lambda ell: CongruenceClaim(variant=BALANCED, alpha="-1", ell=ell, v=1,
                                offset=3),
    lambda ell: scan_balanced(-1, ell, 1, 30),
    lambda ell: square_class_families(10, ell),
    lambda ell: is_good_prime(1, ell, 1),
    lambda ell: filtration([0, 1, -24, 252], 12, ell),  # Delta
])
def test_composite_ell_is_refused_before_any_work(entry, ell, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started for a composite ell")
    for module, name in ((qseries, "eta_integer_power_mod"),
                         (qseries, "divisor_sum_table"),
                         (modforms, "convolve_mod"),
                         (modforms, "gram_determinant_residue")):
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(ValueError, match=f"^{ell} is not prime$"):
        entry(ell)


def test_square_class_claims_refuse_ell_2():
    for stride in (8, 24):
        with pytest.raises(ValueError, match="odd prime"):
            CongruenceClaim(variant=SQUARE_CLASS, alpha="3", ell=2, v=1,
                            stride=stride, shift=1)


def test_negative_counts_are_refused():
    # n_max = -1 would test nothing yet report "verified" or survivors
    balanced = CongruenceClaim(variant=BALANCED, alpha="-1", ell=5, v=1,
                               offset=4)
    square = CongruenceClaim(variant=SQUARE_CLASS, alpha="26", ell=5, v=2,
                             stride=24, shift=1)
    for claim in (balanced, square):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            verify_claim(claim, -5)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        scan_balanced(-1, 5, 1, -1)
    assert verify_claim(balanced, 0).n_tested == 1


def test_vacuous_weight_cap_is_refused(monkeypatch):
    # every cond3 weight is 12k >= 12, so a lower cap decides no candidate
    def tried(*args, **kwargs):
        raise AssertionError("a candidate was tried")

    with monkeypatch.context() as patch:
        patch.setattr(congruences, "is_good_prime", tried)
        for cap in (-5, 0, 11):
            with pytest.raises(ValueError, match="max_weight must be >= 12"):
                search_good_congruences(Fraction(57, 61), ell_max=20,
                                        max_weight=cap)
    capped = search_good_congruences(Fraction(57, 61), ell_max=20,
                                     max_weight=12)
    # the lowest cap that decides something: (7, 1) at weight 12
    assert [(c.ell, c.weight) for c in capped.certificates] == [(7, 12)]
    assert any("exceeds the cap 12" in r.reason for r in capped.rejections)


def test_vacuous_prime_bound_is_refused(monkeypatch):
    # no prime lies below 2, so such a search would try no candidate
    def tried(*args, **kwargs):
        raise AssertionError("a candidate was tried")

    monkeypatch.setattr(congruences, "is_good_prime", tried)
    for ell_max in (-3, 0, 1):
        with pytest.raises(ValueError, match="ell_max must be >= 2"):
            search_good_congruences(Fraction(57, 61), ell_max=ell_max)
    # 2 and 3 are skipped by default, and 4 is not prime
    for ell_max in (2, 3, 4):
        with pytest.raises(ValueError, match=f"no prime up to {ell_max} "):
            search_good_congruences(Fraction(57, 61), ell_max=ell_max)
    # 5 divides the denominator of 1/5
    with pytest.raises(ValueError, match="no prime up to 5 gives a candidate"):
        search_good_congruences(Fraction(1, 5), ell_max=5)


@pytest.mark.parametrize("alpha", [Fraction(57, 61), Fraction(3, 997),
                                   Fraction(-7, 1000), Fraction(-1)],
                         ids=str)
def test_cond3_decisions_match_the_stack_and_the_exact_determinant(alpha):
    # every cond3 outcome of the search, from its witness or its trace form,
    # against the Hecke-stack Gram and, up to weight 120, the exact one
    result = search_good_congruences(alpha, max_weight=600)
    decisions = [(c.ell, c.weight, c.gram_det_residue)
                 for c in result.certificates] + [
        (r.ell, 12 * r.k, 0) for r in result.rejections
        if r.reason.startswith("cond3")]
    assert result.certificates and decisions
    for ell, weight, residue in decisions:
        assert gram_residue_by_stack(weight, ell) == residue, (ell, weight)
        if weight <= 120:
            assert gram_determinant(weight) % ell == residue, (ell, weight)


def test_verify_claim_ramanujan():
    for ell, offset in ((5, 4), (7, 5), (11, 6)):
        claim = CongruenceClaim(variant=BALANCED, alpha="-1", ell=ell, v=1,
                                offset=offset)
        assert verify_claim(claim, 1000).verified


def test_scan_balanced_ramanujan():
    hits = scan_balanced(-1, 5, 1, 500)
    assert [c.offset for c in hits] == [4]
    assert hits[0].offset_admissible
    assert hits[0].label == "empirical (500-tested)"
    assert scan_balanced(-1, 13, 1, 500) == []


def test_scan_candidates_satisfy_offset_filter():
    for ell in (5, 7, 11, 13):
        for cand in scan_balanced(-1, ell, 1, 300):
            assert offset_admissible(-1, ell, cand.offset % ell)


def test_scan_balanced_headline():
    offsets = [c.offset for c in scan_balanced(Fraction(57, 61), 17, 2, 400)]
    assert 286 in offsets


def test_progression_identity():
    assert progression_identity_check(Fraction(57, 61), 17, 3, 2, 1, 150)
    assert progression_identity_check(Fraction(57, 61), 17, 3, 2, 2, 100)
    with pytest.raises(ValueError):
        progression_identity_check(Fraction(57, 61), 17, 3, 2, 3, 50)
    with pytest.raises(ValueError, match="ord_ell"):
        progression_identity_check(Fraction(57, 61), 17, 3, 1, 1, 50)


def test_claim_validation():
    with pytest.raises(ValueError):
        CongruenceClaim(variant=BALANCED, alpha="-1", ell=5, v=1, offset=7)
    with pytest.raises(ValueError):
        CongruenceClaim(variant=SQUARE_CLASS, alpha="8", ell=5, v=1,
                        stride=12, shift=1)
    with pytest.raises(ValueError):
        CongruenceClaim(variant="other", alpha="-1", ell=5, v=1, offset=0)
