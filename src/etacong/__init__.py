"""etacong: congruences of fractional partition functions.

p_alpha(n) is the coefficient of q^n in (q;q)_infinity^alpha.  This package
computes those coefficients exactly (over Q or modulo prime powers), searches
for and certifies prime-power congruences p_alpha(ell^v n + c) == 0
(mod ell^v) through the non-ordinarity of level-one cusp forms, applies the
known necessary-condition filters, and brute-force verifies any claim on an
initial segment.
"""

from .numerics import (
    INFINITE_VALUATION,
    FracExponent,
    NotEllIntegralError,
    PrecisionError,
    ell_valuation,
    factorial_valuation,
    legendre_symbol,
    mod_inverse,
    primes_up_to,
    psi,
)
from .qseries import (
    HorizonError,
    QSeries,
    coefficient_denominator,
    divisor_sum_table,
    eta_power_mod,
    eta_power_rational,
    eta_power_residues,
    frobenius_congruence_check,
    partition_numbers,
)
from .modforms import (
    CUSPIDAL,
    FULL,
    FormSpace,
    GoodPrimeCertificate,
    GoodPrimeRejection,
    HeckeMatrix,
    WeightCapExceeded,
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
from .congruences import (
    BALANCED,
    SQUARE_CLASS,
    CongruenceClaim,
    IntegralPrimeBound,
    ResidueFilterResult,
    ScanCandidate,
    SearchResult,
    VerificationReport,
    balanced_prime_admissible,
    good_prime_bound,
    integral_prime_bound,
    offset_admissible,
    progression_identity_check,
    scan_balanced,
    search_good_congruences,
    square_class_families,
    square_class_nonvacuous,
    verify_claim,
)

__version__ = "0.1.0"
