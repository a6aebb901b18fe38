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
    NotEllIntegralError,
    PrecisionError,
    ell_valuation,
    factorial_valuation,
    mod_inverse,
    primes_up_to,
    psi,
)
from .qseries import (
    HorizonError,
    divisor_sum_table,
    eta_power_mod,
    eta_power_rational,
    eta_power_residues,
    frobenius_congruence_check,
    partition_numbers,
)
from .modforms import (
    GoodPrimeCertificate,
    GoodPrimeRejection,
    WeightCapExceeded,
    delta,
    delta_power,
    dim_cusp_forms,
    eisenstein,
    filtration,
    gram_determinant,
    gram_determinant_residue,
    hecke_action,
    hecke_matrix,
    is_good_prime,
    theta,
    victor_miller_basis,
)
from .congruences import (
    BALANCED,
    SQUARE_CLASS,
    CongruenceClaim,
    ResidueFilterResult,
    ScanCandidate,
    SearchResult,
    VerificationReport,
    balanced_prime_admissible,
    good_prime_bound,
    offset_admissible,
    scan_balanced,
    search_good_congruences,
    square_class_families,
    verify_claim,
)

__version__ = "0.1.0"
