"""Congruence claims for fractional partition functions: discovery,
certification, necessary-condition filters and brute-force verification.

A balanced claim asserts p_alpha(ell^v n + c) == 0 (mod ell^v) for every n
keeping the argument nonnegative.  A square-class claim asserts
p_alpha(n) == 0 (mod ell^v) whenever s*n + t is a quadratic non-residue mod
ell, for (s, t) = (24, 1) or (8, 1).

The search walks the primes up to the good-prime bound, derives the unique
parameter k allowed by cond1, certifies good primes through the modular
forms layer, and emits one balanced claim per exponent 1 <= v <= r.  Every
claim can be handed to ``verify_claim`` for an exhaustive check on an
initial segment; brute force is evidence, never certification, and scan
results are labelled accordingly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modforms import (
    DEFAULT_MAX_WEIGHT,
    GoodPrimeCertificate,
    GoodPrimeRejection,
    WeightCapExceeded,
    is_good_prime,
)
from .numerics import (
    MemoryLimitError,
    Rational,
    as_fraction,
    ell_integral,
    ell_valuation,
    is_prime,
    mod_inverse,
    primes_up_to,
    psi,
)
from .qseries import eta_power_residues, physical_memory_bytes
from ._convolve import (
    binary_power,
    convolve_mod,
    eta_integer_power_mod,
    mul_mod,
)

BALANCED = "balanced"
SQUARE_CLASS = "squareClass"


@dataclass(frozen=True)
class CongruenceClaim:
    """One asserted congruence family for p_alpha.

    balanced: p_alpha(ell^v n + offset) == 0 (mod ell^v); the offset is the
    canonical residue in [0, ell^v), with the raw form -k kept in
    ``raw_offset`` when the claim came out of the search.
    squareClass: p_alpha(n) == 0 (mod ell^v) whenever stride*n + shift is a
    quadratic non-residue mod ell.
    """

    variant: str
    alpha: str
    ell: int
    v: int
    offset: int | None = None
    raw_offset: int | None = None
    stride: int | None = None
    shift: int | None = None
    provenance: tuple = ()

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError(f"{self.ell} is not prime")
        if self.v < 1:
            raise ValueError("v must be >= 1")
        if self.variant == BALANCED:
            if self.offset is None or not 0 <= self.offset < self.ell ** self.v:
                raise ValueError("balanced claim needs a canonical offset")
        elif self.variant == SQUARE_CLASS:
            if (self.stride, self.shift) not in ((24, 1), (8, 1)):
                raise ValueError("square-class claim needs (stride, shift) in "
                                 "{(24,1), (8,1)}")
            if self.ell == 2:
                raise ValueError("square-class claim needs an odd prime: "
                                 "mod 2 there is no non-residue")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def modulus(self) -> int:
        return self.ell ** self.v

    def describe(self) -> str:
        if self.variant == BALANCED:
            return (f"p_{self.alpha}({self.modulus}n + {self.offset}) == 0 "
                    f"(mod {self.modulus})")
        return (f"p_{self.alpha}(n) == 0 (mod {self.modulus}) whenever "
                f"{self.stride}n + {self.shift} is a non-residue mod {self.ell}")


@dataclass(frozen=True)
class VerificationReport:
    claim: CongruenceClaim
    n_max: int
    outcome: str  # "verified" | "counterexample"
    counterexample: tuple | None  # (n, argument, residue)
    n_tested: int
    precision_used: int
    wall_clock_s: float
    n_min = 0  # a class constant, not a field: verification starts at n = 0

    @property
    def verified(self) -> bool:
        return self.outcome == "verified"


@dataclass(frozen=True)
class SearchResult:
    alpha: str
    bound: int | None
    ell_max: int | None
    certificates: tuple
    claims: tuple
    rejections: tuple


@dataclass(frozen=True)
class ScanCandidate:
    offset: int
    offset_admissible: bool
    prime_admissible: bool
    label: str


@dataclass(frozen=True)
class ResidueFilterResult:
    """Outcome of the least-residue necessary condition on a single prime.

    ``silent`` means the prime is below the threshold |a| + 5b where the
    condition says nothing.  For ell above it, a balanced congruence forces
    psi_2b(a / r) >= b where r = psi_2b(ell); the witnesses are recorded.
    """

    consistent: bool
    silent: bool
    r: int | None = None
    psi_value: int | None = None

    def __bool__(self):
        return self.consistent


def good_prime_bound(alpha: Rational):
    """max(|26b - a|, |14b + a|), or None when alpha is an even integer in
    [-14, 26] (no finite bound; callers must cap explicitly)."""
    f = as_fraction(alpha)
    if f.denominator == 1 and f % 2 == 0 and -14 <= f <= 26:
        return None
    a, b = f.numerator, f.denominator
    return max(abs(26 * b - a), abs(14 * b + a))


def offset_admissible(alpha: Rational, ell: int, c: int) -> bool:
    """Necessary condition for p_alpha(ell n + c) == 0 (mod ell) to hold for
    all n: 24c + alpha == 0 in Z/ell (as ell-integral rationals)."""
    f = ell_integral(alpha, ell)
    return (24 * c * f.denominator + f.numerator) % ell == 0


def balanced_prime_admissible(alpha: Rational, ell: int) -> ResidueFilterResult:
    """Least-residue filter: can p_alpha admit an ell-balanced congruence?

    Silent (returns consistent) below ell < |a| + 5b.  Above, computes
    r = psi_2b(ell) and tests psi_2b(a / r) >= b; failing the test rules the
    prime out."""
    f = as_fraction(alpha)
    if f in (0, 2, 4):
        raise ValueError("filter undefined for alpha in {0, 2, 4}")
    a, b = f.numerator, f.denominator
    if (2 * b) % ell == 0:
        raise ValueError("ell must be coprime to 2b")
    if ell < abs(a) + 5 * b:
        return ResidueFilterResult(True, True)
    r = psi(2 * b, ell)
    value = psi(2 * b, Fraction(a, r))
    return ResidueFilterResult(value >= b, False, r, value)


def _balanced_claims_for(cert: GoodPrimeCertificate) -> list[CongruenceClaim]:
    claims = []
    for v in range(1, cert.r + 1):
        modulus = cert.ell ** v
        claims.append(CongruenceClaim(
            variant=BALANCED,
            alpha=cert.alpha,
            ell=cert.ell,
            v=v,
            offset=(-cert.k) % modulus,
            raw_offset=-cert.k,
            provenance=(("kind", "certificate"), ("k", cert.k), ("r", cert.r),
                        ("m", cert.m), ("canonical", v == cert.r)),
        ))
    return claims


def search_good_congruences(alpha: Rational, ell_max: int | None = None,
                            max_weight: int = DEFAULT_MAX_WEIGHT,
                            allow_small_primes: bool = False) -> SearchResult:
    """Enumerate good primes for alpha and emit their balanced congruences.

    For ell >= 5, cond1 pins the parameter: 24k == alpha (mod ell) has one
    solution k in [1, ell-1], so each prime contributes a single candidate
    (the other k fail cond1 outright).  Good primes yield claims
    p_alpha(ell^v n - k) == 0 (mod ell^v) for every 1 <= v <= r, the
    strongest (v = r) flagged canonical.  Candidates that fail are recorded
    with the failing condition; a candidate beyond the weight cap becomes an
    error entry rather than a global failure.  A search that would try no
    candidate raises ValueError, and one whose prime sieve would not fit in
    physical memory raises MemoryLimitError, both before any work.
    """
    if max_weight < 12:
        # every cond3 weight is 12k >= 12: a lower cap decides no candidate
        raise ValueError("max_weight must be >= 12")
    if ell_max is not None and ell_max < 2:
        # no prime lies below 2: the search would try no candidate
        raise ValueError("ell_max must be >= 2")
    f = as_fraction(alpha)
    alpha_str = str(f)
    bound = good_prime_bound(f)
    if bound is None and ell_max is None:
        raise ValueError(
            "no finite good-prime bound for this alpha; pass ell_max")
    effective = bound if ell_max is None else (
        ell_max if bound is None else min(bound, ell_max))
    # the sieve takes one byte per integer, half that again for its first
    # strike, and 40 bytes (pointer and int) for each of the primes, fewer
    # than 1.26 x / ln x
    need = 3 * effective // 2 + int(51 * effective / math.log(effective))
    have = physical_memory_bytes()
    if have is not None and need > have:
        raise MemoryLimitError(
            f"sieving the primes up to {effective} needs about "
            f"{need / 2**30:.2f} GiB, more than the {have / 2**30:.2f} GiB "
            f"of physical memory")
    certificates = []
    claims = []
    rejections = []
    for ell in primes_up_to(effective):
        if f.denominator % ell == 0:
            continue
        if ell in (2, 3):
            candidates = range(1, ell) if allow_small_primes else ()
        else:
            # unique k with 24k == alpha (mod ell); none when alpha == 0 there
            k0 = f.numerator * mod_inverse(24 * f.denominator, ell) % ell
            candidates = (k0,) if 1 <= k0 < ell else ()
        for k in candidates:
            try:
                outcome = is_good_prime(f, ell, k, max_weight=max_weight,
                                        allow_small_primes=allow_small_primes,
                                        _sieved=True)
            except WeightCapExceeded as exc:
                outcome = GoodPrimeRejection(alpha_str, ell, k, str(exc))
            if isinstance(outcome, GoodPrimeRejection):
                rejections.append(outcome)
                continue
            certificates.append(outcome)
            claims.extend(_balanced_claims_for(outcome))
    if not certificates and not rejections:
        raise ValueError(
            f"no prime up to {effective} gives a candidate (2 and 3 only on "
            f"request, none dividing the denominator of alpha)")
    certificates.sort(key=lambda c: (c.ell, c.k))
    claims.sort(key=lambda c: (c.ell, c.v, c.offset))
    rejections.sort(key=lambda r: (r.ell, r.k))
    return SearchResult(alpha_str, bound, ell_max, tuple(certificates),
                        tuple(claims), tuple(rejections))


def progression_identity_check(alpha: Rational, ell: int, k: int, r: int,
                               i: int, trunc: int) -> bool:
    """Check the product identity behind the balanced congruences:

        sum_n p_alpha(ell^i n - k) q^n
            == (q;q)^{ell^(r-i) u} * sum_n tau_k(ell^i n) q^n   (mod ell^r)

    where u = (alpha - 24k) / ell^r, coefficientwise up to trunc.
    """
    if not 1 <= i <= r:
        raise ValueError("need 1 <= i <= r")
    f = as_fraction(alpha)
    gap = f - 24 * k
    if gap == 0 or ell_valuation(gap, ell) != r:
        raise ValueError("r must equal ord_ell(24k - alpha)")
    u = gap / ell ** r
    modulus = ell ** r
    step = ell ** i
    # left side: p_alpha at arguments step*n - k
    vals = eta_power_residues(f, ell, r, step * trunc)
    lhs = [int(vals[step * n - k]) if step * n - k >= 0 else 0
           for n in range(trunc + 1)]
    # right side: eta power of ell^(r-i) u times the extracted tau_k progression
    left_factor = eta_power_residues(ell ** (r - i) * u, ell, r, trunc)
    # tau_k(x) = [q^(x - k)] (q;q)^{24k}
    eta24k = eta_integer_power_mod(24 * k, modulus, max(1, step * trunc - k + 1))
    tau_prog = [int(eta24k[step * n - k]) if step * n - k >= 0 else 0
                for n in range(trunc + 1)]
    rhs = convolve_mod(left_factor, tau_prog, modulus, trunc + 1)
    return all(l % modulus == rv for l, rv in zip(lhs, rhs))


def square_class_families(alpha: Rational, ell: int,
                          cross_check_n: int = 200) -> list[CongruenceClaim]:
    """Square-class congruences from the two weight-1/2 eta identities.

    The (24, 1) family holds with v = ord_ell(alpha - 1) when that valuation
    is positive; the (8, 1) family with v = ord_ell(alpha - 3).  The (8, 1)
    progression shift is cross-verified empirically up to cross_check_n
    before being reported.
    """
    f = as_fraction(alpha)
    if ell in (2, 3):
        raise ValueError("identity unavailable for ell in {2, 3}")
    ell_integral(f, ell)
    alpha_str = str(f)
    claims = []
    for shift_target, stride, name in ((1, 24, "euler"), (3, 8, "jacobi")):
        gap = f - shift_target
        if gap == 0:
            continue  # infinite valuation: alpha equals the identity weight
        v = ell_valuation(gap, ell)
        if v < 1:
            continue
        claim = CongruenceClaim(
            variant=SQUARE_CLASS, alpha=alpha_str, ell=ell, v=int(v),
            stride=stride, shift=1,
            provenance=(("kind", "identity"), ("name", name),
                        ("cross_checked_to", cross_check_n if name == "jacobi"
                         else None)),
        )
        if name == "jacobi":
            report = verify_claim(claim, cross_check_n)
            if not report.verified:
                raise ArithmeticError(
                    "jacobi-family cross-check failed; the reconstructed "
                    f"shift is wrong: {report.counterexample}")
        claims.append(claim)
    return claims


def verify_claim(claim: CongruenceClaim, n_max: int) -> VerificationReport:
    """Exhaustively test a claim for n in [0, n_max].

    Evaluates p_alpha mod ell^v at one array of arguments: the progression
    ell^v n + offset (balanced), or the n whose stride*n + shift is a
    non-residue mod ell (square-class), reporting the first counterexample
    if any.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    f = as_fraction(claim.alpha)
    ell, modulus = claim.ell, claim.modulus
    balanced = claim.variant == BALANCED
    started = time.perf_counter()
    # the descent comes first: it refuses ell^v >= 2^33, so mul_mod below
    # always gets a modulus in range; canonical offsets keep every
    # balanced argument nonnegative
    if balanced:
        # every argument ell^v n + offset lies in the class r = offset mod
        # ell, so the descent forms that class alone: vals[j] is the
        # coefficient at ell j + r
        r = claim.offset % ell
        vals = eta_power_residues(f, ell, claim.v,
                                  modulus * n_max + claim.offset, residue=r)
        ns = np.arange(n_max + 1, dtype=np.int64)
        args = ns * modulus + claim.offset
        residues = vals[(args - r) // ell]
    else:
        vals = eta_power_residues(f, ell, claim.v, n_max)
        # stride*n + shift mod ell repeats with period ell in n: Euler's
        # criterion s^((ell-1)/2) == -1 on one period, tiled over n <= n_max
        s = (claim.stride * np.arange(min(n_max + 1, ell), dtype=np.int64)
             + claim.shift) % ell
        euler = binary_power(s, (ell - 1) // 2, np.ones_like(s),
                             lambda a, b: mul_mod(a, b, ell))
        ns = args = np.flatnonzero(
            np.tile(euler == ell - 1, -(-(n_max + 1) // s.size))[:n_max + 1])
        residues = vals[args]
    hits = np.flatnonzero(residues)
    counterexample, tested = None, int(args.size)
    if hits.size:
        i = int(hits[0])
        counterexample = (int(ns[i]), int(args[i]), int(residues[i]))
        if not balanced:
            # a square-class report counts the arguments up to it
            tested = i + 1
    return VerificationReport(
        claim, n_max, "counterexample" if hits.size else "verified",
        counterexample, tested, claim.v, time.perf_counter() - started)


def scan_balanced(alpha: Rational, ell: int, v: int, n_max: int
                  ) -> list[ScanCandidate]:
    """Empirical sweep: all residues c in [0, ell^v) with
    p_alpha(ell^v n + c) == 0 (mod ell^v) for every tested n <= n_max.

    Results are evidence, not certificates; each survivor is annotated with
    the two necessary-condition filters.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    f = as_fraction(alpha)
    modulus = ell ** v
    top = modulus * (n_max + 1) - 1
    vals = np.asarray(eta_power_residues(f, ell, v, top))
    table = vals.reshape(n_max + 1, modulus)
    surviving_offsets = np.nonzero(~table.any(axis=0))[0]
    try:
        filt = bool(balanced_prime_admissible(f, ell))
    except ValueError:
        filt = True  # filter preconditions unmet; says nothing
    survivors = []
    for c in map(int, surviving_offsets):
        kim = offset_admissible(f, ell, c % ell)
        survivors.append(ScanCandidate(
            c, kim, filt, f"empirical ({n_max}-tested)"))
    return survivors
