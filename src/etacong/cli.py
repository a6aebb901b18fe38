"""Command-line interface.

Subcommands: coeffs, search, verify, scan, filtration, hecke, selftest.
Output formats: plain (human), json (canonical key order), csv.  Exit codes:
0 success, 2 invalid input, 3 precision or memory error (ell-adic precision
underflow, a float64 FFT convolution out of its exact range, or a descent
too large for physical memory), 4 counterexample found.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .numerics import (
    FracExponent,
    MemoryLimitError,
    NotEllIntegralError,
    PrecisionError,
    as_fraction,
    is_prime,
)
from .qseries import (
    HorizonError,
    eta_power_mod,
    eta_power_rational,
    frobenius_congruence_check,
    partition_numbers,
    reduce_series,
)
from .modforms import (
    delta,
    delta_power,
    dim_cusp_forms,
    filtration,
    gram_determinant,
    gram_determinant_residue,
    hecke_matrix,
    theta,
)
from .congruences import (
    BALANCED,
    SQUARE_CLASS,
    CongruenceClaim,
    scan_balanced,
    search_good_congruences,
    square_class_families,
    verify_claim,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_COUNTEREXAMPLE = 4

HARD_TRUNC_CAP = 10000


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Invalid input, exit 2; argparse prints it as an argument's error."""


def parse_prime(text: str) -> int:
    """The value of --ell: a prime."""
    try:
        ell = int(text)
    except ValueError:
        ell = 0
    if not is_prime(ell):
        raise UsageError(f"expected a prime, got {text!r}")
    return ell


def parse_modulus(text: str) -> tuple:
    """"ell^v" or "ell**v" or plain "ell" -> (ell, v)."""
    ell_s, v_s = text, "1"
    for sep in ("^", "**"):
        if sep in text:
            ell_s, v_s = text.split(sep, 1)
            break
    try:
        ell, v = int(ell_s), int(v_s)
    except ValueError:
        ell = v = 0
    if not is_prime(ell) or v < 1:
        raise UsageError(f"modulus must be a prime power, got {text!r}")
    return ell, v


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="etacong",
        description="congruences of fractional partition functions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", dest="fmt", default="plain",
                        choices=("plain", "json", "csv"))
        sp.add_argument("--output", default=None, help="write here, not stdout")

    sp = sub.add_parser("coeffs", help="dump p_alpha(0..T)")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--trunc", type=int, required=True)
    sp.add_argument("--mod", type=parse_modulus, default=None,
                    help="prime power ell^v for residues")
    common(sp)

    sp = sub.add_parser("search", help="good primes and their congruences")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--lmax", dest="ell_max", type=int, default=None)
    sp.add_argument("--max-weight", dest="max_weight", type=int, default=None)
    sp.add_argument("--allow-ell-2-3", dest="allow_small_primes",
                    action="store_true")
    common(sp)

    sp = sub.add_parser("verify", help="brute-force a congruence claim")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--ell", type=parse_prime, required=True)
    sp.add_argument("--v", type=int, default=1)
    sp.add_argument("--offset", type=int, default=None,
                    help="balanced-claim residue c")
    sp.add_argument("--form", default=BALANCED,
                    choices=(BALANCED, SQUARE_CLASS))
    sp.add_argument("--stride", type=int, default=24)
    sp.add_argument("--N", dest="n_max", type=int, required=True)
    common(sp)

    sp = sub.add_parser("scan", help="empirical balanced-congruence sweep")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--ell", type=parse_prime, required=True)
    sp.add_argument("--v", type=int, default=1)
    sp.add_argument("--N", dest="n_max", type=int, required=True)
    common(sp)

    sp = sub.add_parser("filtration", help="weight filtrations of theta "
                                           "iterates of Delta^d")
    sp.add_argument("--ell", type=parse_prime, required=True)
    sp.add_argument("--delta", dest="delta_exp", type=int, default=1)
    sp.add_argument("--iters", type=int, default=None)
    common(sp)

    sp = sub.add_parser("hecke", help="Hecke matrices and Gram determinant")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--m-max", dest="m_max", type=int, default=None)
    sp.add_argument("--ell", type=parse_prime, default=None,
                    help="also report the Gram residue mod ell")
    common(sp)

    sp = sub.add_parser("selftest", help="run the built-in invariant suite")
    sp.add_argument("--seed", type=int, default=987654321)
    common(sp)
    return p


def claim_to_dict(claim: CongruenceClaim) -> dict:
    out = {
        "alpha": claim.alpha,
        "ell": claim.ell,
        "v": claim.v,
        "offset": claim.offset if claim.variant == BALANCED else claim.shift,
        "form": claim.variant,
        "provenance": dict(claim.provenance),
    }
    if claim.variant == SQUARE_CLASS:
        out["stride"] = claim.stride
    if claim.raw_offset is not None:
        out["rawOffset"] = claim.raw_offset
    return out


def claim_from_dict(data: dict) -> CongruenceClaim:
    form = data["form"]
    if form == BALANCED:
        return CongruenceClaim(
            variant=BALANCED, alpha=data["alpha"], ell=data["ell"],
            v=data["v"], offset=data["offset"],
            raw_offset=data.get("rawOffset"),
            provenance=tuple(sorted(data.get("provenance", {}).items())))
    return CongruenceClaim(
        variant=SQUARE_CLASS, alpha=data["alpha"], ell=data["ell"],
        v=data["v"], stride=data["stride"], shift=data["offset"],
        provenance=tuple(sorted(data.get("provenance", {}).items())))


def certificate_to_dict(cert) -> dict:
    out = {"k": cert.k, "r": cert.r, "m": cert.m,
           "gramDetResidue": cert.gram_det_residue}
    if cert.gram_det is not None:
        out["gramDet"] = cert.gram_det
    return out


def report_to_dict(report, include_timing: bool = False) -> dict:
    out = {
        "claim": claim_to_dict(report.claim),
        "range": [report.n_min, report.n_max],
        "outcome": report.outcome,
        "nTested": report.n_tested,
        "precision": report.precision_used,
    }
    if report.counterexample is not None:
        n, arg, residue = report.counterexample
        out["counterexample"] = {"n": n, "argument": arg, "residue": residue}
    if include_timing:
        out["wallClockS"] = report.wall_clock_s
    return out


def _emit(args, payload, plain_lines, csv_rows=None) -> None:
    if args.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = "\n".join(plain_lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def cmd_coeffs(args) -> int:
    if args.trunc < 0 or args.trunc > HARD_TRUNC_CAP:
        raise UsageError(f"--trunc must lie in [0, {HARD_TRUNC_CAP}]")
    alpha = as_fraction(args.alpha)
    if args.mod is None:
        series = eta_power_rational(alpha, args.trunc)
        rows = [(n, _frac_str(series[n])) for n in range(args.trunc + 1)]
        payload = {"alpha": args.alpha, "coeffs": [r[1] for r in rows]}
        _emit(args, payload, [f"{n} {s}" for n, s in rows],
              [("n", "coeff")] + list(rows))
        return EXIT_OK
    ell, v = args.mod
    values, digits = eta_power_mod(alpha, ell, v, args.trunc)
    rows = list(zip(range(args.trunc + 1), values, digits))
    payload = {"alpha": args.alpha, "modulus": f"{ell}^{v}",
               "coeffs": [{"n": n, "value": val, "precision": p}
                          for n, val, p in rows]}
    _emit(args, payload, [f"{n} {val} (precision {p})" for n, val, p in rows],
          [("n", "value", "precision")] + list(rows))
    return EXIT_OK


def cmd_search(args) -> int:
    result = search_good_congruences(
        as_fraction(args.alpha), ell_max=args.ell_max,
        max_weight=args.max_weight, allow_small_primes=args.allow_small_primes)
    by_key = {(c.ell, c.k): c for c in result.certificates}
    entries = []
    for claim in result.claims:
        prov = dict(claim.provenance)
        cert = by_key[(claim.ell, prov["k"])]
        entries.append({"claim": claim_to_dict(claim),
                        "certificate": certificate_to_dict(cert)})
    payload = {
        "alpha": result.alpha,
        "bound": result.bound,
        "results": entries,
        "rejections": [{"ell": r.ell, "k": r.k, "reason": r.reason}
                       for r in result.rejections],
    }
    lines = [f"alpha = {result.alpha}, good-prime bound = {result.bound}"]
    for e in entries:
        c, cert = e["claim"], e["certificate"]
        lines.append(
            f"  p_{c['alpha']}({c['ell']}^{c['v']} n + {c['offset']}) == 0 "
            f"(mod {c['ell']}^{c['v']})  [k={cert['k']} r={cert['r']} "
            f"m={cert['m']} gram residue={cert['gramDetResidue']}]")
    lines.append(f"  ({len(result.rejections)} candidates rejected)")
    csv_rows = [("alpha", "ell", "v", "offset", "k", "r", "m",
                 "gramDetResidue")]
    for e in entries:
        c, cert = e["claim"], e["certificate"]
        csv_rows.append((c["alpha"], c["ell"], c["v"], c["offset"], cert["k"],
                         cert["r"], cert["m"], cert["gramDetResidue"]))
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.form == BALANCED:
        if args.offset is None:
            raise UsageError("balanced verification needs --offset")
        claim = CongruenceClaim(
            variant=BALANCED, alpha=str(FracExponent.parse(args.alpha)),
            ell=args.ell, v=args.v, offset=args.offset % args.ell ** args.v,
            provenance=(("kind", "cli"),))
    else:
        claim = CongruenceClaim(
            variant=SQUARE_CLASS, alpha=str(FracExponent.parse(args.alpha)),
            ell=args.ell, v=args.v, stride=args.stride, shift=1,
            provenance=(("kind", "cli"),))
    report = verify_claim(claim, args.n_max)
    payload = report_to_dict(report)
    lines = [f"{claim.describe()}: {report.outcome} "
             f"for n in [{report.n_min}, {report.n_max}]"]
    if report.counterexample:
        n, arg, residue = report.counterexample
        lines.append(f"  counterexample at n = {n}: argument {arg}, "
                     f"residue {residue}")
    csv_rows = [("alpha", "ell", "v", "offset", "form", "outcome", "n", "residue")]
    ce = report.counterexample or (None, None, None)
    csv_rows.append((claim.alpha, claim.ell, claim.v,
                     claim.offset if claim.variant == BALANCED else claim.shift,
                     claim.variant, report.outcome, ce[0], ce[2]))
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK if report.verified else EXIT_COUNTEREXAMPLE


def cmd_scan(args) -> int:
    candidates = scan_balanced(as_fraction(args.alpha), args.ell, args.v,
                               args.n_max)
    payload = {
        "alpha": args.alpha, "ell": args.ell, "v": args.v, "N": args.n_max,
        "candidates": [
            {"offset": c.offset, "offsetAdmissible": c.offset_admissible,
             "primeAdmissible": c.prime_admissible, "label": c.label}
            for c in candidates
        ],
    }
    lines = [f"alpha = {args.alpha}, ell^v = {args.ell}^{args.v}, N = {args.n_max}"]
    for c in candidates:
        lines.append(f"  offset {c.offset}: {c.label}, "
                     f"offset filter {'ok' if c.offset_admissible else 'FAIL'}, "
                     f"prime filter {'ok' if c.prime_admissible else 'FAIL'}")
    if not candidates:
        lines.append("  (no balanced congruence found)")
    csv_rows = [("offset", "offsetAdmissible", "primeAdmissible", "label")]
    csv_rows += [(c.offset, c.offset_admissible, c.prime_admissible, c.label)
                 for c in candidates]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_filtration(args) -> int:
    ell = args.ell
    if ell < 5:
        raise UsageError("filtration requires ell >= 5")
    iters = args.iters if args.iters is not None else ell - 1
    base_weight = 12 * args.delta_exp
    nominal = base_weight + iters * (ell + 1)
    horizon = nominal // 12 + 2
    f = delta_power(args.delta_exp, horizon)
    rows = []
    for i in range(iters + 1):
        weight_i = base_weight + i * (ell + 1)
        rows.append((i, weight_i, filtration(f, weight_i, ell)))
        f = theta(f)
    payload = {"ell": ell, "delta": args.delta_exp,
               "table": [{"i": i, "nominalWeight": w, "filtration": om}
                         for i, w, om in rows]}
    lines = [f"theta iterates of Delta^{args.delta_exp} mod {ell}"]
    lines += [f"  i={i}: nominal weight {w}, filtration {om}"
              for i, w, om in rows]
    csv_rows = [("i", "nominalWeight", "filtration")] + rows
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


# hecke computes the exact Gram determinant up to this weight and above it
# only the residue mod --ell: on a 2-core box the exact one took 4 s at
# weight 240, 15 s at 300, 45 s at 360 and 108 s at 420
EXACT_DET_WEIGHT = 300


def cmd_hecke(args) -> int:
    weight = args.weight
    if weight < 0 or weight % 2:
        raise UsageError("weight must be even and nonnegative")
    d = dim_cusp_forms(weight)
    m_max = args.m_max if args.m_max is not None else d
    mats = {m: hecke_matrix(weight, m) for m in range(1, m_max + 1)}
    gram = gram_determinant(weight) if weight <= EXACT_DET_WEIGHT else None
    residue = (gram_determinant_residue(weight, args.ell)
               if args.ell is not None else None)
    # the exact determinant and matrix entries are printed in full, also past
    # the int-to-str digit limit of Python >= 3.10.7 (4300 digits by default,
    # which the determinant passes from weight 240 on)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        payload = {
            "weight": weight, "dim": d,
            "matrices": {str(m): [list(row) for row in mats[m].entries]
                         for m in mats},
            "gramDet": gram,
        }
        lines = [f"weight {weight}: dim S = {d}"]
        for m in sorted(mats):
            lines.append(f"  T_{m} = {[list(r) for r in mats[m].entries]}")
        if gram is not None:
            lines.append(f"  gram determinant = {gram}")
        if args.ell is not None:
            payload["gramDetResidue"] = residue
            payload["ell"] = args.ell
            lines.append(f"  gram determinant mod {args.ell} = {residue}")
        csv_rows = [("weight", "dim", "gramDet"), (weight, d, gram)]
        _emit(args, payload, lines, csv_rows)
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    return EXIT_OK


def _selftest_checks(args):
    rng = random.Random(args.seed)

    def check_partition_oracle():
        series = eta_power_rational(Fraction(-1), 60)
        return list(series.coeffs) == partition_numbers(60)

    def check_pentagonal_support():
        series = eta_power_rational(Fraction(1), 100)
        support = {n for n, c in enumerate(series.coeffs) if c}
        pent = set()
        j = 1
        while j * (3 * j - 1) // 2 <= 100:
            pent.add(j * (3 * j - 1) // 2)
            if j * (3 * j + 1) // 2 <= 100:
                pent.add(j * (3 * j + 1) // 2)
            j += 1
        pent.add(0)
        return support == pent and all(series[n] in (1, -1) for n in support)

    def check_frobenius_congruences():
        return all(
            frobenius_congruence_check(alpha, ell, 1, 60)
            for alpha in (Fraction(1, 2), Fraction(3)) for ell in (5, 7))

    def check_residue_oracle():
        for alpha in (Fraction(1, 2), Fraction(57, 61)):
            for ell in (5, 17):
                exact = eta_power_rational(alpha, 40)
                reduced = reduce_series(exact, ell, 2)
                for method in ("descent", "ledger"):
                    if reduced != eta_power_mod(alpha, ell, 2, 40, method)[0]:
                        return False
        return True

    def check_ramanujan():
        claim = CongruenceClaim(variant=BALANCED, alpha="-1", ell=5, v=1,
                                offset=4, provenance=(("kind", "selftest"),))
        report = verify_claim(claim, 300)
        offsets = [c.offset for c in scan_balanced(Fraction(-1), 5, 1, 300)]
        return report.verified and offsets == [4]

    def check_hecke_small():
        tau = delta(12)
        if any(hecke_matrix(12, m).entries[0][0] != tau[m]
               for m in range(1, 7)):
            return False
        return gram_determinant(12) == 1 and gram_determinant(24) == 83041344

    def check_filtration():
        f = delta(12)
        return filtration(f, 12, 5) == 12 and filtration(f, 12, 7) == 12

    def check_claim_roundtrip():
        claims = square_class_families(Fraction(26), 5, cross_check_n=50)
        for claim in claims:
            data = json.loads(json.dumps(claim_to_dict(claim), sort_keys=True))
            back = claim_from_dict(data)
            if back.describe() != claim.describe():
                return False
        return bool(claims)

    def check_random_residue_consistency():
        # descent route vs exact reduction on random small exponents
        for _ in range(5):
            num = rng.randrange(-40, 41)
            den = rng.choice([1, 2, 3, 4, 9, 11])
            alpha = Fraction(num, den)
            for ell in (5, 7):
                if den % ell == 0:
                    continue
                exact = reduce_series(eta_power_rational(alpha, 30), ell, 1)
                if exact != eta_power_mod(alpha, ell, 1, 30)[0]:
                    return False
        return True

    return [
        ("partition oracle", check_partition_oracle),
        ("pentagonal support", check_pentagonal_support),
        ("frobenius congruence", check_frobenius_congruences),
        ("residue oracle", check_residue_oracle),
        ("ramanujan mod 5", check_ramanujan),
        ("hecke and gram", check_hecke_small),
        ("filtration of Delta", check_filtration),
        ("claim json round-trip", check_claim_roundtrip),
        ("seeded residue consistency", check_random_residue_consistency),
    ]


def cmd_selftest(args) -> int:
    results = [(name, fn()) for name, fn in _selftest_checks(args)]
    all_ok = all(ok for _, ok in results)
    lines = [f"{'ok' if ok else 'FAIL'} {name}" for name, ok in results]
    lines.append("selftest: " + ("all checks passed" if all_ok
                                 else "FAILURES above"))
    payload = {"checks": [{"name": name, "ok": ok} for name, ok in results],
               "ok": all_ok}
    _emit(args, payload, lines,
          [("check", "ok")] + [(name, ok) for name, ok in results])
    return EXIT_OK if all_ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "coeffs": cmd_coeffs,
        "search": cmd_search,
        "verify": cmd_verify,
        "scan": cmd_scan,
        "filtration": cmd_filtration,
        "hecke": cmd_hecke,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, NotEllIntegralError, HorizonError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except MemoryLimitError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
