"""The three benchmark workloads, their inputs and their oracles.

Each workload has three functions.  ``run(params)`` performs the timed
operations through etacong's public API or its in-process CLI and returns
the outputs.  ``check(params, outputs)`` compares them with an oracle that
does not share the code path under test and returns ``(attempted, failed)``
counts of checked results.  ``units(params, outputs)`` counts the work done.
A mismatch is counted, never raised, so a wrong answer shows as a failure
rather than a fast run.

* ``search``: ``etacong search --alpha 57/61 --format json``; cond3 Gram
  determinants in ``modforms`` (10 decisions up to weight 1968), no
  descent.  Oracle: the search output stored in ``data/``.
* ``verify``: ``verify_claim`` on ``p_alpha(17^2 n + 286) == 0 (mod 17^2)``
  for ``n <= 13840`` (arguments up to 4.0e6); ``qseries`` descent and
  one-limb convolutions of length 2^22, no ``modforms``.  The claim is a
  theorem for every alpha the seed picks, so the oracle is "verified".
* ``residues``: ``p(n) mod 5^6`` for ``n <= 10^6`` (two-limb kernel, a long
  squaring chain) plus ``etacong coeffs --alpha -1 --mod 5^13 --trunc 10000``
  (three-limb kernel, per-coefficient objects and printing).  Oracles: the
  pentagonal recurrence ``partition_numbers`` and Ramanujan's
  ``p(5^j n + d_j) == 0 (mod 5^j)``.

5^13 is the largest power of 5 below 2^31.5, so every product the kernel
forms while recombining limbs fits in int64.  5^14 uses the same three limbs
but overflows there; ``defects.py`` checks that route on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

SEARCH_ORACLE = Path(__file__).resolve().parent / "data" / "search_57_61.json"

FULL = {
    "search": {"alpha": "57/61", "lmax": None},
    "verify": {"n_max": 13840},
    "residues": {"trunc": 10 ** 6, "prefix": 10001, "big_exp": 13,
                 "big_trunc": 10000},
}
# small enough for the benchmark's own tests; same code paths
TINY = {
    "search": {"alpha": "57/61", "lmax": 20},
    "verify": {"n_max": 200},
    "residues": {"trunc": 10 ** 4, "prefix": 2001, "big_exp": 13,
                 "big_trunc": 5000},
}


def make_params(workload: str, seed: int, tiny: bool = False) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    params = dict((TINY if tiny else FULL)[workload])
    if workload == "verify":
        params["alpha"] = str(verify_alpha(seed))
    return params


def verify_alpha(seed: int) -> Fraction:
    """alpha = 72 - 289 s/b with 17 not dividing s b.

    For every such alpha, 17 is good with k = 3 and r = 2 (cond2 and cond3
    depend only on (17, 3)), so p_alpha(289 n + 286) == 0 (mod 289) holds.
    psi(289, alpha) = 72 fixes the top-level exponent, and s == -7 b (mod 17)
    fixes the next level's exponent at 119, as for 57/61 (s = 15, b = 61),
    so the cost does not depend on the seed.
    """
    rng = random.Random(seed)
    b = rng.choice([x for x in range(2, 1000) if x % 17])
    s = (-7 * b) % 17 + 17 * rng.randrange(60)
    return 72 - Fraction(289 * s, b)


def _cli(argv) -> tuple[int, str]:
    from etacong import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- search -----------------------------------------------------------------

def run_search(params):
    argv = ["search", "--alpha", params["alpha"], "--format", "json"]
    if params["lmax"] is not None:
        argv += ["--lmax", str(params["lmax"])]
    return _cli(argv)


def expected_search(params) -> str:
    """The stored seed output, restricted to ell <= lmax for small runs."""
    data = json.loads(SEARCH_ORACLE.read_text())
    lmax = params["lmax"]
    if lmax is not None:
        data["results"] = [e for e in data["results"]
                           if e["claim"]["ell"] <= lmax]
        data["rejections"] = [r for r in data["rejections"] if r["ell"] <= lmax]
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def check_search(params, outputs):
    code, text = outputs
    expected = expected_search(params).splitlines()
    got = text.splitlines()
    failed = sum(a != b for a, b in zip(got, expected))
    failed += abs(len(got) - len(expected))
    if failed == 0 and (code != 0 or not text.endswith("\n")):
        failed = 1
    return len(expected), failed


def search_units(params, outputs):
    """Candidates decided: certified primes plus rejected candidates."""
    data = json.loads(outputs[1])
    certified = {(e["claim"]["ell"], e["certificate"]["k"])
                 for e in data["results"]}
    return len(certified) + len(data["rejections"])


# -- verify -----------------------------------------------------------------

def run_verify(params):
    from etacong import BALANCED, CongruenceClaim, verify_claim

    claim = CongruenceClaim(variant=BALANCED, alpha=params["alpha"], ell=17,
                            v=2, offset=286)
    return verify_claim(claim, params["n_max"])


def check_verify(params, report):
    attempted = params["n_max"] + 1
    ok = report.outcome == "verified" and report.n_tested == attempted
    return attempted, 0 if ok else attempted


def verify_units(params, report):
    return report.n_tested


# -- residues ---------------------------------------------------------------

def run_residues(params):
    from etacong import eta_power_residues

    small = eta_power_residues(-1, 5, 6, params["trunc"])
    code, text = run_coeffs(params["big_exp"], params["big_trunc"])
    return small, code, text


def run_coeffs(exp, trunc):
    """``etacong coeffs`` for p(n) mod 5^exp, n <= trunc."""
    return _cli(["coeffs", "--alpha", "-1", "--mod", f"5^{exp}",
                 "--trunc", str(trunc)])


def check_coeffs(exp, trunc, code, text, oracle):
    """(attempted, failed): each printed line against p(n) mod 5^exp."""
    m = 5 ** exp
    lines = text.splitlines()
    failed = abs(len(lines) - trunc - 1) + (code != 0)
    for n, line in enumerate(lines[: trunc + 1]):
        if line.split()[:2] != [str(n), str(oracle[n] % m)]:
            failed += 1
    return trunc + 1, failed


def check_residues(params, outputs):
    from etacong import partition_numbers

    small, code, text = outputs
    attempted = failed = 0
    oracle = partition_numbers(max(params["prefix"] - 1, params["big_trunc"]))

    # the 5^6 series on a prefix, against the pentagonal recurrence
    m6 = 5 ** 6
    prefix = [p % m6 for p in oracle[: params["prefix"]]]
    attempted += len(prefix) + 1
    failed += len(small) != params["trunc"] + 1
    failed += sum(int(x) != y for x, y in zip(small[: len(prefix)], prefix))

    # Ramanujan: p(5^j n + d_j) == 0 (mod 5^j), 24 d_j == 1 (mod 5^j)
    for j in range(1, 7):
        step = 5 ** j
        picked = small[pow(24, -1, step)::step] % step
        attempted += len(picked)
        failed += int((picked != 0).sum())

    # the CLI's 5^13 residues, against p(n) mod 5^13
    more = check_coeffs(params["big_exp"], params["big_trunc"], code, text,
                        oracle)
    return attempted + more[0], failed + more[1]


def residues_units(params, outputs):
    small, _, text = outputs
    return len(small) + len(text.splitlines())


WORKLOADS = {
    "search": (run_search, check_search, search_units),
    "verify": (run_verify, check_verify, verify_units),
    "residues": (run_residues, check_residues, residues_units),
}


def digest(workload: str, outputs) -> str:
    """A fingerprint of the outputs, for comparing traced and untraced runs."""
    h = hashlib.sha256()
    if workload == "verify":
        r = outputs
        h.update(repr((r.outcome, r.counterexample, r.n_tested,
                       r.precision_used)).encode())
    elif workload == "residues":
        small, code, text = outputs
        h.update(small.tobytes())
        h.update(repr(code).encode() + text.encode())
    else:
        code, text = outputs
        h.update(repr(code).encode() + text.encode())
    return h.hexdigest()
