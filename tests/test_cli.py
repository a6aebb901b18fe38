import contextlib
import functools
import io
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from etacong import cli, congruences, modforms, qseries
from etacong._convolve import product_bytes
from etacong.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    claim_from_dict,
    claim_to_dict,
    main,
    parse_modulus,
)
from etacong.congruences import CongruenceClaim, verify_claim
from etacong.modforms import gram_determinant, gram_determinant_residue
from etacong.qseries import eta_power_rational, reduce_series

ROOT = Path(__file__).resolve().parents[1]
NO_CANDIDATE = ("gives a candidate (2 and 3 only on request, none dividing "
                "the denominator of alpha)")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@functools.cache
def run_once(*argv):
    """(exit code, stdout) of one in-process run, shared by the tests that
    ask for the same argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def readme_cli_lines():
    """(argv, exit code) of each `etacong` line in the README's CLI block:
    the code its comment names as "exit N", else 0."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "etacong", line
        exit_code = re.search(r"\bexit (\d+)", comment)
        lines.append((argv, int(exit_code.group(1)) if exit_code else EXIT_OK))
    return lines


def test_parse_modulus():
    assert parse_modulus("17^2") == (17, 2)
    assert parse_modulus("5**3") == (5, 3)
    assert parse_modulus("7") == (7, 1)
    with pytest.raises(ValueError):
        parse_modulus("15")
    with pytest.raises(ValueError):
        parse_modulus("17^0")


def test_coeffs_partition_numbers(capsys):
    code, out = run(capsys, "coeffs", "--alpha", "-1", "--trunc", "5")
    assert code == EXIT_OK
    assert [line.split()[1] for line in out.strip().splitlines()] == \
        ["1", "1", "2", "3", "5", "7"]


def test_coeffs_fractional(capsys):
    code, out = run(capsys, "coeffs", "--alpha", "1/2", "--trunc", "2")
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["0 1", "1 -1/2", "2 -5/8"]


def test_coeffs_residue_headline(capsys):
    code, out = run(capsys, "coeffs", "--alpha", "57/61", "--mod", "17^2",
                    "--trunc", "300")
    assert code == EXIT_OK
    row = out.strip().splitlines()[286]
    assert row.startswith("286 0 ")


def coeffs_rows(out, fmt):
    """(n, value, precision) rows of a coeffs --mod run."""
    if fmt == "json":
        return [(c["n"], c["value"], c["precision"])
                for c in json.loads(out)["coeffs"]]
    return [(int(n), int(value), int(p.rstrip(")")))
            for n, value, _, p in (line.split() for line in out.splitlines())]


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_coeffs_beyond_the_fft_modulus_take_the_ledger(capsys, fmt):
    # 5^15 > 2^33 is past the descent's FFT backend, so the padded ledger
    # recurrence answers; its residues carry 15 digits like the descent's
    code, out = run(capsys, "coeffs", "--alpha", "1/2", "--mod", "5^15",
                    "--trunc", "60", "--format", fmt)
    assert code == EXIT_OK
    rows = coeffs_rows(out, fmt)
    exact = reduce_series(eta_power_rational(Fraction(1, 2), 60), 5, 15)
    assert [(n, value) for n, value, _ in rows] == list(enumerate(exact))
    assert [p for _, _, p in rows] == [15] * 61
    # the truncation changes the ledger's padding, not what it prints
    code, short = run(capsys, "coeffs", "--alpha", "1/2", "--mod", "5^15",
                      "--trunc", "12", "--format", fmt)
    assert code == EXIT_OK
    assert coeffs_rows(short, fmt) == rows[:13]
    if fmt == "plain":
        assert short.splitlines() == out.splitlines()[:13]


@pytest.mark.parametrize("argv", [
    ("coeffs", "--alpha", " 2/4", "--trunc", "2", "--format", "json"),
    ("coeffs", "--alpha", "2/4", "--mod", "7", "--trunc", "2",
     "--format", "json"),
    ("scan", "--alpha", "2/4", "--ell", "7", "--N", "5", "--format", "json"),
], ids=["coeffs-exact", "coeffs-mod", "scan"])
def test_json_payloads_print_the_canonical_alpha(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["alpha"] == "1/2"


def test_scan_plain_header_prints_the_canonical_alpha(capsys):
    code, out = run(capsys, "scan", "--alpha", " -4/2", "--ell", "7",
                    "--N", "5")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "alpha = -2, ell^v = 7^1, N = 5"


def test_coeffs_trunc_cap(capsys):
    code = main(["coeffs", "--alpha", "-1", "--trunc", "20000"])
    assert code == EXIT_USAGE


def test_verify_exit_codes(capsys):
    code, _ = run(capsys, "verify", "--alpha", "-1", "--ell", "5", "--v", "1",
                  "--offset", "4", "--N", "1000")
    assert code == EXIT_OK
    code, out = run(capsys, "verify", "--alpha", "-1", "--ell", "5", "--v",
                    "1", "--offset", "1", "--N", "10")
    assert code == EXIT_COUNTEREXAMPLE
    assert "counterexample at n = 0" in out


def test_verify_json_report(capsys):
    code, out = run(capsys, "verify", "--alpha", "-1", "--ell", "7", "--v",
                    "1", "--offset", "5", "--N", "100", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["outcome"] == "verified"
    assert data["claim"]["ell"] == 7
    assert "wallClockS" not in data  # timing never lands in canonical output


def test_scan_plain(capsys):
    code, out = run(capsys, "scan", "--alpha", "-1", "--ell", "5", "--v", "1",
                    "--N", "200")
    assert code == EXIT_OK
    assert "offset 4" in out


@pytest.fixture
def one_search(monkeypatch, search_57_61):
    """cli.main renders the session's one 57/61 search (conftest.py) in
    place of searching again; a search with other arguments fails."""
    def search(alpha, **options):
        assert alpha == Fraction(57, 61) and options == dict(
            ell_max=None, max_weight=modforms.DEFAULT_MAX_WEIGHT,
            allow_small_primes=False)
        return search_57_61
    monkeypatch.setattr(cli, "search_good_congruences", search)


def test_search_json_headline(one_search):
    code, out = run_once("search", "--alpha", "57/61", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    strongest = [e for e in data["results"]
                 if e["claim"]["ell"] == 17 and e["claim"]["v"] == 2]
    assert len(strongest) == 1
    cert = strongest[0]["certificate"]
    assert cert["k"] == 3 and cert["r"] == 2 and cert["m"] == 4
    assert cert["gramDetResidue"] != 0
    assert strongest[0]["claim"]["offset"] == 286
    # byte for byte the checked-in oracle the benchmark compares against
    assert out == (ROOT / "bench" / "data" / "search_57_61.json").read_text()


ODD_ENTRY = {"ell": 7, "k": 2, "reason": 'say "%s" \\ \n\t é, },\n{'}


@pytest.mark.parametrize("payload", [
    {"alpha": "1/2", "rejections": []},
    {"rejections": [{"ell": 5, "k": 3, "reason": "cond3 failed"}]},
    {"a": [1, {"b": None}], "rejections": [ODD_ENTRY] * 3, "z": 0.5},
    {"rejections": [{"x": None, "y": True, "%s": 1.5e300}, {
        "y": False, "x": -0.0, "%s": "%d"}]},
    # not flat: the plain indented dump
    {"rejections": [{"ell": 5}, {"k": 3}]},
    {"rejections": [{"ell": 5, "k": [1]}, {"ell": 7, "k": [2, 3]}]},
    {"rejections": [{"ell": 5, "k": {}}]},
    {"rejections": [{}]},
    {"rejections": [[1, 2]]},
    {"rejections": [{1: "a", 2: "b"}]},
    {"results": [{"rejections": []}]},
], ids=["empty", "one", "odd-strings", "scalars", "mixed-keys", "lists",
        "dict", "empty-entry", "not-dicts", "int-keys", "nested-key"])
def test_json_output_is_the_indented_dump(capsys, payload):
    args = type("Args", (), {"fmt": "json", "output": None})()
    cli._emit(args, payload, [])
    assert capsys.readouterr().out == json.dumps(
        payload, sort_keys=True, indent=2) + "\n"


def test_search_json_is_the_indented_dump(capsys):
    payload = json.loads(
        (ROOT / "bench" / "data" / "search_57_61.json").read_text())
    assert len(payload["rejections"]) > 100
    args = type("Args", (), {"fmt": "json", "output": None})()
    cli._emit(args, payload, [])
    assert capsys.readouterr().out == json.dumps(
        payload, sort_keys=True, indent=2) + "\n"


def test_search_allows_ell_2_and_3_only_on_request(capsys):
    code, out = run(capsys, "search", "--alpha", "3", "--lmax", "3",
                    "--allow-ell-2-3", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    # 24 - 3 = 3 * 7; 3^2 divides the weight-24 Gram determinant 83041344
    assert [(e["claim"]["ell"], e["certificate"]["k"], e["certificate"]["r"])
            for e in data["results"]] == [(3, 1, 1)]
    assert [(r["ell"], r["k"], r["reason"].split(":")[0])
            for r in data["rejections"]] == [(2, 1, "cond1 failed"),
                                             (3, 2, "cond3 failed")]
    claims = [claim_from_dict(e["claim"]) for e in data["results"]]
    code, out = run(capsys, "search", "--alpha", "22", "--lmax", "3",
                    "--allow-ell-2-3", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    emitted = [claim_from_dict(e["claim"]) for e in data["results"]]
    assert [c.describe() for c in emitted] == ["p_22(2n + 1) == 0 (mod 2)"]
    for claim in claims + emitted:
        assert verify_claim(claim, 2000).verified
    # without the flag no prime up to 3 gives a candidate: refused
    for alpha in ("3", "22"):
        code = main(["search", "--alpha", alpha, "--lmax", "3",
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: no prime up to 3 {NO_CANDIDATE}\n"


def test_search_past_memory_exits_3_before_sieving(capsys, monkeypatch):
    # good_prime_bound(1/10^8) = 2,599,999,999: a sieve of that many bytes
    # and a list of about 1.3e8 primes
    def no_sieve(bound):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(congruences, "physical_memory_bytes", lambda: 1 << 16)
    monkeypatch.setattr(congruences, "primes_up_to", no_sieve)
    code = main(["search", "--alpha", "1/100000000"])
    captured = capsys.readouterr()
    assert code == EXIT_PRECISION
    assert captured.out == ""
    assert captured.err.startswith(
        "memory error: sieving the primes up to 2599999999 needs about ")
    assert captured.err.endswith(
        "GiB, more than the 0.00 GiB of physical memory\n")


def test_filtration_table(capsys):
    code, out = run(capsys, "filtration", "--ell", "5", "--delta", "1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[1].endswith("filtration 12")
    assert lines[-1].endswith("filtration 12")


def test_hecke_weight_12(capsys):
    code, out = run(capsys, "hecke", "--weight", "12", "--m-max", "2",
                    "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["matrices"]["2"] == [[-24]]
    assert data["gramDet"] == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_hecke_prints_determinants_past_the_digit_limit(capsys):
    # the weight-120 determinant has 792 digits
    want = gram_determinant(120)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        outputs = [run(capsys, "hecke", "--weight", "120", "--m-max", "1",
                       "--format", fmt) for fmt in ("plain", "json", "csv")]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    (code_p, plain), (code_j, text), (code_c, table) = outputs
    assert code_p == code_j == code_c == EXIT_OK
    assert plain.splitlines()[-1] == f"  gram determinant = {want}"
    assert json.loads(text)["gramDet"] == want
    assert table.splitlines()[-1] == f"120,10,{want}"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_coeffs_prints_values_past_the_digit_limit(capsys):
    # p_alpha(25) has the denominator (10^200)^25 2^22 5^6: over 5000 digits
    alpha = Fraction(1, 10 ** 200)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run(capsys, "coeffs", "--alpha", str(alpha),
                        "--trunc", "25")
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert code == EXIT_OK
        want = eta_power_rational(alpha, 25)[25]
        assert out.splitlines()[25] == f"25 {want}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_hecke_prints_only_the_residue_above_the_exact_weight(capsys,
                                                             monkeypatch):
    def no_exact(*args):
        raise AssertionError("computed the exact determinant")

    for name in ("gram_determinant", "gram_determinant_of"):
        monkeypatch.setattr(cli, name, no_exact)
    weight = cli.EXACT_DET_WEIGHT + 12
    residue = gram_determinant_residue(weight, 1009)
    argv = ("hecke", "--weight", str(weight), "--m-max", "1", "--ell", "1009")
    code, plain = run(capsys, *argv)
    assert code == EXIT_OK
    assert "gram determinant =" not in plain
    assert plain.splitlines()[-1] == f"  gram determinant mod 1009 = {residue}"
    code, text = run(capsys, *argv, "--format", "json")
    data = json.loads(text)
    assert (code, data["gramDet"], data["gramDetResidue"]) == (EXIT_OK, None,
                                                               residue)


@pytest.mark.parametrize("argv, horizons", [
    (("--weight", "36"), [9]),
    (("--weight", "120"), [100]),
    (("--weight", "312", "--m-max", "1"), [27]),
])
def test_hecke_builds_the_exact_basis_once(capsys, monkeypatch, argv,
                                           horizons):
    # T_1..T_d and the determinant share one basis, built to the largest
    # horizon the run needs: d^2 with the determinant, else max(m_max * d,
    # d + 1)
    build = modforms.victor_miller_basis
    built = []

    def counted(weight, trunc):
        built.append(trunc)
        return build(weight, trunc)

    for module in (cli, modforms):
        monkeypatch.setattr(module, "victor_miller_basis", counted)
    code, _ = run(capsys, "hecke", *argv, "--format", "json")
    assert code == EXIT_OK
    assert built == horizons


@pytest.mark.parametrize("cap", [9, 8])
def test_hecke_refuses_a_basis_past_the_trunc_cap(capsys, monkeypatch, cap):
    # weight 36 prints T_1..T_3 and the determinant: a basis to 9 coefficients
    build = modforms.victor_miller_basis
    built = []

    def counted(weight, trunc):
        built.append(trunc)
        return build(weight, trunc)

    monkeypatch.setattr(cli, "victor_miller_basis", counted)
    monkeypatch.setattr(cli, "HARD_TRUNC_CAP", cap)
    code = main(["hecke", "--weight", "36"])
    captured = capsys.readouterr()
    if cap == 9:
        assert (code, built, captured.err) == (EXIT_OK, [9], "")
    else:
        assert (code, built, captured.out) == (EXIT_USAGE, [], "")
        assert captured.err == ("error: hecke needs an exact basis to 9 "
                                "coefficients, above the cap 8\n")


@pytest.mark.parametrize("cap", [144, 143])
def test_filtration_refuses_a_series_past_the_trunc_cap(capsys, monkeypatch,
                                                        cap):
    # ell = 41, Delta^2, default 40 iterations: nominal weight 24 + 40 * 42,
    # a series to 1704 // 12 + 2 = 144 coefficients
    build = modforms.delta_power
    built = []

    def counted(d, trunc):
        built.append(trunc)
        return build(d, trunc)

    monkeypatch.setattr(cli, "delta_power", counted)
    monkeypatch.setattr(cli, "HARD_TRUNC_CAP", cap)
    code = main(["filtration", "--ell", "41", "--delta", "2"])
    captured = capsys.readouterr()
    if cap == 144:
        assert (code, built, captured.err) == (EXIT_OK, [144], "")
    else:
        assert (code, built, captured.out) == (EXIT_USAGE, [], "")
        assert captured.err == ("error: filtration needs an exact series to "
                                "144 coefficients, above the cap 143\n")


def test_filtration_refuses_the_default_iterations_at_a_large_prime(
        capsys, monkeypatch):
    # ell - 1 = 10006 iterations would need a series to 8345007 coefficients
    def refuse(d, trunc):
        raise AssertionError(f"built Delta^{d} to {trunc}")

    monkeypatch.setattr(cli, "delta_power", refuse)
    code = main(["filtration", "--ell", "10007"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == ("error: filtration needs an exact series to "
                            "8345007 coefficients, above the cap 10000\n")


@pytest.mark.parametrize("argv", [("--iters", "0"), ()],
                         ids=["iters-0", "default-iters"])
def test_filtration_beyond_the_kernel_modulus_exits_2(capsys, argv):
    # 2^33 + 17 is prime; the mod-ell basis multiplies only below 2^33
    code = main(["filtration", "--ell", "8589934609", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == "error: filtration requires ell < 2^33\n"


def test_hecke_beyond_the_kernel_modulus_exits_2_before_any_work(
        capsys, monkeypatch):
    # 2^33 + 17 is prime; the Gram residue is taken only below 2^33
    def refuse(weight, trunc):
        raise AssertionError(f"built the exact basis of S_{weight}")

    monkeypatch.setattr(cli, "victor_miller_basis", refuse)
    code = main(["hecke", "--weight", "240", "--ell", "8589934609"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == "error: hecke --ell requires ell < 2^33\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "--alpha", "-1", "--ell", "5", "--offset", "4", "--N", "-5"),
     "--N must be >= 0"),
    (("scan", "--alpha", "-1", "--ell", "5", "--N", "-1"), "--N must be >= 0"),
    (("verify", "--alpha", "-1", "--ell", "5", "--offset", "4", "--v", "0",
      "--N", "10"),
     "--v must be >= 1"),
    (("scan", "--alpha", "-1", "--ell", "5", "--v", "0", "--N", "10"),
     "--v must be >= 1"),
    (("filtration", "--ell", "5", "--delta", "0"), "--delta must be >= 1"),
    (("hecke", "--weight", "24", "--m-max", "0"), "--m-max must be >= 1"),
    (("hecke", "--weight", "24", "--m-max", "-3"), "--m-max must be >= 1"),
    (("filtration", "--ell", "5", "--iters", "-2"), "--iters must be >= 0"),
    (("search", "--alpha", "57/61", "--lmax", "20", "--max-weight", "-5"),
     "--max-weight must be >= 12"),
    (("search", "--alpha", "57/61", "--max-weight", "11"),
     "--max-weight must be >= 12"),
    (("search", "--alpha", "57/61", "--lmax", "1"), "--lmax must be >= 2"),
    (("search", "--alpha", "57/61", "--lmax", "-3"), "--lmax must be >= 2"),
    # 2 and 3 need --allow-ell-2-3; 5 divides 1/5's denominator; 24k == 5
    # == 0 mod 5 leaves no k
    (("search", "--alpha", "57/61", "--lmax", "4"),
     f"no prime up to 4 {NO_CANDIDATE}"),
    (("search", "--alpha", "1/5", "--lmax", "5"),
     f"no prime up to 5 {NO_CANDIDATE}"),
    (("search", "--alpha", "5", "--lmax", "5"),
     f"no prime up to 5 {NO_CANDIDATE}"),
], ids=["verify-N", "scan-N", "verify-v", "scan-v", "filtration-delta",
        "hecke-m-max-0", "hecke-m-max-negative",
        "filtration-iters", "search-max-weight-negative",
        "search-max-weight-11", "search-lmax-1", "search-lmax-negative",
        "search-lmax-4", "search-denominator", "search-no-k"])
def test_vacuous_counts_exit_2(capsys, argv, message):
    # each of these would test or print nothing and still exit 0
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_square_class_verify_at_ell_2_exits_2(capsys):
    # no residue mod 2 is a non-residue: the parent reported a
    # counterexample at n = 0 and exited 4
    code = main(["verify", "--alpha", "3", "--ell", "2", "--form",
                 "squareClass", "--stride", "8", "--N", "20"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == ("error: square-class claim needs an odd prime: "
                            "mod 2 there is no non-residue\n")


def test_fft_rounding_fault_exits_3(capsys, monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *args, **kwargs: irfft(*args, **kwargs) + 0.5)
    code = main(["coeffs", "--alpha", "-1", "--mod", "5^6", "--trunc", "1000"])
    captured = capsys.readouterr()
    assert code == EXIT_PRECISION
    assert captured.out == ""
    assert captured.err == "precision error: fft convolution lost integrality\n"


@pytest.mark.parametrize("argv", [
    ("coeffs", "--alpha", "1/0", "--trunc", "3"),
    ("coeffs", "--alpha", "1/0", "--mod", "5^2", "--trunc", "3"),
    ("search", "--alpha", "1/0"),
])
def test_zero_denominator_alpha_exits_2(capsys, argv):
    code = main(list(argv))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


def test_invalid_alpha_exits_2(capsys):
    code = main(["coeffs", "--alpha", "nonsense", "--trunc", "3"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["coeffs", "--alpha", "-1", "--trunc", "5", "--mod", "6"],
    ["coeffs", "--alpha", "-1", "--trunc", "5", "--mod", "5^x"],
    ["verify", "--alpha", "-1", "--ell", "6", "--offset", "4", "--N", "10"],
    ["scan", "--alpha", "-1", "--ell", "4", "--N", "10"],
])
def test_non_prime_ell_or_modulus_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        err.splitlines()[-1]]
    assert "Traceback" not in err


def test_precision_underflow_exits_3(capsys):
    # 5^20 is beyond the modular backend; the failure must be exit 3, not a
    # wrong verdict
    code = main(["verify", "--alpha", "-1", "--ell", "5", "--v", "20",
                 "--offset", "4", "--N", "1"])
    assert code == 3


def test_claim_json_roundtrip():
    from etacong.cli import report_to_dict

    claim = CongruenceClaim(variant="balanced", alpha="57/61", ell=17, v=2,
                            offset=286, raw_offset=-3,
                            provenance=(("kind", "certificate"), ("k", 3)))
    data = json.loads(json.dumps(claim_to_dict(claim), sort_keys=True))
    back = claim_from_dict(data)
    assert back.alpha == claim.alpha and back.offset == claim.offset
    # re-verifying the re-parsed claim serializes to identical bytes
    first = json.dumps(report_to_dict(verify_claim(claim, 50)), sort_keys=True)
    second = json.dumps(report_to_dict(verify_claim(back, 50)), sort_keys=True)
    assert first == second


def test_selftest_deterministic(capsys):
    code1, out1 = run(capsys, "selftest")
    code2, out2 = run(capsys, "selftest")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.endswith("selftest: all checks passed\n")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "coeffs.json"
    code, out = run(capsys, "coeffs", "--alpha", "-1", "--trunc", "3",
                    "--format", "json", "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(target.read_text())
    assert data["coeffs"] == ["1", "1", "2", "3"]


@pytest.mark.parametrize("argv, trunc, modulus", [
    (("verify", "--alpha", "57/61", "--ell", "17", "--v", "2",
      "--offset", "286", "--N", "1000"), 289 * 1000 + 286, 289),
    (("scan", "--alpha", "-1", "--ell", "5", "--v", "2", "--N", "400"),
     25 * 401 - 1, 25),
])
def test_oversized_descent_exits_3_before_allocating(capsys, monkeypatch,
                                                      argv, trunc, modulus):
    def no_work(*args):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(qseries, "physical_memory_bytes", lambda: 1 << 16)
    monkeypatch.setattr(qseries, "eta_integer_power_mod", no_work)
    code = main(list(argv))
    captured = capsys.readouterr()
    need = product_bytes(trunc + 1, modulus)
    assert code == EXIT_PRECISION
    assert captured.out == ""
    assert captured.err == (
        f"memory error: {trunc + 1} coefficients mod {modulus} need about "
        f"{need / 2**30:.2f} GiB for one product, more than the 0.00 GiB of "
        f"physical memory\n")


def test_known_defect_checker_exits_0():
    # bench/defects.py checks `coeffs --alpha -1 --mod 5^14 --trunc 10000`,
    # whose products take two limbs and the split int64 recombination,
    # against partition_numbers; -B keeps it from writing bytecode there
    done = subprocess.run([sys.executable, "-B", "bench/defects.py"],
                          cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "coeffs mod 5^14 to 10000: 0 of 10001 wrong\n"


def test_readme_library_example_runs():
    # the README's Library block is executed as written, so its API calls
    # and the values it asserts cannot drift from the package
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})


@pytest.mark.parametrize("argv, exit_code", readme_cli_lines(),
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else None)
def test_readme_cli_block_runs(argv, exit_code, one_search):
    # each line of the README's CLI block exits as its comment says
    assert run_once(*argv)[0] == exit_code
