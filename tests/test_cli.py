import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from etacong import cli, qseries
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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_coeffs_beyond_the_fft_modulus_take_the_ledger(capsys, fmt):
    # 5^15 > 2^33 is past the descent's FFT backend, so "auto" picks the
    # padded ledger recurrence, whose precision varies with n
    code, out = run(capsys, "coeffs", "--alpha", "1/2", "--mod", "5^15",
                    "--trunc", "60", "--format", fmt)
    assert code == EXIT_OK
    if fmt == "json":
        rows = [(c["n"], c["value"], c["precision"])
                for c in json.loads(out)["coeffs"]]
    else:
        rows = [(int(n), int(value), int(p.rstrip(")")))
                for n, value, _, p in (line.split() for line in out.splitlines())]
    exact = reduce_series(eta_power_rational(Fraction(1, 2), 60), 5, 15)
    assert [(n, value) for n, value, _ in rows] == list(enumerate(exact))
    precisions = [p for _, _, p in rows]
    assert rows[0] == (0, 1, 29)
    assert min(precisions) >= 15
    assert len(set(precisions)) > 1


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


def test_search_json_headline(capsys):
    code, out = run(capsys, "search", "--alpha", "57/61", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    strongest = [e for e in data["results"]
                 if e["claim"]["ell"] == 17 and e["claim"]["v"] == 2]
    assert len(strongest) == 1
    cert = strongest[0]["certificate"]
    assert cert["k"] == 3 and cert["r"] == 2 and cert["m"] == 4
    assert cert["gramDetResidue"] != 0
    assert strongest[0]["claim"]["offset"] == 286


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


def test_hecke_prints_only_the_residue_above_the_exact_weight(capsys,
                                                             monkeypatch):
    def no_exact(weight):
        raise AssertionError("computed the exact determinant")

    monkeypatch.setattr(cli, "gram_determinant", no_exact)
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
                          cwd=Path(__file__).resolve().parents[1],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "coeffs mod 5^14 to 10000: 0 of 10001 wrong\n"
