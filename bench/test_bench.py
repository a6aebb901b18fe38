"""Tests of the benchmark itself: workloads at a tiny size, oracles, spans.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def run_worker(workload, *flags):
    params = json.dumps(workloads.make_params(workload, 7, tiny=True))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--params", params, "--start-ns", str(time.monotonic_ns()), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    return {w: (run_worker(w), run_worker(w, "--trace")) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced(tiny_runs, workload):
    plain, traced = tiny_runs[workload]
    assert traced["digest"] == plain["digest"]
    assert (traced["attempted"], traced["failed"]) == (
        plain["attempted"], plain["failed"])
    assert plain["attempted"] >= 1 and "layers" not in plain


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_in_wall(tiny_runs, workload):
    traced = tiny_runs[workload][1]
    selfs = [v for k, v in traced["layers"].items() if k.endswith(".self_s")]
    assert selfs and min(selfs) >= 0
    assert sum(selfs) <= traced["wall_s"]


def test_span_counts_at_tiny_size(tiny_runs):
    search = tiny_runs["search"][1]["layers"]
    verify = tiny_runs["verify"][1]["layers"]
    residues = tiny_runs["residues"][1]["layers"]
    # search to ell <= 20: candidates 5, 7, 11, 13, 17 (13 fails cond2)
    assert search["congruences.is_good_prime.calls"] == 5
    assert search["congruences.is_good_prime.cond3"] == 4
    assert search["congruences.is_good_prime.certified"] == 3
    assert search["modforms._vm_cusp_basis_mod.calls"] == 4
    assert search["qseries.eta_power_residues.calls"] == 0
    # descent truncations 58086, 3416, 200, 11 for 17^2 at n <= 200
    assert verify["qseries.eta_power_residues.calls"] == 4
    assert verify["qseries.eta_power_residues.depth"] == 4
    assert verify["modforms._vm_cusp_basis_mod.calls"] == 0
    # 10^4 -> 6 levels for 5^6, 5000 -> 6 levels for 5^13
    assert residues["qseries.eta_power_residues.calls"] == 12
    assert residues["qseries.eta_power_residues.depth"] == 6
    assert residues["qseries.eta_power_mod.calls"] == 1
    assert residues["modforms._vm_cusp_basis_mod.calls"] == 0
    for layers in (verify, residues):
        assert layers["convolve.convolve_mod.squares"] > 0
        assert layers["numpy.fft.rfft.calls"] > 0


def test_descent_depth_at_full_size():
    import etacong

    with spans.Tracer() as tracer:
        etacong.eta_power_residues(-1, 5, 6, 10 ** 6)
    layers = tracer.metrics()
    # truncations 10^6, 2*10^5, ..., 12, 2
    assert layers["qseries.eta_power_residues.calls"] == 9
    assert layers["qseries.eta_power_residues.depth"] == 9


def test_every_binding_is_patched():
    import etacong
    from etacong import _convolve, cli, congruences, modforms, qseries

    bindings = [(qseries, "convolve_mod"), (modforms, "convolve_mod"),
                (_convolve, "convolve_mod"), (modforms, "eta_integer_power_mod"),
                (congruences, "eta_integer_power_mod"),
                (congruences, "is_good_prime"), (modforms, "is_good_prime"),
                (etacong, "eta_power_residues"), (cli, "verify_claim")]
    before = [getattr(m, a) for m, a in bindings]
    with spans.Tracer():
        for (m, a), orig in zip(bindings, before):
            assert getattr(m, a).__wrapped__ is orig, (m.__name__, a)
    assert [getattr(m, a) for m, a in bindings] == before


def test_removed_function_makes_metric_absent(monkeypatch):
    import etacong
    from etacong import modforms

    monkeypatch.delattr(modforms, "_det_mod")
    with spans.Tracer() as tracer:
        etacong.eta_power_residues(-1, 5, 2, 100)
    layers = tracer.metrics()
    assert not any(k.startswith("modforms._det_mod.") for k in layers)
    assert layers["qseries.eta_power_residues.calls"] == 3


def test_verify_alpha_keeps_the_claim_and_the_cost():
    from etacong.numerics import psi

    assert 72 - Fraction(289 * 15, 61) == Fraction(57, 61)
    for seed in range(40):
        alpha = workloads.verify_alpha(seed)
        assert alpha.denominator % 17
        gap = (72 - alpha) / 289  # = s/b, a 17-adic unit
        assert gap.numerator % 17 and gap.denominator % 17
        assert psi(289, alpha) == 72
        assert psi(289, 17 * (alpha - 72) / 289) == 119
    assert workloads.verify_alpha(3) == workloads.verify_alpha(3)


def test_oracles_count_wrong_answers():
    params = workloads.make_params("search", 0, tiny=True)
    good = workloads.run_search(params)
    assert workloads.check_search(params, good)[1] == 0
    bad_text = good[1].replace('"gramDetResidue": 1', '"gramDetResidue": 2', 1)
    assert workloads.check_search(params, (0, bad_text))[1] == 1

    params = workloads.make_params("verify", 0, tiny=True)
    report = workloads.run_verify(params)
    assert workloads.check_verify(params, report) == (201, 0)
    wrong = replace(report, outcome="counterexample")
    assert workloads.check_verify(params, wrong) == (201, 201)

    params = dict(workloads.TINY["residues"], big_trunc=300)
    small, code, text = workloads.run_residues(params)
    attempted, failed = workloads.check_residues(params, (small, code, text))
    assert failed == 0
    small = small.copy()
    small[4] += 1  # p(4) = 5: breaks the prefix and Ramanujan mod 5
    lines = text.splitlines()
    lines[7] = "7 16 (precision 13)"
    assert workloads.check_residues(
        params, (small, code, "\n".join(lines) + "\n")) == (attempted, 3)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
