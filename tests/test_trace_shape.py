"""The traced benchmark result's shape: the span tracer in ``bench/`` around
a tiny search yields every per-layer metric BENCHMARK.json declares, each
finite, so a traced run can print them as strict JSON, and around the tiny
descents it sees one ``eta_power_residues`` span per level.  Reads
``bench/`` and changes nothing there.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# added by bench/run.py around the tracer's own metrics
RUN_METRICS = {"trace_overhead_s", "failed_frac"}


def test_traced_search_carries_every_declared_metric(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    from etacong import cli  # bound before the tracer patches the package

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    with spans.Tracer() as tracer:
        code = cli.main(["search", "--alpha", "57/61", "--lmax", "20",
                         "--format", "json"])
    capsys.readouterr()
    metrics = tracer.metrics()
    assert code == 0
    assert {m["name"] for m in declared} - RUN_METRICS <= metrics.keys()
    assert all(math.isfinite(v) for v in metrics.values())
    json.dumps(metrics, allow_nan=False)
    # cond3 is counted through is_good_prime's direct call of
    # gram_determinant_residue: candidates 5, 7, 11 and 17 reach it
    assert metrics["congruences.is_good_prime.cond3"] == 4
    assert metrics["modforms._vm_cusp_basis_mod.calls"] == 4


@pytest.mark.parametrize("workload, calls, depth", [
    ("verify", 4, 4),     # truncations 58086, 3416, 200, 11 for 17^2
    ("residues", 2, 1),   # p(n) mod 5^6 and 5^13: one level, e = -1, each
])
def test_traced_descent_spans_every_level(monkeypatch, workload, calls, depth):
    # a route that skips a level's span fails here, not only in bench/
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    import workloads
    from etacong import cli  # noqa: F401  (bound before the tracer patches)

    run, check, _ = workloads.WORKLOADS[workload]
    params = workloads.make_params(workload, 7, tiny=True)
    with spans.Tracer() as tracer:
        outputs = run(params)
    metrics = tracer.metrics()
    assert check(params, outputs)[1] == 0
    assert metrics["qseries.eta_power_residues.calls"] == calls
    assert metrics["qseries.eta_power_residues.depth"] == depth


def test_traced_non_integer_descent_spans_every_level(monkeypatch):
    # alpha = -1 ends at its first level; 1/2 takes one per truncation
    # 10^4, 2000, 400, 80, 16 and 3
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    import etacong
    from etacong.qseries import eta_power_rational, reduce_series

    with spans.Tracer() as tracer:
        got = etacong.eta_power_residues(Fraction(1, 2), 5, 6, 10 ** 4)
    metrics = tracer.metrics()
    assert got[:101].tolist() == reduce_series(
        eta_power_rational(Fraction(1, 2), 100), 5, 6)
    assert metrics["qseries.eta_power_residues.calls"] == 6
    assert metrics["qseries.eta_power_residues.depth"] == 6


@pytest.mark.parametrize("weight, ell, residue, steps", [
    (1968, 179, 0, (2,)),        # 57/61's rejection: T_2's Krylov rows
    (1728, 431, 391, (2, 3, 5)),  # 57/61's certificate: T_5's Krylov rows
], ids=["1968-179-T2", "1728-431-T5"])
def test_traced_cond3_skips_the_long_basis_on_a_witness(
        monkeypatch, weight, ell, residue, steps):
    # each ladder step p builds one basis to horizon p d and forms T_p; no
    # step takes a determinant, and no basis reaches d^2
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    from etacong import modforms

    build, horizons = modforms._vm_cusp_basis_mod, []

    def recorded(weight, trunc, ell):
        horizons.append(trunc)
        return build(weight, trunc, ell)

    monkeypatch.setattr(modforms, "_vm_cusp_basis_mod", recorded)
    with spans.Tracer() as tracer:
        got = modforms.gram_determinant_residue(weight, ell)
    metrics = tracer.metrics()
    d = weight // 12
    assert got == residue
    assert horizons == [p * d for p in steps]
    assert metrics["modforms._vm_cusp_basis_mod.calls"] == len(steps)
    assert metrics["modforms._hecke_matrix_mod.calls"] == len(steps)
    assert metrics["modforms._det_mod.calls"] == 0


def test_traced_blocked_product_keeps_one_span_stack(monkeypatch):
    # block transforms run on worker threads, which call no traced
    # function: a power's two products stay two convolve_mod spans under
    # its power_mod span, and the result is the untraced one
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import numpy as np
    import spans
    from etacong import _convolve

    monkeypatch.setattr(_convolve, "_BLOCK", 128)
    monkeypatch.setattr(_convolve, "_BLOCKED_OUTPUT", 512)
    base = np.random.default_rng(3).integers(0, 289, 3000, dtype=np.int64)
    want = _convolve.power_mod(base, 3, 289, 3000)
    with spans.Tracer() as tracer:
        got = _convolve.power_mod(base, 3, 289, 3000)
    metrics = tracer.metrics()
    assert np.array_equal(got, want)
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["convolve.power_mod"] + ["convolve.convolve_mod"] * 2
    top, *products = tracer.spans
    assert top[spans.PARENT] is None
    for s in products:
        assert s[spans.PARENT] == top[spans.ID]
        assert top[spans.START] <= s[spans.START] <= s[spans.END] <= top[
            spans.END]
    assert products[0][spans.END] <= products[1][spans.START]
    assert metrics["convolve.convolve_mod.calls"] == 2
    assert metrics["convolve.convolve_mod.squares"] == 1
    assert metrics["convolve.convolve_mod.points"] == 2 * 3000
    # 24 blocks of 128: the square transforms them once, the product twice
    assert metrics["numpy.fft.rfft.calls"] == 24 + 2 * 24
