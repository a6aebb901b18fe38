"""The traced benchmark result's shape: the span tracer in ``bench/`` around
a tiny search yields every per-layer metric BENCHMARK.json declares, each
finite, so a traced run can print them as strict JSON, and around the tiny
descents it sees one ``eta_power_residues`` span per level.  Reads
``bench/`` and changes nothing there.
"""

import json
import math
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
    ("residues", 12, 6),  # 6 levels for 5^6 to 10^4, 6 for 5^13 to 5000
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


@pytest.mark.parametrize("weight, ell, residue, bases, dets", [
    (1968, 179, 0, 1, 0),    # 57/61's rejection: T_2's witness decides it
    (1728, 431, 391, 2, 1),  # 57/61's certificate: no witness, Gram route
])
def test_traced_cond3_skips_the_long_basis_on_a_witness(
        monkeypatch, weight, ell, residue, bases, dets):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    from etacong import modforms

    with spans.Tracer() as tracer:
        got = modforms.gram_determinant_residue(weight, ell)
    metrics = tracer.metrics()
    assert got == residue
    assert metrics["modforms._hecke_matrix_mod.calls"] == 1
    assert metrics["modforms._vm_cusp_basis_mod.calls"] == bases
    assert metrics["modforms._det_mod.calls"] == dets
