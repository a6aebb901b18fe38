"""The traced benchmark result's shape: the span tracer in ``bench/`` around
a tiny search yields every per-layer metric BENCHMARK.json declares, each
finite, so a traced run can print them as strict JSON.  Reads ``bench/``
and changes nothing there.
"""

import json
import math
from pathlib import Path

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
