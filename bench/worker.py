"""One benchmark sample in a fresh interpreter.

    python3 bench/worker.py --workload NAME --params JSON --start-ns NS
                            [--trace] [--spans-out PATH] [--setup-only]

``--start-ns`` is ``time.monotonic_ns()`` taken by the parent just before
it started this interpreter, so ``setup_s`` covers interpreter start,
``import etacong`` and one tiny warm-up call.  The sample then runs the
workload once (timed), checks it against its oracle (untimed) and prints one
JSON object on stdout.  With ``--trace`` the layers are wrapped by
``spans.Tracer`` after set-up, and the spans are written to ``--spans-out``
when the sample ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def import_etacong():
    """Import the package from this checkout's ``src``, never another copy."""
    if not (SRC_DIR / "etacong" / "__init__.py").is_file():
        raise SystemExit(f"etacong sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import etacong
    import etacong.cli  # noqa: F401  (bound before any patching)

    if Path(etacong.__file__).resolve().parent != SRC_DIR / "etacong":
        raise SystemExit(f"imported etacong from {etacong.__file__}")
    return etacong


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--start-ns", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    etacong = import_etacong()
    etacong.eta_power_residues(Fraction(57, 61), 17, 2, 1000)
    setup_s = (time.monotonic_ns() - args.start_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    run, check, units = workloads.WORKLOADS[args.workload]
    params = json.loads(args.params)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        started = time.perf_counter()
        outputs = run(params)
        wall_s = time.perf_counter() - started
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = check(params, outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": units(params, outputs),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.digest(args.workload, outputs),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"workload": args.workload, "params": params,
                 "fields": ["id", "parent", "name", "start", "end", "attrs"],
                 "spans": tracer.spans, "counts": tracer.counts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
