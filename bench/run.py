"""etacong benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {search,verify,residues} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Every sample is a fresh interpreter (``worker.py``), so caches such as
``modforms._VM_CACHE`` or FFT plans cannot carry from one sample to the
next.  A run repeats workload samples, each followed by a few bare
set-ups, until another would exceed ``--seconds`` (at least one), and
reports medians.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced.  ``--trace 1`` alternates untraced and traced samples and reports
the per-layer metrics from the traced ones; the spans of the last traced
sample go to ``bench/out/spans-<workload>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# bare set-ups timed after each untraced workload sample
SETUP_SAMPLES = 2
# the whole run, including set-up samples, stays below this
RUN_TIME_LIMIT_S = 170.0


class Sampler:
    def __init__(self, workload: str, params: dict, deadline: float):
        self.workload = workload
        self.params = json.dumps(params)
        self.deadline = deadline
        self.env = dict(os.environ)
        # the search must see the package's default weight cap
        self.env.pop("ETACONG_MAX_WEIGHT", None)

    def __call__(self, *flags: str) -> dict:
        start_ns = time.monotonic_ns()
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", self.workload, "--params", self.params,
               "--start-ns", str(start_ns), *flags]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"sample exited with code {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def measure(sample, seconds: float, trace: bool, spans_out: Path):
    """Samples until another would overrun ``seconds``; at least one of each
    kind (one untraced, plus one traced when tracing).

    Untraced runs interleave SETUP_SAMPLES bare set-ups after each workload
    sample, so set-up is timed across the whole run rather than in one burst.
    """
    untraced, traced, setups = [], [], []
    started = time.monotonic()
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(sample("--trace", "--spans-out", str(spans_out)))
        else:
            untraced.append(sample())
            setups.append(untraced[-1]["setup_s"])
            if not trace:
                setups += [sample("--setup-only")["setup_s"]
                           for _ in range(SETUP_SAMPLES)]
        elapsed = time.monotonic() - started
        done = len(untraced) + len(traced)
        if (not trace or traced) and elapsed * (done + 1) / done > seconds:
            return untraced, traced, setups


def end_to_end(setups, samples) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "work_per_s": statistics.median(s["work"] / s["wall_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def per_layer(untraced, traced, attempted, failed) -> dict:
    values = {}
    for name in traced[0]["layers"]:
        got = [s["layers"][name] for s in traced]
        ints = all(isinstance(v, int) for v in got)
        values[name] = (statistics.median_low if ints else statistics.median)(got)
    values["trace_overhead_s"] = (
        statistics.median(s["wall_s"] for s in traced)
        - statistics.median(s["wall_s"] for s in untraced))
    values["failed_frac"] = failed / attempted
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "etacong" / "__init__.py").is_file():
        print(f"error: no etacong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_TIME_LIMIT_S
    params = workloads.make_params(args.workload, args.seed)
    sample = Sampler(args.workload, params, deadline)
    sample("--setup-only")  # writes bytecode caches; not timed
    spans_out = BENCH_DIR / "out" / f"spans-{args.workload}.json"
    if args.trace:
        spans_out.parent.mkdir(exist_ok=True)
    untraced, traced, setups = measure(sample, args.seconds, bool(args.trace),
                                       spans_out)

    samples = untraced + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    consistent = len({s["digest"] for s in samples}) == 1
    if args.trace:
        values = per_layer(untraced, traced, attempted, failed)
    else:
        values = end_to_end(setups, untraced)

    print(f"workload {args.workload}  params {json.dumps(params)}  "
          f"seed {args.seed}")
    print(f"samples: {len(untraced)} untraced, {len(traced)} traced; "
          f"walls " + " ".join(f"{s['wall_s']:.3f}" for s in samples) + " s")
    print(f"checked {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.6f}); outputs "
          + ("identical across samples" if consistent else "DIFFER across samples"))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"  {m['name']}: absent")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if args.trace:
        print(f"spans written to {spans_out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
