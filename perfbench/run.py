"""Time-to-solution benchmark of the plateflow gradient flows.

    python3 perfbench/run.py --workload oshape-l1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a source checkout and imports plateflow from its
`src/`.  With `--trace 0` a run sets up the workload several times
(`setup_s` is the median), then performs whole rounds until the next round
would end after `--seconds`, at least one; every other end-to-end metric is
the median over its rounds.  With `--trace 1` a run performs one untraced
round and then one round with the spans of `spans.py` installed, and prints
the per-layer metrics with the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The run
exits 1 when a check fails and 2 when the program cannot be found.

`--seed` is accepted and changes nothing: no workload has random inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
IDENTITY_RTOL = 1e-9


def import_program() -> bool:
    """Put the checkout's src/ first on the path; False if plateflow is not there."""
    if not (SRC / "plateflow" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import plateflow
    return Path(plateflow.__file__).resolve().parent == SRC / "plateflow"


def timed_round(workload, tag: str):
    """One round of `workload` in a fresh output directory, removed afterwards."""
    from workloads import run_round
    out = RUNS / f"{os.getpid()}-{tag}"
    try:
        return run_round(workload, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def result(correct, attempted, failed, metrics) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def untraced(workload, seconds: float) -> dict:
    from workloads import setup_seconds
    setup_s = setup_seconds(workload, RUNS)
    rounds = []
    t0 = perf_counter()
    while True:
        rounds.append(timed_round(workload, f"round{len(rounds)}"))
        if perf_counter() - t0 + rounds[-1].elapsed_s > seconds:
            break
    med = statistics.median
    p50 = [statistics.median(r.step_ms) for r in rounds]
    p90 = [statistics.quantiles(r.step_ms, n=10, method="inclusive")[8] for r in rounds]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        "steps_per_s": (med(r.steps_per_s for r in rounds), "1/s"),
        "step_ms_p50": (med(p50), "ms"),
        "step_ms_p90": (med(p90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for r in rounds:
        for msg in r.failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{workload.name}: {len(rounds)} round(s), "
          f"{sum(r.iterations for r in rounds)} steps, worst constraint ratio "
          f"{max(r.tangent_worst for r in rounds):.2e}", file=sys.stderr)
    return result(all(not r.failures for r in rounds),
                  sum(r.iterations + r.failed_steps for r in rounds),
                  sum(r.failed_steps for r in rounds), metrics)


def traced(workload) -> dict:
    from spans import Tracer
    reference = timed_round(workload, "reference")
    with Tracer() as tracer:
        r = timed_round(workload, "traced")
    failures = reference.failures + r.failures
    identity = tracer.step_identity_error()
    if identity > IDENTITY_RTOL:
        failures.append(f"trace: step spans miss the step time by {identity:.3e} of it")
    metrics = tracer.metrics()
    metrics.update({
        "flow.free_dofs": (r.free_dofs, "count"),
        "io.bytes_written": (r.bytes_written, "bytes"),
        "trace.wall_s": (r.wall_s, "s"),
        "trace.overhead_s": (r.wall_s - reference.wall_s, "s"),
        "trace.spans": (sum(tracer.calls.values()), "count"),
    })
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return result(not failures, r.iterations + r.failed_steps, r.failed_steps, metrics)


def run_all(args, names) -> int:
    """Each workload in a fresh process of its own, one after the other."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            return 2
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}")
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_program():
        print(f"error: no plateflow package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    try:
        res = traced(workload) if args.trace else untraced(workload, args.seconds)
    finally:
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
