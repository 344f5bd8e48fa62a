"""Fast self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs every workload shortened to a few steps and requires each check to
pass on the genuine outputs.  Then it corrupts one output at a time and
requires the matching check to reject it:

  - a step pushed off the tangent space of the linearized constraint;
  - a history with one energy increase;
  - a history whose dissipation exceeds the energy drop (energy law);
  - a report row off in its last printed digit (published row);
  - a report without contact (obstacle) or with the wrong termination.

It also runs one shortened round traced and requires the step spans to add
up to the step time.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import run as bench

STEPS = {"oshape-l1": 6, "oshape-l3-steps": 2, "obstacle-l1": 6}


class SelfTest:
    def __init__(self):
        self.errors = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.errors.append(what)

    def accepts(self, failures: list, what: str) -> None:
        self.expect(not failures, f"accepts {what}" + (f": {failures}" if failures else ""))

    def rejects(self, failures: list, what: str) -> None:
        self.expect(bool(failures), f"rejects {what}")


def write_report(path, report: dict) -> None:
    with open(path, "w") as f:
        for key, value in report.items():
            f.write(f"{key}: {value}\n")


def write_history(path, history: dict) -> None:
    names = list(history)
    rows = np.column_stack([history[n] for n in names])
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.12g}" for v in row) + "\n")


def off_tangent(y_dofs, y_new_dofs, free, size=1e-6):
    """y_new with the gradient step at one free vertex tilted along grad y,
    which the linearized isometry constraint forbids, by `size` of the step."""
    bad = y_new_dofs.copy()
    g = y_dofs.reshape(-1, 3, 3)[:, :, 1:]
    gd = bad.reshape(-1, 3, 3)[:, :, 1:] - g
    moved = free[np.argmax(np.linalg.norm(gd[free], axis=(1, 2)))]
    tilt = size * np.linalg.norm(gd[moved]) / np.linalg.norm(g[moved]) * g[moved]
    bad.reshape(-1, 3, 3)[moved, :, 1:] += tilt
    return bad


def check_workload(t: SelfTest, workload, out: Path) -> None:
    import checks
    from workloads import run_round, setup
    from plateflow.dkt import DeformationField

    short = dataclasses.replace(workload, max_iters=STEPS[workload.name],
                                published=None, contact=False)
    name = f"{workload.name} ({short.max_iters} steps)"
    r = run_round(short, out)
    t.accepts(r.failures, f"{name}: genuine outputs")

    history = checks.read_history(out / "history.csv")
    report = checks.read_report(out / "report.txt")
    e0 = float(report["initial_energy"])
    tau = float(report["config.tau"])

    # a step pushed off the tangent space
    run, flow = setup(short.config(out))
    free = np.setdiff1d(np.arange(run.mesh.num_vertices), run.mesh.dirichlet_vertices)
    y = run.initial
    for _ in range(2):
        y_next = flow.step(flow.initial_state(y)).y
        tangent = checks.TangentCheck(free, y.dofs)
        tangent.step(y_next.dofs)
        t.accepts(tangent.failures(), f"{name}: a genuine step in the tangent space")
        tangent = checks.TangentCheck(free, y.dofs)
        tangent.step(off_tangent(y.dofs, y_next.dofs, free))
        t.rejects(tangent.failures(), f"{name}: a step pushed off the tangent space")
        y = DeformationField(y_next.dofs)

    # a history with one energy increase
    bad = {k: v.copy() for k, v in history.items()}
    k = len(bad["energy"]) // 2
    bad["energy"][k] = bad["energy"][k - 1] + 1e-9
    write_history(out / "history.csv", bad)
    t.rejects(checks.energy_decay(checks.read_history(out / "history.csv"), e0),
              f"{name}: a history with one energy increase of 1e-9")

    # dissipation beyond the energy drop
    bad = {k: v.copy() for k, v in history.items()}
    drop = e0 - bad["energy"][-1]
    bad["update_norm"][0] = np.sqrt(bad["update_norm"][0] ** 2 + 2.2 * drop / tau)
    write_history(out / "history.csv", bad)
    t.rejects(checks.energy_law(checks.read_history(out / "history.csv"), e0, tau),
              f"{name}: a history that dissipates more than the energy drop")

    # the wrong termination
    write_report(out / "report.txt", {**report, "termination_reason": "solver_failure"})
    t.rejects(checks.termination(checks.read_report(out / "report.txt"),
                                 short.expected_reason, short.max_iters),
              f"{name}: a report that ends in solver_failure")

    if workload.published:
        published_row(t, workload, report, out)
    if workload.contact:
        for value, ok in (("1.5e-02", True), ("0", False)):
            write_report(out / "report.txt", {**report, "delta_pen": value})
            verdict = checks.contact(checks.read_report(out / "report.txt"))
            (t.accepts if ok else t.rejects)(verdict, f"{name}: delta_pen = {value}")


def published_row(t: SelfTest, workload, report: dict, out: Path) -> None:
    import checks
    row = workload.published
    genuine = {**report, "iterations": str(row["iterations"]),
               "energy_with_mismatch_constant": "-0.281296512345",
               "delta_iso": "0.518104321987"}
    corrupt = {
        "energy_with_mismatch_constant": "-0.281351234567",   # prints -2.814e-01
        "delta_iso": "0.518151234567",                        # prints 5.182e-01
        "iterations": str(row["iterations"] + 1),
    }
    write_report(out / "report.txt", genuine)
    t.accepts(checks.published_row(checks.read_report(out / "report.txt"), row),
              f"{workload.name}: the published row")
    for key, value in corrupt.items():
        write_report(out / "report.txt", {**genuine, key: value})
        t.rejects(checks.published_row(checks.read_report(out / "report.txt"), row),
                  f"{workload.name}: the published row with {key} = {value}")


def check_trace(t: SelfTest, workload, out: Path) -> None:
    from spans import Tracer
    from workloads import run_round
    short = dataclasses.replace(workload, max_iters=STEPS[workload.name],
                                published=None, contact=False)
    with Tracer() as tracer:
        r = run_round(short, out)
    t.accepts(r.failures, f"{workload.name}: traced outputs")
    err = tracer.step_identity_error()
    t.expect(err <= bench.IDENTITY_RTOL,
             f"{workload.name}: step spans add up to the step time ({err:.1e})")
    m = tracer.metrics()
    t.expect(m["flow.iterations"][0] == short.max_iters
             and m["linsolve.solves"][0] == short.max_iters,
             f"{workload.name}: one traced solve per step")


def main() -> int:
    if not bench.import_program():
        print(f"error: no plateflow package under {bench.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    t = SelfTest()
    out = bench.RUNS / f"{os.getpid()}-selftest"
    try:
        for workload in WORKLOADS.values():
            check_workload(t, workload, out)
            shutil.rmtree(out)
        check_trace(t, WORKLOADS["obstacle-l1"], out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if bench.RUNS.is_dir() and not any(bench.RUNS.iterdir()):
            bench.RUNS.rmdir()
    print(f"{len(t.errors)} failure(s)")
    return 1 if t.errors else 0


if __name__ == "__main__":
    sys.exit(main())
