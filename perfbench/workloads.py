"""The benchmark's workloads and one timed round of each.

A round drives a preset through the public calls that
`plateflow.cli.run_experiment` makes, in the same order: `presets.resolve`,
`GradientFlow(...)`, `run` with history.csv written at every step (and a VTK
snapshot every `vtk_every` steps), then the final VTK surface, the checkpoint,
report.txt and, on the O-shape domain, rear_edge.csv.  The checks of
`checks.py` run after the round or inside the `on_step` callback; the time
they take is measured and left out of every reported time.

No workload takes a seed: the inputs are structured meshes generated from
the level and pattern, and the flat initial state.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

import checks

SETUP_MIN_REPEATS = 5      # set-up is timed at least this many times
SETUP_MIN_SECONDS = 2.0    # and for at least this long


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    level: int
    max_iters: Optional[int] = None       # None: run until eps_stop
    published: Optional[dict] = None      # row of the paper's O-shape table
    contact: bool = False                 # the plate must touch the obstacle

    @property
    def expected_reason(self) -> str:
        return "converged" if self.max_iters is None else "max_iters"

    def config(self, out_dir):
        from plateflow.presets import RunConfig
        kwargs = dict(experiment=self.experiment, level=self.level, out=str(out_dir))
        if self.max_iters is not None:
            kwargs["max_iters"] = self.max_iters
        return RunConfig(**kwargs)


WORKLOADS = {w.name: w for w in (
    Workload("oshape-l1", "oshape", 1, published=dict(
        iterations=1922, values={"energy_with_mismatch_constant": "-2.813e-01",
                                 "delta_iso": "5.181e-01"})),
    Workload("oshape-l3-steps", "oshape", 3, max_iters=30),
    Workload("obstacle-l1", "obstacle", 1, contact=True),
)}


@dataclass
class Round:
    wall_s: float            # set-up to last output file, checks left out
    run_s: float             # time inside GradientFlow.run, checks left out
    step_ms: list            # per step, from the on_step timestamps
    iterations: int
    failed_steps: int
    free_dofs: int
    bytes_written: int
    failures: list
    tangent_worst: float     # largest constraint ratio the tangent check saw
    elapsed_s: float         # the whole round, checks included

    @property
    def steps_per_s(self) -> float:
        return self.iterations / self.run_s


def setup(config):
    from plateflow import flow, presets
    run = presets.resolve(config)
    return run, flow.GradientFlow(run.mesh, run.params)


def setup_seconds(workload: Workload, out_dir) -> float:
    """Median time of resolve plus GradientFlow construction, repeated at
    least SETUP_MIN_REPEATS times and for at least SETUP_MIN_SECONDS."""
    config = workload.config(out_dir)
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        setup(config)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_round(workload: Workload, out_dir) -> Round:
    """One timed round, writing its outputs into `out_dir`."""
    from plateflow import io as pio, mesh as pmesh
    config = workload.config(out_dir)
    t_start = perf_counter()
    run, flow = setup(config)
    mesh = run.mesh
    height = run.params.obstacle_height
    vtk_every = max(int(config.vtk_every), 0)
    os.makedirs(out_dir, exist_ok=True)

    t_pause = perf_counter()
    free = np.setdiff1d(np.arange(mesh.num_vertices), mesh.dirichlet_vertices)
    tangent = checks.TangentCheck(free, run.initial.dofs)
    step_ms = []
    paused = 0.0                      # check time inside on_step
    prepared = perf_counter() - t_pause

    pmesh.save_mesh(mesh, os.path.join(out_dir, "mesh.txt"))
    with pio.HistoryCsvWriter(os.path.join(out_dir, "history.csv")) as history:
        def on_step(state):
            nonlocal last, paused
            history.write(state.history[-1])
            if vtk_every and state.k % vtk_every == 0:
                pio.write_vtk_surface(state.y, mesh, os.path.join(
                    out_dir, f"surface_{state.k:07d}.vtk"), height)
            t = perf_counter()
            step_ms.append(1e3 * (t - last))
            tangent.step(state.y.dofs)
            last = perf_counter()
            paused += last - t

        t_run = last = perf_counter()
        report, state = flow.run(run.initial, on_step=on_step)
        run_s = perf_counter() - t_run
    pio.write_vtk_surface(state.y, mesh, os.path.join(out_dir, "surface_final.vtk"), height)
    pio.save_field(state.y, os.path.join(out_dir, "checkpoint.field"))
    pio.write_report(report, os.path.join(out_dir, "report.txt"), run.echo)
    if run.echo["domain"] == "oshape":
        pio.write_rear_edge_trace(mesh, state.y, os.path.join(out_dir, "rear_edge.csv"))
    t_end = perf_counter()

    failures = check_outputs(workload, out_dir, tangent)
    bytes_written = sum(e.stat().st_size for e in os.scandir(out_dir))
    iterations = int(report.iterations)
    return Round(
        wall_s=t_end - t_start - prepared - paused, run_s=run_s - paused, step_ms=step_ms,
        iterations=iterations,
        failed_steps=int(report.termination_reason in ("solver_failure", "degeneracy")),
        free_dofs=9 * len(free), bytes_written=bytes_written, failures=failures,
        tangent_worst=tangent.worst, elapsed_s=perf_counter() - t_start)


def check_outputs(workload: Workload, out_dir, tangent: checks.TangentCheck) -> list:
    """Every check of the round, on the files it wrote."""
    history = checks.read_history(os.path.join(out_dir, "history.csv"))
    report = checks.read_report(os.path.join(out_dir, "report.txt"))
    e0 = float(report["initial_energy"])
    failures = checks.termination(report, workload.expected_reason, workload.max_iters)
    rows = len(history["energy"])
    if rows != int(report["iterations"]) or tangent.steps != rows:
        failures.append(f"history: {rows} rows and {tangent.steps} steps seen for "
                        f"{report['iterations']} iterations")
    if rows:
        failures += checks.energy_decay(history, e0)
        failures += checks.energy_law(history, e0, float(report["config.tau"]))
    failures += tangent.failures()
    if workload.published:
        failures += checks.published_row(report, workload.published)
    if workload.contact:
        failures += checks.contact(report)
    return failures
