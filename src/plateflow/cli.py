"""Batch command line front end.

Users pick an experiment preset, optionally override parameters, run, and
inspect the files written to the output directory: history.csv, report.txt,
surface VTK snapshots, a resumable checkpoint, and for obstacle runs the
rear-edge trace.

    plateflow --experiment oshape --level 2 --out runs/oshape2
    plateflow --experiment obstacle --cf 6e-3 --eps 5e-1 --out runs/obst
    plateflow --config run.cfg --tau 0.05
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as pio
from .flow import GradientFlow
from .io import HistoryCsvWriter
from .mesh import save_mesh
from .presets import CONFIG_KEYS, ConfigError, RunConfig, resolve

_FLOAT_KEYS = {"alpha", "tau", "eps", "cf", "eps_stop"}
_INT_KEYS = {"level", "tau_scale", "max_iters", "vtk_every"}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plateflow",
        description="Constrained gradient-flow simulation of bilayer plate bending.")
    p.add_argument("--experiment", choices=["rectangle", "oshape", "obstacle"],
                   help="benchmark preset")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--level", type=int, help="mesh refinement level, h = 2**-level")
    p.add_argument("--pattern", choices=["nonsymmetric", "symmetric"])
    p.add_argument("--alpha", type=float, help="spontaneous curvature parameter")
    p.add_argument("--tau", type=float, help="explicit step size (overrides the preset rule)")
    p.add_argument("--tau-scale", type=int, dest="tau_scale",
                   help="scale the preset step rule by 2**k")
    p.add_argument("--eps", type=float, help="obstacle penalty parameter")
    p.add_argument("--cf", type=float, help="vertical body force magnitude")
    p.add_argument("--eps-stop", type=float, dest="eps_stop", help="termination threshold")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--vtk-every", type=int, dest="vtk_every",
                   help="snapshot interval in iterations")
    p.add_argument("--resume", help="field checkpoint to start from")
    return p


def _read_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys are rejected."""
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, value = (w.strip() for w in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            out[key] = value
    return out


def parse_config(argv=None, parser=None) -> RunConfig:
    """Merge CLI flags over an optional config file into a RunConfig."""
    parser = parser or _build_parser()
    args = parser.parse_args(argv)
    merged: dict = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key in _FLOAT_KEYS:
                merged[key] = float(raw)
            elif key in _INT_KEYS:
                merged[key] = int(raw)
            else:
                merged[key] = raw
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    merged.setdefault("experiment", "oshape")
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def run_experiment(config: RunConfig, quiet: bool = False) -> int:
    run = resolve(config)
    out = config.out
    os.makedirs(out, exist_ok=True)
    save_mesh(run.mesh, os.path.join(out, "mesh.txt"))

    flow = GradientFlow(run.mesh, run.params)
    height = run.params.obstacle_height
    vtk_every = max(int(config.vtk_every), 0)

    with HistoryCsvWriter(os.path.join(out, "history.csv")) as history:
        def on_step(state):
            history.write(state.history[-1])
            if vtk_every and state.k % vtk_every == 0:
                pio.write_vtk_surface(state.y, run.mesh,
                                      os.path.join(out, f"surface_{state.k:07d}.vtk"),
                                      height)

        report, state = flow.run(run.initial, on_step=on_step)

    pio.write_vtk_surface(state.y, run.mesh, os.path.join(out, "surface_final.vtk"), height)
    pio.save_field(state.y, os.path.join(out, "checkpoint.field"))
    pio.write_report(report, os.path.join(out, "report.txt"), run.echo)
    if run.echo["domain"] == "oshape":
        pio.write_rear_edge_trace(run.mesh, state.y, os.path.join(out, "rear_edge.csv"))

    if not quiet:
        print(f"{config.experiment}: {report.iterations} iterations "
              f"({report.termination_reason}), energy {report.energy:.6g}, "
              f"delta_iso {report.delta_iso:.4g}, delta_pen {report.delta_pen:.4g}")
        if report.termination_detail:
            print(report.termination_detail)
        print(f"outputs in {out}")
    return 0 if report.termination_reason in ("converged", "max_iters") else 1


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
