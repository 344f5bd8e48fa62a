"""Batch command line front end.

Users pick an experiment preset, optionally override parameters, run, and
inspect the files written to the output directory: history.csv, report.txt,
surface VTK snapshots, a resumable checkpoint, and for obstacle runs the
rear-edge trace.

    plateflow --experiment oshape --level 2 --out runs/oshape2
    plateflow --experiment obstacle --cf 6e-3 --eps 5e-1 --out runs/obst
    plateflow --config run.cfg --tau 0.05

A config file holds `key = value` lines, each standing for the flag
--key (eps_stop = 1e-4 for --eps-stop 1e-4), checked like that flag.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as pio
from .flow import GradientFlow
from .io import HistoryCsvWriter
from .mesh import PATTERNS, save_mesh
from .presets import PRESETS, ConfigError, RunConfig, resolve


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or value as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="plateflow",
        description="Constrained gradient-flow simulation of bilayer plate bending.")
    p.add_argument("--experiment", choices=PRESETS, help="benchmark preset")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--level", type=int, help="mesh refinement level, h = 2**-level")
    p.add_argument("--pattern", choices=PATTERNS)
    p.add_argument("--alpha", type=float, help="spontaneous curvature parameter")
    p.add_argument("--tau", type=float, help="explicit step size (overrides the preset rule)")
    p.add_argument("--eps", type=float, help="obstacle penalty parameter")
    p.add_argument("--cf", type=float, help="vertical body force magnitude")
    p.add_argument("--eps-stop", type=float, dest="eps_stop", help="termination threshold")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--vtk-every", type=int, dest="vtk_every",
                   help="snapshot interval in iterations")
    p.add_argument("--resume", help="field checkpoint to start from")
    return p


def _config_flags(parser, path) -> list:
    """The flags that the key=value lines of a config file name, each checked
    by the parser; '#' starts a comment."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    settings = vars(parser.parse_args([]))
    flags = []
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (w.strip() for w in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        if key not in settings or key == "config":
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={value}")
        try:
            parser.parse_args(flags[-1:])
        except ConfigError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from exc
    return flags


def parse_config(argv=None) -> RunConfig:
    """The RunConfig of the command line: the lines of an optional config file
    become flags in front of `argv`, so flags win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(_config_flags(parser, args.config) + argv)
    return RunConfig(**{key: value for key, value in vars(args).items()
                        if value is not None and key != "config"})


def run_experiment(config: RunConfig) -> int:
    run = resolve(config)
    out = config.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc.strerror}") from exc
    save_mesh(run.mesh, os.path.join(out, "mesh.txt"))

    flow = GradientFlow(run.mesh, run.params)
    height = run.params.obstacle_height

    with HistoryCsvWriter(os.path.join(out, "history.csv")) as history:
        def on_step(state):
            history.write(state.history[-1])
            if config.vtk_every and state.k % config.vtk_every == 0:
                pio.write_vtk_surface(state.y, run.mesh,
                                      os.path.join(out, f"surface_{state.k:07d}.vtk"),
                                      height)

        report, state = flow.run(run.initial, on_step=on_step)

    pio.write_vtk_surface(state.y, run.mesh, os.path.join(out, "surface_final.vtk"), height)
    pio.save_field(state.y, os.path.join(out, "checkpoint.field"))
    pio.write_report(report, os.path.join(out, "report.txt"), run.echo)
    if run.echo["domain"] == "oshape":
        pio.write_rear_edge_trace(run.mesh, state.y, os.path.join(out, "rear_edge.csv"))

    print(f"{config.experiment}: {report.iterations} iterations "
          f"({report.termination_reason}), energy {report.energy:.6g}, "
          f"delta_iso {report.delta_iso:.4g}, delta_pen {report.delta_pen:.4g}")
    if report.termination_detail:
        print(report.termination_detail)
    print(f"outputs in {out}")
    return 0 if report.termination_reason in ("converged", "max_iters") else 1


def main(argv=None) -> int:
    try:
        return run_experiment(parse_config(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
