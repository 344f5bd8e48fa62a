"""Benchmark experiment presets and run-configuration resolution.

Three presets mirror the published benchmark setups:

  rectangle  clamped (-5,5)x(-2,2) plate, left edge held flat, alpha = 2.5,
             tau = h/5; relaxes toward a cylinder of radius 1/alpha.
  oshape     frame plate (-5,5)x(-2,2) minus [-4,4]x[-1,1], clamped along the
             two unit segments at the lower-left corner, alpha = 0.5, tau = h/5.
  obstacle   the O-shape pressed by a constant vertical body force against a
             plane at height 1, tau = h/50; its penalty parameter eps = 1.25e-1
             selects the penalized flow, the only preset with an eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constraints import apply_dirichlet
from .dkt import DeformationField, flat_embedding
from .energy import SimulationParams
from .io import load_field
from .mesh import (TriangleMesh, generate_oshape_mesh, generate_rectangle_mesh,
                   tag_dirichlet_boundary)

RECT_CLAMP = (((-5.0, -2.0), (-5.0, 2.0)),)
OSHAPE_CLAMP = (((-5.0, -2.0), (-5.0, -1.0)), ((-5.0, -2.0), (-4.0, -2.0)))

PRESETS = {
    "rectangle": dict(domain="rectangle", level=3, pattern="nonsymmetric",
                      alpha=2.5, tau_denominator=5, dirichlet=RECT_CLAMP, cf=0.0, eps=None),
    "oshape": dict(domain="oshape", level=3, pattern="symmetric",
                   alpha=0.5, tau_denominator=5, dirichlet=OSHAPE_CLAMP, cf=0.0, eps=None),
    "obstacle": dict(domain="oshape", level=3, pattern="symmetric",
                     alpha=0.0, tau_denominator=50, dirichlet=OSHAPE_CLAMP, cf=6.0e-3,
                     eps=1.25e-1),
}

# The finest mesh level the presets accept.  The factorization stores the
# envelope of the step matrix: 0.58 GiB on the O-shape and 1.30 GiB on the
# rectangle at level 5 (peak RSS of a step 0.95 and 1.9 GB), 4.3 and
# 10.1 GiB at level 6 (the size of its plan, from the mesh's vertex graph).
MAX_LEVEL = 5
_LEVEL_6_GIB = {"oshape": 4.3, "rectangle": 10.1}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """A fully resolvable run description; unset fields fall back to the preset."""

    experiment: str = "oshape"
    level: Optional[int] = None
    pattern: Optional[str] = None
    alpha: Optional[float] = None
    tau: Optional[float] = None          # explicit step size, overrides h / denominator
    eps: Optional[float] = None
    cf: Optional[float] = None
    eps_stop: float = 1.0e-3
    max_iters: int = 500_000
    out: str = "out"
    vtk_every: int = 1000
    resume: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in PRESETS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {sorted(PRESETS)}")
        if self.vtk_every < 0:
            raise ConfigError("vtk_every must be nonnegative")


@dataclass
class ResolvedRun:
    config: RunConfig
    mesh: TriangleMesh
    params: SimulationParams
    initial: DeformationField
    echo: dict


def resolve(config: RunConfig) -> ResolvedRun:
    """Build the mesh, parameters and initial state a config describes."""
    preset = PRESETS[config.experiment]
    level = preset["level"] if config.level is None else int(config.level)
    if level > MAX_LEVEL:
        raise ConfigError(f"level {level} is finer than {MAX_LEVEL}, the finest level the "
                          f"presets accept: at level 6 the factorization alone would store "
                          f"{_LEVEL_6_GIB[preset['domain']]} GiB, and more at finer levels")
    pattern = preset["pattern"] if config.pattern is None else config.pattern
    alpha = preset["alpha"] if config.alpha is None else float(config.alpha)
    cf = preset["cf"] if config.cf is None else float(config.cf)
    eps = preset["eps"] if config.eps is None else float(config.eps)

    h = 2.0 ** (-level)
    tau = h / preset["tau_denominator"] if config.tau is None else float(config.tau)
    if preset["eps"] is None and config.eps is not None:
        raise ConfigError(f"eps is only meaningful for the obstacle experiment, "
                          f"not {config.experiment!r}")

    # the mesh, the parameters and the checkpoint check their own inputs
    try:
        if preset["domain"] == "rectangle":
            mesh = generate_rectangle_mesh(level, pattern)
        else:
            mesh = generate_oshape_mesh(level, pattern)
        mesh = tag_dirichlet_boundary(mesh, preset["dirichlet"])
        f = (0.0, 0.0, cf) if cf else None
        params = SimulationParams(alpha=alpha, tau=tau, eps_stop=config.eps_stop,
                                  eps_penalty=eps, f=f, max_iters=config.max_iters)
        initial = load_field(config.resume) if config.resume else flat_embedding(mesh)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    if initial.dofs.size != 9 * mesh.num_vertices:
        raise ConfigError(f"checkpoint {config.resume!r} does not match the mesh "
                          f"({initial.num_vertices} vs {mesh.num_vertices} vertices)")
    initial = apply_dirichlet(initial, mesh)

    echo = {
        "experiment": config.experiment, "domain": preset["domain"],
        "level": level, "pattern": pattern, "h": h,
        "alpha": alpha, "tau": tau,
        "eps": eps if eps is not None else "none", "cf": cf,
        "eps_stop": config.eps_stop,
        "mode": "penalized_flow" if params.penalized else "isometry_flow",
        "max_iters": config.max_iters, "vtk_every": config.vtk_every,
        "resume": config.resume or "none",
        "triangles": mesh.num_triangles, "vertices": mesh.num_vertices,
    }
    return ResolvedRun(config, mesh, params, initial, echo)
