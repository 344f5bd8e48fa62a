"""Semi-implicit discrete gradient flows for the constrained bending energy.

Each pseudo-time step solves for the rate d_t y in the tangent space of the
linearized nodal isometry constraint, d = Z u with Z the per-vertex kernel
basis at the previous iterate (see `constraints.tangent_basis`):

    Z^T ((1 + tau) K (+ tau/eps M3)) Z u = Z^T (-K y + r_nl(y) + r_f (+ r_pen(y)))

and updates y <- y + tau d.  K is the bending stiffness (assembled once), r_nl
the explicitly treated spontaneous-curvature terms, and in obstacle mode
M3/r_pen the implicit convex and explicit concave parts of the penalty.  The
reduced matrix is symmetric positive definite, so a step is one sparse SPD
solve (see `linsolve.tangent_solve`).  Its pattern is the same in every step,
so the flow orders it once, at construction: the free vertices are numbered
by `linsolve.vertex_elimination_order`, a minimum degree order of the mesh's
vertex graph, and the free dofs, the rows of A_ff and those of Z follow that
numbering.  The iteration stops when ||grad theta(d_t y)|| drops below
eps_stop.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from . import energy as en
from .constraints import (ConstraintDegeneracyError, constraint_blocks,
                          isometry_defect, tangent_basis)
from .dkt import DeformationField, DktDofMap, element_operators, flat_embedding
from .energy import SimulationParams
from .linsolve import SaddleSolveError, tangent_solve, vertex_elimination_order
from .mesh import TriangleMesh

MIN_BLOCK_SINGULAR_VALUE = 1e-3
TERMINATION_REASONS = ("converged", "max_iters", "solver_failure", "degeneracy")


class StepSizeWarning(UserWarning):
    """The step size violates an empirical stability or consistency guideline."""


@dataclass
class HistoryRecord:
    k: int
    energy: float          # Lyapunov value: E (+ penalty in penalized mode)
    penalty_energy: float
    delta_iso: float
    delta_pen: float
    update_norm: float


@dataclass
class FlowState:
    k: int
    y: DeformationField
    energy: float
    penalty_energy: float
    delta_iso: float
    delta_pen: float
    update_norm: float
    history: list = dataclass_field(default_factory=list)
    constraint_residual: float = 0.0
    # cached assemblies at y, reused as the explicit data of the next step
    Ky: Optional[np.ndarray] = None
    nl_rhs: Optional[np.ndarray] = None


@dataclass
class RunReport:
    iterations: int
    termination_reason: str
    energy: float                # final E (without penalty)
    penalty_energy: float
    total_energy: float          # E + penalty (the Lyapunov value)
    delta_iso: float
    delta_pen: float
    last_update_norm: float
    initial_energy: float
    wall_time: float
    mismatch_constant: float = 0.0   # alpha^2 |omega|, not part of E

    @property
    def converged(self) -> bool:
        return self.termination_reason == "converged"

    @property
    def energy_with_mismatch_constant(self) -> float:
        """E + alpha^2 |omega|: the convention of the published benchmark tables."""
        return self.energy + self.mismatch_constant


def step_size_safeguard(params: SimulationParams, mesh: TriangleMesh,
                        log_threshold: float = 1.0,
                        coupling_threshold: float = 1.0) -> SimulationParams:
    """Warn (never abort) when the step size looks too large.

    Checks tau * |log h_min| against `log_threshold`, and in penalized mode
    with a constant body force tau against coupling_threshold * c_f * eps.
    The sharp constants are unknown; these are empirical guidelines.
    """
    stiff = params.tau * abs(np.log(mesh.h_min))
    if stiff > log_threshold:
        warnings.warn(
            f"tau * |log h_min| = {stiff:.3g} exceeds {log_threshold:.3g}; "
            "energy decay of the isometry flow is only guaranteed for smaller steps",
            StepSizeWarning, stacklevel=2)
    if params.penalized and params.f is not None and not callable(params.f):
        cf = abs(float(np.asarray(params.f, dtype=np.float64).reshape(3)[2]))
        if cf > 0 and params.tau > coupling_threshold * cf * params.eps_penalty:
            warnings.warn(
                f"tau = {params.tau:.3g} exceeds {coupling_threshold:.3g} * c_f * eps "
                f"= {coupling_threshold * cf * params.eps_penalty:.3g}; the explicit and "
                "implicit penalty parts may cancel inconsistently near the obstacle",
                StepSizeWarning, stacklevel=2)
    return params


class GradientFlow:
    """Assembled operators of one flow configuration, stepped sequentially."""

    def __init__(self, mesh: TriangleMesh, params: SimulationParams,
                 debug_checks: bool = False):
        self.mesh = mesh
        self.params = step_size_safeguard(params, mesh)
        self.debug_checks = debug_checks
        self.dofmap = DktDofMap.from_mesh(mesh)
        self.ops = element_operators(mesh)
        self.K = en.assemble_bending_stiffness(mesh, self.dofmap, self.ops)
        # free vertices in elimination order; their nine dofs each, in turn
        self.free_vertices = vertex_elimination_order(mesh.triangles,
                                                      self.dofmap.free_vertices)
        self.free = (9 * self.free_vertices[:, None] + np.arange(9)).reshape(-1)
        A = (1.0 + params.tau) * self.K
        if params.penalized:
            self.M3 = en.third_component_lumped_mass(mesh)
            A = A + (params.tau / params.eps_penalty) * self.M3
            self._masses = en.vertex_lumped_masses(mesh)
        self.A_ff = A[self.free][:, self.free].tocsc()
        self.force_rhs = en.force_rhs(mesh, params.f)
        self._rng = np.random.default_rng(0)

    # -- state bookkeeping ---------------------------------------------------

    def _energies(self, y: DeformationField, Ky=None):
        if Ky is None:
            Ky = self.K @ y.dofs
        bend = 0.5 * float(y.dofs @ Ky)
        e = bend - en.nonlinear_energy_term(self.mesh, y, self.params.alpha, self.ops)
        if self.params.f is not None:
            e -= float(self.force_rhs @ y.dofs)
        pen = 0.0
        dpen = 0.0
        if self.params.penalized:
            pen = en.penalty_energy(self.mesh, y, self.params.eps_penalty,
                                    self.params.obstacle_height)
            dpen = en.obstacle_penetration(self.mesh, y, self.params.obstacle_height)
        return e, pen, dpen, Ky

    def initial_state(self, y0: DeformationField | None = None) -> FlowState:
        y = y0 if y0 is not None else flat_embedding(self.mesh)
        if y.dofs.size != self.dofmap.num_dofs:
            raise ValueError("initial field does not match the mesh")
        e, pen, dpen, Ky = self._energies(y)
        return FlowState(k=0, y=y, energy=e + pen, penalty_energy=pen,
                         delta_iso=isometry_defect(y), delta_pen=dpen,
                         update_norm=np.inf, Ky=Ky)

    # -- one pseudo-time step -------------------------------------------------

    def step(self, state: FlowState) -> FlowState:
        return self._step(state, self.params.penalized)

    def _step(self, state: FlowState, penalized: bool) -> FlowState:
        p = self.params
        y = state.y

        Z, smin = tangent_basis(y, self.free_vertices)
        if smin <= MIN_BLOCK_SINGULAR_VALUE:
            raise ConstraintDegeneracyError(
                f"nodal constraint block degenerated (min singular value {smin:.3e}); "
                "the nodal gradients are no longer near-isometric")

        Ky = state.Ky if state.Ky is not None else self.K @ y.dofs
        nl = state.nl_rhs
        if nl is None:
            nl = en.nonlinear_rhs(self.mesh, y, p.alpha, self.ops)
        rhs_full = -Ky + nl + self.force_rhs
        if penalized:
            rhs_full = rhs_full + en.penalty_rhs(
                self.mesh, y, p.eps_penalty, p.obstacle_height, self._masses)

        d_f = tangent_solve(self.A_ff, Z, rhs_full[self.free])

        d = np.zeros(self.dofmap.num_dofs)
        d[self.free] = d_f
        scale = max(float(np.abs(d_f).max(initial=0.0)), 1e-300)
        grad_d = DeformationField(d).gradients()[self.free_vertices].reshape(-1, 6)
        rows = np.einsum("nij,nj->ni", constraint_blocks(y, self.free_vertices), grad_d)
        residual = float(np.abs(rows).max(initial=0.0)) / scale

        Kd = self.K @ d
        update_norm = float(np.sqrt(max(d @ Kd, 0.0)))
        y_new = DeformationField(y.dofs + p.tau * d)

        if self.debug_checks:
            self._check_telescoping(y, y_new, d, p.tau)

        nl_new = en.nonlinear_rhs(self.mesh, y_new, p.alpha, self.ops)
        e, pen, dpen, Ky_new = self._energies(y_new, Ky=Ky + p.tau * Kd)
        new = FlowState(
            k=state.k + 1, y=y_new, energy=e + pen, penalty_energy=pen,
            delta_iso=isometry_defect(y_new), delta_pen=dpen,
            update_norm=update_norm, history=state.history,
            constraint_residual=residual, Ky=Ky_new, nl_rhs=nl_new)
        new.history.append(HistoryRecord(new.k, new.energy, new.penalty_energy,
                                         new.delta_iso, new.delta_pen, new.update_norm))
        return new

    def _check_telescoping(self, y, y_new, d, tau, n_samples=10, tol=1e-10):
        """grad(y^k)^T grad(y^k) must equal the previous Gram matrix plus
        tau^2 grad(d)^T grad(d) at every node (the constrained solve kills the
        mixed term)."""
        free = self.dofmap.free_vertices
        if len(free) == 0:
            return
        sample = self._rng.choice(free, size=min(n_samples, len(free)), replace=False)
        g0 = y.gradients()[sample]
        g1 = y_new.gradients()[sample]
        gd = DeformationField(d).gradients()[sample]
        lhs = np.einsum("vci,vcj->vij", g1, g1)
        rhs = np.einsum("vci,vcj->vij", g0, g0) + tau**2 * np.einsum("vci,vcj->vij", gd, gd)
        err = np.abs(lhs - rhs).max()
        if err > tol * max(1.0, np.abs(lhs).max()):
            raise AssertionError(f"telescoping identity violated: {err:.3e}")

    # -- full iteration --------------------------------------------------------

    def run(self, y0: DeformationField | None = None,
            max_iters: int | None = None,
            on_step: Optional[Callable[[FlowState], None]] = None):
        """Iterate until the update norm drops below eps_stop.

        Returns (report, final_state).  Solver failures and constraint
        degeneracy terminate the run with the matching reason instead of
        raising.  `on_step` sees every new state (logging, snapshots).
        """
        t0 = time.perf_counter()
        state = self.initial_state(y0)
        initial_energy = state.energy
        limit = self.params.max_iters if max_iters is None else max_iters
        reason = "max_iters"
        for _ in range(limit):
            try:
                state = self.step(state)
            except SaddleSolveError:
                reason = "solver_failure"
                break
            except ConstraintDegeneracyError:
                reason = "degeneracy"
                break
            if on_step is not None:
                on_step(state)
            if state.update_norm <= self.params.eps_stop:
                reason = "converged"
                break
        report = RunReport(
            iterations=state.k, termination_reason=reason,
            energy=state.energy - state.penalty_energy,
            penalty_energy=state.penalty_energy, total_energy=state.energy,
            delta_iso=state.delta_iso, delta_pen=state.delta_pen,
            last_update_norm=state.update_norm if np.isfinite(state.update_norm) else 0.0,
            initial_energy=initial_energy, wall_time=time.perf_counter() - t0,
            mismatch_constant=self.params.alpha**2 * self.mesh.domain_area)
        return report, state


def run_flow(mesh: TriangleMesh, params: SimulationParams,
             y0: DeformationField | None = None,
             on_step=None, debug_checks: bool = False):
    """Convenience wrapper: assemble, iterate, report."""
    return GradientFlow(mesh, params, debug_checks=debug_checks).run(y0, on_step=on_step)
