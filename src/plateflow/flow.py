"""Semi-implicit discrete gradient flows for the constrained bending energy.

Each pseudo-time step solves for the rate d_t y in the tangent space of the
linearized nodal isometry constraint, d = Z u with Z the closed-form
per-vertex rotation basis at the previous iterate (see
`constraints.tangent_basis`):

    Z^T ((1 + tau) K (+ tau/eps M3)) Z u = Z^T (-K y + r_nl(y) + r_f (+ r_pen(y)))

and updates y <- y + tau d.  K = kron(I_3, K_s) is the bending stiffness, kept
as the scalar stiffness K_s (assembled once) of each component, r_nl the
explicitly treated spontaneous-curvature terms, and in the obstacle flow
M3/r_pen the implicit convex and explicit concave parts of the penalty (M3 the
lumped mass on the third-component values).  The reduced matrix is symmetric
positive definite, so a step is one sparse SPD solve.  Its pattern is the same
in every step, so the flow builds it once, at construction, as a
`linsolve.TangentSystem`: the element bending blocks summed per vertex pair,
the fixed pattern of the reduced matrix, a reverse Cuthill-McKee order of
the mesh's vertex graph, which numbers the free vertices and the free dofs,
and the factorization.  Every step scatters the blocks of the reduced matrix
into the storage of its envelope and factors it there on one BLAS thread,
with a blocked Cholesky whose panels update only the rows their envelope
reaches.  Each iterate is evaluated once, from itself alone, into its state
(`GradientFlow._evaluate`): one pass over its nodal frames gives its defect,
its curvature normals, and the basis and degeneracy check of the next step,
which takes K y and r_nl + r_pen as its explicit data.  So a resumed run
repeats the states of the run it resumes.  The iteration stops when
||grad theta(d_t y)|| drops below eps_stop.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import energy as en
from .constraints import (ConstraintDegeneracyError, nodal_frames, nodal_isometry_defects,
                          tangent_basis)
from .dkt import DeformationField, element_operators, flat_embedding
from .energy import SimulationParams
from .linsolve import SaddleSolveError, TangentSystem, vertex_pair_blocks
from .mesh import TriangleMesh

MIN_BLOCK_SINGULAR_VALUE = 1e-3


class StepSizeWarning(UserWarning):
    """The step size violates an empirical stability or consistency guideline."""


@dataclass
class HistoryRecord:
    k: int
    energy: float          # Lyapunov value: E (+ penalty in the obstacle flow)
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
    history: list      # the run's records, appended by `GradientFlow.run`
    constraint_residual: float
    # the next step's data, computed from y: K y, r_nl(y) (+ r_pen(y)), and the
    # kernel blocks of the free vertices with their smallest singular value
    Ky: np.ndarray
    explicit_rhs: np.ndarray
    basis: np.ndarray
    min_singular_value: float


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
    mismatch_constant: float     # alpha^2 |omega|, not part of E
    termination_detail: str      # the solver or degeneracy error message

    @property
    def converged(self) -> bool:
        return self.termination_reason == "converged"

    @property
    def energy_with_mismatch_constant(self) -> float:
        """E + alpha^2 |omega|: the convention of the published benchmark tables."""
        return self.energy + self.mismatch_constant


def step_size_safeguard(params: SimulationParams, mesh: TriangleMesh) -> None:
    """Warn (never abort) when tau * |log h_min| exceeds 1.

    The sharp constant is unknown; this is an empirical guideline.  The
    penalty needs no step-size condition: its convex-concave splitting keeps
    the decay of the Lyapunov value unconditional.
    """
    stiff = params.tau * abs(np.log(mesh.h_min))
    if stiff > 1.0:
        warnings.warn(
            f"tau * |log h_min| = {stiff:.3g} exceeds 1; energy decay of the "
            "isometry flow is only guaranteed for smaller steps",
            StepSizeWarning, stacklevel=2)


class GradientFlow:
    """Assembled operators of one flow configuration, stepped sequentially."""

    def __init__(self, mesh: TriangleMesh, params: SimulationParams):
        step_size_safeguard(params, mesh)
        self.mesh, self.params = mesh, params
        self.ops = element_operators(mesh)
        rows, cols, blocks = vertex_pair_blocks(mesh.triangles, self.ops.bending)
        self.K = en.assemble_bending_stiffness(mesh, (rows, cols, blocks))
        # the step matrix (1 + tau) K_ff (+ tau/eps M3) in the tangent space
        value_diagonal = None
        if params.penalized:
            self._masses = en.vertex_lumped_masses(mesh)
            value_diagonal = np.zeros((mesh.num_vertices, 3))
            value_diagonal[:, 2] = (params.tau / params.eps_penalty) * self._masses
        self.system = TangentSystem((rows, cols, (1.0 + params.tau) * blocks),
                                    mesh.free_vertices, value_diagonal)
        # free vertices in elimination order; their nine dofs each, in turn
        self.free_vertices = self.system.vertices
        self.free = (9 * self.free_vertices[:, None] + np.arange(9)).reshape(-1)
        self.force_rhs = en.force_rhs(mesh, params.f)

    # -- state bookkeeping ---------------------------------------------------

    def _evaluate(self, k: int, y: DeformationField, Ky: np.ndarray, update_norm: float,
                  residual: float, history: list) -> FlowState:
        """The state at the iterate y, from y and its product K y alone, with
        one pass over its frames.

        Its Lyapunov value E (+ penalty) takes E from K y, the
        spontaneous-curvature term and the force; K y, its explicit rhs
        r_nl(y) (+ r_pen(y)) and its basis are the next step's data.  For
        alpha = 0 the curvature terms vanish identically and are not evaluated.
        """
        p = self.params
        grads = y.gradients()
        frames = nodal_frames(grads)
        Q, sigma = tangent_basis(grads[self.free_vertices],
                                 [part[self.free_vertices] for part in frames])
        e = 0.5 * float(y.dofs @ Ky)
        if p.alpha:
            curvature, rhs = en.curvature_terms(self.mesh, y, p.alpha, self.ops, frames)
            e -= curvature
        else:
            rhs = np.zeros(y.dofs.size)
        if p.f is not None:
            e -= float(self.force_rhs @ y.dofs)
        pen = dpen = 0.0
        if p.penalized:    # on the values of the third component, dofs 9 v + 6
            pen, dpen, r3 = en.penalty_terms(y.dofs[6::9], p.eps_penalty, self._masses,
                                             p.obstacle_height)
            rhs[6::9] += r3
        return FlowState(k=k, y=y, energy=e + pen, penalty_energy=pen,
                         delta_iso=float(nodal_isometry_defects(frames).max()),
                         delta_pen=dpen, update_norm=update_norm, history=history,
                         constraint_residual=residual, Ky=Ky, explicit_rhs=rhs,
                         basis=Q, min_singular_value=float(sigma.min()))

    def initial_state(self, y0: DeformationField | None = None) -> FlowState:
        y = y0 if y0 is not None else flat_embedding(self.mesh)
        if y.dofs.size != 9 * self.mesh.num_vertices:
            raise ValueError("initial field does not match the mesh")
        return self._evaluate(0, y, en.bending_product(self.K, y.dofs), np.inf, 0.0, [])

    # -- one pseudo-time step -------------------------------------------------

    def step(self, state: FlowState) -> FlowState:
        """The state after one step from `state`, which it leaves unchanged."""
        y = state.y
        smin = state.min_singular_value
        if smin <= MIN_BLOCK_SINGULAR_VALUE:
            raise ConstraintDegeneracyError(
                f"nodal constraint block degenerated (min singular value {smin:.3e}); "
                "the nodal gradients are no longer near-isometric")

        rhs = state.explicit_rhs + self.force_rhs - state.Ky
        d_f = self.system.solve(state.basis, rhs[self.free])

        # the next iterate y + tau d and d, whose products with K come from one
        fields = np.zeros((2, y.dofs.size))
        y_next, d = fields
        d[self.free] = d_f
        np.add(y.dofs, self.params.tau * d, out=y_next)
        scale = max(float(np.abs(d_f).max(initial=0.0)), 1e-300)
        # the linearized constraint C_z grad(d) at each free vertex, from the
        # products a_k . d_l of the columns of grad(y) and grad(d)
        g = y.gradients()[self.free_vertices]     # (n, 3, 2): columns a1, a2
        products = np.matmul(g.transpose(0, 2, 1), d_f.reshape(-1, 3, 3)[:, :, 1:])
        rows = products.reshape(-1, 4)            # a1.d1, a1.d2, a2.d1, a2.d2
        rows[:, 1] += rows[:, 2]
        residual = float(np.abs(rows[:, (0, 1, 3)]).max(initial=0.0)) / scale

        Ky, Kd = en.bending_product(self.K, fields)
        update_norm = float(np.sqrt(max(d @ Kd, 0.0)))
        return self._evaluate(state.k + 1, DeformationField(y_next), Ky, update_norm, residual,
                              state.history)

    # -- full iteration --------------------------------------------------------

    def run(self, y0: DeformationField | None = None,
            on_step: Optional[Callable[[FlowState], None]] = None):
        """Iterate until the update norm drops below eps_stop, for at most
        params.max_iters steps.

        Returns (report, final_state).  Solver failures and constraint
        degeneracy terminate the run with the matching reason instead of
        raising.  `on_step` sees every new state (logging, snapshots), after
        its record is appended to the history.
        """
        t0 = time.perf_counter()
        state = self.initial_state(y0)
        initial_energy = state.energy
        reason, detail = "max_iters", ""
        for _ in range(self.params.max_iters):
            try:
                state = self.step(state)
            except SaddleSolveError as exc:
                reason, detail = "solver_failure", str(exc)
                break
            except ConstraintDegeneracyError as exc:
                reason, detail = "degeneracy", str(exc)
                break
            state.history.append(HistoryRecord(state.k, state.energy, state.penalty_energy,
                                               state.delta_iso, state.delta_pen,
                                               state.update_norm))
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
            mismatch_constant=self.params.alpha**2 * self.mesh.domain_area,
            termination_detail=detail)
        return report, state
