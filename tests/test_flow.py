from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from plateflow import flow as fl, mesh as pm
from plateflow.constraints import identity_boundary_data, tangent_basis
from plateflow.dkt import flat_embedding
from plateflow.energy import SimulationParams
from plateflow.flow import GradientFlow, StepSizeWarning, run_flow, step_size_safeguard
from plateflow.presets import RunConfig, resolve

from conftest import flat_update_rounding_scale


def small_oshape():
    m = pm.generate_oshape_mesh(1, "symmetric")
    return pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, -1.0)),
                                         ((-5.0, -2.0), (-4.0, -2.0))])


def test_flat_stationary_with_zero_data(rect_l2_clamped, rect_l2_symmetric_clamped):
    # the first update is the rounding of the flat residual taken through one
    # solve; a spontaneous curvature as weak as alpha = 1e-9 stands out of it
    params = SimulationParams(alpha=0.0, tau=0.1, eps_stop=1e-3, max_iters=10)
    for mesh in (rect_l2_clamped, rect_l2_symmetric_clamped):
        flow = GradientFlow(mesh, params)
        bound = flat_update_rounding_scale(flow)
        report, state = flow.run()
        assert report.termination_reason == "converged"
        assert report.iterations == 1
        assert report.last_update_norm <= bound
        assert np.allclose(state.y.dofs, flat_embedding(mesh).dofs)
        driven = GradientFlow(mesh, replace(params, alpha=1e-9))
        assert driven.step(driven.initial_state()).update_norm >= 10 * bound


def test_steps_decrease_energy_and_respect_constraints(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=60)
    flow = GradientFlow(oshape_l1_clamped, params, debug_checks=True)
    state = flow.initial_state()
    energies = [state.energy]
    for _ in range(60):
        state = flow.step(state)
        energies.append(state.energy)
        assert state.constraint_residual <= 1e-10
        # fixed dofs never move
        for v in oshape_l1_clamped.dirichlet_vertices:
            base = flat_embedding(oshape_l1_clamped).dofs[9 * v:9 * v + 9]
            assert np.array_equal(state.y.dofs[9 * v:9 * v + 9], base)
    diffs = np.diff(energies)
    assert (diffs <= 1e-10).all()


def test_bending_seminorm_stays_bounded(oshape_l1_clamped):
    # equicoercivity proxy: ||grad theta(y^k)|| stays below a fixed multiple
    # of the flat-start energy scale sqrt(2 alpha^2 |omega|) along the flow
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=500)
    flow = GradientFlow(oshape_l1_clamped, params)
    state = flow.initial_state()
    scale = np.sqrt(2 * params.alpha**2 * oshape_l1_clamped.domain_area)
    for k in range(500):
        state = flow.step(state)
        if k % 25 == 0:
            norm = np.sqrt(max(state.y.dofs @ (flow.K @ state.y.dofs), 0.0))
            assert norm <= 10.0 * scale


def test_delta_iso_monotone_nondecreasing(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=50)
    report, state = run_flow(oshape_l1_clamped, params)
    d = [rec.delta_iso for rec in state.history]
    assert all(d[i + 1] >= d[i] - 1e-12 for i in range(len(d) - 1))


def test_max_iters_reason(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=1)
    report, _ = run_flow(oshape_l1_clamped, params)
    assert report.termination_reason == "max_iters"
    assert report.iterations == 1


def test_degeneracy_detected(oshape_l1_clamped):
    # a field with vanishing nodal gradients cannot span the tangent space
    m = oshape_l1_clamped
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=5)
    y0 = flat_embedding(m)
    y0.nodal()[:, :, 1:] = 0.0
    y_d, phi_d = identity_boundary_data()
    report, _ = run_flow(m, params, y0=y0)
    assert report.termination_reason == "degeneracy"


def test_solver_failure_reported(oshape_l1_clamped, monkeypatch):
    from plateflow.linsolve import SaddleSolveError

    def boom(*a, **k):
        raise SaddleSolveError("synthetic failure")

    monkeypatch.setattr(fl, "tangent_solve", boom)
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=5)
    report, _ = run_flow(oshape_l1_clamped, params)
    assert report.termination_reason == "solver_failure"


def test_penalized_flat_stationary(oshape_l1_clamped):
    # below the obstacle, with alpha = 0 and f = 0, the explicit penalty terms
    # cancel exactly and the flat state is stationary
    params = SimulationParams(alpha=0.0, tau=0.01, eps_stop=1e-3, max_iters=5,
                              eps_penalty=0.125, mode="penalized_flow")
    flow = GradientFlow(oshape_l1_clamped, params)
    report, state = flow.run()
    assert report.termination_reason == "converged"
    assert report.iterations == 1
    assert report.last_update_norm <= flat_update_rounding_scale(flow)


def test_penalized_lyapunov_decay_short(oshape_l1_clamped):
    params = SimulationParams(alpha=0.0, tau=0.01, eps_stop=1e-3, max_iters=250,
                              eps_penalty=0.25, f=(0.0, 0.0, 6.0e-3),
                              mode="penalized_flow")
    with pytest.warns(StepSizeWarning):
        report, state = run_flow(oshape_l1_clamped, params)
    e = [rec.energy for rec in state.history]
    assert all(e[i + 1] <= e[i] + 1e-10 for i in range(len(e) - 1))
    assert state.history[-1].penalty_energy >= 0.0


@pytest.mark.parametrize("case", ["oshape-level4", "cantilever-vertical-load"])
def test_steps_meet_solver_contract(case, rect_l2_clamped):
    # cases a residual bound relative to the right-hand side alone cannot
    # meet: from the flat state the level-4 right-hand side is tiny, and a
    # vertical load drives the soft modes of the cantilever
    if case == "oshape-level4":
        run = resolve(RunConfig(experiment="oshape", level=4))
        flows = [(GradientFlow(run.mesh, run.params), run.initial, 2)]
    else:
        flows = [(GradientFlow(rect_l2_clamped, SimulationParams(alpha=0.0, tau=0.1, f=f)),
                  None, 1) for f in ((0.0, 0.0, 1e-3), (0.0, 0.0, 1.0))]
    for flow, y0, steps in flows:
        report, state = flow.run(y0, max_iters=steps)
        assert report.termination_reason == "max_iters"
        assert report.iterations == steps
        assert state.update_norm > 0 and state.constraint_residual <= 1e-12


@pytest.mark.parametrize("level", [1, 2])
def test_flow_orders_tangent_system(level):
    # the flow numbers the free vertices once, in a fill-reducing order, and
    # every step factors in that order; it fills no more than a minimum
    # degree ordering of the step's own matrix, in that order or in dof order
    run = resolve(RunConfig(experiment="oshape", level=level))
    flow = GradientFlow(run.mesh, run.params)
    assert np.array_equal(np.sort(flow.free_vertices), flow.dofmap.free_vertices)
    assert np.array_equal(np.sort(flow.free), flow.dofmap.free_indices)
    y = flow.step(flow.initial_state(run.initial)).y

    def fill(free_vertices, spec):
        dofs = (9 * free_vertices[:, None] + np.arange(9)).reshape(-1)
        A_ff = (1.0 + run.params.tau) * flow.K[dofs][:, dofs]
        Z, _ = tangent_basis(y, free_vertices)
        R = (Z.T @ (A_ff @ Z)).tocsc()
        return spla.splu(R, permc_spec=spec, diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True)).nnz

    ordered = fill(flow.free_vertices, "NATURAL")
    assert ordered <= fill(flow.free_vertices, "MMD_AT_PLUS_A")
    assert ordered <= fill(flow.dofmap.free_vertices, "MMD_AT_PLUS_A")


def test_history_record_schema(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=3)
    report, state = run_flow(oshape_l1_clamped, params)
    assert len(state.history) == 3
    ks = [rec.k for rec in state.history]
    assert ks == [1, 2, 3]


def test_report_converged_iff_update_below_threshold(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=2500)
    report, _ = run_flow(oshape_l1_clamped, params)
    assert report.converged == (report.last_update_norm <= params.eps_stop)
    assert report.converged


# ---------------------------------------------------------------------------
# step-size safeguard

def test_safeguard_quiet_for_benchmark_presets(recwarn):
    m = pm.generate_rectangle_mesh(3)
    step_size_safeguard(SimulationParams(alpha=2.5, tau=0.125 / 5), m)
    assert not [w for w in recwarn.list if issubclass(w.category, StepSizeWarning)]


def test_safeguard_warns_on_huge_tau():
    m = pm.generate_rectangle_mesh(1)
    with pytest.warns(StepSizeWarning):
        step_size_safeguard(SimulationParams(alpha=0.0, tau=10.0), m)


def test_safeguard_quiet_for_penalized_preset(recwarn):
    m = pm.generate_oshape_mesh(3, "symmetric")
    params = SimulationParams(alpha=0.0, tau=0.125 / 50, eps_penalty=1.25e-1,
                              f=(0.0, 0.0, 2.0e-2), mode="penalized_flow")
    step_size_safeguard(params, m)
    assert not [w for w in recwarn.list if issubclass(w.category, StepSizeWarning)]


def test_safeguard_warns_on_weak_penalty_coupling():
    m = pm.generate_oshape_mesh(1, "symmetric")
    params = SimulationParams(alpha=0.0, tau=0.01, eps_penalty=6.25e-2,
                              f=(0.0, 0.0, 6.0e-3), mode="penalized_flow")
    with pytest.warns(StepSizeWarning):
        step_size_safeguard(params, m)
