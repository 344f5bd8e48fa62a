from dataclasses import replace

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cholesky_banded
from scipy.spatial import Delaunay

from plateflow import constraints, energy, flow as flow_module, linsolve, mesh as pm
from plateflow.dkt import flat_embedding, vertex_lumped_masses
from plateflow.energy import SimulationParams
from plateflow.flow import GradientFlow, StepSizeWarning, step_size_safeguard
from plateflow.presets import RunConfig, resolve

from conftest import (dense_basis, expanded_stiffness, flat_update_rounding_scale, isometry_defect,
                      obstacle_penetration, penalty_energy, penalty_rhs, random_field,
                      reduced_matrix, stored_lower, tangent_basis, total_energy)


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
    flow = GradientFlow(oshape_l1_clamped, params)
    free = oshape_l1_clamped.free_vertices
    state = flow.initial_state()
    energies = [state.energy]
    for _ in range(60):
        previous, state = state, flow.step(state)
        energies.append(state.energy)
        assert state.constraint_residual <= 1e-10
        # telescoping identity at every free vertex: the constrained solve
        # kills the mixed term, so the Gram matrix of grad(y) grows by that of
        # the increment, G(y^k) = G(y^(k-1)) + G(y^k - y^(k-1))
        g0 = previous.y.gradients()[free]
        g1 = state.y.gradients()[free]
        gd = g1 - g0
        lhs = np.einsum("vci,vcj->vij", g1, g1)
        rhs = np.einsum("vci,vcj->vij", g0, g0) + np.einsum("vci,vcj->vij", gd, gd)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())
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
    K = expanded_stiffness(flow.K)
    for k in range(500):
        state = flow.step(state)
        if k % 25 == 0:
            norm = np.sqrt(max(state.y.dofs @ (K @ state.y.dofs), 0.0))
            assert norm <= 10.0 * scale


def test_delta_iso_monotone_nondecreasing(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=50)
    report, state = GradientFlow(oshape_l1_clamped, params).run()
    d = [rec.delta_iso for rec in state.history]
    assert all(d[i + 1] >= d[i] - 1e-12 for i in range(len(d) - 1))


def test_max_iters_reason(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=1)
    report, _ = GradientFlow(oshape_l1_clamped, params).run()
    assert report.termination_reason == "max_iters"
    assert report.iterations == 1


def test_degeneracy_detected(oshape_l1_clamped):
    # a field with vanishing nodal gradients cannot span the tangent space
    m = oshape_l1_clamped
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=5)
    y0 = flat_embedding(m)
    y0.nodal()[:, :, 1:] = 0.0
    report, _ = GradientFlow(m, params).run(y0)
    assert report.termination_reason == "degeneracy"
    assert "min singular value" in report.termination_detail


def test_solver_failure_reported(oshape_l1_clamped, monkeypatch):
    from plateflow.linsolve import SaddleSolveError

    def boom(*a, **k):
        raise SaddleSolveError("synthetic failure")

    monkeypatch.setattr(linsolve.TangentSystem, "solve", boom)
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=5)
    report, _ = GradientFlow(oshape_l1_clamped, params).run()
    assert report.termination_reason == "solver_failure"
    assert "synthetic failure" in report.termination_detail


def test_penalized_flat_stationary(oshape_l1_clamped):
    # below the obstacle, with alpha = 0 and f = 0, the explicit penalty terms
    # cancel exactly and the flat state is stationary
    params = SimulationParams(alpha=0.0, tau=0.01, eps_stop=1e-3, max_iters=5,
                              eps_penalty=0.125)
    flow = GradientFlow(oshape_l1_clamped, params)
    report, state = flow.run()
    assert report.termination_reason == "converged"
    assert report.iterations == 1
    assert report.last_update_norm <= flat_update_rounding_scale(flow)


def test_explicit_rhs_without_curvature_is_the_penalty_rhs(oshape_l1_clamped):
    # alpha = 0 skips the curvature pass: the explicit rhs of a step is then
    # exactly the penalty rhs, above and below the obstacle
    m = oshape_l1_clamped
    params = SimulationParams(alpha=0.0, tau=0.01, eps_penalty=0.125)
    flow = GradientFlow(m, params)
    y = random_field(m, np.random.default_rng(157), scale=2.0)
    assert (y.positions()[:, 2] > 1.0).any() and (y.positions()[:, 2] < 1.0).any()
    rhs = flow.initial_state(y).explicit_rhs
    assert np.array_equal(rhs, penalty_rhs(m, y, params.eps_penalty))


@pytest.mark.parametrize("eps_penalty", [None, 0.125], ids=["isometry_flow", "penalized_flow"])
def test_states_carry_the_energies_of_their_iterates(eps_penalty, oshape_l1_clamped):
    # the initial state and a stepped one both hold E + penalty, the penalty,
    # the penetration and the isometry defect of their own iterate
    m = oshape_l1_clamped
    params = SimulationParams(alpha=0.5, tau=0.01, eps_penalty=eps_penalty,
                              f=(0.0, 0.0, 6.0e-3))
    flow = GradientFlow(m, params)
    y = random_field(m, np.random.default_rng(163), scale=0.2)
    y.dofs[:] += flat_embedding(m).dofs
    y.nodal()[:, 2, 0] += 1.0      # about half the vertices above the obstacle
    state = flow.initial_state(y)
    for k in (0, 1):
        assert state.k == k
        pen = penalty_energy(m, state.y, eps_penalty) if eps_penalty else 0.0
        assert (pen > 0) == (eps_penalty is not None)
        assert state.penalty_energy == pen
        assert state.delta_pen == (obstacle_penetration(state.y) if eps_penalty else 0.0)
        assert state.delta_iso == isometry_defect(state.y)
        expected = total_energy(m, state.y, params, K=expanded_stiffness(flow.K)) + pen
        assert abs(state.energy - expected) <= 1e-12 * max(abs(expected), 1.0)
        state = flow.step(state)


def test_penalized_lyapunov_decay_short(oshape_l1_clamped):
    params = SimulationParams(alpha=0.0, tau=0.01, eps_stop=1e-3, max_iters=250,
                              eps_penalty=0.25, f=(0.0, 0.0, 6.0e-3))
    # tau = 0.01 exceeds c_f eps = 1.5e-3: the splitting decays regardless
    report, state = GradientFlow(oshape_l1_clamped, params).run()
    e = [rec.energy for rec in state.history]
    assert all(e[i + 1] <= e[i] + 1e-10 for i in range(len(e) - 1))
    assert state.history[-1].penalty_energy >= 0.0


@pytest.mark.parametrize("case", ["oshape-level4", "cantilever-vertical-load"])
def test_steps_meet_solver_contract(case, rect_l2_clamped):
    # cases a residual bound relative to the right-hand side alone cannot
    # meet: from the flat state the level-4 right-hand side is tiny, and a
    # vertical load drives the soft modes of the cantilever
    if case == "oshape-level4":
        run = resolve(RunConfig(experiment="oshape", level=4, max_iters=2))
        flows = [(GradientFlow(run.mesh, run.params), run.initial)]
    else:
        flows = [(GradientFlow(rect_l2_clamped,
                               SimulationParams(alpha=0.0, tau=0.1, f=f, max_iters=1)), None)
                 for f in ((0.0, 0.0, 1e-3), (0.0, 0.0, 1.0))]
    for flow, y0 in flows:
        steps = flow.params.max_iters
        report, state = flow.run(y0)
        assert report.termination_reason == "max_iters"
        assert report.iterations == steps
        assert state.update_norm > 0 and state.constraint_residual <= 1e-12


# the data a state holds for the next step, and its values
STATE_DATA = ("energy", "Ky", "explicit_rhs", "basis", "min_singular_value", "delta_iso")


def preset_flow(experiment):
    run = resolve(RunConfig(experiment=experiment, level=1))
    return GradientFlow(run.mesh, run.params), run.initial


@pytest.mark.parametrize("experiment", ["oshape", "obstacle"])
def test_stepped_state_is_the_state_of_its_iterate(experiment):
    # a state depends on its iterate alone, not on the steps that reached
    # it: evaluating the iterate of 50 steps afresh gives the stepped state
    flow, y0 = preset_flow(experiment)
    state = flow.initial_state(y0)
    for _ in range(50):
        state = flow.step(state)
    fresh = flow.initial_state(state.y)
    for name in STATE_DATA:
        assert np.array_equal(getattr(fresh, name), getattr(state, name)), name


@pytest.mark.parametrize("experiment", ["oshape", "obstacle"])
def test_step_leaves_its_state_unchanged(experiment):
    # stepping one state twice gives the same state bit for bit, and leaves
    # the state's field and history as they were
    flow, y0 = preset_flow(experiment)
    state = flow.step(flow.step(flow.initial_state(y0)))
    dofs, history = state.y.dofs.copy(), list(state.history)
    first, second = flow.step(state), flow.step(state)
    assert state.history == history
    assert np.array_equal(state.y.dofs, dofs)
    assert np.array_equal(first.y.dofs, second.y.dofs)
    for name in STATE_DATA + ("k", "update_norm", "constraint_residual", "delta_pen"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


@pytest.mark.parametrize("experiment", ["oshape", "obstacle"])
def test_each_iterate_reads_its_frames_once(monkeypatch, experiment):
    # one pass over the nodal frames serves the defect, the curvature
    # normals and the basis: one call for the initial state and one per step
    calls, frames = [], constraints.nodal_frames

    def counted(*args):
        calls.append(args)
        return frames(*args)

    for module in (constraints, flow_module):
        monkeypatch.setattr(module, "nodal_frames", counted)
    flow, y0 = preset_flow(experiment)
    state = flow.initial_state(y0)
    assert len(calls) == 1
    flow.step(state)
    assert len(calls) == 2


class CountedStiffness:
    """The scalar stiffness K_s of a flow, counting its products."""

    def __init__(self, K):
        self.K, self.products = K, 0
        self.shape = K.shape

    def __matmul__(self, x):
        self.products += 1
        return self.K @ x


@pytest.mark.parametrize("experiment", ["oshape", "obstacle"])
def test_each_step_makes_one_stiffness_product(experiment):
    # a step takes K y of the next iterate and K d from one product with
    # K_s, and hands K y to the next state: one product for the initial
    # state and one per step
    flow, y0 = preset_flow(experiment)
    flow.K = CountedStiffness(flow.K)
    state = flow.initial_state(y0)
    assert flow.K.products == 1
    for products in (2, 3):
        state = flow.step(state)
        assert flow.K.products == products


@pytest.mark.parametrize("level", [1, 2, 3])
def test_flow_orders_tangent_system(level):
    # the flow numbers the free vertices once, in a band order, and every
    # step factors R on its envelope: the order is a permutation of the free
    # vertices, and the stored columns hold every entry of R's lower triangle
    run = resolve(RunConfig(experiment="oshape", level=level))
    flow = GradientFlow(run.mesh, run.params)
    free = run.mesh.free_vertices
    assert np.array_equal(np.sort(flow.free_vertices), free)
    assert np.array_equal(np.sort(flow.free), (9 * free[:, None] + np.arange(9)).reshape(-1))
    factorization = flow.system._factorize
    assert isinstance(factorization, linsolve._BandCholesky)
    Q = tangent_basis(run.initial.gradients()[flow.free_vertices])[0]
    R = reduced_matrix(flow.system, flow.system.assemble(Q)).tocoo()
    assert factorization.segments[-1][1] == R.shape[0]
    column_ld = np.concatenate([np.full(end - first, ld)
                                for first, end, ld in factorization.segments])
    assert (R.row - R.col <= column_ld[R.col]).all()
    y = flow.step(flow.initial_state(run.initial)).y
    assert np.isfinite(y.dofs).all()


@pytest.mark.parametrize("experiment", ["oshape", "obstacle"])
def test_set_up_sums_the_vertex_pairs_once(monkeypatch, experiment):
    # one pass over the element blocks feeds both K and the step system,
    # whose pairs and blocks are those of a direct sum over the free
    # vertices, triangle by triangle, scaled by 1 + tau, bit for bit
    calls, pair_blocks = [], linsolve.vertex_pair_blocks

    def counted(*args):
        calls.append(args)
        return pair_blocks(*args)

    for module in (linsolve, energy, flow_module):
        monkeypatch.setattr(module, "vertex_pair_blocks", counted, raising=False)
    run = resolve(RunConfig(experiment=experiment, level=1))
    mesh, tau = run.mesh, run.params.tau
    flow = GradientFlow(mesh, run.params)
    assert len(calls) == 1

    free = set(mesh.free_vertices.tolist())
    direct = {}
    for f, tri in enumerate(mesh.triangles.tolist()):
        for a, i in enumerate(tri):
            for b, j in enumerate(tri):
                if i in free and j in free:
                    block = flow.ops.bending[f, 3 * a:3 * a + 3, 3 * b:3 * b + 3]
                    direct[i, j] = direct.get((i, j), 0.0) + block
    system = flow.system
    rank = {v: r for r, v in enumerate(system.vertices.tolist())}
    expected = sorted((rank[i], rank[j]) for i, j in direct if rank[i] <= rank[j])
    assert sorted(zip(system._rows.tolist(), system._cols.tolist())) == expected
    vertices = system.vertices
    blocks = np.empty((len(system._rows), 3, 3))
    blocks[:, :1, 0] = system._S_value
    blocks[:, 1:, 0] = system._S_column[:, 0]
    blocks[:, :, 1:] = system._S_gradient
    for r, c, block in zip(system._rows, system._cols, blocks):
        assert np.array_equal(block, (1.0 + tau) * direct[vertices[r], vertices[c]])


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("experiment", ["oshape", "rectangle"])
def test_envelope_factor_matches_dense_cholesky(experiment, level):
    # the factor in the envelope storage, which each panel updates only on
    # the rows its envelope reaches, equals LAPACK's Cholesky factor of the
    # oracle R, and that factor has no entry below the rows the plan lets a
    # panel reach.  At level 3 a dense R would take 843 MB, so the band
    # Cholesky of R's whole band stands in for the dense one there.
    run = resolve(RunConfig(experiment=experiment, level=level))
    flow = GradientFlow(run.mesh, run.params)
    factorization = flow.system._factorize
    Q = tangent_basis(run.initial.gradients()[flow.free_vertices])[0]
    values = flow.system.assemble(Q)
    R = reduced_matrix(flow.system, values)
    N = R.shape[0]
    if level < 3:
        L = sp.csc_matrix(np.linalg.cholesky(R.toarray()))
    else:
        entries = R.tocoo()
        kd = (entries.row - entries.col).max()
        band = np.array([np.pad(R.diagonal(-offset), (0, offset)) for offset in range(kd + 1)])
        band = cholesky_banded(band, lower=True)
        L = sp.diags([band[offset, :N - offset] for offset in range(kd + 1)],
                     -np.arange(kd + 1), format="csc")
    factorization(values)
    band_factor = stored_lower(factorization)
    assert spla.norm(band_factor - L) <= 1e-12 * spla.norm(L)
    last_row = np.concatenate([np.full(w, c + w + m - 1) for c, w, m in factorization.plan])
    entries = L.tocoo()
    assert (entries.row[entries.data != 0] <= last_row[entries.col[entries.data != 0]]).all()


@pytest.mark.parametrize("experiment", ["oshape", "rectangle"])
def test_factorization_chosen_from_the_pattern(experiment):
    # levels 1-4 are factored as a band; a system rebuilt from copies of its
    # inputs takes the same order
    for level in (1, 2, 3, 4):
        run = resolve(RunConfig(experiment=experiment, level=level))
        mesh = run.mesh
        flow = GradientFlow(mesh, run.params)
        assert isinstance(flow.system._factorize, linsolve._BandCholesky), level
        rows, cols, blocks = linsolve.vertex_pair_blocks(mesh.triangles.copy(),
                                                         flow.ops.bending.copy())
        again = linsolve.TangentSystem((rows, cols, (1.0 + run.params.tau) * blocks),
                                       mesh.free_vertices.copy())
        assert isinstance(again._factorize, linsolve._BandCholesky)
        assert np.array_equal(again.vertices, flow.free_vertices)


@pytest.mark.parametrize("level", [3, 4])
def test_envelope_storage_is_smaller_than_the_band(level):
    # built from the pattern alone, without a factorization: the storage
    # holds exactly the segments of the plan, fewer doubles than a band
    # whose every column is as deep as the deepest segment, and every
    # trailing block of a panel lies in its own segment and the next
    mesh = resolve(RunConfig(experiment="oshape", level=level)).mesh
    free = mesh.free_vertices
    pairs = linsolve.vertex_pair_blocks(mesh.triangles, np.zeros((len(mesh.triangles), 9, 9)))
    system = linsolve.TangentSystem(pairs, free)
    factorization = system._factorize
    segments = factorization.segments
    N = 6 * len(free)
    assert factorization._store.size == sum((end - first) * (ld + 1)
                                            for first, end, ld in segments)
    assert factorization._store.size < N * (max(ld for _, _, ld in segments) + 1)
    ends = np.array([end for _, end, _ in segments])
    for c, w, m in factorization.plan:
        k = np.searchsorted(ends, c, side="right")
        assert c + w + m <= ends[min(k + 1, len(ends) - 1)]


@pytest.mark.parametrize("panel", [6, 12, 24, 48])
def test_envelope_plan_fits_the_leading_dimensions(monkeypatch, panel):
    # at every panel width, on the preset meshes at levels 0-3, each kernel
    # call of a panel fits the leading dimension of the segment it writes:
    # the dense view of the panel its own segment's, and the part of its
    # trailing block past the segment's end the next segment's, the
    # N <= LDC that `dsyrk` asks for there
    monkeypatch.setattr(linsolve, "_PANEL", panel)
    for experiment in ("oshape", "rectangle", "obstacle"):
        for level in range(4):
            mesh = resolve(RunConfig(experiment=experiment, level=level)).mesh
            pairs = linsolve.vertex_pair_blocks(mesh.triangles,
                                                np.zeros((len(mesh.triangles), 9, 9)))
            factorization = linsolve.TangentSystem(pairs, mesh.free_vertices)._factorize
            start, end, ld = np.array(factorization.segments).T
            for c, w, m in factorization.plan:
                k = np.searchsorted(start, c, side="right") - 1
                assert max(w, w + m - 1) <= ld[k], (experiment, level, c)
                past = c + w + m - max(c + w, end[k])
                if past > 0:
                    assert past <= ld[k + 1], (experiment, level, c)


def delaunay_rectangle(seed):
    """The Delaunay triangulation of 60-400 random points in the rectangle
    (-5, 5) x (-2, 2) and 56 points on its boundary, clamped on its left edge."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 400))
    inner = np.column_stack([rng.uniform(-4.9, 4.9, n), rng.uniform(-1.9, 1.9, n)])
    x, y = np.linspace(-5.0, 5.0, 21), np.linspace(-2.0, 2.0, 9)[1:-1]
    boundary = np.concatenate([np.column_stack([x, np.full(21, s)]) for s in (-2.0, 2.0)]
                              + [np.column_stack([np.full(7, s), y]) for s in (-5.0, 5.0)])
    points = np.concatenate([boundary, inner])
    triangles = Delaunay(points).simplices
    a, b, c = (points[triangles[:, i]] for i in range(3))
    clockwise = (b - a)[:, 0] * (c - a)[:, 1] < (b - a)[:, 1] * (c - a)[:, 0]
    triangles[clockwise] = triangles[clockwise][:, ::-1]
    mesh = pm.build_edge_data(points, triangles)
    return pm.tag_dirichlet_boundary(mesh, [((-5.0, -2.0), (-5.0, 2.0))])


@pytest.mark.parametrize("seed", [25, 72, 153])
def test_unstructured_meshes_take_their_steps(seed):
    # the three of 200 seeded Delaunay rectangles on which a trailing block
    # crossing a segment boundary once reached deeper than the next
    # segment's leading dimension, and the factorization failed
    flow = GradientFlow(delaunay_rectangle(seed), SimulationParams(alpha=1.0, tau=0.02,
                                                                   max_iters=3))
    report, _ = flow.run()
    assert report.termination_reason == "max_iters", report.termination_detail
    assert report.iterations == 3


@pytest.mark.parametrize("eps_penalty", [None, 0.125], ids=["isometry_flow", "penalized_flow"])
def test_blockwise_step_matrix_matches_dense_product(eps_penalty, oshape_l1_clamped):
    # the reduced matrix a step factors equals Z^T A_ff Z with the dense
    # A = (1 + tau) K (+ tau/eps M3) and Z from the kernel blocks
    m = oshape_l1_clamped
    params = SimulationParams(alpha=0.5, tau=0.1, eps_penalty=eps_penalty)
    flow = GradientFlow(m, params)
    A = (1.0 + params.tau) * expanded_stiffness(flow.K).toarray()
    if params.penalized:
        values = 9 * np.arange(m.num_vertices) + 6   # third component, value
        A[values, values] += params.tau / params.eps_penalty * vertex_lumped_masses(m)
    A_ff = A[np.ix_(flow.free, flow.free)]
    y = random_field(m, np.random.default_rng(149))
    Q, _ = tangent_basis(y.gradients()[flow.free_vertices])
    R = reduced_matrix(flow.system, flow.system.assemble(Q))
    Z = dense_basis(Q)
    expected = Z.T @ A_ff @ Z
    assert np.abs(R.toarray() - expected).max() <= 1e-14 * np.abs(expected).max()
    # and so does the product that the residual of a step takes from the blocks
    x = np.random.default_rng(151).standard_normal(len(expected))
    scale = np.abs(expected).sum(axis=1).max() * np.abs(x).max()
    assert np.abs(flow.system._product(x) - expected @ x).max() <= 1e-14 * scale


def test_history_record_schema(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=3)
    report, state = GradientFlow(oshape_l1_clamped, params).run()
    assert len(state.history) == 3
    ks = [rec.k for rec in state.history]
    assert ks == [1, 2, 3]


def test_report_converged_iff_update_below_threshold(oshape_l1_clamped):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=2500)
    report, _ = GradientFlow(oshape_l1_clamped, params).run()
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
                              f=(0.0, 0.0, 2.0e-2))
    step_size_safeguard(params, m)
    assert not [w for w in recwarn.list if issubclass(w.category, StepSizeWarning)]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_obstacle_preset_flow_emits_no_step_size_warning(level):
    # the published obstacle runs (tau = h/50) raise no step-size warning:
    # the penalty's convex-concave splitting needs no step-size condition
    run = resolve(RunConfig(experiment="obstacle", level=level))
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepSizeWarning)
        GradientFlow(run.mesh, run.params)
