"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The expensive flow runs are shared
module-scoped fixtures; the whole gate is minutes of runtime.  The published
level-3/4 reproduction rows run only under -m slow.
"""

import numpy as np
import pytest

from plateflow import dkt, energy as en, io as pio, mesh as pm
from plateflow.dkt import DeformationField
from plateflow.energy import SimulationParams
from plateflow.flow import GradientFlow

from conftest import (TRI_QUAD_DEGREE5, CubicEvaluator, curvature_terms, cylinder_map,
                      interpolate_dkt, random_field, random_quadratic, read_report)
from test_dkt import reconstruction_hessians

OSHAPE_CLAMP = [((-5.0, -2.0), (-5.0, -1.0)), ((-5.0, -2.0), (-4.0, -2.0))]

# published benchmark rows: level -> (iterations, energy, delta_iso)
OSHAPE_TABLE = {
    1: (1922, -2.813e-1, 5.181e-1),
    2: (2829, 4.133e-1, 2.388e-1),
    3: (4513, 8.869e-1, 1.119e-1),
    4: (8589, 1.444, 5.247e-2),
}

# outcomes of the obstacle preset, measured by this repository, not
# published: level -> (iterations, energy, delta_iso, delta_pen)
OBSTACLE_TABLE = {
    1: (2368, -6.741e-2, 2.195e-5, 1.527e-2),
    2: (2913, -6.797e-2, 1.976e-5, 1.622e-2),
}


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def oshape_mesh(level):
    return pm.tag_dirichlet_boundary(pm.generate_oshape_mesh(level, "symmetric"),
                                     OSHAPE_CLAMP)


def run_oshape(level, tau_div=5, max_iters=30000):
    h = 2.0 ** -level
    params = SimulationParams(alpha=0.5, tau=h / tau_div, eps_stop=1e-3,
                              max_iters=max_iters)
    return GradientFlow(oshape_mesh(level), params).run()


@pytest.fixture(scope="module")
def oshape_l1_runs():
    """Level-1 runs at tau = h/5, h/10, h/20 (criteria 5, 6, 7)."""
    return {div: run_oshape(1, tau_div=div) for div in (5, 10, 20)}


@pytest.fixture(scope="module")
def oshape_l2_run():
    return run_oshape(2)


@pytest.fixture(scope="module")
def rect_l1_run():
    mesh = pm.tag_dirichlet_boundary(pm.generate_rectangle_mesh(1, "nonsymmetric"),
                                     [((-5.0, -2.0), (-5.0, 2.0))])
    params = SimulationParams(alpha=2.5, tau=0.5 / 5, eps_stop=1e-3, max_iters=1500)
    report, state = GradientFlow(mesh, params).run()
    return mesh, report, state


@pytest.fixture(scope="module")
def penalized_l1_sweep():
    """Penalty sweep at level 1 (criterion 9); its eps = 1.25e-1 member is the
    obstacle preset at level 1."""
    mesh = oshape_mesh(1)
    out = {}
    for eps in (5.0e-1, 2.5e-1, 1.25e-1, 6.25e-2):
        params = SimulationParams(alpha=0.0, tau=0.5 / 50, eps_stop=1e-3,
                                  eps_penalty=eps, f=(0.0, 0.0, 6.0e-3), max_iters=50000)
        out[eps] = GradientFlow(mesh, params).run()
    return out


@pytest.fixture(scope="module")
def penalized_l2_run():
    """Obstacle preset reduced to level 2 (criterion 8)."""
    params = SimulationParams(alpha=0.0, tau=0.25 / 50, eps_stop=1e-3,
                              eps_penalty=1.25e-1, f=(0.0, 0.0, 6.0e-3), max_iters=60000)
    return GradientFlow(oshape_mesh(2), params).run()


# ---------------------------------------------------------------------------

@pytest.mark.acceptance
def test_criterion_1_operator_exactness():
    mesh = pm.generate_rectangle_mesh(2, "symmetric")
    G6 = dkt._dkt_gradient_matrices(mesh.triangle_coords()).reshape(-1, 6, 2, 9)
    nodes = np.einsum("pn,fnd->fpd", dkt.P2_NODES_BARY, mesh.triangle_coords())
    indices = dkt.element_operators(mesh).scalar_dof_indices
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        w, grad = random_quadratic(rng)
        field_dofs = np.zeros((mesh.num_vertices, 3, 3))
        field_dofs[:, 0, 0] = w(mesh.vertices)
        field_dofs[:, 0, 1:] = grad(mesh.vertices)
        field = DeformationField(field_dofs.reshape(-1))
        loc = field.dofs[indices]
        theta = np.einsum("fned,fd->fne", G6, loc[:, 0, :])
        exact = grad(nodes.reshape(-1, 2)).reshape(mesh.num_triangles, 6, 2)
        worst = max(worst, float(np.abs(theta - exact).max()))
    check("1 (reconstruction exact on quadratics)", worst <= 1e-12,
          f"max nodal error {worst:.3e} over 50 random quadratics (tol 1e-12)")


@pytest.mark.acceptance
def test_criterion_2_interpolation_rates():
    y, grad, hess = cylinder_map(2.5)
    bary, wq = TRI_QUAD_DEGREE5
    h1 = []
    h2 = []
    for level in (1, 2, 3, 4):
        m = pm.generate_rectangle_mesh(level)
        field = interpolate_dkt(m, y, grad)
        ev = CubicEvaluator(m, bary)
        areas = m.triangle_areas
        pts = np.einsum("pn,fnd->fpd", bary, m.triangle_coords()).reshape(-1, 2)
        v_err = ev.values(field) - y(pts).reshape(len(areas), len(wq), 3)
        g_err = ev.gradients(field) - grad(pts).reshape(len(areas), len(wq), 3, 2)
        err2 = (v_err**2).sum(axis=2) + (g_err**2).sum(axis=(2, 3))
        h1.append(np.sqrt(float(np.einsum("fp,p,f->", err2, wq, areas))))
        hess_err = (reconstruction_hessians(m, field, bary)
                    - hess(pts).reshape(len(areas), len(wq), 3, 2, 2))
        err2 = (hess_err**2).sum(axis=(2, 3, 4))
        h2.append(np.sqrt(float(np.einsum("fp,p,f->", err2, wq, areas))))
    r1 = min(np.log2(h1[i] / h1[i + 1]) for i in range(3))
    r2 = min(np.log2(h2[i] / h2[i + 1]) for i in range(3))
    check("2 (interpolation rates)", r1 >= 1.8 and r2 >= 0.8,
          f"H1 rate {r1:.2f} (>= 1.8), reconstructed-Hessian rate {r2:.2f} (>= 0.8)")


@pytest.mark.acceptance
def test_criterion_3_gradient_oracle():
    mesh = pm.generate_rectangle_mesh(2)
    rng = np.random.default_rng(31)
    field = random_field(mesh, rng, scale=0.5)
    alpha = 1.7
    r = curvature_terms(mesh, field, alpha)[1]
    step = 1e-4 * np.abs(field.dofs).max()
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(field.dofs.size)
        w /= np.linalg.norm(w)
        fp = DeformationField(field.dofs + step * w)
        fm = DeformationField(field.dofs - step * w)
        fd = (curvature_terms(mesh, fp, alpha)[0]
              - curvature_terms(mesh, fm, alpha)[0]) / (2 * step)
        worst = max(worst, abs(fd - r @ w) / max(abs(fd), 1.0))
    check("3 (assembled derivative vs finite differences)", worst <= 1e-6,
          f"max relative error {worst:.3e} over 20 directions (tol 1e-6)")


@pytest.mark.acceptance
def test_criterion_4_stationarity():
    mesh = pm.tag_dirichlet_boundary(pm.generate_rectangle_mesh(1),
                                     [((-5.0, -2.0), (-5.0, 2.0))])
    params = SimulationParams(alpha=0.0, tau=0.1, eps_stop=1e-3, max_iters=10)
    report, _ = GradientFlow(mesh, params).run()
    check("4 (flat plate stationary)",
          report.iterations == 1 and report.last_update_norm <= 1e-12,
          f"{report.iterations} iteration(s), update norm {report.last_update_norm:.2e}")


def _check_table_row(tag, report, level):
    iters, e_tab, d_tab = OSHAPE_TABLE[level]
    e = report.energy_with_mismatch_constant
    ok_e = abs(e - e_tab) <= 0.05 * abs(e_tab)
    ok_d = abs(report.delta_iso - d_tab) <= 0.15 * abs(d_tab)
    ok_i = abs(report.iterations - iters) <= 0.25 * iters
    check(tag, report.converged and ok_e and ok_d and ok_i,
          f"iters {report.iterations} (ref {iters} ±25%), "
          f"energy {e:.4e} (ref {e_tab:.4e} ±5%), "
          f"delta_iso {report.delta_iso:.4e} (ref {d_tab:.4e} ±15%)")


def _check_printed_row(tag, run, row):
    """A row of `OSHAPE_TABLE` or `OBSTACLE_TABLE` to its printed digits: the
    exact iteration count, and the energy, delta_iso and (in an obstacle row)
    delta_pen as the row prints them (:.3e).  The detail gives the margins:
    how far each value lies inside the interval that rounds to its printed
    digits, and how far the last two update norms lie on either side of
    eps_stop, relative to it."""
    report, state = run
    eps_stop = 1e-3  # as in run_oshape and the penalized runs
    iters, *published = row
    values = (report.energy_with_mismatch_constant, report.delta_iso, report.delta_pen)
    ok = report.converged and report.iterations == iters
    details = [f"iters {report.iterations} (ref {iters})"]
    for name, value, ref in zip(("energy", "delta_iso", "delta_pen"), values, published):
        ok &= f"{value:.3e}" == f"{ref:.3e}"
        margin = 0.5 * 10.0 ** (np.floor(np.log10(abs(ref))) - 3) - abs(value - ref)
        details.append(f"{name} {value:.6e} (ref {ref:.3e}, margin {margin:.2e})")
    before, last = (record.update_norm for record in state.history[-2:])
    details.append(f"last update norms {(before - eps_stop) / eps_stop:.2e} above and "
                   f"{(eps_stop - last) / eps_stop:.2e} below eps_stop")
    check(tag, ok, ", ".join(details))


@pytest.mark.acceptance
def test_criterion_5_oshape_level1(oshape_l1_runs, tmp_path):
    report, _ = oshape_l1_runs[5]
    _check_table_row("5a (O-shape level 1 vs published row)", report, 1)
    # the written report carries the same row
    pio.write_report(report, tmp_path / "report.txt", {"experiment": "oshape"})
    back = read_report(tmp_path / "report.txt")
    assert abs(int(back["iterations"]) - 1922) <= 0.25 * 1922
    assert back["termination_reason"] == "converged"


@pytest.mark.acceptance
def test_criterion_5_oshape_level2(oshape_l2_run):
    report, _ = oshape_l2_run
    _check_table_row("5b (O-shape level 2 vs published row)", report, 2)


@pytest.mark.acceptance
def test_criterion_5_oshape_level1_printed_digits(oshape_l1_runs):
    _check_printed_row("5c (O-shape level 1, printed digits)", oshape_l1_runs[5],
                       OSHAPE_TABLE[1])


@pytest.mark.acceptance
def test_criterion_5_oshape_level2_printed_digits(oshape_l2_run):
    _check_printed_row("5d (O-shape level 2, printed digits)", oshape_l2_run, OSHAPE_TABLE[2])


@pytest.mark.acceptance
def test_criterion_6_tau_linearity(oshape_l1_runs, oshape_l2_run):
    d = {div: oshape_l1_runs[div][0].delta_iso for div in (5, 10, 20)}
    r1 = d[5] / d[10]
    r2 = d[10] / d[20]
    check("6 (isometry error linear in tau)",
          1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4,
          f"halving ratios {r1:.2f}, {r2:.2f} (required within [1.6, 2.4])")
    # constant of the violation bound delta_iso <= C tau |log h_min| E0:
    # stable over the tau sweep, and the coarse-level constant bounds the
    # finer level
    log1 = abs(np.log(oshape_mesh(1).h_min))
    cs = [d[div] / ((2.0**-1 / div) * log1 * 6.0) for div in (5, 10, 20)]
    assert max(cs) / min(cs) <= 1.5
    c2 = oshape_l2_run[0].delta_iso / ((2.0**-2 / 5) * abs(np.log(oshape_mesh(2).h_min)) * 6.0)
    assert c2 <= max(cs)


@pytest.mark.acceptance
def test_criterion_7_energy_decay(oshape_l1_runs, oshape_l2_run, rect_l1_run):
    worst = -np.inf
    runs = [(oshape_l1_runs[div], 2.0**-1 / div) for div in (5, 10, 20)]
    runs.append((oshape_l2_run, 2.0**-2 / 5))
    runs.append(((rect_l1_run[1], rect_l1_run[2]), 2.0**-1 / 5))
    for (report, state), tau in runs:
        e = np.array([rec.energy for rec in state.history])
        worst = max(worst, float(np.diff(e).max()))
        # dissipation-sum form of the decay bound with measured slack 1/2:
        # E_L + (1 - theta) tau sum ||d_t y||^2 <= E_0
        dissip = tau * sum(rec.update_norm**2 for rec in state.history)
        assert e[-1] + 0.5 * dissip <= report.initial_energy + 1e-8
    check("7 (per-step energy decay)", worst <= 1e-10,
          f"largest per-step energy increase {worst:.3e} (tol 1e-10) over 5 runs")


@pytest.mark.acceptance
def test_criterion_8_penalized_lyapunov(penalized_l2_run):
    report, state = penalized_l2_run
    e = np.array([rec.energy for rec in state.history])
    worst = float(np.diff(e).max())
    check("8 (penalized Lyapunov decay, level 2)",
          report.converged and worst <= 1e-10,
          f"{report.iterations} iterations, largest increase of E+P {worst:.3e}")


@pytest.mark.acceptance
def test_criterion_8_obstacle_level2_printed_digits(penalized_l2_run):
    _check_printed_row("8b (obstacle level 2, measured row)", penalized_l2_run,
                       OBSTACLE_TABLE[2])


@pytest.mark.acceptance
def test_criterion_9_obstacle_level1_printed_digits(penalized_l1_sweep):
    # the eps = 1.25e-1 member of the sweep is the obstacle preset at level 1
    _check_printed_row("9b (obstacle level 1, measured row)", penalized_l1_sweep[1.25e-1],
                       OBSTACLE_TABLE[1])


@pytest.mark.acceptance
def test_criterion_9_penetration_scaling(penalized_l1_sweep):
    eps = np.array(sorted(penalized_l1_sweep, reverse=True))
    dpen = np.array([penalized_l1_sweep[e][0].delta_pen for e in eps])
    decreasing = bool((np.diff(dpen) < 0).all())
    slope = np.polyfit(np.log(eps), np.log(dpen), 1)[0]
    check("9 (penetration shrinks with eps)", decreasing and slope >= 0.25,
          f"delta_pen {', '.join(f'{v:.3e}' for v in dpen)} over eps sweep; "
          f"fitted exponent {slope:.2f} (>= 0.25)")


@pytest.mark.acceptance
def test_criterion_10_rectangle_smoke(rect_l1_run, oshape_l1_runs, tmp_path):
    mesh, report, state = rect_l1_run
    hist = state.history
    e = np.array([rec.energy for rec in hist])
    d = np.array([rec.delta_iso for rec in hist])
    monotone = float(np.diff(e).max()) <= 1e-10 and (np.diff(d) >= -1e-12).all()

    # defect growth bounded via the constant measured on the O-shape runs:
    # C = delta_iso / (tau |log h_min| E0), with E0 the flat-start energy
    # scale alpha^2 |omega|
    o_mesh = oshape_mesh(1)
    consts = [oshape_l1_runs[div][0].delta_iso
              / ((2.0**-1 / div) * abs(np.log(o_mesh.h_min)) * 6.0)
              for div in (5, 10, 20)]
    c6 = max(consts)
    bound = c6 * 0.1 * abs(np.log(mesh.h_min)) * (2.5**2 * 40.0)
    bounded = report.delta_iso <= bound

    pos = state.y.positions()
    curled = pos[:, 2].max() > 1.0 and pos[:, 0].max() < 4.0

    vtk = tmp_path / "rect_smoke.vtk"
    pio.write_vtk_surface(state.y, mesh, vtk, 1.0)
    written = vtk.exists() and vtk.read_text().startswith("# vtk DataFile")

    check("10 (rectangle desk-scale smoke)",
          monotone and bounded and curled and written,
          f"monotone={monotone}, delta_iso {report.delta_iso:.2f} <= bound {bound:.2f}, "
          f"curl proxies max_y3={pos[:, 2].max():.2f} (> 1), "
          f"max_y1={pos[:, 0].max():.2f} (< 4), vtk_written={written}")


# ---------------------------------------------------------------------------
# optional long-running reproduction of the published level-3/4 rows

@pytest.mark.slow
@pytest.mark.acceptance
@pytest.mark.parametrize("level", [3, 4])
def test_criterion_10_slow_oshape_rows(level):
    run = run_oshape(level)
    _check_table_row(f"10-slow (O-shape level {level} vs published row)", run[0], level)
    _check_printed_row(f"10-slow (O-shape level {level}, printed digits)", run,
                       OSHAPE_TABLE[level])
