from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from plateflow import dkt, mesh as pm
from plateflow.dkt import P2_NODES_BARY, flat_embedding
from plateflow.energy import SimulationParams
from plateflow.flow import GradientFlow

from conftest import (EPS, TRI_QUAD_DEGREE5, CubicEvaluator, bending_stiffness, cylinder_map,
                      discrete_lp_norm, einsum_element_operators, einsum_physical_gradients,
                      einsum_stiffness, expanded_stiffness, interpolate_dkt, isometry_defect,
                      lumped_p1_integral, random_field)

TRI = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]])


def gradient_matrix(tri):
    """12x9 discrete-gradient matrix of one triangle."""
    return dkt._dkt_gradient_matrices(tri[None])[0]


def one_triangle_operators(tri):
    """The element operators of the mesh of one triangle."""
    return dkt.element_operators(pm.build_edge_data(tri, [[0, 1, 2]]))


def unchecked_triangle_mesh(tri):
    """The mesh of one triangle with the corners `tri`, which skips the
    check of mesh construction: a degenerate or clockwise triangle reaches
    the element operators."""
    return replace(pm.build_edge_data(TRI, [[0, 1, 2]]), vertices=np.array(tri, dtype=float))


def scalar_local_dofs(tri, w, grad):
    out = np.zeros(9)
    vals = w(tri)
    g = grad(tri)
    for i in range(3):
        out[3 * i] = vals[i]
        out[3 * i + 1:3 * i + 3] = g[i]
    return out


# ---------------------------------------------------------------------------
# discrete gradient matrix

def test_constant_field_is_annihilated():
    G = gradient_matrix(TRI)
    dofs = np.zeros(9)
    dofs[[0, 3, 6]] = 3.7
    assert np.abs(G @ dofs).max() == 0.0


def test_linear_field_reproduced_exactly():
    G = gradient_matrix(TRI)
    dofs = scalar_local_dofs(TRI, lambda x: x[:, 0],
                             lambda x: np.tile([1.0, 0.0], (len(x), 1)))
    theta = (G @ dofs).reshape(6, 2)
    assert np.allclose(theta, [1.0, 0.0], atol=1e-14)


def test_quadratic_reproduced_at_all_nodes():
    # w = x1^2: reconstruction must return (2 x1, 0) at the six P2 nodes
    G = gradient_matrix(TRI)
    dofs = scalar_local_dofs(TRI, lambda x: x[:, 0]**2,
                             lambda x: np.column_stack([2 * x[:, 0], np.zeros(len(x))]))
    theta = (G @ dofs).reshape(6, 2)
    nodes = P2_NODES_BARY @ TRI
    assert np.allclose(theta[:, 0], 2 * nodes[:, 0], atol=1e-13)
    assert np.allclose(theta[:, 1], 0.0, atol=1e-13)


def test_vertex_rows_select_nodal_gradients():
    rng = np.random.default_rng(3)
    G = gradient_matrix(TRI)
    dofs = rng.standard_normal(9)
    theta = (G @ dofs).reshape(6, 2)
    for i in range(3):
        assert np.allclose(theta[i], dofs[3 * i + 1:3 * i + 3])


def test_orientation_convention_is_irrelevant_for_values():
    # the edge between vertices 1 and 2 of TRI runs 1 -> 2 in TRI and 2 -> 1
    # in the triangle across it; the rows of its midpoint agree bit for bit
    # on the dofs of the two endpoints, and vanish on the opposite vertex
    across = np.array([TRI[2], TRI[1], TRI[1] + TRI[2] - TRI[0]])
    here = gradient_matrix(TRI)[6:8]        # node 3, opposite vertex 0
    there = gradient_matrix(across)[10:12]  # node 5, opposite vertex 2
    assert np.array_equal(here[:, 3:6], there[:, 3:6])
    assert np.array_equal(here[:, 6:9], there[:, 0:3])
    assert not here[:, 0:3].any() and not there[:, 6:9].any()
    assert here[:, 3:].any()


def test_degenerate_triangle_rejected():
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        dkt.element_operators(unchecked_triangle_mesh(bad))


@pytest.mark.parametrize("scale", [1e-7, 1e3])
def test_element_operators_invariant_to_scale(scale):
    # the bending form on the gradient dofs, |grad theta|^2 integrated, does
    # not change when the mesh is scaled: the degeneracy rule is relative to
    # each triangle's size, so tiny and large meshes build alike
    m = pm.generate_rectangle_mesh(1)
    grad_dofs = np.array([1, 2, 4, 5, 7, 8])
    ref = dkt.element_operators(m).bending[:, grad_dofs][:, :, grad_dofs]
    scaled = dkt.element_operators(pm.build_edge_data(scale * m.vertices, m.triangles))
    got = scaled.bending[:, grad_dofs][:, :, grad_dofs]
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    for bad in (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), TRI[[0, 2, 1]]):
        with pytest.raises(ValueError):
            dkt.element_operators(unchecked_triangle_mesh(scale * bad))
        with pytest.raises(pm.MeshError):
            pm.build_edge_data(scale * bad, [[0, 1, 2]])


def test_global_reconstruction_matches_across_shared_edges(rect_l2):
    # theta is a continuous field: the midpoint value of a shared edge must be
    # identical when reconstructed from either adjacent element
    rng = np.random.default_rng(7)
    field = random_field(rect_l2, rng)
    G = dkt._dkt_gradient_matrices(rect_l2.triangle_coords())
    loc = field.dofs[dkt.element_operators(rect_l2).scalar_dof_indices]
    mids = {}
    for f, tri in enumerate(rect_l2.triangles):
        th = (G[f] @ loc[f, 0]).reshape(6, 2)  # first component
        for i in range(3):
            e = tuple(sorted((tri[(i + 1) % 3], tri[(i + 2) % 3])))  # opposite vertex i
            if e in mids:
                assert np.allclose(mids[e], th[3 + i], atol=1e-12)
            else:
                mids[e] = th[3 + i]


# ---------------------------------------------------------------------------
# P2 stiffness

def p2_stiffness_oracle(tri):
    """Exact integration via barycentric monomials: each grad(N) is linear in
    lambda, and  int_T lambda_k lambda_l = |T|/12 * (1 + delta_kl)."""
    ones = np.ones((3, 1))
    A = np.hstack([ones, tri])          # lambda_i(x) = a_i + b_i . x
    coef = np.linalg.inv(A).T           # row i: (a_i, b_i)
    grad_l = coef[:, 1:]                # (3, 2)
    area = 0.5 * abs(np.linalg.det(np.array([tri[1] - tri[0], tri[2] - tri[0]])))
    # grad N_i = sum_k c[i][k] lambda_k with vector coefficients
    c = np.zeros((6, 3, 2))
    for i in range(3):
        c[i, i] = 4.0 * grad_l[i]
        for k in range(3):
            c[i, k] -= grad_l[i]        # the constant -grad(lambda_i)
        j, k = (i + 1) % 3, (i + 2) % 3
        c[3 + i, j] = 4.0 * grad_l[k]
        c[3 + i, k] = 4.0 * grad_l[j]
    S = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            for k in range(3):
                for l in range(3):
                    S[i, j] += c[i, k] @ c[j, l] * (area / 12.0) * (1 + (k == l))
    return S


def test_p2_stiffness_matches_closed_form_oracle():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for tri in (ref, TRI):
        S = dkt._p2_scalar_stiffness_matrices(tri[None])[0]
        assert np.abs(S - p2_stiffness_oracle(tri)).max() < 1e-12


def test_p2_stiffness_properties():
    S = dkt._p2_scalar_stiffness_matrices(TRI[None])[0]
    assert np.abs(S - S.T).max() < 1e-13
    ev = np.linalg.eigvalsh(S)
    assert ev.min() > -1e-12
    # kernel: the constant fields, which each component of theta sees alike
    assert np.abs(S @ np.ones(6)).max() < 1e-13


@pytest.mark.parametrize("domain, pattern, moved", [
    ("oshape", "symmetric", False), ("oshape", "nonsymmetric", False),
    ("rectangle", "symmetric", False), ("rectangle", "nonsymmetric", False),
    ("oshape", "nonsymmetric", True)],
    ids=["oshape-symmetric", "oshape-nonsymmetric", "rectangle-symmetric",
         "rectangle-nonsymmetric", "oshape-rotated-scaled"])
def test_element_operators_match_einsum_reference(domain, pattern, moved):
    # the closed-form stiffness and the batched products give the einsum
    # contractions: D and the P2 gradients bit for bit, the bending blocks
    # and the stiffness to within 1e-15 of each element's largest entry
    generate = pm.generate_oshape_mesh if domain == "oshape" else pm.generate_rectangle_mesh
    m = generate(2, pattern)
    if moved:   # rotated by 0.3 and scaled by 1.7e-3
        rotation = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        m = pm.build_edge_data(1.7e-3 * m.vertices @ rotation.T, m.triangles)
    coords = m.triangle_coords()
    ops = dkt.element_operators(m)
    K9, D = einsum_element_operators(m)
    assert np.array_equal(ops.divergence, D)
    assert (np.abs(ops.bending - K9).max(axis=(1, 2))
            <= 1e-15 * np.abs(K9).max(axis=(1, 2))).all()
    bary = np.vstack([P2_NODES_BARY, TRI_QUAD_DEGREE5[0]])
    assert np.array_equal(dkt._p2_physical_gradients(coords, bary),
                          einsum_physical_gradients(coords, bary))
    S, reference = dkt._p2_scalar_stiffness_matrices(coords), einsum_stiffness(coords)
    assert (np.abs(S - reference).max(axis=(1, 2))
            <= 1e-15 * np.abs(reference).max(axis=(1, 2))).all()
    # symmetric bit for bit, and the constants in the kernel up to rounding
    assert np.array_equal(S, S.transpose(0, 2, 1))
    assert (np.abs(S.sum(axis=2)) <= 2 * EPS * np.abs(S).sum(axis=2)).all()


# ---------------------------------------------------------------------------
# element bending matrix

def test_element_bending_flat_state_zero():
    # the flat map's two in-plane components, x1 and x2, are linear
    K9 = one_triangle_operators(TRI).bending[0]
    for c in range(2):
        y = scalar_local_dofs(TRI, lambda x: x[:, c], lambda x: np.tile(np.eye(2)[c], (len(x), 1)))
        assert abs(y @ K9 @ y) < 1e-12


def test_element_bending_psd_and_block_diagonal():
    m = pm.build_edge_data(TRI, [[0, 1, 2]])
    K = expanded_stiffness(bending_stiffness(m)).toarray()
    assert np.linalg.eigvalsh(K).min() > -1e-12
    # the dofs 9 v + 3 c + k of different components c never couple
    component = np.arange(27) // 3 % 3
    assert not K[component[:, None] != component[None, :]].any()


def test_cylinder_bending_energy_first_order():
    # sum of element energies of the interpolated cylinder approaches
    # alpha^2 |omega| / 2 at first order in h
    alpha = 2.5
    y, grad, _ = cylinder_map(alpha)
    target = 0.5 * alpha**2 * 40.0
    errs = []
    for level in (2, 3):
        m = pm.generate_rectangle_mesh(level)
        ops = dkt.element_operators(m)
        field = interpolate_dkt(m, y, grad)
        loc = field.dofs[ops.scalar_dof_indices]
        energy = 0.5 * np.einsum("fcl,flm,fcm->", loc, ops.bending, loc)
        errs.append(abs(energy - target))
    assert errs[1] < 0.7 * errs[0]
    assert errs[1] < 0.05 * target


# ---------------------------------------------------------------------------
# discrete Laplacian

def test_laplacian_flat_and_linear_zero():
    D = one_triangle_operators(TRI).divergence[0]
    flat = scalar_local_dofs(TRI, lambda x: 0 * x[:, 0], lambda x: np.zeros((len(x), 2)))
    assert np.abs(D @ flat).max() == 0.0
    lin = scalar_local_dofs(TRI, lambda x: 2 * x[:, 0] - x[:, 1],
                            lambda x: np.tile([2.0, -1.0], (len(x), 1)))
    assert np.abs(D @ lin).max() < 1e-13


def test_laplacian_of_squared_radius_is_two():
    dofs = scalar_local_dofs(TRI, lambda x: 0.5 * (x[:, 0]**2 + x[:, 1]**2),
                             lambda x: x)
    lap = one_triangle_operators(TRI).divergence[0] @ dofs
    assert np.allclose(lap, 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# lumped integration and discrete norms

def test_lumped_integral_constant(rect_l2):
    vals = np.full((rect_l2.num_triangles, 3), 2.5)
    assert np.isclose(lumped_p1_integral(rect_l2, vals), 2.5 * 40.0)


def test_lumped_integral_odd_function(rect_l2):
    x1 = rect_l2.vertices[:, 0][rect_l2.triangles]
    assert abs(lumped_p1_integral(rect_l2, x1)) < 1e-12


def test_lumped_integral_exact_for_p1(rect_l2):
    # oracle: integrate the P1 interpolant with the degree-5 quadrature
    rng = np.random.default_rng(11)
    nodal = rng.standard_normal(rect_l2.num_vertices)
    vals = nodal[rect_l2.triangles]
    bary, wq = TRI_QUAD_DEGREE5
    exact = float((rect_l2.triangle_areas
                   * (vals @ bary.T @ wq)).sum())
    assert np.isclose(lumped_p1_integral(rect_l2, vals), exact, atol=1e-13)


def test_discrete_lp_norm_constants(rect_l2):
    vals = np.full((rect_l2.num_triangles, 3), -3.0)
    assert np.isclose(discrete_lp_norm(rect_l2, vals, 2), 3.0 * np.sqrt(40.0))
    assert np.isclose(discrete_lp_norm(rect_l2, vals, np.inf), 3.0)


def test_discrete_l2_vs_consistent_mass(rect_l2):
    # smooth random cubic sampled at the vertices; consistent-mass oracle
    rng = np.random.default_rng(13)
    c = rng.standard_normal(10)
    x = rect_l2.vertices[:, 0] / 5.0
    y = rect_l2.vertices[:, 1] / 2.0
    nodal = (c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x**2 + c[5] * y**2
             + c[6] * x**3 + c[7] * y**3 + c[8] * x**2 * y + c[9] * x * y**2)
    vals = nodal[rect_l2.triangles]
    lumped = discrete_lp_norm(rect_l2, vals, 2)
    # element consistent mass |T|/12 [[2,1,1],[1,2,1],[1,1,2]]
    M = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    consistent = np.sqrt(float(np.einsum(
        "f,fi,ij,fj->", rect_l2.triangle_areas, vals, M, vals)))
    ratio = lumped / consistent
    assert 1 / np.sqrt(2) <= ratio <= np.sqrt(2)


def test_discrete_lp_norm_rejects_p_below_one(rect_l2):
    with pytest.raises(ValueError):
        discrete_lp_norm(rect_l2, np.ones((rect_l2.num_triangles, 3)), 0.5)


# ---------------------------------------------------------------------------
# interpolation

def test_flat_embedding_is_admissible(rect_l2):
    field = flat_embedding(rect_l2)
    assert isometry_defect(field) == 0.0
    assert np.allclose(field.positions()[:, :2], rect_l2.vertices)


def test_cylinder_interpolation_nodal_isometry(rect_l2):
    y, grad, _ = cylinder_map(2.5)
    field = interpolate_dkt(rect_l2, y, grad)
    assert isometry_defect(field) <= 1e-14


def reconstruction_hessians(m, field, bary):
    """Gradient of the reconstructed quadratic field at barycentric points,
    shape (F, npts, 3 comps, 2, 2): rows d, columns e of d(theta_d)/dx_e."""
    loc = field.dofs[dkt.element_operators(m).scalar_dof_indices]
    G6 = dkt._dkt_gradient_matrices(m.triangle_coords()).reshape(-1, 6, 2, 9)
    theta_nodes = np.einsum("fnde,fce->fcnd", G6, loc)     # (F, c, 6, 2)
    dN = dkt._p2_physical_gradients(m.triangle_coords(), bary)  # (F, p, 6, 2)
    return np.einsum("fpne,fcnd->fpcde", dN, theta_nodes)


def test_interpolation_rates_h1_and_hessian():
    # H1 rate of the nodal interpolant ~ h^2; Hessian rate of the
    # reconstructed gradient ~ h
    alpha = 2.5
    y, grad, hess = cylinder_map(alpha)
    bary, wq = TRI_QUAD_DEGREE5
    h1 = []
    h2 = []
    for level in (1, 2, 3):
        m = pm.generate_rectangle_mesh(level)
        field = interpolate_dkt(m, y, grad)
        ev = CubicEvaluator(m, bary)
        pts = np.einsum("pn,fnd->fpd", bary, m.triangle_coords())
        flat_pts = pts.reshape(-1, 2)
        areas = m.triangle_areas
        v_h = ev.values(field)
        v_ex = y(flat_pts).reshape(len(areas), len(wq), 3)
        g_h = ev.gradients(field)
        g_ex = grad(flat_pts).reshape(len(areas), len(wq), 3, 2)
        err2 = ((v_h - v_ex)**2).sum(axis=2) + ((g_h - g_ex)**2).sum(axis=(2, 3))
        h1.append(np.sqrt(float(np.einsum("fp,p,f->", err2, wq, areas))))
        hess_h = reconstruction_hessians(m, field, bary)
        hess_ex = hess(flat_pts).reshape(len(areas), len(wq), 3, 2, 2)
        err2 = ((hess_h - hess_ex)**2).sum(axis=(2, 3, 4))
        h2.append(np.sqrt(float(np.einsum("fp,p,f->", err2, wq, areas))))
    assert h1[0] > h1[1] > h1[2] and h2[0] > h2[1] > h2[2]
    assert min(np.log2(h1[0] / h1[1]), np.log2(h1[1] / h1[2])) >= 1.8
    assert min(np.log2(h2[0] / h2[1]), np.log2(h2[1] / h2[2])) >= 0.8


def test_dofmap_partition(rect_l2_clamped):
    # the flow solves for all 9 dofs of each free vertex and none of a
    # clamped one
    m = rect_l2_clamped
    flow = GradientFlow(m, SimulationParams(tau=0.1))
    free = np.zeros(9 * m.num_vertices, dtype=bool)
    free[flow.free] = True
    assert len(flow.free) == free.sum() == 9 * (m.num_vertices - len(m.dirichlet_vertices))
    assert not free.reshape(-1, 9)[m.dirichlet_vertices].any()
    assert np.array_equal(m.free_vertices, np.setdiff1d(np.arange(m.num_vertices),
                                                        m.dirichlet_vertices))


# ---------------------------------------------------------------------------
# norm equivalence of the reconstruction (stability across levels)

def p2_values(bary):
    bary = np.atleast_2d(bary)
    vals = np.zeros((bary.shape[0], 6))
    for i in range(3):
        vals[:, i] = bary[:, i] * (2 * bary[:, i] - 1)
        j, k = (i + 1) % 3, (i + 2) % 3
        vals[:, 3 + i] = 4 * bary[:, j] * bary[:, k]
    return vals


class SeminormKit:
    """Per-mesh quadrature machinery for comparing the cubic field with its
    quadratic gradient reconstruction.  Everything that does not depend on
    the field is tabulated once."""

    def __init__(self, m):
        bary, self.wq = TRI_QUAD_DEGREE5
        self.m = m
        self.ev = CubicEvaluator(m, bary)
        ops = dkt.element_operators(m)
        self.bending, self.dof_indices = ops.bending, ops.scalar_dof_indices
        self.areas = m.triangle_areas
        self.weights = self.areas[:, None] * self.wq        # (F, npts)
        G6 = dkt._dkt_gradient_matrices(m.triangle_coords()).reshape(-1, 6, 2, 9)
        # local dofs -> theta at the points, (F, npts * 2, 9)
        self.theta_map = np.einsum("pn,fned->fped", p2_values(bary), G6).reshape(
            m.num_triangles, -1, 9)

    def integral(self, squares):
        """Quadrature of squares (F, npts, ...), summed over the trailing axes."""
        return float((squares.reshape(self.weights.shape + (-1,)).sum(axis=2)
                      * self.weights).sum())

    def norms(self, field):
        g = self.ev.gradients(field)                         # (F, p, c, 2)
        h = self.ev.hessians(field)
        loc = field.dofs[self.dof_indices]                   # (F, c, 9)
        theta_q = (self.theta_map @ loc.transpose(0, 2, 1)).reshape(
            g.shape[:2] + (2, -1)).transpose(0, 1, 3, 2)     # (F, p, c, 2)
        bend_elem = ((loc @ self.bending) * loc).sum(axis=(1, 2))
        d = theta_q - g
        diff_elem = np.sqrt((d * d).sum(axis=(2, 3)) @ self.wq * self.areas)
        return dict(grad_w=np.sqrt(self.integral(g * g)), d2_w=np.sqrt(self.integral(h * h)),
                    theta_l2=np.sqrt(self.integral(theta_q * theta_q)),
                    grad_theta=np.sqrt(max(float(bend_elem.sum()), 0.0)),
                    diff_elem=diff_elem, grad_theta_elem=np.sqrt(np.maximum(bend_elem, 0.0)))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_norm_equivalence_bounded_across_levels(level):
    # ratios ||theta|| / ||grad w|| and ||grad theta|| / ||D2 w|| stay in a
    # level-independent interval on random clamped fields
    m = pm.tag_dirichlet_boundary(pm.generate_rectangle_mesh(level),
                                  [((-5.0, -2.0), (-5.0, 2.0))])
    kit = SeminormKit(m)
    rng = np.random.default_rng(100 + level)
    for _ in range(100):
        field = random_field(m, rng, clamp=True)
        n = kit.norms(field)
        assert 0.1 < n["theta_l2"] / n["grad_w"] < 10.0
        assert 0.1 < n["grad_theta"] / n["d2_w"] < 10.0


@pytest.mark.parametrize("level", [1, 2])
def test_reconstruction_defect_first_order(level):
    # || theta - grad w ||_T <= c h_T || grad theta ||_T elementwise
    m = pm.generate_rectangle_mesh(level)
    kit = SeminormKit(m)
    rng = np.random.default_rng(200 + level)
    field = random_field(m, rng)
    n = kit.norms(field)
    mask = n["grad_theta_elem"] > 1e-12
    c = (n["diff_elem"][mask] / (m.h_max * n["grad_theta_elem"][mask])).max()
    assert c < 2.0


def test_seminorm_property_clamped(rect_l2_clamped):
    # ||grad theta(w)|| = 0 with clamped dofs forces w = 0: the bending form
    # restricted to free dofs is positive definite
    m = rect_l2_clamped
    free = (9 * m.free_vertices[:, None] + np.arange(9)).reshape(-1)
    K = expanded_stiffness(bending_stiffness(m))
    K_ff = K[free][:, free]
    # the eigenvalue nearest 0, by shift-invert Lanczos
    ev = eigsh(K_ff.tocsc(), k=1, sigma=0, return_eigenvectors=False)
    assert ev.min() > 1e-10


def test_cubic_evaluator_reproduces_dofs(rect_l2):
    rng = np.random.default_rng(17)
    field = random_field(rect_l2, rng)
    ev = CubicEvaluator(rect_l2, np.eye(3))
    vals = ev.values(field)
    grads = ev.gradients(field)
    nod = field.nodal()[rect_l2.triangles]
    assert np.allclose(vals, nod[:, :, :, 0].transpose(0, 1, 2), atol=1e-9)
    assert np.allclose(grads, nod[:, :, :, 1:], atol=1e-8)
