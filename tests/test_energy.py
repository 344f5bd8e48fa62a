import numpy as np
import pytest

from plateflow import dkt, energy as en, mesh as pm
from plateflow.dkt import flat_embedding
from plateflow.energy import SimulationParams

from conftest import (EPS, bending_stiffness, coo_bending_stiffness, curvature_terms,
                      cylinder_map, expanded_stiffness, flat_energy_rounding_scale,
                      interpolate_dkt,
                      lumped_p1_integral, nonlinear_energy_term, nonlinear_rhs,
                      obstacle_penetration, penalty_energy, penalty_pieces, penalty_rhs,
                      random_field, residual_rounding_scale, total_energy)


def test_params_validation():
    with pytest.raises(ValueError):
        SimulationParams(tau=0.0)
    with pytest.raises(ValueError):
        SimulationParams(eps_stop=-1.0)
    with pytest.raises(ValueError):
        SimulationParams(alpha=np.inf)
    # a given penalty parameter selects the penalized flow, and must be
    # positive and finite; without one the flow is the isometry flow
    assert SimulationParams(alpha=0, tau=0.01, eps_penalty=0.125, f=(0, 0, 6e-3)).penalized
    for eps in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps_penalty"):
            SimulationParams(eps_penalty=eps)
    assert not SimulationParams(alpha=0.5, tau=0.1).penalized
    # the obstacle height is a constant of every run, not a parameter
    with pytest.raises(TypeError):
        SimulationParams(obstacle_height=2.0)
    assert SimulationParams().obstacle_height == 1.0


# ---------------------------------------------------------------------------
# stiffness assembly

def test_stiffness_annihilates_flat_state(rect_l2, rect_l2_symmetric):
    # zero up to rounding: componentwise |K y| <= n eps |K| |y|, the rounding
    # bound of a product with rows of at most n entries (measured: at most
    # 0.8 eps |K| |y| on levels 1-3, both patterns); a flat field with one
    # out-of-plane slope of 1e-3 stays far above that bound
    for mesh in (rect_l2, rect_l2_symmetric):
        K = expanded_stiffness(bending_stiffness(mesh))
        flat = flat_embedding(mesh)
        bound = np.diff(K.indptr).max() * residual_rounding_scale(K, flat)
        assert (np.abs(K @ flat.dofs) <= bound).all()
        bent = flat.copy()
        centre = int(np.argmin(np.linalg.norm(mesh.vertices, axis=1)))
        bent.nodal()[centre, 2, 1] += 1e-3
        assert np.abs(K @ bent.dofs).max() >= 1e6 * bound.max()


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("pattern", ["nonsymmetric", "symmetric"])
@pytest.mark.parametrize("domain", ["rectangle", "oshape"])
def test_stiffness_matches_coo_assembly(domain, pattern, level):
    # K = kron(I_3, K_s), with K_s written from the summed vertex-pair blocks,
    # has the sorted pattern of the COO assembly of the element blocks and the
    # same entries up to the order of summation; K_s stores one 3x3 block per
    # vertex pair, a vertex with itself and the two ends of an edge both ways
    # round, and `bending_product` applies it to the three components as K
    # does, bit for bit, also to two fields stacked in one product
    generate = pm.generate_rectangle_mesh if domain == "rectangle" else pm.generate_oshape_mesh
    mesh = generate(level, pattern)
    K_s = bending_stiffness(mesh)
    assert K_s.shape == (3 * mesh.num_vertices, 3 * mesh.num_vertices)
    assert K_s.nnz == 9 * (mesh.num_vertices + 2 * mesh.num_edges)
    K = expanded_stiffness(K_s)
    expected = coo_bending_stiffness(mesh)
    assert K.has_sorted_indices
    assert np.array_equal(K.indptr, expected.indptr)
    assert np.array_equal(K.indices, expected.indices)
    assert np.abs(K.data - expected.data).max() <= 1e-15 * np.abs(expected.data).max()
    rng = np.random.default_rng(level)
    y = random_field(mesh, rng).dofs
    assert np.array_equal(en.bending_product(K_s, y), K @ y)
    fields = np.stack([y, random_field(mesh, rng).dofs])
    products = en.bending_product(K_s, fields)
    assert products.shape == fields.shape
    for field, product in zip(fields, products):
        assert np.array_equal(product, en.bending_product(K_s, field))


def test_stiffness_symmetry(rect_l2):
    K = bending_stiffness(rect_l2)
    assert abs(K - K.T).max() <= 1e-12


def test_stiffness_matches_element_sum(rect_l2):
    rng = np.random.default_rng(23)
    field = random_field(rect_l2, rng)
    K = expanded_stiffness(bending_stiffness(rect_l2))
    quad = 0.5 * float(field.dofs @ (K @ field.dofs))
    ops = dkt.element_operators(rect_l2)
    loc = field.dofs[ops.scalar_dof_indices]
    elem = 0.5 * float(np.einsum("fcl,flm,fcm->", loc, ops.bending, loc))
    assert np.isclose(quad, elem, rtol=0, atol=1e-12 * max(1.0, abs(elem)))


def test_stiffness_sparsity_is_local(rect_l2):
    K = expanded_stiffness(bending_stiffness(rect_l2)).tocoo()
    tri = rect_l2.triangles
    neighbors = {v: {v} for v in range(rect_l2.num_vertices)}
    for t in tri:
        for a in t:
            neighbors[a].update(t)
    for r, c in zip(K.row[::997], K.col[::997]):  # sampled
        assert (c // 9) in neighbors[r // 9]


# ---------------------------------------------------------------------------
# nonlinear spontaneous-curvature term

def test_nonlinear_term_zero_on_flat(rect_l2):
    assert curvature_terms(rect_l2, flat_embedding(rect_l2), 2.5)[0] == 0.0


def test_nonlinear_term_cylinder_value():
    # analytic: Delta y . (d1 y x d2 y) = alpha, so the alpha-weighted lumped
    # integral approaches alpha^2 |omega| = 250
    alpha = 2.5
    y, grad, _ = cylinder_map(alpha)
    vals = []
    for level in (2, 3):
        m = pm.generate_rectangle_mesh(level)
        field = interpolate_dkt(m, y, grad)
        vals.append(curvature_terms(m, field, alpha)[0])
    target = alpha**2 * 40.0
    assert abs(vals[1] - target) < 0.7 * abs(vals[0] - target) + 1e-12
    assert abs(vals[1] - target) < 0.02 * target


def test_nonlinear_term_odd_under_reflection(rect_l2):
    # y3 -> -y3 flips the cross product's third behaviour: the integrand is odd
    rng = np.random.default_rng(29)
    field = random_field(rect_l2, rng)
    flipped = field.copy()
    nod = flipped.nodal()
    nod[:, 2, :] *= -1.0
    v1 = curvature_terms(rect_l2, field, 1.3)[0]
    v2 = curvature_terms(rect_l2, flipped, 1.3)[0]
    assert np.isclose(v1, -v2, rtol=1e-12)


def test_nonlinear_rhs_matches_finite_differences(rect_l2):
    rng = np.random.default_rng(31)
    field = random_field(rect_l2, rng, scale=0.5)
    alpha = 1.7
    r = curvature_terms(rect_l2, field, alpha)[1]
    step = 1e-4 * max(np.abs(field.dofs).max(), 1.0)
    for _ in range(20):
        w = rng.standard_normal(field.dofs.size)
        w /= np.linalg.norm(w)
        fp = dkt.DeformationField(field.dofs + step * w)
        fm = dkt.DeformationField(field.dofs - step * w)
        fd = (curvature_terms(rect_l2, fp, alpha)[0]
              - curvature_terms(rect_l2, fm, alpha)[0]) / (2 * step)
        assert abs(fd - r @ w) <= 1e-6 * max(abs(fd), 1.0)


def test_nonlinear_rhs_flat_state_hits_third_component(rect_l2):
    # at the flat state the Laplacian of the base point vanishes, so only the
    # term with the test function in the Laplacian survives: r . w =
    # alpha * lumped integral of lap_h(w) . e3
    alpha = 0.8
    flat = flat_embedding(rect_l2)
    r = curvature_terms(rect_l2, flat, alpha)[1]
    rng = np.random.default_rng(37)
    ops = dkt.element_operators(rect_l2)
    for _ in range(5):
        w = random_field(rect_l2, rng)
        lap = np.einsum("fpl,fcl->fpc", ops.divergence, w.dofs[ops.scalar_dof_indices])
        expect = alpha * lumped_p1_integral(rect_l2, lap[:, :, 2])
        assert np.isclose(r @ w.dofs, expect, atol=1e-10 * max(1, abs(expect)))


def test_nonlinear_rhs_vanishes_on_valueless_flat_patch(rect_l2):
    # a test field with zero gradient dofs cannot see terms 2 and 3 at a flat
    # base, and its reconstruction is constant per component: no contribution
    alpha = 1.1
    flat = flat_embedding(rect_l2)
    r = curvature_terms(rect_l2, flat, alpha)[1]
    rng = np.random.default_rng(41)
    w = np.zeros(9 * rect_l2.num_vertices)
    w[0::9] = rng.standard_normal(rect_l2.num_vertices)
    w[3::9] = rng.standard_normal(rect_l2.num_vertices)
    w[6::9] = rng.standard_normal(rect_l2.num_vertices)
    assert abs(r @ w) < 1e-10


@pytest.mark.parametrize("pattern", ["nonsymmetric", "symmetric"])
@pytest.mark.parametrize("level", [1, 2])
def test_curvature_terms_match_separate_evaluations(level, pattern):
    # one pass gives the term and its derivative that the separate
    # evaluations give, each with its own gather, Laplacian and normals
    m = pm.generate_rectangle_mesh(level, pattern)
    ops = dkt.element_operators(m)
    rng = np.random.default_rng(163 + level)
    for _ in range(4):
        field = random_field(m, rng, scale=rng.uniform(0.1, 10.0))
        alpha = rng.uniform(0.1, 3.0)
        value, r = curvature_terms(m, field, alpha, ops)
        reference = nonlinear_energy_term(m, field, alpha, ops)
        assert abs(value - reference) <= 1e-13 * abs(reference)
        reference = nonlinear_rhs(m, field, alpha, ops)
        assert np.abs(r - reference).max() <= 1e-13 * np.abs(reference).max()


def test_curvature_derivative_along_the_field(rect_l2):
    # the term is cubic in y, so r(y) . y = 3 E_nl(y), up to the rounding of
    # the products that make up r . y
    rng = np.random.default_rng(167)
    for _ in range(5):
        field = random_field(rect_l2, rng, scale=rng.uniform(0.1, 10.0))
        value, r = curvature_terms(rect_l2, field, 1.9)
        scale = np.abs(r) @ np.abs(field.dofs)
        assert abs(r @ field.dofs - 3.0 * value) <= 8 * EPS * scale


# ---------------------------------------------------------------------------
# body force

def test_force_rhs_zero(rect_l2):
    assert np.abs(en.force_rhs(rect_l2, None)).max() == 0.0
    assert np.abs(en.force_rhs(rect_l2, (0.0, 0.0, 0.0))).max() == 0.0


def test_force_rhs_constant_sums_to_area(rect_l2):
    c = 3.0e-3
    r = en.force_rhs(rect_l2, (0.0, 0.0, c)).reshape(-1, 3, 3)
    assert np.isclose(r[:, 2, 0].sum(), c * 40.0)
    assert np.abs(r[:, :2, :]).max() == 0.0
    assert np.abs(r[:, :, 1:]).max() == 0.0


def test_force_rhs_lumping_identity(rect_l2):
    # r . (value dofs of g) equals the lumped integral of f . g
    rng = np.random.default_rng(43)
    fv = rng.standard_normal((rect_l2.num_vertices, 3))
    gv = rng.standard_normal((rect_l2.num_vertices, 3))
    r = en.force_rhs(rect_l2, fv)
    g = np.zeros((rect_l2.num_vertices, 3, 3))
    g[:, :, 0] = gv
    dots = (fv * gv).sum(axis=1)
    expect = lumped_p1_integral(rect_l2, dots[rect_l2.triangles])
    assert np.isclose(r @ g.reshape(-1), expect, atol=1e-13 * max(1, abs(expect)))


# ---------------------------------------------------------------------------
# total energy

def test_total_energy_flat_zero(rect_l2, rect_l2_symmetric):
    # zero up to the rounding of its own evaluation (|E| / (eps S) < 0.08 on
    # levels 1-3), on the element path and on the assembled-K path; a flat
    # field with one out-of-plane slope of 1e-3 stays far above that bound
    params = SimulationParams(alpha=2.5, tau=0.1)
    for mesh in (rect_l2, rect_l2_symmetric):
        flat = flat_embedding(mesh)
        bound = flat_energy_rounding_scale(mesh, flat)
        bent = flat.copy()
        centre = int(np.argmin(np.linalg.norm(mesh.vertices, axis=1)))
        bent.nodal()[centre, 2, 1] += 1e-3
        K = expanded_stiffness(bending_stiffness(mesh))
        for path_K in (None, K):
            assert abs(total_energy(mesh, flat, params, K=path_K)) <= bound
            assert total_energy(mesh, bent, params, K=path_K) >= 100 * bound


def test_total_energy_cylinder_limit():
    # bending = alpha^2 |omega| / 2, nonlinear = alpha^2 |omega|:
    # E -> -alpha^2 |omega| / 2 = -125 at first order in h
    alpha = 2.5
    y, grad, _ = cylinder_map(alpha)
    params = SimulationParams(alpha=alpha, tau=0.1)
    errs = []
    for level in (2, 3):
        m = pm.generate_rectangle_mesh(level)
        field = interpolate_dkt(m, y, grad)
        errs.append(abs(total_energy(m, field, params) + 125.0))
    assert errs[1] < 0.7 * errs[0]
    assert errs[1] < 0.05 * 125.0


def test_total_energy_gradient_consistency(rect_l2):
    # central differences of the full energy match K y - nonlinear_rhs - force
    rng = np.random.default_rng(47)
    field = random_field(rect_l2, rng, scale=0.5)
    params = SimulationParams(alpha=1.2, tau=0.1, f=(0.0, 0.0, 2e-3))
    K = expanded_stiffness(bending_stiffness(rect_l2))
    grad_vec = (K @ field.dofs - curvature_terms(rect_l2, field, params.alpha)[1]
                - en.force_rhs(rect_l2, params.f))
    step = 1e-4 * np.abs(field.dofs).max()
    for _ in range(10):
        w = rng.standard_normal(field.dofs.size)
        w /= np.linalg.norm(w)
        fp = dkt.DeformationField(field.dofs + step * w)
        fm = dkt.DeformationField(field.dofs - step * w)
        fd = (total_energy(rect_l2, fp, params, K=K)
              - total_energy(rect_l2, fm, params, K=K)) / (2 * step)
        assert abs(fd - grad_vec @ w) <= 1e-6 * max(abs(fd), 1.0)


# ---------------------------------------------------------------------------
# obstacle penalty

def test_penalty_pieces_published_values():
    P, p = penalty_pieces(2.0)
    assert (P, p) == (-3.0, -2.0)


def test_penalty_pieces_splitting_identity_below():
    s = 0.5
    P, _ = penalty_pieces(s)
    assert s**2 + P == 0.0 == max(s - 1.0, 0.0)**2


def test_penalty_pieces_continuous_at_kink():
    P, p = penalty_pieces(1.0)
    assert (P, p) == (-1.0, -2.0)
    P_above, p_above = penalty_pieces(1.0 + 1e-12)
    assert abs(P - P_above) < 1e-11 and abs(p - p_above) < 1e-11


def test_penalty_pieces_vectorized_and_monotone():
    s = np.linspace(-2, 3, 101)
    P, p = penalty_pieces(s)
    assert (np.diff(p) <= 1e-14).all()          # p nonincreasing
    assert np.allclose(s**2 + P, np.maximum(s - 1.0, 0.0)**2, atol=1e-14)


def test_penalty_pieces_general_height():
    g = 1.75
    s = np.linspace(-1, 4, 57)
    P, p = penalty_pieces(s, height=g)
    assert np.allclose(s**2 + P, np.maximum(s - g, 0.0)**2, atol=1e-13)


def penalty_terms(mesh, field, eps, height=1.0):
    return en.penalty_terms(field.positions()[:, 2], eps, dkt.vertex_lumped_masses(mesh),
                            height)


def test_penalty_energy_values(rect_l2):
    flat = flat_embedding(rect_l2)
    assert penalty_terms(rect_l2, flat, 0.25)[0] == 0.0
    lifted = flat.copy()
    lifted.nodal()[:, 2, 0] = 2.0
    assert np.isclose(penalty_terms(rect_l2, lifted, 0.25)[0], 40.0 / (2 * 0.25))
    with pytest.raises(ValueError):
        penalty_terms(rect_l2, flat, 0.0)


def test_penalty_energy_matches_splitting_identity(rect_l2):
    # (1/2eps) lumped (y3-1)_+^2 == (1/2eps) lumped (y3^2 + P(y3)) vertexwise
    rng = np.random.default_rng(53)
    field = random_field(rect_l2, rng)
    eps = 0.3
    y3 = field.positions()[:, 2]
    P, _ = penalty_pieces(y3)
    via_split = lumped_p1_integral(
        rect_l2, (y3**2 + P)[rect_l2.triangles]) / (2 * eps)
    assert np.isclose(penalty_terms(rect_l2, field, eps)[0], via_split, atol=1e-12)


def test_penalty_rhs_cancels_below_obstacle(rect_l2):
    field = flat_embedding(rect_l2)  # y3 = 0 <= 1 everywhere
    r3 = penalty_terms(rect_l2, field, eps=0.125)[2]
    assert np.abs(r3).max() == 0.0


def test_penalty_rhs_matches_penalty_gradient_above(rect_l2):
    # stationary identity: (1/eps) y3 + (1/2eps) p(y3) = (1/eps)(y3 - 1)_+
    rng = np.random.default_rng(59)
    field = random_field(rect_l2, rng, scale=2.0)
    eps = 0.2
    r3 = penalty_terms(rect_l2, field, eps)[2]
    y3 = field.positions()[:, 2]
    m = dkt.vertex_lumped_masses(rect_l2)
    expect = -(m / eps) * np.maximum(y3 - 1.0, 0.0)
    assert np.allclose(r3, expect, atol=1e-13)


@pytest.mark.parametrize("height", [1.0, 1.75])
def test_penalty_terms_match_separate_evaluations(rect_l2, height):
    # one read of y3 gives the energy, the penetration and the explicit
    # terms of the splitting, bit for bit, below and above the obstacle
    rng = np.random.default_rng(173)
    eps = 0.125
    lifted = random_field(rect_l2, rng, scale=2.0)
    y3 = lifted.positions()[:, 2]
    assert (y3 > height).any() and (y3 < height).any()
    for field in (flat_embedding(rect_l2), lifted):
        energy, penetration, r3 = penalty_terms(rect_l2, field, eps, height)
        assert energy == penalty_energy(rect_l2, field, eps, height)
        assert penetration == obstacle_penetration(field, height)
        reference = penalty_rhs(rect_l2, field, eps, height).reshape(-1, 3, 3)
        assert np.array_equal(r3, reference[:, 2, 0])
