import numpy as np
import pytest

from plateflow import constraints as cn
from plateflow.dkt import DeformationField, flat_embedding

from conftest import (GRAD_DOFS, constraint_blocks, cylinder_map, dense_basis,
                      interpolate_dkt, isometry_defect, random_field, tangent_basis)


def test_flat_constraint_rows(rect_l2_clamped):
    m = rect_l2_clamped
    free = m.free_vertices
    y = flat_embedding(m)
    Q, sigma = tangent_basis(y.gradients()[free])
    assert Q.shape == (len(free), 3, 2, 3)
    # at a flat vertex the kernel reads d1w1 = 0, d2w2 = 0, d1w2 + d2w1 = 0:
    # it is spanned by d1w3, d2w3 and (d2w1 - d1w2) / sqrt(2)
    expected = np.zeros((6, 3))
    expected[4, 0] = expected[5, 1] = 1.0
    expected[1, 2], expected[2, 2] = np.sqrt(0.5), -np.sqrt(0.5)
    for b in (0, 5, len(free) - 1):
        kernel = Q[b].reshape(6, 3)
        assert np.allclose(kernel @ kernel.T, expected @ expected.T, atol=1e-15)
    # the basis Z passes the values through and maps the kernel coefficients
    # onto the gradient dofs only
    Z = dense_basis(Q[:3])
    for b in range(3):
        block = Z[9 * b:9 * b + 9, 6 * b:6 * b + 6]
        assert np.array_equal(block[[0, 3, 6], :3], np.eye(3))
        assert not block[[0, 3, 6], 3:].any() and not block[GRAD_DOFS, :3].any()
    assert np.isclose(sigma.min(), 1.0)


def test_kernel_is_linearized_isometry(rect_l2_clamped):
    # C_z w = 0 iff sym(grad w ^T grad y) vanishes at z; the basis spans
    # exactly that kernel with orthonormal columns per vertex
    m = rect_l2_clamped
    free = m.free_vertices
    rng = np.random.default_rng(61)
    y = random_field(m, rng)
    w = random_field(m, rng)
    blocks = constraint_blocks(y, free)
    gy = y.gradients()
    gw = w.gradients()
    res = np.einsum("nij,nj->ni", blocks, gw[free].reshape(-1, 6))
    sym = np.einsum("vci,vcj->vij", gw, gy) + np.einsum("vci,vcj->vij", gy, gw)
    # rows carry (11, 22, 12): diagonal rows are half the symmetrized entries,
    # the mixed row is exactly sym[0,1]; the kernels coincide either way
    assert np.allclose(res[:, 0], 0.5 * sym[free, 0, 0], atol=1e-12)
    assert np.allclose(res[:, 1], 0.5 * sym[free, 1, 1], atol=1e-12)
    assert np.allclose(res[:, 2], sym[free, 0, 1], atol=1e-12)
    Q = tangent_basis(gy[free])[0].reshape(-1, 6, 3)
    for b in range(len(free)):
        assert np.abs(blocks[b] @ Q[b]).max() <= 1e-14 * np.abs(blocks[b]).max()
        assert np.abs(Q[b].T @ Q[b] - np.eye(3)).max() <= 1e-14
    # the kernel is three-dimensional: Q spans all of it
    assert (np.linalg.svd(blocks, compute_uv=False)[:, 2] > 0).all()
    # a field in the range of the basis keeps sym(grad w^T grad y) = 0
    coeffs = rng.standard_normal((len(free), 6))
    tangent = np.zeros((m.num_vertices, 3, 3))
    tangent[free, :, 0] = coeffs[:, :3]
    tangent[free, :, 1:] = (Q @ coeffs[:, 3:, None]).reshape(-1, 3, 2)
    gt = DeformationField(tangent.reshape(-1)).gradients()
    sym = np.einsum("vci,vcj->vij", gt, gy) + np.einsum("vci,vcj->vij", gy, gt)
    assert np.abs(sym[free]).max() <= 1e-12


def test_block_singular_values_near_isometry(rect_l2_clamped):
    # with two orthonormal gradient columns the 3x6 blocks keep sigma_min >= 1/2
    m = rect_l2_clamped
    free = m.free_vertices
    rng = np.random.default_rng(67)
    for _ in range(10):
        # random nodal rotations: gradients are random orthonormal pairs
        a = rng.standard_normal((m.num_vertices, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((m.num_vertices, 3))
        b -= (a * b).sum(axis=1, keepdims=True) * a
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        dofs = np.zeros((m.num_vertices, 3, 3))
        dofs[:, :, 1] = a
        dofs[:, :, 2] = b
        field = DeformationField(dofs.reshape(-1))
        assert tangent_basis(field.gradients()[free])[1].min() >= 0.5


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_smallest_singular_values_match_svd(rect_l2_clamped, scale):
    # the closed-form 3x3 eigenvalue agrees with an SVD of the blocks
    m = rect_l2_clamped
    free = m.free_vertices
    rng = np.random.default_rng(131)
    for _ in range(5):
        y = random_field(m, rng, scale=scale)
        blocks = constraint_blocks(y, free)
        reference = np.linalg.svd(blocks, compute_uv=False)[:, 2]
        closed = tangent_basis(y.gradients()[free])[1]
        assert np.abs(closed - reference).max() <= 1e-13 * np.abs(blocks).max()


def test_smallest_singular_values_vanish_for_parallel_columns():
    rng = np.random.default_rng(137)
    g = rng.standard_normal((50, 3, 2))
    g[:, :, 1] = g[:, :, 0]
    norm = np.abs(g).max(axis=(1, 2))
    # the eigenvalue is zero up to its rounding, eps |C|^2; sigma its root
    assert (tangent_basis(g)[1] <= 1e-7 * norm).all()
    assert (tangent_basis(np.zeros((3, 3, 2)))[1] == 0.0).all()


def test_basis_is_lipschitz_in_the_field(rect_l2_clamped):
    # the rotation basis moves by O(t) when the field moves by t v, also from
    # the flat state where the flow starts; a basis read off an SVD of the
    # blocks there rotates inside the kernel by O(1) (measured: a change of
    # 1.4 at t = 1e-6), since the kernel's singular values all vanish
    m = rect_l2_clamped
    free = m.free_vertices
    rng = np.random.default_rng(139)
    v = random_field(m, rng)
    for y in (flat_embedding(m), random_field(m, rng)):
        Q0 = tangent_basis(y.gradients()[free])[0]
        ratios = []
        for t in (1e-2, 1e-4, 1e-6):
            Qt = tangent_basis((y.dofs + t * v.dofs).reshape(-1, 3, 3)[free, :, 1:])[0]
            ratios.append(np.abs(Qt - Q0).max() / t)
        assert max(ratios) <= 2 * min(ratios)
        # the difference quotients converge, to the derivative of the basis
        assert abs(ratios[2] - ratios[1]) <= 1e-2 * ratios[1]


def test_isometry_defect_values(rect_l2):
    assert isometry_defect(flat_embedding(rect_l2)) == 0.0
    y, grad, _ = cylinder_map(2.5)
    assert isometry_defect(interpolate_dkt(rect_l2, y, grad)) <= 1e-14
    # a known stretched state: grad = diag(2, 1) has defect |[3,0;0,0]| = 3
    stretched = flat_embedding(rect_l2)
    stretched.nodal()[:, 0, 1] = 2.0
    assert np.isclose(isometry_defect(stretched), 3.0)


def test_apply_dirichlet_identity_data(rect_l2_clamped):
    m = rect_l2_clamped
    rng = np.random.default_rng(71)
    field = random_field(m, rng)
    fixed = cn.apply_dirichlet(field, m)
    nod = fixed.nodal()
    for v in m.dirichlet_vertices:
        assert np.allclose(nod[v, :, 0], [m.vertices[v, 0], m.vertices[v, 1], 0.0])
        assert np.allclose(nod[v, :, 1:], [[1, 0], [0, 1], [0, 0]])
    # free dofs untouched
    free = fixed.nodal()[m.free_vertices]
    assert np.array_equal(free, field.nodal()[m.free_vertices])


def test_apply_dirichlet_idempotent(rect_l2_clamped):
    m = rect_l2_clamped
    rng = np.random.default_rng(73)
    field = random_field(m, rng)
    once = cn.apply_dirichlet(field, m)
    twice = cn.apply_dirichlet(once, m)
    assert np.array_equal(once.dofs, twice.dofs)


def test_apply_dirichlet_empty_set(rect_l2):
    rng = np.random.default_rng(79)
    field = random_field(rect_l2, rng)
    out = cn.apply_dirichlet(field, rect_l2)
    assert np.array_equal(out.dofs, field.dofs)
