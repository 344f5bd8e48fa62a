import numpy as np

from plateflow import constraints as cn
from plateflow.dkt import DeformationField, DktDofMap, flat_embedding, interpolate_dkt

from conftest import cylinder_map, random_field


GRAD_DOFS = np.array([1, 2, 4, 5, 7, 8])  # (d1 w_1, d2 w_1, d1 w_2, ..., d2 w_3)


def vertex_block(Z, b):
    """The 9x6 block of the tangent basis at the b-th free vertex."""
    return Z[9 * b:9 * b + 9, 6 * b:6 * b + 6].toarray()


def test_flat_constraint_rows(rect_l2_clamped):
    m = rect_l2_clamped
    dm = DktDofMap.from_mesh(m)
    free = dm.free_vertices
    Z, smin = cn.tangent_basis(flat_embedding(m), free)
    assert Z.shape == (9 * len(free), 6 * len(free))
    # block diagonal: every entry couples a vertex's dofs to its own columns
    coo = Z.tocoo()
    assert np.array_equal(coo.row // 9, coo.col // 6)
    # at a flat vertex the kernel reads d1w1 = 0, d2w2 = 0, d1w2 + d2w1 = 0:
    # it is spanned by d1w3, d2w3 and (d2w1 - d1w2) / sqrt(2)
    expected = np.zeros((6, 3))
    expected[4, 0] = expected[5, 1] = 1.0
    expected[1, 2], expected[2, 2] = np.sqrt(0.5), -np.sqrt(0.5)
    for b in (0, 5, len(free) - 1):
        block = vertex_block(Z, b)
        assert np.array_equal(block[[0, 3, 6], :3], np.eye(3))  # values pass through
        assert not block[[0, 3, 6], 3:].any() and not block[GRAD_DOFS, :3].any()
        kernel = block[GRAD_DOFS, 3:]
        assert np.allclose(kernel @ kernel.T, expected @ expected.T, atol=1e-15)
    assert np.isclose(smin, 1.0)


def test_kernel_is_linearized_isometry(rect_l2_clamped):
    # C_z w = 0 iff sym(grad w ^T grad y) vanishes at z; the basis spans
    # exactly that kernel with orthonormal columns per vertex
    m = rect_l2_clamped
    dm = DktDofMap.from_mesh(m)
    free = dm.free_vertices
    rng = np.random.default_rng(61)
    y = random_field(m, rng)
    w = random_field(m, rng)
    blocks = cn.constraint_blocks(y, free)
    gy = y.gradients()
    gw = w.gradients()
    res = np.einsum("nij,nj->ni", blocks, gw[free].reshape(-1, 6))
    sym = np.einsum("vci,vcj->vij", gw, gy) + np.einsum("vci,vcj->vij", gy, gw)
    # rows carry (11, 22, 12): diagonal rows are half the symmetrized entries,
    # the mixed row is exactly sym[0,1]; the kernels coincide either way
    assert np.allclose(res[:, 0], 0.5 * sym[free, 0, 0], atol=1e-12)
    assert np.allclose(res[:, 1], 0.5 * sym[free, 1, 1], atol=1e-12)
    assert np.allclose(res[:, 2], sym[free, 0, 1], atol=1e-12)
    Z, _ = cn.tangent_basis(y, free)
    for b in range(len(free)):
        block = vertex_block(Z, b)
        assert np.abs(blocks[b] @ block[GRAD_DOFS]).max() <= 1e-14 * np.abs(blocks[b]).max()
        assert np.abs(block.T @ block - np.eye(6)).max() <= 1e-14
    # a field in the range of the basis keeps sym(grad w^T grad y) = 0
    tangent = np.zeros(9 * m.num_vertices)
    tangent[dm.free_indices] = Z @ rng.standard_normal(Z.shape[1])
    gt = DeformationField(tangent).gradients()
    sym = np.einsum("vci,vcj->vij", gt, gy) + np.einsum("vci,vcj->vij", gy, gt)
    assert np.abs(sym[free]).max() <= 1e-12


def test_block_singular_values_near_isometry(rect_l2_clamped):
    # with two orthonormal gradient columns the 3x6 blocks keep sigma_min >= 1/2
    m = rect_l2_clamped
    free = DktDofMap.from_mesh(m).free_vertices
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
        assert cn.tangent_basis(field, free)[1] >= 0.5


def test_isometry_defect_values(rect_l2):
    assert cn.isometry_defect(flat_embedding(rect_l2)) == 0.0
    y, grad, _ = cylinder_map(2.5)
    assert cn.isometry_defect(interpolate_dkt(rect_l2, y, grad)) <= 1e-14
    # a known stretched state: grad = diag(2, 1) has defect |[3,0;0,0]| = 3
    stretched = flat_embedding(rect_l2)
    stretched.nodal()[:, 0, 1] = 2.0
    assert np.isclose(cn.isometry_defect(stretched), 3.0)


def test_apply_dirichlet_identity_data(rect_l2_clamped):
    m = rect_l2_clamped
    y_d, phi_d = cn.identity_boundary_data()
    rng = np.random.default_rng(71)
    field = random_field(m, rng)
    fixed = cn.apply_dirichlet(field, m, y_d, phi_d)
    nod = fixed.nodal()
    for v in m.dirichlet_vertices:
        assert np.allclose(nod[v, :, 0], [m.vertices[v, 0], m.vertices[v, 1], 0.0])
        assert np.allclose(nod[v, :, 1:], [[1, 0], [0, 1], [0, 0]])
    # free dofs untouched
    free_mask = DktDofMap.from_mesh(m).free_mask
    assert np.array_equal(fixed.dofs[free_mask], field.dofs[free_mask])


def test_apply_dirichlet_idempotent(rect_l2_clamped):
    m = rect_l2_clamped
    y_d, phi_d = cn.identity_boundary_data()
    rng = np.random.default_rng(73)
    field = random_field(m, rng)
    once = cn.apply_dirichlet(field, m, y_d, phi_d)
    twice = cn.apply_dirichlet(once, m, y_d, phi_d)
    assert np.array_equal(once.dofs, twice.dofs)


def test_apply_dirichlet_empty_set(rect_l2):
    y_d, phi_d = cn.identity_boundary_data()
    rng = np.random.default_rng(79)
    field = random_field(rect_l2, rng)
    out = cn.apply_dirichlet(field, rect_l2, y_d, phi_d)
    assert np.array_equal(out.dofs, field.dofs)
