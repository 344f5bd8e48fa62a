import numpy as np
import pytest

from plateflow import dkt, mesh as pm
from plateflow.constraints import tangent_basis

EPS = np.finfo(np.float64).eps


def cylinder_map(alpha):
    """Closed-form isometric cylinder of radius 1/alpha rolled along x1.

    y = (sin(a x1)/a, x2, (1 - cos(a x1))/a); the gradient columns are
    orthonormal for every x, |D^2 y|^2 = alpha^2, and Delta y . normal = alpha.
    """
    a = float(alpha)

    def y(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
        return np.column_stack([np.sin(a * x[:, 0]) / a, x[:, 1],
                                (1.0 - np.cos(a * x[:, 0])) / a])

    def grad(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
        g = np.zeros((len(x), 3, 2))
        g[:, 0, 0] = np.cos(a * x[:, 0])
        g[:, 1, 1] = 1.0
        g[:, 2, 0] = np.sin(a * x[:, 0])
        return g

    def hess(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
        H = np.zeros((len(x), 3, 2, 2))
        H[:, 0, 0, 0] = -a * np.sin(a * x[:, 0])
        H[:, 2, 0, 0] = a * np.cos(a * x[:, 0])
        return H

    return y, grad, hess


def random_quadratic(rng):
    """A random global quadratic and its exact gradient."""
    c0 = rng.standard_normal()
    c1 = rng.standard_normal(2)
    C = rng.standard_normal((2, 2))
    C = 0.5 * (C + C.T)

    def w(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
        return c0 + x @ c1 + np.einsum("ni,ij,nj->n", x, C, x)

    def grad(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
        return c1[None, :] + 2.0 * x @ C

    return w, grad


def random_field(mesh, rng, scale=1.0, clamp=False):
    """Random Kirchhoff-triangle field; optionally zero on clamped vertices."""
    from plateflow.dkt import DeformationField
    dofs = scale * rng.standard_normal(9 * mesh.num_vertices)
    if clamp:
        for v in mesh.dirichlet_vertices:
            dofs[9 * v:9 * v + 9] = 0.0
    return DeformationField(dofs)


# ---------------------------------------------------------------------------
# dense oracles of the tangent space

GRAD_DOFS = np.array([1, 2, 4, 5, 7, 8])  # (d1 w_1, d2 w_1, d1 w_2, ..., d2 w_3)


def constraint_blocks(field, free_vertices):
    """Per-vertex constraint blocks C_z, shape (#free vertices, 3, 6).

    Rows (11, 22, 12); columns the gradient dofs of the vertex in dof order
    (d1 w_1, d2 w_1, d1 w_2, d2 w_2, d1 w_3, d2 w_3), so that C_z applied to
    grad(w)(z) gives a1.d1w, a2.d2w and a2.d1w + a1.d2w, with (a1, a2) the
    columns of grad(y)(z).
    """
    g = field.gradients()[free_vertices]  # (n, 3 comps, 2)
    blocks = np.zeros((len(free_vertices), 3, 3, 2))
    blocks[:, 0, :, 0] = g[:, :, 0]
    blocks[:, 1, :, 1] = g[:, :, 1]
    blocks[:, 2] = g[:, :, ::-1]
    return blocks.reshape(-1, 3, 6)


def dense_basis(Q):
    """The tangent basis Z (9 n x 6 n) that the kernel blocks Q (n, 3, 2, 3)
    describe: per vertex the identity on the three value dofs and Q on the
    six gradient dofs."""
    n = len(Q)
    Z = np.zeros((9 * n, 6 * n))
    for v in range(n):
        Z[9 * v + np.array([0, 3, 6]), 6 * v + np.arange(3)] = 1.0
        Z[np.ix_(9 * v + GRAD_DOFS, 6 * v + np.arange(3, 6))] = Q[v].reshape(6, 3)
    return Z


# ---------------------------------------------------------------------------
# rounding scales of the flat state
#
# The flat map lies in the kernel of the bending form only in exact
# arithmetic: evaluating the form at it cancels products of coordinates and
# element matrix entries, so what is left is rounding noise.  A flat-state
# check is bounded by the size of that noise, taken from the magnitudes of
# the evaluation itself, so that it holds on every mesh and summation order.

def flat_energy_rounding_scale(mesh, field):
    """eps * S with S = 1/2 sum_f |loc_f|^T |B_f| |loc_f|.

    S is the bending form 1/2 sum_f loc_f^T B_f loc_f evaluated with every
    term made positive: the size of the terms that cancel to zero at a flat
    state, and so the scale of the rounding left in the energy.
    """
    ops = dkt.element_operators(mesh)
    loc = np.abs(dkt.local_scalar_dofs(mesh, field))
    return EPS * 0.5 * float(np.einsum("fcl,flm,fcm->", loc, np.abs(ops.bending), loc))


def residual_rounding_scale(K, y):
    """eps |K| |y|: componentwise scale of the rounding left in K y where the
    exact product cancels to zero."""
    return EPS * (abs(K) @ np.abs(y.dofs))


def flat_update_rounding_scale(flow):
    """Energy norm of the flow step driven by a residual of rounding size.

    At the flat state with no data the step's right-hand side is -K y, whose
    computed value is rounding noise componentwise bounded by a multiple of
    rho = eps * |K| |y|.  This is the update norm sqrt(d^T K d) of the step
    solve for the right-hand side rho itself: one sign throughout, so that
    the noise feeds the smoothest, least stiff modes of the step operator.
    """
    y = dkt.flat_embedding(flow.mesh)
    rho = residual_rounding_scale(flow.K, y)
    Q = tangent_basis(y.gradients()[flow.free_vertices])
    d_f = flow.system.solve(Q, rho[flow.free])
    K_ff = flow.K[flow.free][:, flow.free]
    return float(np.sqrt(d_f @ (K_ff @ d_f)))


@pytest.fixture(scope="session")
def rect_l2():
    return pm.generate_rectangle_mesh(2, "nonsymmetric")


@pytest.fixture(scope="session")
def rect_l2_symmetric():
    return pm.generate_rectangle_mesh(2, "symmetric")


@pytest.fixture(scope="session")
def rect_l2_clamped():
    m = pm.generate_rectangle_mesh(2, "nonsymmetric")
    return pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, 2.0))])


@pytest.fixture(scope="session")
def rect_l2_symmetric_clamped(rect_l2_symmetric):
    return pm.tag_dirichlet_boundary(rect_l2_symmetric, [((-5.0, -2.0), (-5.0, 2.0))])


@pytest.fixture(scope="session")
def oshape_l1_clamped():
    m = pm.generate_oshape_mesh(1, "symmetric")
    return pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, -1.0)),
                                         ((-5.0, -2.0), (-4.0, -2.0))])
