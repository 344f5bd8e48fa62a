"""Kirchhoff triangle elements with a reconstructed quadratic gradient field.

The element carries 9 scalar degrees of freedom per vertex of the mesh: for
each of the three deformation components, the function value and the two
partial derivatives.  Bending quantities never evaluate the underlying cubic
in the element interior; instead each scalar component is mapped to a
continuous piecewise-quadratic vector field theta (the reconstructed
gradient) determined by

  * theta(z)          = nodal gradient at each vertex z,
  * theta(z_E) . t_E  = midpoint slope of the cubic Hermite interpolant
                        along the edge E,
  * theta(z_E) . n_E  = average of the two endpoint normal derivatives,

where z_E, t_E, n_E are the midpoint, unit tangent and unit normal of E.
The reconstruction is exact for quadratic polynomials.

P2 Lagrange node ordering on an element: vertices 0, 1, 2 first, then the
midpoint of the edge opposite each vertex (node 3 + i sits on the edge
between vertices i+1 and i+2, indices mod 3).  Local scalar DKT dofs are
packed vertex-major: (value, d/dx_1, d/dx_2) for each vertex.

The method uses the element through two operators, which
`element_operators` forms once per mesh: the bending blocks G^T (S kron I_2) G
of the form ||grad theta||^2 (G the reconstruction, S the P2 stiffness) and
the element-local discrete Laplacian div(theta) at the vertices.  S is in
closed form, one (F, 3) x (3, 36) product with constant reference matrices,
and the bending blocks are two batched products.  The flow sums the blocks
per vertex pair once (`linsolve.vertex_pair_blocks`), for both the bending
stiffness and the step system.  The module also holds the dof vector of a
deformation, its flat initial state, and the vertex-lumped masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, check_triangles, triangle_areas

# barycentric coordinates of the 6 P2 nodes (vertices, then opposite midpoints)
P2_NODES_BARY = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
])

def p2_reference_gradients(bary) -> np.ndarray:
    """Barycentric gradients (d/dlambda contracted with grad lambda) of the six
    P2 basis functions at the given barycentric points; shape (npts, 6, 2).

    Reference element: vertices (0,0), (1,0), (0,1) with lambda = (1-x-y, x, y).
    """
    bary = np.atleast_2d(np.asarray(bary, dtype=np.float64))
    grad_lambda = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    out = np.zeros((bary.shape[0], 6, 2))
    for i in range(3):
        out[:, i] = (4.0 * bary[:, i, None] - 1.0) * grad_lambda[i]
        j, k = (i + 1) % 3, (i + 2) % 3
        out[:, 3 + i] = 4.0 * (bary[:, j, None] * grad_lambda[k]
                               + bary[:, k, None] * grad_lambda[j])
    return out


def _inverse_transposes(coords):
    """inv(J)^T of the affine maps J of a stack of triangles, coords (F, 3, 2)."""
    areas = triangle_areas(coords)
    # J has the columns (a, b) and (c, d), so inv(J)^T = [[d, -b], [-c, a]] / det J
    (a, b), (c, d) = (coords[:, 1] - coords[:, 0]).T, (coords[:, 2] - coords[:, 0]).T
    inv_t = np.stack([np.stack([d, -b], axis=1), np.stack([-c, a], axis=1)], axis=1)
    return inv_t / (2.0 * areas)[:, None, None]


def _p2_physical_gradients(coords, bary) -> np.ndarray:
    """Physical gradients of the P2 basis at barycentric points: (F, npts, 6, 2)."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2)
    inv_t = _inverse_transposes(coords)[:, None, None]   # (F, 1, 1, e, d)
    ref = p2_reference_gradients(bary)[:, :, None, :]    # (npts, 6, 1, d)
    return inv_t[..., 0] * ref[..., 0] + inv_t[..., 1] * ref[..., 1]


def _dkt_gradient_matrices(coords) -> np.ndarray:
    """Stacked 12x9 maps from local scalar DKT dofs to P2 nodal vector values.

    Row 2*node + component holds the reconstructed gradient component at that
    P2 node.  Reversing an edge negates its tangent and normal exactly, which
    leaves every entry unchanged, so a shared edge is reconstructed
    bit-identically from both of its triangles.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2)
    G = np.zeros((len(coords), 12, 9))
    G[:, np.arange(6), [1, 2, 4, 5, 7, 8]] = 1.0
    # edge node 3 + i as [triangle, i, component, vertex, kind]
    edges = G[:, 6:].reshape(-1, 3, 2, 3, 3)
    a, b = [1, 2, 0], [2, 0, 1]
    d = coords[:, b] - coords[:, a]
    length = np.linalg.norm(d, axis=2)
    t = d / length[:, :, None]
    n = np.stack([-t[:, :, 1], t[:, :, 0]], axis=2)
    # value part: Hermite midpoint slope along the edge
    slope = (1.5 / length)[:, :, None] * t
    # gradient part: -1/4 t t^T from the Hermite slope, +1/2 n n^T from the
    # endpoint average of normal derivatives
    M = -0.25 * t[:, :, :, None] * t[:, :, None, :] + 0.5 * n[:, :, :, None] * n[:, :, None, :]
    for i in range(3):
        edges[:, i, :, a[i], 0] = -slope[:, i]
        edges[:, i, :, b[i], 0] = slope[:, i]
        edges[:, i, :, a[i], 1:] = M[:, i]
        edges[:, i, :, b[i], 1:] = M[:, i]
    return G


# R_de = sum over the edge midpoints of g_d g_e^T, g_d the d-components of the
# reference P2 gradients there; the rows R_00, R_01 + R_10, R_11, flattened,
# hold small integers
_R = np.einsum("pnd,pme->denm", *[p2_reference_gradients(P2_NODES_BARY[3:])] * 2)
_P2_REFERENCE_STIFFNESS = np.stack([_R[0, 0], _R[0, 1] + _R[1, 0], _R[1, 1]]).reshape(3, 36)


def _p2_scalar_stiffness_matrices(coords) -> np.ndarray:
    """Stacked 6x6 matrices of integrals grad(N_i) . grad(N_j) over each triangle.

    The 3-edge-midpoint rule integrates the quadratic products exactly:
    S = (|T|/3) sum_de (J^-1 J^-T)_de R_de, J the affine map of the triangle,
    and J^-1 J^-T = adj(J^T J) / (4 |T|^2).  R_01 + R_10 enters as one
    symmetric matrix, so S is symmetric bit for bit.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2)
    areas = triangle_areas(coords)
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    adjugate = np.stack([(e2 * e2).sum(axis=1), -(e1 * e2).sum(axis=1),
                         (e1 * e1).sum(axis=1)], axis=1)
    return ((adjugate / (12.0 * areas)[:, None]) @ _P2_REFERENCE_STIFFNESS).reshape(-1, 6, 6)


class DeformationField:
    """Vector-valued Kirchhoff-triangle function stored as its dof vector."""

    def __init__(self, dofs):
        dofs = np.asarray(dofs, dtype=np.float64)
        if dofs.ndim != 1 or dofs.size % 9:
            raise ValueError("dof vector length must be 9 * #vertices")
        if not np.isfinite(dofs).all():
            raise ValueError("dof vector contains non-finite entries")
        self.dofs = dofs

    @property
    def num_vertices(self) -> int:
        return self.dofs.size // 9

    def nodal(self) -> np.ndarray:
        """(V, 3, 3) view: [vertex, component, (value, d1, d2)]."""
        return self.dofs.reshape(self.num_vertices, 3, 3)

    def positions(self) -> np.ndarray:
        """Nodal deformed positions y(z), shape (V, 3)."""
        return self.nodal()[:, :, 0]

    def gradients(self) -> np.ndarray:
        """Nodal deformation gradients grad y(z), shape (V, 3, 2)."""
        return self.nodal()[:, :, 1:]

    def copy(self) -> "DeformationField":
        return DeformationField(self.dofs.copy())


def flat_embedding(mesh: TriangleMesh) -> DeformationField:
    """The identity embedding y = (x_1, x_2, 0): the canonical flat initial state."""
    V = mesh.num_vertices
    dofs = np.zeros((V, 3, 3))
    dofs[:, 0, 0] = mesh.vertices[:, 0]
    dofs[:, 1, 0] = mesh.vertices[:, 1]
    dofs[:, 0, 1] = 1.0
    dofs[:, 1, 2] = 1.0
    return DeformationField(dofs.reshape(-1))


# ---------------------------------------------------------------------------
# lumped integration

def vertex_lumped_masses(mesh: TriangleMesh) -> np.ndarray:
    """m_z = sum over adjacent triangles of |T|/3, shape (V,)."""
    m = np.zeros(mesh.num_vertices)
    np.add.at(m, mesh.triangles.reshape(-1), np.repeat(mesh.triangle_areas / 3.0, 3))
    return m


# ---------------------------------------------------------------------------
# per-mesh element operator bundle

@dataclass(frozen=True)
class ElementOperators:
    """Stacked per-element operators reused across assembly and flow steps."""

    bending: np.ndarray       # (F, 9, 9) per-component bending blocks
    divergence: np.ndarray    # (F, 3, 9) discrete Laplacian at vertices
    areas: np.ndarray         # (F,)
    scalar_dof_indices: np.ndarray  # (F, 3, 9) global dof of (triangle, comp, local)


def element_operators(mesh: TriangleMesh) -> ElementOperators:
    """The bending blocks K9 = G^T (S kron I_2) G, with G the reconstruction
    and S the P2 stiffness, in two batched products, and the Laplacian
    D = div(theta) at the vertices, of triangles that pass `check_triangles`."""
    coords = mesh.triangle_coords()
    areas, _ = check_triangles(coords)
    G = _dkt_gradient_matrices(coords)
    S = _p2_scalar_stiffness_matrices(coords)
    # rows 2 n + c of G as [n, (c, dof)]: S acts on the node index alone
    K9 = G.transpose(0, 2, 1) @ (S @ G.reshape(-1, 6, 18)).reshape(-1, 12, 9)
    # one contracted index, summed in order: BLAS kernels fuse the
    # multiply-adds and round D differently
    grads = _p2_physical_gradients(coords, P2_NODES_BARY[:3]).reshape(-1, 3, 12)
    D = np.einsum("fpk,fkd->fpd", grads, G)
    # dof 9 v + 3 c + k of local dof (c, 3 v + k)
    idx = (9 * mesh.triangles[:, None, :, None] + 3 * np.arange(3)[:, None, None]
           + np.arange(3)).reshape(-1, 3, 9)
    return ElementOperators(K9, D, areas, idx)
