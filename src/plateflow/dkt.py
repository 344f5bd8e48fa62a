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
packed vertex-major: (value, d/dx1, d/dx2) for each vertex.

The method uses the element through two operators, which
`element_operators` forms once per mesh: the bending blocks G^T S G of the
form ||grad theta||^2 (G the reconstruction, S the P2 stiffness) and the
element-local discrete Laplacian div(theta) at the vertices.  The module
also holds the dof vector of a deformation, its flat and interpolated
initial states, and the vertex-lumped masses.
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
    areas, _ = check_triangles(coords)
    J = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=2)
    inv_t = np.empty_like(J)
    inv_t[:, 0, 0] = J[:, 1, 1]
    inv_t[:, 0, 1] = -J[:, 1, 0]
    inv_t[:, 1, 0] = -J[:, 0, 1]
    inv_t[:, 1, 1] = J[:, 0, 0]
    inv_t /= 2.0 * areas[:, None, None]
    return inv_t


def p2_physical_gradients(coords, bary) -> np.ndarray:
    """Physical gradients of the P2 basis at barycentric points: (F, npts, 6, 2)."""
    inv_t = _inverse_transposes(np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2))
    ref = p2_reference_gradients(bary)
    return np.einsum("fed,pnd->fpne", inv_t, ref)


def dkt_gradient_matrices(coords, vertex_ids=None) -> np.ndarray:
    """Stacked 12x9 maps from local scalar DKT dofs to P2 nodal vector values.

    Row 2*node + component holds the reconstructed gradient component at that
    P2 node.  When vertex_ids is given, edge tangents point from the lower to
    the higher global vertex index so that shared edges are reconstructed
    bit-identically from both sides.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2)
    nf = coords.shape[0]
    check_triangles(coords)
    G = np.zeros((nf, 12, 9))
    for i in range(3):
        G[:, 2 * i, 3 * i + 1] = 1.0
        G[:, 2 * i + 1, 3 * i + 2] = 1.0

    rows = np.arange(nf)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        a = np.full(nf, j, dtype=np.int64)
        b = np.full(nf, k, dtype=np.int64)
        if vertex_ids is not None:
            ids = np.asarray(vertex_ids).reshape(-1, 3)
            swap = ids[:, j] > ids[:, k]
            a[swap], b[swap] = k, j
        pa = coords[rows, a]
        pb = coords[rows, b]
        d = pb - pa
        length = np.linalg.norm(d, axis=1)
        t = d / length[:, None]
        n = np.stack([-t[:, 1], t[:, 0]], axis=1)
        # value part: Hermite midpoint slope along the edge
        coef = 1.5 / length
        # gradient part: -1/4 t t^T from the Hermite slope, +1/2 n n^T from
        # the endpoint average of normal derivatives
        M = -0.25 * t[:, :, None] * t[:, None, :] + 0.5 * n[:, :, None] * n[:, None, :]
        r0 = 2 * (3 + i)
        for c in range(2):
            G[rows, r0 + c, 3 * a] = -coef * t[:, c]
            G[rows, r0 + c, 3 * b] = coef * t[:, c]
            for dcol in range(2):
                G[rows, r0 + c, 3 * a + 1 + dcol] += M[:, c, dcol]
                G[rows, r0 + c, 3 * b + 1 + dcol] += M[:, c, dcol]
    return G


def p2_scalar_stiffness_matrices(coords) -> np.ndarray:
    """Stacked 6x6 matrices of integrals grad(N_i) . grad(N_j) over each triangle.

    Uses the 3-edge-midpoint rule, which integrates the quadratic products
    exactly.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2)
    areas, _ = check_triangles(coords)
    grads = p2_physical_gradients(coords, P2_NODES_BARY[3:])  # (F, 3, 6, 2)
    S = np.einsum("fpne,fpme->fnm", grads, grads) * (areas[:, None, None] / 3.0)
    return S


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
    """The identity embedding y = (x1, x2, 0): the canonical flat initial state."""
    V = mesh.num_vertices
    dofs = np.zeros((V, 3, 3))
    dofs[:, 0, 0] = mesh.vertices[:, 0]
    dofs[:, 1, 0] = mesh.vertices[:, 1]
    dofs[:, 0, 1] = 1.0
    dofs[:, 1, 2] = 1.0
    return DeformationField(dofs.reshape(-1))


def interpolate_dkt(mesh: TriangleMesh, y, grad_y) -> DeformationField:
    """Nodal interpolation: values y(z) and gradients grad_y(z) become the dofs.

    y maps (N, 2) -> (N, 3); grad_y maps (N, 2) -> (N, 3, 2).
    """
    pts = mesh.vertices
    vals = np.asarray(y(pts), dtype=np.float64).reshape(-1, 3)
    grads = np.asarray(grad_y(pts), dtype=np.float64).reshape(-1, 3, 2)
    dofs = np.concatenate([vals[:, :, None], grads], axis=2)
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
    """The bending blocks K9 = sum_c Gc^T S Gc, with Gc the rows of the
    theta-component c, and the Laplacian D = div(theta) at the vertices."""
    coords = mesh.triangle_coords()
    ids = mesh.triangles
    G = dkt_gradient_matrices(coords, ids)
    S = p2_scalar_stiffness_matrices(coords)
    Gc = G.reshape(-1, 6, 2, 9)
    K9 = np.einsum("fnce,fnm,fmcd->fed", Gc, S, Gc, optimize=True)
    grads = p2_physical_gradients(coords, P2_NODES_BARY[:3])
    D = np.einsum("fpnc,fncd->fpd", grads, Gc)

    base = 9 * ids  # (F, 3)
    idx = np.empty((len(ids), 3, 9), dtype=np.int64)
    for c in range(3):
        idx[:, c] = (base[:, :, None] + 3 * c + np.arange(3)[None, None, :]).reshape(len(ids), 9)
    return ElementOperators(K9, D, triangle_areas(coords), idx)
