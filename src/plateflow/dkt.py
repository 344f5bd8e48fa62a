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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, triangle_areas

# barycentric coordinates of the 6 P2 nodes (vertices, then opposite midpoints)
P2_NODES_BARY = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
])

# 7-point symmetric triangle rule, exact through degree 5 (barycentric, weight)
TRI_QUAD_DEGREE5 = (
    np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [0.797426985353087, 0.101286507323456, 0.101286507323456],
        [0.101286507323456, 0.797426985353087, 0.101286507323456],
        [0.101286507323456, 0.101286507323456, 0.797426985353087],
        [0.059715871789770, 0.470142064105115, 0.470142064105115],
        [0.470142064105115, 0.059715871789770, 0.470142064105115],
        [0.470142064105115, 0.470142064105115, 0.059715871789770],
    ]),
    np.array([0.225,
              0.125939180544827, 0.125939180544827, 0.125939180544827,
              0.132394152788506, 0.132394152788506, 0.132394152788506]),
)


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


def _jacobians(coords):
    """Affine maps of a stack of triangles; coords (F, 3, 2) -> J, inv(J)^T, areas."""
    coords = np.asarray(coords, dtype=np.float64)
    J = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=2)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if (det <= 0).any() or (np.abs(det) < 1e-14).any():
        raise ValueError("degenerate or clockwise triangle")
    inv_t = np.empty_like(J)
    inv_t[:, 0, 0] = J[:, 1, 1]
    inv_t[:, 0, 1] = -J[:, 1, 0]
    inv_t[:, 1, 0] = -J[:, 0, 1]
    inv_t[:, 1, 1] = J[:, 0, 0]
    inv_t /= det[:, None, None]
    return J, inv_t, 0.5 * det


def p2_physical_gradients(coords, bary) -> np.ndarray:
    """Physical gradients of the P2 basis at barycentric points: (F, npts, 6, 2)."""
    _, inv_t, _ = _jacobians(np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2))
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
    _jacobians(coords)  # validates nondegeneracy
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


def dkt_local_gradient_matrix(coords, vertex_ids=None) -> np.ndarray:
    """12x9 discrete-gradient matrix of a single triangle."""
    return dkt_gradient_matrices(np.asarray(coords)[None],
                                 None if vertex_ids is None else np.asarray(vertex_ids)[None])[0]


def p2_scalar_stiffness_matrices(coords) -> np.ndarray:
    """Stacked 6x6 matrices of integrals grad(N_i) . grad(N_j) over each triangle.

    Uses the 3-edge-midpoint rule, which integrates the quadratic products
    exactly.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2)
    _, _, areas = _jacobians(coords)
    grads = p2_physical_gradients(coords, P2_NODES_BARY[3:])  # (F, 3, 6, 2)
    S = np.einsum("fpne,fpme->fnm", grads, grads) * (areas[:, None, None] / 3.0)
    return S


def p2_vector_stiffness(coords) -> np.ndarray:
    """12x12 stiffness of a 2-component P2 field on one triangle (node-major)."""
    S = p2_scalar_stiffness_matrices(np.asarray(coords)[None])[0]
    out = np.zeros((12, 12))
    out[0::2, 0::2] = S
    out[1::2, 1::2] = S
    return out


def bending_blocks(coords, vertex_ids=None) -> np.ndarray:
    """Stacked 9x9 per-component bending blocks G^T S G; shape (F, 9, 9).

    The scalar P2 stiffness acts identically on both components of theta, so
    K9 = sum_c Gc^T S Gc with Gc the rows of theta-component c.
    """
    G = dkt_gradient_matrices(coords, vertex_ids)
    S = p2_scalar_stiffness_matrices(coords)
    Gc = G.reshape(-1, 6, 2, 9)
    return np.einsum("fnce,fnm,fmcd->fed", Gc, S, Gc, optimize=True)


def element_bending_matrix(coords, vertex_ids=None) -> np.ndarray:
    """27x27 bending matrix of one element, component-major blocks of G^T S G."""
    K9 = bending_blocks(np.asarray(coords)[None],
                        None if vertex_ids is None else np.asarray(vertex_ids)[None])[0]
    out = np.zeros((27, 27))
    for c in range(3):
        out[9 * c:9 * c + 9, 9 * c:9 * c + 9] = K9
    return out


def divergence_matrices(coords, vertex_ids=None) -> np.ndarray:
    """Stacked 3x9 maps: local scalar dofs -> div(theta) at the 3 vertices.

    div(theta) is affine on each element and discontinuous across elements;
    the returned values are the element-local limits.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 2)
    grads = p2_physical_gradients(coords, P2_NODES_BARY[:3])  # (F, 3pts, 6, 2)
    G = dkt_gradient_matrices(coords, vertex_ids)
    Gc = G.reshape(-1, 6, 2, 9)
    # div theta (x) = sum_n sum_c dN_n/dx_c (x) * theta[n, c]
    return np.einsum("fpnc,fncd->fpd", grads, Gc)


def discrete_laplacian_at_vertices(coords, local_dofs, vertex_ids=None) -> np.ndarray:
    """Element-local discrete Laplacian at the 3 vertices.

    local_dofs has shape (ncomp, 9) (or (9,) for a single scalar component);
    returns (3, ncomp) (or (3,)).
    """
    D = divergence_matrices(np.asarray(coords)[None],
                            None if vertex_ids is None else np.asarray(vertex_ids)[None])[0]
    dofs = np.asarray(local_dofs, dtype=np.float64)
    if dofs.ndim == 1:
        return D @ dofs
    return (D @ dofs.T)


# ---------------------------------------------------------------------------
# global dof bookkeeping

@dataclass(frozen=True)
class DktDofMap:
    """Global layout: dof(vertex, component, kind) = 9*vertex + 3*component + kind
    with kind 0 = value, 1 = d/dx1, 2 = d/dx2.  All 9 dofs of a clamped vertex
    are fixed; every other dof is free."""

    num_vertices: int
    dirichlet_vertices: np.ndarray

    @classmethod
    def from_mesh(cls, mesh: TriangleMesh) -> "DktDofMap":
        return cls(mesh.num_vertices, mesh.dirichlet_vertices)

    @property
    def num_dofs(self) -> int:
        return 9 * self.num_vertices

    def dof_index(self, vertex, component, kind):
        return 9 * np.asarray(vertex) + 3 * np.asarray(component) + np.asarray(kind)

    @property
    def fixed_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_dofs, dtype=bool)
        for v in np.asarray(self.dirichlet_vertices, dtype=np.int64):
            mask[9 * v:9 * v + 9] = True
        return mask

    @property
    def free_mask(self) -> np.ndarray:
        return ~self.fixed_mask

    @property
    def free_indices(self) -> np.ndarray:
        return np.flatnonzero(self.free_mask)

    @property
    def free_vertices(self) -> np.ndarray:
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[np.asarray(self.dirichlet_vertices, dtype=np.int64)] = False
        return np.flatnonzero(mask)

    @property
    def full_to_free(self) -> np.ndarray:
        out = np.full(self.num_dofs, -1, dtype=np.int64)
        free = self.free_indices
        out[free] = np.arange(len(free))
        return out


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
# lumped integration and discrete norms

def vertex_lumped_masses(mesh: TriangleMesh) -> np.ndarray:
    """m_z = sum over adjacent triangles of |T|/3, shape (V,)."""
    m = np.zeros(mesh.num_vertices)
    np.add.at(m, mesh.triangles.reshape(-1), np.repeat(mesh.triangle_areas / 3.0, 3))
    return m


def lumped_p1_integral(mesh: TriangleMesh, values) -> float:
    """Vertex-rule integral sum_T (|T|/3) sum_{z in T} v_T(z).

    values has shape (F, 3): one value per (triangle, local vertex) pair,
    so elementwise-discontinuous integrands are allowed.
    """
    values = np.asarray(values, dtype=np.float64).reshape(mesh.num_triangles, 3)
    return float((mesh.triangle_areas / 3.0) @ values.sum(axis=1))


def discrete_lp_norm(mesh: TriangleMesh, values, p) -> float:
    """Discrete L^p norm of elementwise vertex values; p = inf gives the max."""
    values = np.abs(np.asarray(values, dtype=np.float64).reshape(mesh.num_triangles, 3))
    if p == np.inf or p == "inf":
        return float(values.max()) if values.size else 0.0
    p = float(p)
    if p < 1:
        raise ValueError("discrete L^p norm requires p >= 1")
    return float(((mesh.triangle_areas / 3.0) @ (values ** p).sum(axis=1)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# cubic evaluator (visualization and error studies only; assembly never
# touches the interior of the cubic)

_P3_POWERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def _monomials(u):
    u = np.asarray(u)
    return np.stack([u[..., 0] ** a * u[..., 1] ** b for a, b in _P3_POWERS], axis=-1)


def _monomial_gradients(u):
    u = np.asarray(u)
    gx = []
    gy = []
    for a, b in _P3_POWERS:
        gx.append(a * u[..., 0] ** max(a - 1, 0) * u[..., 1] ** b if a else np.zeros(u.shape[:-1]))
        gy.append(b * u[..., 0] ** a * u[..., 1] ** max(b - 1, 0) if b else np.zeros(u.shape[:-1]))
    return np.stack([np.stack(gx, axis=-1), np.stack(gy, axis=-1)], axis=-1)  # (..., 10, 2)


class CubicEvaluator:
    """Per-element reduced-cubic reconstruction from the 9 nodal dofs.

    The tenth cubic coefficient is fixed by the center-of-gravity constraint
    p(x_T) = (1/6) sum_z (2 p(z) - grad p(z) . (z - x_T)).  Coefficients are
    computed in centered coordinates scaled by the element diameter.
    """

    def __init__(self, mesh: TriangleMesh):
        coords = mesh.triangle_coords()
        self.mesh = mesh
        self.centers = coords.mean(axis=1)
        self.scale = np.linalg.norm(coords - self.centers[:, None, :], axis=2).max(axis=1)
        u = (coords - self.centers[:, None, :]) / self.scale[:, None, None]  # (F, 3, 2)

        phi = _monomials(u)                 # (F, 3, 10)
        dphi = _monomial_gradients(u)       # (F, 3, 10, 2)
        nf = len(coords)
        A = np.zeros((nf, 10, 10))
        A[:, 0:3] = phi
        A[:, 3:6] = dphi[:, :, :, 0]
        A[:, 6:9] = dphi[:, :, :, 1]
        # center row: phi(0) - (1/6) sum_i (2 phi(u_i) - dphi(u_i) . u_i)
        phi0 = _monomials(np.zeros((nf, 2)))
        A[:, 9] = phi0 - (2.0 * phi - np.einsum("fnkd,fnd->fnk", dphi, u)).sum(axis=1) / 6.0
        self._lu = np.linalg.inv(A)  # elements are tiny; direct inverse is fine

    def coefficients(self, field: DeformationField) -> np.ndarray:
        """(F, ncomp, 10) cubic coefficients in the scaled local frame."""
        nod = field.nodal()[self.mesh.triangles]          # (F, 3, comp, 3)
        s = self.scale[:, None, None]
        rhs = np.concatenate([
            nod[:, :, :, 0],                               # values
            nod[:, :, :, 1] * s,                           # d1, scaled
            nod[:, :, :, 2] * s,                           # d2, scaled
            np.zeros((len(self.scale), 1, nod.shape[2])),  # center constraint
        ], axis=1)                                         # (F, 10, comp)
        return np.einsum("fkl,flc->fck", self._lu, rhs)

    def _local_points(self, bary):
        coords = self.mesh.triangle_coords()
        pts = np.einsum("pn,fnd->fpd", np.atleast_2d(bary), coords)
        return (pts - self.centers[:, None, :]) / self.scale[:, None, None], pts

    def values(self, field, bary):
        """Field values at barycentric points: (F, npts, ncomp)."""
        u, _ = self._local_points(bary)
        return np.einsum("fpk,fck->fpc", _monomials(u), self.coefficients(field))

    def gradients(self, field, bary):
        """Field gradients at barycentric points: (F, npts, ncomp, 2)."""
        u, _ = self._local_points(bary)
        dphi = _monomial_gradients(u)  # (F, npts, 10, 2)
        out = np.einsum("fpkd,fck->fpcd", dphi, self.coefficients(field))
        return out / self.scale[:, None, None, None]

    def hessians(self, field, bary):
        """Field Hessians at barycentric points: (F, npts, ncomp, 2, 2)."""
        u, _ = self._local_points(bary)
        H = np.zeros(u.shape[:2] + (10, 2, 2))
        x, y = u[..., 0], u[..., 1]
        for k, (a, b) in enumerate(_P3_POWERS):
            if a >= 2:
                H[..., k, 0, 0] = a * (a - 1) * x ** (a - 2) * y ** b
            if b >= 2:
                H[..., k, 1, 1] = b * (b - 1) * x ** a * y ** (b - 2)
            if a >= 1 and b >= 1:
                H[..., k, 0, 1] = H[..., k, 1, 0] = a * b * x ** (a - 1) * y ** (b - 1)
        out = np.einsum("fpkde,fck->fpcde", H, self.coefficients(field))
        return out / self.scale[:, None, None, None, None] ** 2


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
    return ElementOperators(K9, D, triangle_areas(mesh.vertices, mesh.triangles), idx)


def local_scalar_dofs(mesh: TriangleMesh, field: DeformationField) -> np.ndarray:
    """(F, 3comp, 9) element-local scalar dof vectors of each component."""
    nod = field.nodal()[mesh.triangles]        # (F, 3v, 3c, 3kind)
    return nod.transpose(0, 2, 1, 3).reshape(mesh.num_triangles, 3, 9)


def discrete_laplacian_field(mesh: TriangleMesh, field: DeformationField,
                             ops: ElementOperators | None = None) -> np.ndarray:
    """Elementwise nodal discrete Laplacian, shape (F, 3 vertices, 3 components)."""
    if ops is None:
        ops = element_operators(mesh)
    loc = local_scalar_dofs(mesh, field)
    return np.einsum("fpl,fcl->fpc", ops.divergence, loc)
