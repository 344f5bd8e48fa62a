import numpy as np
import pytest
import scipy.sparse as sp

from plateflow import constraints as cn, dkt, energy as en, linsolve, mesh as pm
from plateflow.linsolve import _BLOCK_COLS as BLOCK_COLS, _BLOCK_ROWS as BLOCK_ROWS

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


def interpolate_dkt(mesh, y, grad_y):
    """Nodal interpolation: values y(z) and gradients grad_y(z) become the dofs.

    y maps (N, 2) -> (N, 3); grad_y maps (N, 2) -> (N, 3, 2).
    """
    pts = mesh.vertices
    vals = np.asarray(y(pts), dtype=np.float64).reshape(-1, 3)
    grads = np.asarray(grad_y(pts), dtype=np.float64).reshape(-1, 3, 2)
    dofs = np.concatenate([vals[:, :, None], grads], axis=2)
    return dkt.DeformationField(dofs.reshape(-1))


# ---------------------------------------------------------------------------
# the program's evaluations in their one-argument forms: each computes the
# data that the flow passes in, the element operators, the vertex pairs and
# the nodal frames, from the mesh or the field alone

def bending_stiffness(mesh):
    """K_s of `assemble_bending_stiffness`, from the mesh's own vertex pairs."""
    pairs = linsolve.vertex_pair_blocks(mesh.triangles, dkt.element_operators(mesh).bending)
    return en.assemble_bending_stiffness(mesh, pairs)


def expanded_stiffness(K_s):
    """The stiffness K = kron(I_3, K_s) of the nine dofs of each vertex, as a
    (9V, 9V) CSR matrix in the dof order 9 v + 3 c + k of the fields: row
    9 v + 3 c + k of K is row 3 v + k of K_s, on the dofs of component c."""
    V = K_s.shape[0] // 3
    v, ck = np.divmod(np.arange(9 * V), 9)
    c, k = np.divmod(ck, 3)
    order = 3 * V * c + 3 * v + k
    return sp.kron(sp.identity(3), K_s, format="csr")[order][:, order]


def curvature_terms(mesh, field, alpha, ops=None):
    """`energy.curvature_terms` with the element operators of the mesh unless
    given, and the nodal frames of the field."""
    ops = dkt.element_operators(mesh) if ops is None else ops
    return en.curvature_terms(mesh, field, alpha, ops, cn.nodal_frames(field.gradients()))


def tangent_basis(grads):
    """`constraints.tangent_basis` of the nodal gradients (n, 3, 2) alone."""
    return cn.tangent_basis(grads, cn.nodal_frames(grads))


def isometry_defect(field):
    """Max over vertices of the Frobenius norm of grad(y)^T grad(y) - I."""
    return float(cn.nodal_isometry_defects(cn.nodal_frames(field.gradients())).max())


def random_field(mesh, rng, scale=1.0, clamp=False):
    """Random Kirchhoff-triangle field; optionally zero on clamped vertices."""
    from plateflow.dkt import DeformationField
    dofs = scale * rng.standard_normal(9 * mesh.num_vertices)
    if clamp:
        for v in mesh.dirichlet_vertices:
            dofs[9 * v:9 * v + 9] = 0.0
    return DeformationField(dofs)


# ---------------------------------------------------------------------------
# quadrature, lumped integrals and the element's cubic, for error studies:
# the program integrates by vertex lumping and never evaluates the cubic
# inside an element

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


def lumped_p1_integral(mesh, values):
    """Vertex-rule integral sum_T (|T|/3) sum_{z in T} v_T(z) of values (F, 3):
    one value per (triangle, local vertex), so that elementwise-discontinuous
    integrands are allowed."""
    values = np.asarray(values, dtype=np.float64).reshape(mesh.num_triangles, 3)
    return float((mesh.triangle_areas / 3.0) @ values.sum(axis=1))


def discrete_lp_norm(mesh, values, p):
    """Discrete L^p norm of elementwise vertex values; p = inf gives the max."""
    values = np.abs(np.asarray(values, dtype=np.float64).reshape(mesh.num_triangles, 3))
    if p == np.inf:
        return float(values.max()) if values.size else 0.0
    if p < 1:
        raise ValueError("discrete L^p norm requires p >= 1")
    return float(((mesh.triangle_areas / 3.0) @ (values ** p).sum(axis=1)) ** (1.0 / p))


P3_POWERS = np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                      (3, 0), (2, 1), (1, 2), (0, 3)])


def monomials(u, dx=0, dy=0):
    """The ten cubic monomials x^a y^b at the points u (..., 2), differentiated
    dx times in x and dy times in y; shape (..., 10)."""
    a, b = P3_POWERS.T
    coef = np.prod([a - i for i in range(dx)] + [b - i for i in range(dy)], axis=0)
    return (coef * u[..., 0, None] ** np.maximum(a - dx, 0)
            * u[..., 1, None] ** np.maximum(b - dy, 0))


class CubicEvaluator:
    """The reduced cubic of each element, from its 9 nodal dofs per
    component, evaluated at fixed barycentric points.

    The tenth cubic coefficient is fixed by the center-of-gravity constraint
    p(x_T) = (1/6) sum_z (2 p(z) - grad p(z) . (z - x_T)).  Coefficients are
    computed in centered coordinates scaled by the element diameter.  The
    tables of the monomials and their derivatives at the points depend on the
    mesh only and are built once; a field then costs a gather and matrix
    products.
    """

    def __init__(self, mesh, bary):
        coords = mesh.triangle_coords()
        centers = coords.mean(axis=1)
        scale = np.linalg.norm(coords - centers[:, None, :], axis=2).max(axis=1)
        u = (coords - centers[:, None, :]) / scale[:, None, None]      # (F, 3, 2)
        phi, d1, d2 = monomials(u), monomials(u, 1, 0), monomials(u, 0, 1)
        center = monomials(np.zeros(2)) - (
            2.0 * phi - d1 * u[..., 0, None] - d2 * u[..., 1, None]).sum(axis=1) / 6.0
        A = np.concatenate([phi, d1, d2, center[:, None]], axis=1)     # (F, 10, 10)
        # the dofs of a component come as (values, d1, d2) of the three
        # vertices, the center row has no data; the scaled frame takes the
        # derivatives times the scale
        self._inverse = np.linalg.inv(A)[:, :, :9]
        self._inverse[:, :, 3:] *= scale[:, None, None]
        self._triangles = mesh.triangles

        pts = np.einsum("pn,fnd->fpd", np.atleast_2d(bary), coords)
        x = (pts - centers[:, None, :]) / scale[:, None, None]         # (F, p, 2)
        s = scale[:, None, None, None]
        self._values = monomials(x)                                     # (F, p, 10)
        self._gradients = np.stack([monomials(x, 1, 0), monomials(x, 0, 1)], axis=2) / s
        self._hessians = np.stack([monomials(x, 2, 0), monomials(x, 1, 1),
                                   monomials(x, 1, 1), monomials(x, 0, 2)], axis=2) / s**2

    def coefficients(self, field):
        """(F, 10, ncomp) cubic coefficients in the scaled local frame."""
        nod = field.nodal()[self._triangles]                   # (F, 3v, c, 3kind)
        return self._inverse @ nod.transpose(0, 3, 1, 2).reshape(len(nod), 9, -1)

    def _at_points(self, table, field):
        """table (F, p, ..., 10) times the coefficients: (F, p, ncomp, ...)."""
        coef = self.coefficients(field)
        out = (table.reshape(len(table), -1, 10) @ coef).reshape(table.shape[:-1] + (-1,))
        return np.moveaxis(out, -1, 2)

    def values(self, field):
        """Field values at the points: (F, npts, ncomp)."""
        return self._at_points(self._values, field)

    def gradients(self, field):
        """Field gradients at the points: (F, npts, ncomp, 2)."""
        return self._at_points(self._gradients, field)

    def hessians(self, field):
        """Field Hessians at the points: (F, npts, ncomp, 2, 2)."""
        out = self._at_points(self._hessians, field)
        return out.reshape(out.shape[:3] + (2, 2))


# ---------------------------------------------------------------------------
# the element operators as einsum contractions over the P2 gradients at the
# quadrature points: the reference of the closed-form stiffness and of the
# batched products in `dkt`

def einsum_physical_gradients(coords, bary):
    """Physical gradients of the P2 basis at barycentric points, (F, npts, 6, 2)."""
    inv_t = dkt._inverse_transposes(coords)
    return np.einsum("fed,pnd->fpne", inv_t, dkt.p2_reference_gradients(bary))


def einsum_stiffness(coords):
    """The P2 stiffness matrices by the 3-edge-midpoint rule, (F, 6, 6)."""
    grads = einsum_physical_gradients(coords, dkt.P2_NODES_BARY[3:])
    areas = pm.triangle_areas(coords)
    return np.einsum("fpne,fpme->fnm", grads, grads) * (areas[:, None, None] / 3.0)


def einsum_element_operators(mesh):
    """The bending blocks sum_c Gc^T S Gc, Gc the rows of the theta-component
    c, and the Laplacians D = div(theta) at the vertices."""
    coords = mesh.triangle_coords()
    Gc = dkt._dkt_gradient_matrices(coords).reshape(-1, 6, 2, 9)
    K9 = np.einsum("fnce,fnm,fmcd->fed", Gc, einsum_stiffness(coords), Gc, optimize=True)
    grads = einsum_physical_gradients(coords, dkt.P2_NODES_BARY[:3])
    return K9, np.einsum("fpnc,fncd->fpd", grads, Gc)


# ---------------------------------------------------------------------------
# readers of the run files

def read_mesh_file(path):
    """The vertices, triangles and clamped edges (V, 2), (F, 3), (D, 2) of a
    `save_mesh` file, each section's length checked against its header."""
    with open(path) as f:
        lines = f.read().splitlines()
    head = lines[0].split()
    assert len(head) == 4 and head[0] == "vertices" and head[2] == "triangles"
    nv, nt = int(head[1]), int(head[3])
    vertices = np.array([line.split() for line in lines[1:1 + nv]], dtype=np.float64)
    triangles = np.array([line.split() for line in lines[1 + nv:1 + nv + nt]], dtype=np.int64)
    tagged = lines[1 + nv + nt].split()
    assert len(tagged) == 2 and tagged[0] == "dirichlet_edges"
    clamped = np.array([line.split() for line in lines[2 + nv + nt:]],
                       dtype=np.int64).reshape(-1, 2)
    assert len(clamped) == int(tagged[1])
    return vertices, triangles, clamped


def read_history_csv(path):
    """Columns of a history file as arrays keyed by header name."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    cols = np.array(rows, dtype=np.float64).T if rows else np.empty((len(header), 0))
    return {name: cols[i] for i, name in enumerate(header)}


def read_report(path):
    """The key: value lines of a report.txt as a dict of strings."""
    out = {}
    with open(path) as f:
        for line in f:
            if ":" in line:
                key, value = line.split(":", 1)
                out[key.strip()] = value.strip()
    return out


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


def reduced_matrix(system, values):
    """R as a CSC matrix, built from the stored entries of the blocks R_ij
    with i <= j (pairs, 30) that the system assembled: each block in its own
    place and, transposed, in the place of (j, i); a diagonal block in its
    own place only."""
    N = 6 * len(system.vertices)
    rows = 6 * system._rows[:, None] + BLOCK_ROWS
    cols = 6 * system._cols[:, None] + BLOCK_COLS
    off = system._rows != system._cols
    return sp.csc_matrix((np.concatenate([values[off].reshape(-1), values.reshape(-1)]),
                          (np.concatenate([cols[off].reshape(-1), rows.reshape(-1)]),
                           np.concatenate([rows[off].reshape(-1), cols.reshape(-1)]))),
                         shape=(N, N))


def stored_lower(factorization):
    """The lower triangle that the envelope storage of a band Cholesky holds,
    as a CSC matrix: its segments follow each other, and column j of a
    segment with leading dimension ld holds the rows j to j + ld."""
    N = factorization.segments[-1][1]
    rows, cols, positions = [], [], []
    offset = 0
    for first, end, ld in factorization.segments:
        j = np.repeat(np.arange(first, end), ld + 1)
        i = j + np.tile(np.arange(ld + 1), end - first)
        kept = i < N
        rows.append(i[kept])
        cols.append(j[kept])
        positions.append(offset + np.flatnonzero(kept))
        offset += (end - first) * (ld + 1)
    return sp.csc_matrix((factorization._store[np.concatenate(positions)],
                          (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))


def coo_bending_stiffness(mesh):
    """The bending stiffness K assembled from a COO list of the 81 entries of
    each element block and component, which `tocsr` sorts and sums."""
    ops = dkt.element_operators(mesh)
    idx = ops.scalar_dof_indices  # (F, 3c, 9)
    rows = np.repeat(idx, 9, axis=2).reshape(-1)
    cols = np.tile(idx, (1, 1, 9)).reshape(-1)
    data = np.tile(ops.bending[:, None, :, :], (1, 3, 1, 1)).reshape(-1)
    n = 9 * mesh.num_vertices
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# oracles of the evaluation pass: the energy, the spontaneous-curvature term,
# its derivative and the penalty terms, each computed on its own

def nodal_normals(field):
    """d1 y x d2 y at each vertex, shape (V, 3)."""
    g = field.gradients()
    return np.cross(g[:, :, 0], g[:, :, 1])


def nonlinear_energy_term(mesh, field, alpha, ops=None):
    """alpha * L{ lap_h(y) . (d1 y x d2 y) }; enters the energy with a minus sign."""
    if ops is None:
        ops = dkt.element_operators(mesh)
    loc = field.dofs[ops.scalar_dof_indices]
    lap = np.einsum("fpl,fcl->fpc", ops.divergence, loc)       # (F, 3v, 3c)
    nu = nodal_normals(field)[mesh.triangles]                  # (F, 3v, 3c)
    return alpha * lumped_p1_integral(mesh, np.einsum("fpc,fpc->fp", lap, nu))


def nonlinear_rhs(mesh, field, alpha, ops=None):
    """Assembled linear functional r with r . w equal to the Gateaux derivative
    of nonlinear_energy_term at `field`; the sum of the three lumped terms in
    which the test function enters the Laplacian, d1, and d2 slots in turn."""
    if ops is None:
        ops = dkt.element_operators(mesh)
    tri = mesh.triangles
    w = ops.areas / 3.0
    g = field.gradients()
    a1 = g[:, :, 0][tri]                                       # (F, 3v, 3c)
    a2 = g[:, :, 1][tri]
    nu = np.cross(a1, a2)
    loc = field.dofs[ops.scalar_dof_indices]
    lap = np.einsum("fpl,fcl->fpc", ops.divergence, loc)

    r = np.zeros(9 * mesh.num_vertices)
    # term 1: test function inside the discrete Laplacian
    contrib = alpha * np.einsum("f,fpc,fpl->fcl", w, nu, ops.divergence)
    np.add.at(r, ops.scalar_dof_indices.reshape(-1), contrib.reshape(-1))
    # terms 2 and 3: test function inside the cross product; contributions land
    # on the nodal gradient dofs.  l.(d1w x a2) = d1w.(a2 x l),
    # l.(a1 x d2w) = d2w.(l x a1)
    c1 = alpha * w[:, None, None] * np.cross(a2, lap)          # -> (vertex, c, kind=1)
    c2 = alpha * w[:, None, None] * np.cross(lap, a1)          # -> (vertex, c, kind=2)
    base = (9 * tri[:, :, None] + 3 * np.arange(3)[None, None, :])
    np.add.at(r, (base + 1).reshape(-1), c1.reshape(-1))
    np.add.at(r, (base + 2).reshape(-1), c2.reshape(-1))
    return r


def total_energy(mesh, field, params, K=None, ops=None):
    """The discrete energy E[y] (excluding any obstacle penalty), from K y if
    K is given and from the element blocks otherwise.

    Note: the constant alpha^2 |omega| of the continuous functional is not
    included, so flat states have energy zero and bent equilibria can be
    negative.  In floating point a flat state's energy is zero only up to
    rounding of order eps times the magnitude of the bending quadratic form,
    1/2 sum_f |loc_f|^T |B_f| |loc_f|: the terms cancel exactly only in exact
    arithmetic.
    """
    if K is not None:
        bend = 0.5 * float(field.dofs @ (K @ field.dofs))
    else:
        if ops is None:
            ops = dkt.element_operators(mesh)
        loc = field.dofs[ops.scalar_dof_indices]
        bend = 0.5 * float(np.einsum("fcl,flm,fcm->", loc, ops.bending, loc))
    e = bend - curvature_terms(mesh, field, params.alpha, ops)[0]
    if params.f is not None:
        e -= float(en.force_rhs(mesh, params.f) @ field.dofs)
    return e


def penalty_pieces(s, height=1.0):
    """Concave part P of the splitting (s-g)_+^2 = s^2 + P(s) and p = P'.

    For the unit obstacle: P(s) = -2s+1 for s > 1 and -s^2 for s <= 1;
    p(s) = -2 for s > 1 and -2s for s <= 1 (continuous, nonincreasing).
    """
    s = np.asarray(s, dtype=np.float64)
    above = s > height
    P = np.where(above, -2.0 * height * s + height**2, -s * s)
    p = np.where(above, -2.0 * height, -2.0 * s)
    if P.ndim == 0:
        return float(P), float(p)
    return P, p


def penalty_energy(mesh, field, eps, height=1.0):
    """(1/2 eps) * lumped integral of (y3 - height)_+^2."""
    masses = dkt.vertex_lumped_masses(mesh)
    over = np.maximum(field.positions()[:, 2] - height, 0.0)
    return float((masses * over**2).sum()) / (2.0 * eps)


def obstacle_penetration(field, height=1.0):
    """Discrete max norm of (y3 - height)_+ over the vertices."""
    return float(np.maximum(field.positions()[:, 2] - height, 0.0).max())


def penalty_rhs(mesh, field, eps, height=1.0):
    """Explicit penalty terms of the penalized flow at the previous iterate:
    -(1/eps) M y3 - (1/2 eps) M p(y3), from the splitting itself."""
    masses = dkt.vertex_lumped_masses(mesh)
    y3 = field.positions()[:, 2]
    _, p = penalty_pieces(y3, height)
    r = np.zeros((mesh.num_vertices, 3, 3))
    r[:, 2, 0] = -(masses / eps) * (y3 + 0.5 * p)
    return r.reshape(-1)


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
    loc = np.abs(field.dofs[ops.scalar_dof_indices])
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
    K = expanded_stiffness(flow.K)
    rho = residual_rounding_scale(K, y)
    Q, _ = tangent_basis(y.gradients()[flow.free_vertices])
    d_f = flow.system.solve(Q, rho[flow.free])
    K_ff = K[flow.free][:, flow.free]
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
