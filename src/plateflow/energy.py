"""Discrete bending energy, its assembled derivatives, and the obstacle penalty.

The energy of a deformation y is

    E[y] = 1/2 ||grad theta(y)||^2  -  alpha * L{ lap_h(y) . (d1 y x d2 y) }
           -  L{ f . y },

where theta is the reconstructed quadratic gradient, lap_h the element-local
discrete Laplacian, and L the vertex-lumped integral.  The obstacle flow adds
the penalty (1/2 eps) L{ (y3 - g)_+^2 }; its integrand splits into a convex
part s^2 and a concave part treated explicitly in the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np
import scipy.sparse as sp

from .constraints import cross
from .dkt import DeformationField, ElementOperators, vertex_lumped_masses
from .mesh import TriangleMesh

ForceLike = Union[None, np.ndarray, tuple, list]


@dataclass
class SimulationParams:
    """Scalar run parameters of the gradient flows.

    alpha      spontaneous-curvature mismatch (1/length)
    tau        pseudo-time step
    eps_stop   termination threshold on the update norm ||grad theta(d_t y)||
    eps_penalty  obstacle penalty parameter, positive and finite: given, the
               flow is the penalized obstacle flow (`penalized`); None, it is
               the isometry flow
    f          body force: None, a constant 3-vector, or one 3-vector per
               vertex, shape (V, 3)
    max_iters  the most steps a run takes
    obstacle_height  height of the flat obstacle plane: a class constant, 1.0
    """

    alpha: float = 0.0
    tau: float = 0.1
    eps_stop: float = 1.0e-3
    eps_penalty: Optional[float] = None
    f: ForceLike = None
    max_iters: int = 500_000
    obstacle_height: ClassVar[float] = 1.0

    def __post_init__(self):
        for name in ("tau", "eps_stop"):
            if not (0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        for name in ("alpha", "f"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if self.penalized and not (0 < self.eps_penalty < np.inf):
            raise ValueError("eps_penalty must be positive and finite")

    @property
    def penalized(self) -> bool:
        return self.eps_penalty is not None


def assemble_bending_stiffness(mesh: TriangleMesh, pairs) -> sp.csr_matrix:
    """The scalar stiffness K_s, (3V, 3V): 1/2 ||grad theta(y)||^2 =
    1/2 sum_c y_c^T K_s y_c, with y_c the dofs 3 v + k of component c of y.

    K_s couples the dofs 3 i + k and 3 j + l of two vertices that share a
    triangle through entry (k, l) of the summed element block S_ij of the
    pair.  The pairs (rows, cols, blocks) are those of `vertex_pair_blocks`
    on the element bending blocks.
    """
    # the pairs (i, j) sorted by column j, then row i, are the pairs (j, i)
    # sorted by row, then column, whose block is S_ij^T
    rows, cols, blocks = pairs
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=mesh.num_vertices))])
    n = 3 * mesh.num_vertices
    return sp.bsr_matrix((blocks.transpose(0, 2, 1), rows, indptr), shape=(n, n)).tocsr()


def bending_product(K: sp.csr_matrix, dofs: np.ndarray) -> np.ndarray:
    """K y for the scalar stiffness K of `assemble_bending_stiffness` applied
    to each component of the dofs y (9 v + 3 c + k), in one product.  `dofs`
    may also stack m fields, shape (m, 9V): their products come from one
    product of K with 3 m columns, bit for bit as one at a time."""
    V = K.shape[0] // 3
    m = dofs.size // (9 * V)
    by_component = dofs.reshape(m, V, 3, 3).transpose(1, 3, 0, 2).reshape(3 * V, 3 * m)
    return (K @ by_component).reshape(V, 3, m, 3).transpose(2, 0, 3, 1).reshape(dofs.shape)


def curvature_terms(mesh: TriangleMesh, field: DeformationField, alpha: float,
                    ops: ElementOperators, frames):
    """The spontaneous-curvature term alpha * L{ lap_h(y) . (d1 y x d2 y) },
    which enters the energy with a minus sign, and its assembled derivative r,
    in one pass: the element Laplacians are computed once and serve both, as
    do the nodal normals d1 y x d2 y, which it reads off the field's
    `nodal_frames`.

    r . w is the Gateaux derivative in the direction w: the sum of the three
    lumped terms in which w enters the Laplacian, d1, and d2 slots in turn.
    The term is cubic in y, so r . y is three times its value.
    """
    tri = mesh.triangles
    g = field.nodal()[tri]                                    # (F, 3v, 3c, 3)
    a1, a2 = g[..., 1], g[..., 2]                             # (F, 3v, 3c)
    nu = frames[3][tri]
    loc = field.dofs[ops.scalar_dof_indices]                  # (F, 3c, 9)
    lap = np.matmul(ops.divergence, loc.transpose(0, 2, 1))   # (F, 3v, 3c)
    weight = alpha * ops.areas / 3.0
    value = float(weight @ (lap * nu).sum(axis=(1, 2)))

    # term 1: test function inside the discrete Laplacian, (F, 3c, 9)
    r = np.matmul((weight[:, None, None] * nu).transpose(0, 2, 1), ops.divergence)
    # terms 2 and 3: test function inside the cross product; contributions land
    # on the nodal gradient dofs.  l.(d1w x a2) = d1w.(a2 x l),
    # l.(a1 x d2w) = d2w.(l x a1)
    wlap = weight[:, None, None] * lap
    by_kind = r.reshape(-1, 3, 3, 3)                           # (F, 3c, 3v, kind)
    by_kind[:, :, :, 1] += cross(a2, wlap).transpose(0, 2, 1)
    by_kind[:, :, :, 2] += cross(wlap, a1).transpose(0, 2, 1)
    rhs = np.bincount(ops.scalar_dof_indices.reshape(-1), weights=r.reshape(-1),
                      minlength=field.dofs.size)
    return value, rhs


def force_rhs(mesh: TriangleMesh, f: ForceLike) -> np.ndarray:
    """Vertex-lumped load vector: entry (z, c, value) = f_c(z) * m_z, for f
    None, a constant 3-vector, or one 3-vector per vertex, shape (V, 3)."""
    r = np.zeros((mesh.num_vertices, 3, 3))
    if f is not None:
        fv = np.asarray(f, dtype=np.float64).reshape(-1, 3)
        r[:, :, 0] = vertex_lumped_masses(mesh)[:, None] * fv
    return r.reshape(-1)


# ---------------------------------------------------------------------------
# obstacle penalty

def penalty_terms(y3: np.ndarray, eps: float, masses: np.ndarray, height: float):
    """The obstacle penalty at the heights y3 of the vertices, from one pass.

    Returns the energy (1/2 eps) L{ (y3 - height)_+^2 }, the penetration
    max (y3 - height)_+, and the explicit penalty terms of the penalized flow
    on the y3 values.  The integrand splits as (s - g)_+^2 = s^2 + P(s) into a
    convex and a concave part, with p = P' = -2g above the obstacle and -2s
    below; the explicit terms -(1/eps) M y3 - (1/2 eps) M p(y3) are therefore
    -(1/eps) M (y3 - height)_+, which vanish exactly where y3 <= height.
    """
    if not eps > 0:
        raise ValueError("penalty parameter eps must be positive")
    over = np.maximum(y3 - height, 0.0)
    return (float((masses * over**2).sum()) / (2.0 * eps), float(over.max()),
            -(masses / eps) * over)
