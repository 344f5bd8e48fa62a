"""Tangent space of the linearized isometry constraint, boundary data, and the
isometry defect.

Updates of the gradient flow live in the tangent space of the nodal isometry
constraint: at every free vertex z the symmetric part of grad(w)^T grad(y)
must vanish.  That is a 3x6 block C_z per free vertex, rows (11, 22, 12)
acting only on the six nodal gradient dofs of that vertex.  Its kernel has a
closed per-vertex basis, so the tangent space is spanned by a block-diagonal
matrix Z: the identity on the three value dofs of each free vertex and a
6x3 kernel block of C_z on its gradient dofs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .dkt import DeformationField
from .mesh import TriangleMesh


class ConstraintDegeneracyError(RuntimeError):
    """A per-vertex constraint block lost rank; the nodal gradients degenerated."""


def constraint_blocks(field: DeformationField, free_vertices: np.ndarray) -> np.ndarray:
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


def tangent_basis(field: DeformationField,
                  free_vertices: np.ndarray) -> tuple[sp.csr_matrix, float]:
    """Basis Z of the tangent space at `field` and the smallest singular value
    over the constraint blocks.

    Z has shape (9 n, 6 n) for n free vertices; its rows follow the free dofs
    (all nine dofs of each free vertex, in dof order) and its columns are, per
    vertex, the three value dofs and then three kernel directions of C_z,
    taken from the last three right singular vectors of the block.  The
    columns of each vertex are orthonormal.
    """
    n = len(free_vertices)
    _, s, vt = np.linalg.svd(constraint_blocks(field, free_vertices))
    # rows of a vertex, per component: the value row holds a 1 in the
    # component's value column, the d1 and d2 rows the kernel coefficients
    data = np.ones((n, 3, 7))
    data[:, :, 1:] = vt[:, 3:, :].transpose(0, 2, 1).reshape(n, 3, 6)
    cols = np.array([[c, 3, 4, 5, 3, 4, 5] for c in range(3)])
    indices = 6 * np.arange(n)[:, None, None] + cols
    indptr = np.concatenate([[0], np.cumsum(np.tile([1, 3, 3], 3 * n))])
    Z = sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr),
                      shape=(9 * n, 6 * n))
    return Z, float(s[:, 2].min())


def isometry_defect(field: DeformationField) -> float:
    """Max over vertices of the Frobenius norm of grad(y)^T grad(y) - I."""
    return float(nodal_isometry_defects(field).max())


def nodal_isometry_defects(field: DeformationField) -> np.ndarray:
    """Per-vertex Frobenius norm of the nodal isometry defect, shape (V,)."""
    g = field.gradients()
    gram = np.einsum("vci,vcj->vij", g, g)
    gram[:, 0, 0] -= 1.0
    gram[:, 1, 1] -= 1.0
    return np.sqrt((gram**2).sum(axis=(1, 2)))


def identity_boundary_data():
    """y_D = (x1, x2, 0), phi_D = [I2; 0]: the horizontal clamp of the benchmarks."""

    def y_d(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
        return np.column_stack([x[:, 0], x[:, 1], np.zeros(len(x))])

    def phi_d(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
        out = np.zeros((len(x), 3, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out

    return y_d, phi_d


def apply_dirichlet(field: DeformationField, mesh: TriangleMesh,
                    y_d: Callable, phi_d: Callable) -> DeformationField:
    """Overwrite the dofs of clamped vertices with the boundary data."""
    out = field.copy()
    verts = mesh.dirichlet_vertices
    if len(verts) == 0:
        return out
    pts = mesh.vertices[verts]
    vals = np.asarray(y_d(pts), dtype=np.float64).reshape(-1, 3)
    grads = np.asarray(phi_d(pts), dtype=np.float64).reshape(-1, 3, 2)
    nod = out.nodal()
    nod[verts, :, 0] = vals
    nod[verts, :, 1:] = grads
    return out
