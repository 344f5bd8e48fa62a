"""Tangent space of the linearized isometry constraint, the clamp, and the
isometry defect.

Updates of the gradient flow live in the tangent space of the nodal isometry
constraint: at every free vertex z the symmetric part of grad(w)^T grad(y)
must vanish.  With a1, a2 the columns of grad(y)(z) that is the 3x6 block

    C_z grad(w) = (a1 . d1w,  a2 . d2w,  a2 . d1w + a1 . d2w)

acting only on the six nodal gradient dofs of z.  Its kernel is the set of
infinitesimal rotations of the nodal frame, grad(w) = (omega x a1, omega x a2)
(Bartels, SIAM J. Numer. Anal. 51, 2013), three-dimensional whenever a1 and a2
are independent.  Taking omega along a1, a2 and the normal n = a1 x a2 gives
three mutually orthogonal directions, so the tangent space has a closed-form
block-diagonal basis Z: the identity on the three value dofs of each free
vertex and an orthonormal 6x3 kernel block of C_z on its gradient dofs.
`nodal_frames` is the one pass over the frames: `tangent_basis` reads the
basis and the smallest singular value of each C_z off it, which the flow
checks for degeneracy, and `nodal_isometry_defects` the defects.
"""

from __future__ import annotations

import numpy as np

from .dkt import DeformationField
from .mesh import TriangleMesh


class ConstraintDegeneracyError(RuntimeError):
    """A per-vertex constraint block lost rank; the nodal gradients degenerated."""


def cross(a, b) -> np.ndarray:
    """a x b over the last axis, written out: on the small stacks of a flow
    step it takes half the time of np.cross and gives the same bits."""
    out = np.empty(np.broadcast(a, b).shape)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def nodal_frames(grads: np.ndarray):
    """The frames of the nodal gradients (a1, a2), shape (n, 3, 2), from one
    pass: (|a1|^2, |a2|^2, a1 . a2), each (n,), and a1 x a2, (n, 3)."""
    a1, a2 = grads[:, :, 0], grads[:, :, 1]
    return (a1 * a1).sum(axis=1), (a2 * a2).sum(axis=1), (a1 * a2).sum(axis=1), cross(a1, a2)


def tangent_basis(grads: np.ndarray, frames):
    """Orthonormal kernel blocks of the constraint blocks C_z and the smallest
    singular value of each block, from the `nodal_frames` of the gradients.

    `grads` holds the nodal gradients (a1, a2) of n vertices, shape (n, 3, 2).
    Returns (Q, sigma).  Q has shape (n, 3, 2, 3); entry [v, c, k, j] is the
    d_(k+1) w_c coefficient of the j-th kernel direction of vertex v.  With
    nu = a1 x a2 / |a1 x a2|, the directions are the rotations about a1, a2
    and nu, normalized:

        (nu, 0),   (0, nu),   (nu x a1, nu x a2) / sqrt(|a1|^2 + |a2|^2).

    They are orthonormal and annihilated by C_z for any independent a1, a2,
    and they depend smoothly on the gradients; where a block has lost rank
    its Q is not finite.

    sigma, shape (n,), is the smallest singular value of each C_z.
    C_z C_z^T = [[p, 0, m], [0, q, m], [m, m, p + q]] with p = |a1|^2,
    q = |a2|^2 and m = a1 . a2; its smallest eigenvalue comes from the
    closed-form (trigonometric) solution of the symmetric 3x3 eigenproblem.
    Where two eigenvalues nearly coincide, as at a near-isometric vertex
    (eigenvalues close to 1, 1 and 2), that solution is accurate to about
    sqrt(eps) times their size (1e-9 at level 3), which leaves a threshold
    far below them unaffected.
    """
    p, q, m, normal = frames
    trace = p + q
    mean = 2.0 * trace / 3.0
    d0, d1, d2 = p - mean, q - mean, trace - mean
    mm = m * m
    width = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 4.0 * mm) / 6.0)
    # det(C C^T - mean I) / (2 width^3), the cosine of three times the angle
    det = d0 * d1 * d2 - (d0 + d1) * mm
    cos3 = np.divide(det, 2.0 * width**3, out=np.zeros_like(det), where=width > 0)
    angle = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
    smallest = mean + 2.0 * width * np.cos(angle + 2.0 * np.pi / 3.0)
    sigma = np.sqrt(np.maximum(smallest, 0.0))

    # Q is stored with the kind before the component, entry [v, k, c, j], the
    # layout in which `linsolve.TangentSystem` gathers it, and returned as a
    # view in the order [v, c, k, j]
    Qk = np.zeros((len(grads), 2, 3, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = normal / np.sqrt((normal * normal).sum(axis=1))[:, None]
        drill = 1.0 / np.sqrt(trace)
    Qk[:, 0, :, 0] = nu
    Qk[:, 1, :, 1] = nu
    # (nu x a1, nu x a2), with the component axis last
    np.multiply(drill[:, None, None], cross(nu[:, None, :], grads.transpose(0, 2, 1)),
                out=Qk[:, :, :, 2])
    return Qk.transpose(0, 2, 1, 3), sigma


def nodal_isometry_defects(frames) -> np.ndarray:
    """Per-vertex Frobenius norm of grad(y)^T grad(y) - I from the
    `nodal_frames`: sqrt((|a1|^2 - 1)^2 + 2 (a1 . a2)^2 + (|a2|^2 - 1)^2),
    summed in the row order of the 2-by-2 defect matrix."""
    p, q, m, _ = frames
    p, q = p - 1.0, q - 1.0
    return np.sqrt(p * p + m * m + m * m + q * q)


def apply_dirichlet(field: DeformationField, mesh: TriangleMesh) -> DeformationField:
    """Clamp the dofs of the Dirichlet vertices flat, y_D = (x_1, x_2, 0) and
    grad y_D = [I2; 0]: the clamp of the benchmarks."""
    out = field.copy()
    verts = mesh.dirichlet_vertices
    nod = out.nodal()
    nod[verts] = 0.0
    nod[verts, :2, 0] = mesh.vertices[verts]
    nod[verts, 0, 1] = 1.0
    nod[verts, 1, 2] = 1.0
    return out
