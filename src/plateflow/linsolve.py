"""Sparse solves of the per-step flow systems in the tangent space.

A step seeks d in the range of a tangent basis Z with Z^T (A d - r) = 0.
Writing d = Z u gives the reduced system R u = Z^T r with R = Z^T A Z, which
is symmetric positive definite whenever A is positive definite on the tangent
space.

A couples the nine dofs of two free vertices i and j only when they share a
triangle, through kron(I_3, S_ij) with a 3x3 scalar block S_ij (one block for
each pair of dof kinds value, d1, d2), plus a diagonal on the value dofs.  Z
is block-diagonal: the identity on the three value dofs of a vertex and a 6x3
kernel block on its six gradient dofs.  So R is made of 6x6 blocks
R_ij = Z_i^T A_ij Z_j on those vertex pairs, and its pattern never changes.
`TangentSystem` builds that pattern once, in compressed sparse column form,
in a fill-reducing order of the vertices (minimum degree on the vertex
graph); a step computes the blocks with a few batched small products,
gathers them into the pattern through a source index fixed at set-up and
factors R with diagonal pivots.  The value-value part of a block is
S_ij[0, 0] times the identity, so its off-diagonal entries are exact zeros
and are not stored.  A single step of iterative refinement keeps the solve
within its normwise backward-error contract.  Factorizations are
deterministic: identical inputs yield bit-identical solutions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# ||R u - b||_inf <= BACKWARD_ERROR_TOL (||R||_inf ||u||_inf + ||b||_inf).
# Measured backward errors of the flow steps are at most 5e-16 (levels 1-4,
# cantilever loads); the tolerance sits three orders of magnitude above them.
BACKWARD_ERROR_TOL = 1e-12

# The 30 stored entries (row a, column b) of a 6x6 block R_ij, in the order
# `TangentSystem._block_values` packs them: value-value diagonal, value rows
# by kernel columns, kernel rows by value columns, kernel-kernel.  Unknowns
# 0-2 of a vertex are its three values, 3-5 its kernel coefficients.
_C, _M = np.divmod(np.arange(9, dtype=np.int32), 3)
_V = np.arange(3, dtype=np.int32)
_BLOCK_ROWS = np.concatenate([_V, _C, 3 + _M, 3 + _C])
_BLOCK_COLS = np.concatenate([_V, 3 + _M, _C, 3 + _M])
# per block column b: entries stored (a value column holds its own value row
# and the three kernel rows) and where the column starts inside the block
_COL_SIZE = np.array([4, 4, 4, 6, 6, 6], dtype=np.int32)
_COL_START = np.array([0, 4, 8, 12, 18, 24], dtype=np.int32)
# position of row a inside block column b
_ROW_OFFSET = np.where(_BLOCK_COLS < 3,
                       np.where(_BLOCK_ROWS == _BLOCK_COLS, 0, _BLOCK_ROWS - 2),
                       _BLOCK_ROWS)
# the entry (b, a) of each stored entry (a, b)
_ENTRY = {(a, b): e for e, (a, b) in enumerate(zip(_BLOCK_ROWS, _BLOCK_COLS))}
_TRANSPOSED = np.array([_ENTRY[b, a] for a, b in zip(_BLOCK_ROWS, _BLOCK_COLS)])


class SaddleSolveError(RuntimeError):
    """The factorization failed or the residual contract could not be met."""


def _factor(M, permc_spec):
    """SuperLU factorization of M, symmetric in pattern, with diagonal pivots."""
    return spla.splu(M, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _minimum_degree_rank(rows, cols, n) -> np.ndarray:
    """Position of each vertex in a minimum degree order of the graph whose
    edges (rows[p], cols[p]) are sorted by column, then row, and include the
    diagonal.  The order is read off a factorization of a diagonally dominant
    matrix with that pattern."""
    degree = np.bincount(cols, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    data = np.where(rows == cols, degree[cols] + 1.0, 1.0)
    graph = sp.csc_matrix((data, rows, indptr), shape=(n, n))
    return _factor(graph, "MMD_AT_PLUS_A").perm_c.astype(np.int64)


class TangentSystem:
    """The reduced step matrix R = Z^T A Z of a mesh, on a pattern fixed at
    construction.

    A is the matrix of the nine dofs per free vertex whose vertex-pair blocks
    are kron(I_3, S_ij), with S_ij the sum of the 3x3 blocks that the element
    matrices (F x 9 x 9, local dof 3 * vertex + kind) give the pair (i, j),
    plus `value_diagonal[v, c]` on the value dof of component c of vertex v
    (an array indexed by mesh vertex, or None).

    `vertices` holds the free vertices in the elimination order chosen here;
    every per-vertex array passed to `assemble` and `solve` and every dof
    vector follows it, nine dofs (component-major, then value, d1, d2) per
    vertex.
    """

    def __init__(self, triangles, element_matrices, free_vertices,
                 value_diagonal=None):
        n = len(free_vertices)
        local = np.full(max(triangles.max(), free_vertices.max()) + 1, -1)
        local[free_vertices] = np.arange(n)
        tri = local[triangles]
        # the vertex pair (i, j) = (tri[p], tri[q]) of each (triangle, p, q),
        # sorted by column, then row; pairs with a vertex that is not free go
        # to one extra key past the others, which is dropped
        i = np.repeat(tri, 3, axis=1)
        j = np.tile(tri, 3)
        keys, pair_of = np.unique(np.where((i >= 0) & (j >= 0), j * n + i, n * n),
                                  return_inverse=True)
        keys = keys[keys < n * n]
        num_pairs = len(keys)
        rows, cols = keys % n, keys // n

        # Number the vertices in a minimum degree order of their graph and
        # sort the pairs again.  Minimum degree breaks ties by the numbering
        # it is given, so this runs twice, the second time from the first
        # order: on the O-shape meshes that fills less at levels 1, 2 and 4
        # (45 984 -> 43 740, 210 096 -> 205 026 and 5.95 -> 5.89 million
        # stored entries of L and U) and 0.6 % more at level 3.
        rank = np.arange(n)                 # vertex number of each local vertex
        pair = np.arange(num_pairs)         # index into keys of each sorted pair
        for _ in range(2):
            renumber = _minimum_degree_rank(rows, cols, n)
            rank, rows, cols = renumber[rank], renumber[rows], renumber[cols]
            order = np.argsort(cols * n + rows)
            rows, cols, pair = rows[order], cols[order], pair[order]
        self.vertices = free_vertices[np.argsort(rank)]
        position = np.full(num_pairs + 1, num_pairs)
        position[pair] = np.arange(num_pairs)

        # S_ij: one bincount over the element matrices, whose entry
        # (f, 3p + k, 3q + l) adds to entry (k, l) of the pair of (f, p, q)
        target = (9 * position[pair_of].reshape(-1, 3, 1, 3, 1)
                  + np.arange(0, 9, 3)[:, None, None] + np.arange(3))
        blocks = np.bincount(target.reshape(-1), weights=element_matrices.reshape(-1),
                             minlength=9 * (num_pairs + 1))[:9 * num_pairs]

        # CSC pattern: column 6 j + b holds, for each pair (i, j) in turn, the
        # stored rows of block column b; the pair's rank in its column follows
        # from the sorted order
        degree = np.bincount(cols, minlength=n)
        first = np.concatenate([[0], np.cumsum(degree)[:-1]])
        indptr = np.append(30 * first[:, None] + degree[:, None] * _COL_START,
                           30 * num_pairs).astype(np.int32)
        in_column = (np.arange(num_pairs) - first[cols]).astype(np.int32)
        # where the entries of a pair start in each of its six columns
        starts = indptr[:-1].reshape(n, 6)[cols] + in_column[:, None] * _COL_SIZE
        positions = starts[:, _BLOCK_COLS] + _ROW_OFFSET
        indices = np.empty(30 * num_pairs, dtype=np.int32)
        indices[positions] = 6 * rows[:, None] + _BLOCK_ROWS
        self.R = sp.csc_matrix((np.zeros(30 * num_pairs), indices, indptr),
                               shape=(6 * n, 6 * n))

        # A step computes the blocks of the pairs i <= j only, since
        # R_ji = R_ij^T, and gathers R.data from them: each block fills its
        # own place and, transposed, the place of (j, i).  A diagonal block
        # fills its own place only.
        upper = np.flatnonzero(rows <= cols)
        self._rows, self._cols = rows[upper], cols[upper]
        mirror = np.searchsorted(cols * n + rows, self._rows * n + self._cols)
        self._diagonal_pairs = np.flatnonzero(self._rows == self._cols)
        entries = np.arange(30 * len(upper)).reshape(-1, 30)
        self._source = np.empty(30 * num_pairs, dtype=np.intp)
        self._source[positions[mirror[:, None], _TRANSPOSED]] = entries
        self._source[positions[upper]] = entries
        self._blocks = blocks.reshape(num_pairs, 3, 3)[upper]
        self._value_diagonal = (None if value_diagonal is None
                                else np.asarray(value_diagonal)[self.vertices])

    def _block_values(self, Q) -> np.ndarray:
        """The stored entries of the blocks R_ij with i <= j, shape (pairs, 30)."""
        S = self._blocks
        pairs = len(S)
        # Q_i and Q_j with the kind first: entry [p, k, 3 c + j]
        Qk = Q.transpose(0, 2, 1, 3)
        Qi = Qk[self._rows].reshape(pairs, 2, 9)
        Qj = Qk[self._cols].reshape(pairs, 2, 9)
        values = np.empty((pairs, 30))
        values[:, :3] = S[:, :1, 0]
        # SQ[p, k, 3 c + j] = S_ij[k, 1:] applied to the gradient rows of Q_j,
        # for the value row (k = 0) and the two gradient rows of component c
        SQ = np.matmul(S[:, :, 1:], Qj)
        values[:, 3:12] = SQ[:, 0]
        # value columns: the gradient rows of Q_i against S_ij[1:, 0]
        np.matmul(S[:, None, 1:, 0], Qi, out=values[:, None, 12:21])
        # kernel-kernel: Q_i^T kron(I_3, S_ij[1:, 1:]) Q_j
        np.matmul(Qi.reshape(pairs, 6, 3).transpose(0, 2, 1), SQ[:, 1:].reshape(pairs, 6, 3),
                  out=values[:, 21:].reshape(pairs, 3, 3))
        if self._value_diagonal is not None:
            values[self._diagonal_pairs, :3] += self._value_diagonal
        return values

    def assemble(self, Q) -> None:
        """Write R = Z^T A Z for the kernel blocks Q (vertices x 3 x 2 x 3,
        entry [v, c, k, j]: the d_(k+1) w_c coefficient of kernel column j)
        into `R`."""
        if Q.shape != (len(self.vertices), 3, 2, 3):
            raise ValueError(f"kernel blocks of shape {Q.shape} do not match "
                             f"{len(self.vertices)} vertices")
        np.take(self._block_values(Q).reshape(-1), self._source, out=self.R.data,
                mode="clip")

    def solve(self, Q, rhs) -> np.ndarray:
        """Return the dofs d = Z u with (Z^T A Z) u = Z^T rhs.

        A must be positive definite on the range of Z.  R is factorized in the
        order of `vertices`, with no further reordering.  Raises
        SaddleSolveError on a numerically singular factorization or an unmet
        backward-error bound (never silent garbage).
        """
        n = len(self.vertices)
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        if rhs.size != 9 * n:
            raise ValueError(f"rhs of length {rhs.size} does not match {n} vertices")
        self.assemble(Q)
        R = self.R
        r = rhs.reshape(n, 3, 3)
        b = np.empty((n, 6))
        b[:, :3] = r[:, :, 0]
        Q = Q.reshape(n, 6, 3)
        b[:, 3:] = np.matmul(r[:, :, 1:].reshape(n, 1, 6), Q)[:, 0]
        b = b.reshape(-1)
        try:
            lu = _factor(R, "NATURAL")
        except (RuntimeError, ValueError) as exc:
            raise SaddleSolveError(f"sparse factorization failed: {exc}") from exc
        u = lu.solve(b)
        if not np.isfinite(u).all():
            raise SaddleSolveError("factorization produced non-finite values")
        norm_R = float(np.bincount(R.indices, weights=np.abs(R.data),
                                   minlength=6 * n).max(initial=0.0))
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
        u = u.reshape(n, 6)
        d = np.empty((n, 3, 3))
        d[:, :, 0] = u[:, :3]
        d[:, :, 1:] = np.matmul(Q, u[:, 3:, None]).reshape(n, 3, 2)
        return d.reshape(-1)
