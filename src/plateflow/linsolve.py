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
and chooses at the same time how every step factors R, from the pattern
alone.  In a reverse Cuthill-McKee order of the vertex graph (Cuthill &
McKee, 1969; George & Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981) R is a band matrix with kd = 6 b + 5 subdiagonals,
b the largest distance between the numbers of two neighbouring vertices.
When kd is small the vertices keep that order and R is factored with
LAPACK's band Cholesky (`dpbtrf`); otherwise they are numbered by two
minimum degree passes and R is factored by SuperLU with diagonal pivots.
Either way a step computes the blocks with a few batched small products and
gathers them into the pattern through a source index fixed at set-up.  The
value-value part of a block is S_ij[0, 0] times the identity, so its
off-diagonal entries are exact zeros and are not stored.  A single step of
iterative refinement keeps the solve within its normwise backward-error
contract.  Factorizations are deterministic: identical inputs yield
bit-identical solutions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

# ||R u - b||_inf <= BACKWARD_ERROR_TOL (||R||_inf ||u||_inf + ||b||_inf).
# Measured backward errors of the flow steps are at most 5e-16 (levels 1-4,
# cantilever loads); the tolerance sits three orders of magnitude above them.
BACKWARD_ERROR_TOL = 1e-12

# The widest band, in subdiagonals kd, that is factored as a band.  The kd
# of the reverse Cuthill-McKee order are 71, 119, 215 and 407 on the O-shape
# meshes of levels 1-4, 65, 107, 209 and 401 on the rectangle meshes.
# Up to kd 119 the band step is the faster one (level 2: 8.7 against 16.2 ms
# per step on the O-shape, 12.7 against 40 ms on the rectangle).  At kd 215
# it is the slower one (O-shape level 3: 109 against 75 ms): the band costs
# about N kd^2 flops for N unknowns whatever the graph, and the threaded
# BLAS-3 kernels inside `dpbtrf` do not pay off at these widths.  At level 4
# the band would also take about 130 MB, against about 70 MB for SuperLU's L
# and U.  The bound sits inside the gap between 119 and 209.
_MAX_BAND_KD = 160

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
# (30, 12): multiplied by the absolute stored entries of a block, its six row
# sums, then its six column sums
_ROW_COL_SUMS = np.concatenate([_BLOCK_ROWS[:, None] == np.arange(6),
                                _BLOCK_COLS[:, None] == np.arange(6)], axis=1).astype(float)


class SaddleSolveError(RuntimeError):
    """The factorization failed or the residual contract could not be met."""


def vertex_pair_blocks(triangles, element_matrices, vertices):
    """The pairs of `vertices` that share a triangle, and their summed blocks.

    Returns (rows, cols, blocks): the pairs (rows[p], cols[p]), as positions in
    `vertices`, sorted by column, then row, and the 3x3 block S_p that the
    element matrices (F x 9 x 9, local dof 3 * vertex + kind) give the pair:
    entry (k, l) sums the entries (f, 3 a + k, 3 b + l) over the triangles f
    with vertex rows[p] at a and cols[p] at b.  Pairs with a vertex that is
    not listed are left out.
    """
    n = len(vertices)
    local = np.full(max(triangles.max(), vertices.max()) + 1, -1)
    local[vertices] = np.arange(n)
    tri = local[triangles]
    # the vertex pair (tri[p], tri[q]) of each (triangle, p, q); pairs with a
    # vertex that is not listed go to one extra key past the others
    i = np.repeat(tri, 3, axis=1)
    j = np.tile(tri, 3)
    keys, pair_of = np.unique(np.where((i >= 0) & (j >= 0), j * n + i, n * n),
                              return_inverse=True)
    # one bincount: entry (f, 3p + k, 3q + l) adds to entry (k, l) of the
    # pair of (f, p, q)
    target = (9 * pair_of.reshape(-1, 3, 1, 3, 1)
              + np.arange(0, 9, 3)[:, None, None] + np.arange(3))
    blocks = np.bincount(target.reshape(-1), weights=element_matrices.reshape(-1),
                         minlength=9 * len(keys))
    num_pairs = int(np.searchsorted(keys, n * n))
    keys = keys[:num_pairs]
    return keys % n, keys // n, blocks[:9 * num_pairs].reshape(-1, 3, 3)


def _factor(M, permc_spec):
    """SuperLU factorization of M, symmetric in pattern, with diagonal pivots."""
    return spla.splu(M, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _superlu(R):
    """SuperLU factorization of R in its own order."""
    try:
        return _factor(R, "NATURAL")
    except (RuntimeError, ValueError) as exc:
        raise SaddleSolveError(f"sparse factorization failed: {exc}") from exc


def _graph(rows, cols, n):
    """A diagonally dominant CSC matrix whose pattern is the graph with the
    edges (rows[p], cols[p]), sorted by column, then row, and including the
    diagonal."""
    degree = np.bincount(cols, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    data = np.where(rows == cols, degree[cols] + 1.0, 1.0)
    return sp.csc_matrix((data, rows, indptr), shape=(n, n))


def _minimum_degree_rank(rows, cols, n) -> np.ndarray:
    """Position of each vertex in a minimum degree order of the graph, read
    off a factorization of its matrix."""
    return _factor(_graph(rows, cols, n), "MMD_AT_PLUS_A").perm_c.astype(np.int64)


def _reverse_cuthill_mckee_rank(rows, cols, n) -> np.ndarray:
    """Position of each vertex in a reverse Cuthill-McKee order of the graph."""
    order = reverse_cuthill_mckee(_graph(rows, cols, n), symmetric_mode=True)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


class _BandCholesky:
    """LAPACK band Cholesky factorization of matrices on the pattern of `R`,
    whose lower triangle lies within `kd` subdiagonals.

    Calling it with a matrix on that pattern factors the matrix into a band
    array allocated once, replacing the previous factorization, and returns
    the factorization.
    """

    def __init__(self, R, kd):
        N = R.shape[0]
        cols = np.repeat(np.arange(N), np.diff(R.indptr))
        self._lower = np.flatnonzero(R.indices >= cols)
        # row j holds column j of the band, entry (i, j) at i - j; its
        # transpose is the Fortran-ordered array that LAPACK reads
        self._columns = np.zeros((N, kd + 1))
        self._positions = (kd + 1) * cols[self._lower] + R.indices[self._lower] - cols[self._lower]

    def __call__(self, R):
        columns = self._columns
        columns.fill(0.0)
        columns.reshape(-1)[self._positions] = R.data[self._lower]
        _, info = lapack.dpbtrf(columns.T, lower=1, overwrite_ab=1)
        if info != 0:
            raise SaddleSolveError(f"band Cholesky factorization failed (info {info}): "
                                   "the matrix is not positive definite")
        return self

    def solve(self, b):
        return lapack.dpbtrs(self._columns.T, b, lower=1)[0]


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
    vertex.  The order is a reverse Cuthill-McKee order when R has at most
    `_MAX_BAND_KD` subdiagonals in it, and R is then factored as a band;
    otherwise it is a minimum degree order, and SuperLU factors R.
    """

    def __init__(self, triangles, element_matrices, free_vertices,
                 value_diagonal=None):
        n = len(free_vertices)
        rows, cols, blocks = vertex_pair_blocks(triangles, element_matrices, free_vertices)
        num_pairs = len(rows)

        # Number the vertices and sort the pairs again.  A vertex spans six
        # unknowns of R, so in the reverse Cuthill-McKee order R has
        # 6 b + 5 subdiagonals, b the largest difference of the numbers of two
        # neighbours; a narrow band keeps that order.  Otherwise the order is
        # minimum degree, which breaks ties by the numbering it is given, so
        # it runs twice, the second time from the first order: on the O-shape
        # meshes that fills less at levels 1, 2 and 4 (45 984 -> 43 740,
        # 210 096 -> 205 026 and 5.95 -> 5.89 million stored entries of L and
        # U) and 0.6 % more at level 3.
        rcm = _reverse_cuthill_mckee_rank(rows, cols, n)
        kd = 6 * int(np.abs(rcm[rows] - rcm[cols]).max(initial=0)) + 5
        banded = kd <= _MAX_BAND_KD
        rank = np.arange(n)                 # vertex number of each local vertex
        pair = np.arange(num_pairs)         # index into the pairs of each sorted pair
        for _ in range(1 if banded else 2):
            renumber = rcm if banded else _minimum_degree_rank(rows, cols, n)
            rank, rows, cols = renumber[rank], renumber[rows], renumber[cols]
            order = np.argsort(cols * n + rows)
            rows, cols, pair = rows[order], cols[order], pair[order]
        self.vertices = free_vertices[np.argsort(rank)]

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
        self._blocks = blocks[pair[upper]]
        # the rows of R that the six row sums and the six column sums of each
        # block add to in ||R||_inf: 6 i + a, then 6 j + b
        self._sum_target = np.concatenate([6 * self._rows[:, None] + np.arange(6),
                                           6 * self._cols[:, None] + np.arange(6)],
                                          axis=1).reshape(-1)
        self._factorize = _BandCholesky(self.R, kd) if banded else _superlu
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

    def _inf_norm(self, values) -> float:
        """||R||_inf from the stored entries of the blocks R_ij with i <= j:
        each block adds its absolute row sums to the rows of vertex i and,
        transposed, its absolute column sums to the rows of vertex j; a
        diagonal block adds its row sums only."""
        sums = np.abs(values) @ _ROW_COL_SUMS
        sums[self._diagonal_pairs, 6:] = 0.0
        return float(np.bincount(self._sum_target, weights=sums.reshape(-1),
                                 minlength=6 * len(self.vertices)).max(initial=0.0))

    def assemble(self, Q) -> np.ndarray:
        """Write R = Z^T A Z for the kernel blocks Q (vertices x 3 x 2 x 3,
        entry [v, c, k, j]: the d_(k+1) w_c coefficient of kernel column j)
        into `R`, and return the stored entries of its blocks R_ij with
        i <= j, shape (pairs, 30)."""
        if Q.shape != (len(self.vertices), 3, 2, 3):
            raise ValueError(f"kernel blocks of shape {Q.shape} do not match "
                             f"{len(self.vertices)} vertices")
        values = self._block_values(Q)
        np.take(values.reshape(-1), self._source, out=self.R.data, mode="clip")
        return values

    def solve(self, Q, rhs) -> np.ndarray:
        """Return the dofs d = Z u with (Z^T A Z) u = Z^T rhs.

        A must be positive definite on the range of Z.  R is factorized in the
        order of `vertices`, with no further reordering, as a band or by
        SuperLU as chosen at construction.  Raises
        SaddleSolveError on a numerically singular factorization or an unmet
        backward-error bound (never silent garbage).
        """
        n = len(self.vertices)
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        if rhs.size != 9 * n:
            raise ValueError(f"rhs of length {rhs.size} does not match {n} vertices")
        values = self.assemble(Q)
        R = self.R
        r = rhs.reshape(n, 3, 3)
        b = np.empty((n, 6))
        b[:, :3] = r[:, :, 0]
        Q = Q.reshape(n, 6, 3)
        b[:, 3:] = np.matmul(r[:, :, 1:].reshape(n, 1, 6), Q)[:, 0]
        b = b.reshape(-1)
        factorization = self._factorize(R)
        u = factorization.solve(b)
        if not np.isfinite(u).all():
            raise SaddleSolveError("factorization produced non-finite values")
        norm_R = self._inf_norm(values)
        norm_b = float(np.abs(b).max(initial=0.0))

        def backward_error(u):
            resid = b - R @ u
            scale = norm_R * float(np.abs(u).max(initial=0.0)) + norm_b
            return resid, float(np.abs(resid).max(initial=0.0)) / max(scale, 1e-300)

        resid, err = backward_error(u)
        if err > BACKWARD_ERROR_TOL:
            u = u + factorization.solve(resid)  # one refinement step
            resid, err = backward_error(u)
            if err > BACKWARD_ERROR_TOL:
                raise SaddleSolveError(
                    f"tangent solve backward error {err:.3e} exceeds {BACKWARD_ERROR_TOL:.0e}")
        u = u.reshape(n, 6)
        d = np.empty((n, 3, 3))
        d[:, :, 0] = u[:, :3]
        d[:, :, 1:] = np.matmul(Q, u[:, 3:, None]).reshape(n, 3, 2)
        return d.reshape(-1)
