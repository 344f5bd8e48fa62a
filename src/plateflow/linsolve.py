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
A step computes the blocks of the pairs i <= j with a few batched small
products; the value-value part of a block is S_ij[0, 0] times the identity,
so its off-diagonal entries are exact zeros and are not stored.

`TangentSystem` fixes the pairs once, and chooses at the same time how every
step factors R, from the pattern alone.  In a reverse Cuthill-McKee order of
the vertex graph (Cuthill & McKee, 1969; George & Liu, *Computer Solution of
Large Sparse Positive Definite Systems*, 1981) R is a band matrix with
kd = 6 b + 5 subdiagonals, b the largest distance between the numbers of two
neighbouring vertices.  When kd is small enough the vertices keep that order,
a step scatters the blocks straight into a band array, at positions fixed at
set-up, and a blocked Cholesky factors it there on one BLAS thread.  The
factor has no entry outside the envelope of R, the entries from the first
one of each row to the diagonal (George & Liu, Thm 4.1.1), so each panel of
columns updates only the rows its envelope reaches, with dense BLAS and
LAPACK kernels, and LAPACK's `dpbtrs` solves with the factor.  Otherwise the
vertices are numbered by two minimum degree passes, a step gathers the
blocks into a compressed sparse column matrix, and SuperLU factors it with
diagonal pivots.  On both sides the residual R u and ||R||_inf are computed
from the blocks.  A single step of iterative refinement keeps the
solve within its normwise backward-error contract.  Factorizations are
deterministic: identical inputs yield bit-identical solutions.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_blas, cython_lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

# ||R u - b||_inf <= BACKWARD_ERROR_TOL (||R||_inf ||u||_inf + ||b||_inf).
# Measured backward errors of the flow steps are at most 5e-16 (levels 1-4,
# cantilever loads); the tolerance sits three orders of magnitude above them.
BACKWARD_ERROR_TOL = 1e-12

# The widest band, in subdiagonals kd, that is factored as a band.  The kd
# of the reverse Cuthill-McKee order are 71, 119, 215 and 407 on the O-shape
# meshes of levels 1-4, 65, 107, 209 and 401 on the rectangle meshes.
# Median factorization times in ms, on one BLAS thread, of 15 factorizations
# after 2 (5 at level 4; 2-core shared machine):
#
#   mesh, level    kd   dpbtrf   envelope panels   SuperLU
#   O-shape 1      71   0.67     0.55              2.5
#   O-shape 2     119   3.6      2.6               10.8
#   O-shape 3     215   30       18                65
#   rectangle 3   209   44       41                327
#   O-shape 4     407   293      141               397
#
# With more threads the band kernels cost more than they save at these
# widths, so the band runs on one (`_one_blas_thread`), and then wins at
# every level.  Level 4 stays with SuperLU all the same, for memory: the band
# array holds N (ld + 1) doubles for N unknowns, ld a few rows past kd,
# 127 MiB on the O-shape at level 4 (about 900 MiB at level 5), against about
# 70 MB of SuperLU's L and U, which are freed after every step.  The bound
# sits inside the gap between 215 and 401.
_MAX_BAND_KD = 300

# The columns of a panel of the band factorization; 24 and 32 measure alike.
_PANEL = 24

# The 30 stored entries (row a, column b) of a 6x6 block R_ij, in the order
# `TangentSystem.assemble` packs them: value-value diagonal, value rows by
# kernel columns, kernel rows by value columns, kernel-kernel.  Unknowns 0-2
# of a vertex are its three values, 3-5 its kernel coefficients.
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

# OpenBLAS's thread count.  `cython_lapack` links the OpenBLAS that `lapack`
# calls; in it this sets the count of the whole process and returns the
# previous one.
_set_blas_threads = ctypes.CDLL(cython_lapack.__file__).openblas_set_num_threads_local
_set_blas_threads.argtypes = [ctypes.c_int]
_set_blas_threads.restype = ctypes.c_int

# The routines of the band factorization, from scipy's Cython BLAS and
# LAPACK, which link the same OpenBLAS; each takes every argument by
# reference.  They are declared without argument types: every argument is
# already a ctypes object, most built once, and converting them in each call
# made a level-1 factorization, 35 panels, 0.03-0.29 ms slower.
_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.argtypes = [ctypes.py_object]
_capsule_name.restype = ctypes.c_char_p
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = ctypes.c_void_p


def _routine(module, name):
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None)(_capsule_pointer(capsule, _capsule_name(capsule)))


_dpotrf = _routine(cython_lapack, "dpotrf")
_dpbtrs = _routine(cython_lapack, "dpbtrs")
_dtrsm = _routine(cython_blas, "dtrsm")
_dsyrk = _routine(cython_blas, "dsyrk")


def _int_ref(value):
    return ctypes.pointer(ctypes.c_int(value))


_LOWER, _RIGHT, _TRANSPOSE, _NO_TRANSPOSE = (ctypes.c_char_p(flag)
                                              for flag in (b"L", b"R", b"T", b"N"))
_PLUS_ONE, _MINUS_ONE = (ctypes.pointer(ctypes.c_double(x)) for x in (1.0, -1.0))
_ONE_RHS = _int_ref(1)


class SaddleSolveError(RuntimeError):
    """The factorization failed or the residual contract could not be met."""


def _one_blas_thread(routine, *args, **kwargs):
    """Call `routine` on one BLAS thread, then restore the caller's count.
    At the widths of the tangent systems the threaded kernels inside the band
    Cholesky cost more than they save, alone and far more when other
    processes share the cores."""
    previous = _set_blas_threads(1)
    try:
        return routine(*args, **kwargs)
    finally:
        _set_blas_threads(previous)


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


def _graph(rows, cols, n):
    """A diagonally dominant CSC matrix whose pattern is the graph with the
    edges (rows[p], cols[p]), both ways round and including the diagonal."""
    order = np.argsort(cols * n + rows)
    rows, cols = rows[order], cols[order]
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
    """Blocked Cholesky factorization, in LAPACK's lower band storage, of the
    matrices R with the blocks of the pairs (rows[p], cols[p]), rows <= cols
    and the diagonal pairs first, of n vertices, whose lower triangle lies
    within `kd` subdiagonals.

    Row i of R has its first entry in the first column of the lowest
    neighbour of its vertex, and the factor L has no entry outside this
    envelope (George & Liu, 1981, Thm 4.1.1).  So each panel of `_PANEL`
    columns updates only the rows its envelope reaches: `dpotrf` on the
    diagonal block, `dtrsm` on the m rows below it, and `dsyrk` on the m x m
    block that follows, all three on a dense view of the band array with
    leading dimension ld, as `dpbtrf` does on the whole band.  The plan of
    the panels is fixed here, from the pattern alone.

    Calling it with the stored entries of the blocks (pairs, 30) scatters them
    into a band array allocated once, factors R there, replacing the previous
    factorization, and returns the factorization.
    """

    def __init__(self, rows, cols, n, kd):
        N = 6 * n
        self.kd = kd
        # The envelope: row 6 v + a of R starts no further left than column
        # 6 u, u the lowest neighbour of vertex v, and reach[j] is the last
        # row whose envelope holds column j.  A panel reaches the rows below
        # it up to the reach of its last column.
        lowest = np.arange(n)
        np.minimum.at(lowest, cols, rows)
        reach = np.full(N, -1)
        np.maximum.at(reach, np.repeat(6 * lowest, 6), np.arange(N))
        reach = np.maximum.accumulate(reach)
        first = np.arange(0, N, _PANEL)
        width = np.minimum(_PANEL, N - first)
        below = reach[first + width - 1] + 1 - (first + width)
        # A panel's dense view reaches width + below - 1 rows below its first
        # diagonal entry; ld leaves room for them in every column of the band
        # array, so that the view never runs into the next column, and is at
        # least a panel's width, as LAPACK asks.  The rows past kd hold exact
        # zeros, by the envelope.
        ld = max(kd, int((width + below - 1).max()), int(width.max()))
        # row j of `_columns` holds column j of the band, entry (i, j) at
        # i - j, so entry (i, j) of the dense view is at i + ld j; its
        # transpose is the Fortran-ordered array that LAPACK reads
        self._band = np.zeros(N * (ld + 1))
        self._columns = self._band.reshape(N, ld + 1)
        # The entry (a, b) of the block of the pair (i, j) goes to column
        # 6 i + a of the band at 6 (j - i) + b - a, transposed into the lower
        # triangle, when i < j.  A diagonal block keeps its lower triangle in
        # place, and its strictly upper entries, whose transposes are stored
        # as well, are left out.
        self._num_diagonal = int(np.count_nonzero(rows == cols))
        self._start = 6 * (ld + 1) * rows + 6 * (cols - rows)
        self._offset = (ld + 1) * _BLOCK_ROWS + _BLOCK_COLS - _BLOCK_ROWS
        self._diagonal_entries = np.flatnonzero(_BLOCK_ROWS >= _BLOCK_COLS)
        a, b = _BLOCK_ROWS[self._diagonal_entries], _BLOCK_COLS[self._diagonal_entries]
        self._diagonal_offset = (ld + 1) * b + a - b
        # The arguments of the calls, by reference.  The addresses point into
        # `_band`, which is never reallocated; the block that a panel updates
        # starts at the diagonal of the next panel.
        self.plan = list(zip(first.tolist(), width.tolist(), below.tolist()))
        ints = {v: _int_ref(v) for v in {N, kd, ld, ld + 1, *width.tolist(), *below.tolist()}}
        address, double = self._band.ctypes.data, self._band.itemsize
        diagonal = [ctypes.c_void_p(address + double * (ld + 1) * c)
                    for c in [*first.tolist(), N]]
        self._calls = [(c, ints[w], ints[m] if m else None, diagonal[k],
                        ctypes.c_void_p(address + double * ((ld + 1) * c + w)), diagonal[k + 1])
                       for k, (c, w, m) in enumerate(self.plan)]
        self._N_ref, self._kd_ref, self._ld_ref, self._ldab_ref = (
            ints[v] for v in (N, kd, ld, ld + 1))
        self._info = ctypes.c_int(0)

    def __call__(self, values):
        band, start, d = self._band, self._start, self._num_diagonal
        band.fill(0.0)
        band[start[:d, None] + self._diagonal_offset] = values[:d, self._diagonal_entries]
        band[start[d:, None] + self._offset] = values[d:]
        _one_blas_thread(self._factor_panels)
        return self

    def _factor_panels(self):
        ld, info = self._ld_ref, self._info
        for column, w, m, diagonal, below, trailing in self._calls:
            _dpotrf(_LOWER, w, diagonal, ld, ctypes.byref(info))
            if info.value:
                raise SaddleSolveError(
                    f"band Cholesky factorization failed at column {column + info.value} "
                    f"of {len(self._columns)}: the matrix is not positive definite")
            if m is not None:
                _dtrsm(_RIGHT, _LOWER, _TRANSPOSE, _NO_TRANSPOSE, m, w, _PLUS_ONE, diagonal, ld,
                       below, ld)
                _dsyrk(_LOWER, _NO_TRANSPOSE, m, w, _MINUS_ONE, below, ld, _PLUS_ONE, trailing, ld)

    def solve(self, b):
        x = np.array(b, dtype=np.float64)
        _one_blas_thread(_dpbtrs, _LOWER, self._N_ref, self._kd_ref, _ONE_RHS, self._band.ctypes,
                         self._ldab_ref, x.ctypes, self._N_ref, ctypes.byref(self._info))
        return x


class _SuperLU:
    """SuperLU factorization, in the given order, of the matrices R with the
    blocks of the pairs (rows[p], cols[p]), rows <= cols, of n vertices.

    Calling it with the stored entries of the blocks (pairs, 30) gathers them
    into a compressed sparse column matrix allocated once and returns its
    factorization.
    """

    def __init__(self, rows, cols, n):
        # every pair: the given ones, then the transposes (j, i) of the
        # off-diagonal ones, sorted by column, then row
        off = np.flatnonzero(rows != cols)
        pair = np.concatenate([np.arange(len(rows)), off])
        entry = np.where((np.arange(len(pair)) < len(rows))[:, None], np.arange(30), _TRANSPOSED)
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        order = np.argsort(cols * n + rows)
        rows, cols, pair, entry = rows[order], cols[order], pair[order], entry[order]
        # column 6 j + b holds, for each pair (i, j) in turn, the stored rows
        # of block column b; the pair's rank in its column follows from the
        # sorted order
        num_pairs = len(rows)
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
        self._matrix = sp.csc_matrix((np.zeros(30 * num_pairs), indices, indptr),
                                     shape=(6 * n, 6 * n))
        # the stored block entry that each stored entry of the matrix takes
        self._source = np.empty(30 * num_pairs, dtype=np.intp)
        self._source[positions] = 30 * pair[:, None] + entry

    def __call__(self, values):
        np.take(values.reshape(-1), self._source, out=self._matrix.data, mode="clip")
        try:
            return _factor(self._matrix, "NATURAL")
        except (RuntimeError, ValueError) as exc:
            raise SaddleSolveError(f"sparse factorization failed: {exc}") from exc


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

        # Number the vertices.  A vertex spans six unknowns of R, so in the
        # reverse Cuthill-McKee order R has 6 b + 5 subdiagonals, b the
        # largest difference of the numbers of two neighbours; a narrow band
        # keeps that order.  Otherwise the order is minimum degree, which
        # breaks ties by the numbering it is given, so it runs twice, the
        # second time from the first order: on the O-shape meshes that fills
        # less at levels 1, 2 and 4 (45 984 -> 43 740, 210 096 -> 205 026 and
        # 5.95 -> 5.89 million stored entries of L and U) and 0.6 % more at
        # level 3.
        rank = _reverse_cuthill_mckee_rank(rows, cols, n)
        kd = 6 * int(np.abs(rank[rows] - rank[cols]).max(initial=0)) + 5
        banded = kd <= _MAX_BAND_KD
        if not banded:
            first = _minimum_degree_rank(rows, cols, n)
            rank = _minimum_degree_rank(first[rows], first[cols], n)[first]
        self.vertices = free_vertices[np.argsort(rank)]
        rows, cols = rank[rows], rank[cols]

        # A step computes the blocks of the pairs i <= j only, since
        # R_ji = R_ij^T: the diagonal pairs first, by vertex, then the others
        # by column, then row.
        upper = np.flatnonzero(rows <= cols)
        upper = upper[np.lexsort((rows[upper], cols[upper], rows[upper] != cols[upper]))]
        self._rows, self._cols = rows[upper], cols[upper]
        self._blocks = blocks[upper]
        self._num_diagonal = int(np.count_nonzero(self._rows == self._cols))
        self._values = np.empty((len(upper), 30))
        # R x from the blocks: the blocks R_ij with i <= j as they are, and
        # the off-diagonal ones transposed; both read the stored entries in
        # `_values`
        r = (6 * self._rows[:, None] + _BLOCK_ROWS).reshape(-1).astype(np.int32)
        c = (6 * self._cols[:, None] + _BLOCK_COLS).reshape(-1).astype(np.int32)
        d = 30 * self._num_diagonal
        shape = (6 * n, 6 * n)
        self._upper = sp.coo_matrix((self._values.reshape(-1), (r, c)), shape=shape)
        self._lower = sp.coo_matrix((self._values.reshape(-1)[d:], (c[d:], r[d:])), shape=shape)
        # the rows of R that the six row sums and the six column sums of the
        # blocks add to in ||R||_inf: 6 i + a, then 6 j + b
        self._sum_target = np.concatenate([6 * self._rows + np.arange(6)[:, None],
                                           6 * self._cols + np.arange(6)[:, None]]).reshape(-1)
        self._factorize = (_BandCholesky(self._rows, self._cols, n, kd) if banded
                           else _SuperLU(self._rows, self._cols, n))
        self._value_diagonal = (None if value_diagonal is None
                                else np.asarray(value_diagonal)[self.vertices])

    def assemble(self, Q) -> np.ndarray:
        """The stored entries of the blocks R_ij with i <= j of R = Z^T A Z,
        shape (pairs, 30), for the kernel blocks Q (vertices x 3 x 2 x 3,
        entry [v, c, k, j]: the d_(k+1) w_c coefficient of kernel column j).
        They are written into one array that the next call overwrites."""
        if Q.shape != (len(self.vertices), 3, 2, 3):
            raise ValueError(f"kernel blocks of shape {Q.shape} do not match "
                             f"{len(self.vertices)} vertices")
        S = self._blocks
        pairs = len(S)
        # Q_i and Q_j with the kind first: entry [p, k, 3 c + j]
        Qk = Q.transpose(0, 2, 1, 3)
        Qi = Qk[self._rows].reshape(pairs, 2, 9)
        Qj = Qk[self._cols].reshape(pairs, 2, 9)
        values = self._values
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
            values[:self._num_diagonal, :3] += self._value_diagonal
        return values

    def _product(self, x) -> np.ndarray:
        """R x for the blocks of the last `assemble`."""
        y = self._upper @ x
        y += self._lower @ x
        return y

    def _inf_norm(self, values) -> float:
        """||R||_inf from the stored entries of the blocks R_ij with i <= j:
        each block adds its absolute row sums to the rows of vertex i and,
        transposed, its absolute column sums to the rows of vertex j; a
        diagonal block adds its row sums only."""
        # one row per stored entry, so that the sums run along whole rows: the
        # value-value diagonal, then three 3 x 3 groups, each row by row, of
        # value rows by kernel columns, kernel rows by value columns (the
        # group transposed) and kernel-kernel
        a = np.abs(values.T, order="C")
        groups = a[3:].reshape(3, 3, 3, -1)
        across, down = groups.sum(axis=2), groups.sum(axis=1)
        sums = np.empty((2, 6, len(values)))
        np.add(a[:3], across[0], out=sums[0, :3])
        np.add(down[1], across[2], out=sums[0, 3:])
        np.add(a[:3], across[1], out=sums[1, :3])
        np.add(down[0], down[2], out=sums[1, 3:])
        sums[1, :, :self._num_diagonal] = 0.0
        return float(np.bincount(self._sum_target, weights=sums.reshape(-1),
                                 minlength=6 * len(self.vertices)).max(initial=0.0))

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
        r = rhs.reshape(n, 3, 3)
        b = np.empty((n, 6))
        b[:, :3] = r[:, :, 0]
        Q = Q.reshape(n, 6, 3)
        b[:, 3:] = np.matmul(r[:, :, 1:].reshape(n, 1, 6), Q)[:, 0]
        b = b.reshape(-1)
        factorization = self._factorize(values)
        u = factorization.solve(b)
        if not np.isfinite(u).all():
            raise SaddleSolveError("factorization produced non-finite values")
        norm_R = self._inf_norm(values)
        norm_b = float(np.abs(b).max(initial=0.0))

        def backward_error(u):
            resid = b - self._product(u)
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
