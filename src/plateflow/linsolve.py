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

`TangentSystem` fixes the pairs once, and with them how every step factors
R, from the pattern alone.  The vertices are numbered in a reverse
Cuthill-McKee order of their graph (Cuthill & McKee, 1969; George & Liu,
*Computer Solution of Large Sparse Positive Definite Systems*, 1981), which
keeps the envelope of R small: the entries from the first one of each row to
the diagonal.  The Cholesky factor has no entry outside the envelope (George
& Liu, Thm 4.1.1), so only the envelope is stored, column by column in runs
of columns that share a leading dimension (Jennings, Comput. J. 9, 1966).  A
step scatters the blocks straight into that storage, at positions fixed at
set-up, and a blocked Cholesky factors it there on one BLAS thread: each
panel of columns updates only the rows its envelope reaches, with dense BLAS
and LAPACK kernels.  The solves with the factor run a band triangular solve
on each run and one band matrix-vector product into the next.  The
residual R u and ||R||_inf are computed from the blocks.  A single step of
iterative refinement keeps the solve within its normwise backward-error
contract.  Factorizations are deterministic:
identical inputs yield bit-identical solutions.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_blas, cython_lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

# ||R u - b||_inf <= BACKWARD_ERROR_TOL (||R||_inf ||u||_inf + ||b||_inf).
# Measured backward errors of the flow steps, before refinement, are at most
# 4.2e-16 (the O-shape, rectangle and obstacle presets at levels 1-2, the
# O-shape and rectangle at levels 3-4); the tolerance sits three orders of
# magnitude above them.
BACKWARD_ERROR_TOL = 1e-12

# The columns of a panel of the band factorization, a multiple of the six
# unknowns of a vertex; 24 and 32 measure alike.
_PANEL = 24

# A segment of the envelope storage closes after the first panel that gives
# it more than this many times its leading dimension in columns (see
# `_BandCholesky`).  On the O-shape a factorization and a solve take 111 + 14
# calls at level 1 and 1 462 + 78 at level 3; a span of 1 would take 125 + 38
# and 1 846 + 250, and store 0-8 % less.
_SEGMENT_SPAN = 3

# The 30 stored entries (row a, column b) of a 6x6 block R_ij, in the order
# `TangentSystem.assemble` packs them: value-value diagonal, value rows by
# kernel columns, kernel rows by value columns, kernel-kernel.  Unknowns 0-2
# of a vertex are its three values, 3-5 its kernel coefficients.
_C, _M = np.divmod(np.arange(9, dtype=np.int32), 3)
_V = np.arange(3, dtype=np.int32)
_BLOCK_ROWS = np.concatenate([_V, _C, 3 + _M, 3 + _C])
_BLOCK_COLS = np.concatenate([_V, 3 + _M, _C, 3 + _M])

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
_dtrsm = _routine(cython_blas, "dtrsm")
_dsyrk = _routine(cython_blas, "dsyrk")
_dgemm = _routine(cython_blas, "dgemm")
_dtbsv = _routine(cython_blas, "dtbsv")
_dgbmv = _routine(cython_blas, "dgbmv")


_LOWER, _RIGHT, _TRANSPOSE, _NO_TRANSPOSE = (ctypes.c_char_p(flag)
                                              for flag in (b"L", b"R", b"T", b"N"))
_PLUS_ONE, _MINUS_ONE = (ctypes.pointer(ctypes.c_double(x)) for x in (1.0, -1.0))
_ONE = ctypes.pointer(ctypes.c_int(1))


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


def vertex_pair_blocks(triangles, element_matrices):
    """The pairs of vertices that share a triangle, and their summed blocks.

    Returns (rows, cols, blocks): the pairs (rows[p], cols[p]) sorted by
    column, then row, and the 3x3 block S_p that the element matrices
    (F x 9 x 9, local dof 3 * vertex + kind) give the pair: entry (k, l) sums
    the entries (f, 3 a + k, 3 b + l) over the triangles f with vertex
    rows[p] at a and cols[p] at b, in the order of the triangles.
    """
    n = int(triangles.max()) + 1
    # the vertex pair (triangles[f, p], triangles[f, q]) of each (f, p, q)
    keys, pair_of = np.unique(np.tile(triangles, 3) * n + np.repeat(triangles, 3, axis=1),
                              return_inverse=True)
    # one bincount: entry (f, 3p + k, 3q + l) adds to entry (k, l) of the
    # pair of (f, p, q)
    target = (9 * pair_of.reshape(-1, 3, 1, 3, 1)
              + np.arange(0, 9, 3)[:, None, None] + np.arange(3))
    blocks = np.bincount(target.reshape(-1), weights=element_matrices.reshape(-1),
                         minlength=9 * len(keys))
    return keys % n, keys // n, blocks.reshape(-1, 3, 3)


def _reverse_cuthill_mckee_rank(rows, cols, n) -> np.ndarray:
    """Position of each vertex in a reverse Cuthill-McKee order of the graph
    with the edges (rows[p], cols[p]), both ways round and with the diagonal."""
    order = np.argsort(cols * n + rows)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    graph = sp.csc_matrix((np.ones(len(rows)), rows[order], indptr), shape=(n, n))
    return np.argsort(reverse_cuthill_mckee(graph, True))     # the graph is symmetric


class _BandCholesky:
    """Blocked Cholesky factorization, on the envelope, of the matrices R with
    the blocks of the pairs (rows[p], cols[p]), rows <= cols and the diagonal
    pairs first, of n vertices.

    Row i of R has its first entry in the first column of the lowest
    neighbour of its vertex, and the factor L has no entry outside this
    envelope (George & Liu, 1981, Thm 4.1.1).  So each panel of `_PANEL`
    columns updates only the m rows below it that its envelope reaches:
    `dpotrf` on the diagonal block, `dtrsm` on the m rows below it, and
    `dsyrk` on the m x m block that follows, all on a dense view of the
    stored columns, as `dpbtrf` does on a whole band.  The plan of the panels
    is fixed here, from the pattern alone.

    The columns are stored in segments, runs of whole panels.  Column j of a
    segment holds the ld + 1 entries (j, j) to (j + ld, j) and the next column
    follows it, so in the dense view of the segment, with leading dimension
    ld, entry (i, j) lies i - j entries after the start of column j.  The ld
    of a segment is the largest depth, width + below, of its panels, and a
    segment closes after the first panel that gives it more than
    `_SEGMENT_SPAN` (three) times its ld in columns: a trailing block that
    crosses a boundary takes two more calls, and each boundary two in each
    solve, while a longer segment stores a few more entries above its
    deepest panels.  The reach of the columns never decreases, so the first
    panel of the next segment reaches every row that the trailing block of a
    panel reaches, and that is at most the next segment's ld below its
    start.  The next segment has more columns than its ld, or ends at the
    last row, so that block crosses at most one boundary, and the dense view
    of the next segment holds the part past it, which a `dsyrk` updates there
    after a `dgemm` on the rows below the part before it.  The solves run
    `dtbsv` on each segment as a band and one `dgbmv` into the next: a
    segment has more columns than its ld, so the rows it reaches there are an
    upper triangle in the band storage of its last ld columns.

    Calling it with the stored entries of the blocks (pairs, 30) scatters them
    into the storage, allocated once, factors R there, replacing the previous
    factorization, and returns the factorization.
    """

    def __init__(self, rows, cols, n):
        N = 6 * n
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
        self.plan = list(zip(first.tolist(), width.tolist(), below.tolist()))
        # A panel's dense view reaches width + below - 1 rows below its first
        # diagonal entry; a trailing block that crosses into a segment has at
        # most width + below rows of its first panel, the ld `dsyrk` asks for.
        depth = (width + below).tolist()
        self.segments = []  # (first column, end column, ld)
        start = ld = 0
        for (c, w, _), panel_depth in zip(self.plan, depth):
            ld = max(ld, panel_depth)
            if c + w - start > _SEGMENT_SPAN * ld or c + w == N:
                self.segments.append((start, c + w, ld))
                start, ld = c + w, 0
        start, end, ld = np.array(self.segments).T
        sizes = (end - start) * (ld + 1)
        self._store = np.empty(sizes.sum())  # each factorization zeroes it first
        segment_of = np.repeat(np.arange(len(sizes)), end - start)  # of each column
        height = (ld + 1)[segment_of]
        column_start = ((np.cumsum(sizes) - sizes)[segment_of]
                        + height * (np.arange(N) - start[segment_of]))
        # The entry (a, b) of the block of the pair (i, j) goes to column
        # 6 i + a at row 6 j + b, transposed into the lower triangle, when
        # i < j.  A diagonal block keeps its lower triangle in place, and its
        # strictly upper entries, whose transposes are stored as well, are
        # left out.  The six columns of a vertex lie in one segment, as a
        # panel is a whole number of vertices wide, so column 6 i + a starts
        # a (ld + 1) entries after column 6 i.
        height = height[6 * rows]
        vertex_start = column_start[6 * rows]
        d = int(np.count_nonzero(rows == cols))
        self._diagonal_entries = np.flatnonzero(_BLOCK_ROWS >= _BLOCK_COLS)
        a, b = _BLOCK_ROWS[self._diagonal_entries], _BLOCK_COLS[self._diagonal_entries]
        self._diagonal_positions = vertex_start[:d, None] + np.multiply.outer(height[:d], b) + a - b
        positions = np.multiply.outer(height[d:], _BLOCK_ROWS)
        positions += (vertex_start + 6 * (cols - rows))[d:, None]
        positions += _BLOCK_COLS - _BLOCK_ROWS
        self._positions = positions
        self._num_diagonal = d

        # The arguments of the calls, by reference: the integers, each value
        # once in `_ints`, and entries of `_store` and the solution `_x`, never
        # reallocated.  A row of addresses per panel and per segment, computed
        # with numpy, becomes ctypes objects in one pass.
        self._x = np.empty(N)
        self._info = ctypes.c_int(0)
        info = ctypes.byref(self._info)
        k = np.searchsorted(start, first, side="right") - 1  # the segment of each panel
        # the trailing block of a panel: rows and columns top to bottom - 1,
        # of which those from split on lie in the next segment
        top, bottom = first + width, first + width + below
        split = np.minimum(np.maximum(top, end[k]), bottom)
        # the rows end to end + ld - 1 of the last ld columns of a segment,
        # an upper triangle in their band storage: kl = 0, ku = ld - 1
        last = end - ld
        self._ints, ints = np.unique(np.concatenate([
            np.stack([width, ld[k], below, split - top, bottom - split,
                      np.append(ld[1:], 0)[k]], axis=1),
            np.stack([end - start, ld, ld + 1, np.minimum(ld, N - end), 0 * ld, ld - 1], axis=1),
        ]).astype(np.intc), return_inverse=True)
        # entry (i, j) of the dense views lies skew[j] + i entries into `_store`
        skew = np.append(column_start - np.arange(N), 0)  # column N: in no call
        i = np.stack([first, top, top, split, split, split], axis=1)
        j = np.stack([first, first, top, first, top, split], axis=1)
        store, x, double = self._store.ctypes.data, self._x.ctypes.data, self._x.itemsize
        refs = list(map(ctypes.c_void_p, np.concatenate([
            self._ints.ctypes.data + self._ints.itemsize * np.arange(len(self._ints)),
            (store + double * (skew[j] + i)).ravel(),
            np.stack([store + double * (skew[start] + start), x + double * start,
                      store + double * (skew[last] + last + 1), x + double * last,
                      x + double * end], axis=1).ravel()]).tolist()))
        ints = zip(*[map(refs.__getitem__, ints.ravel().tolist())] * 6)
        entries = iter(refs[len(self._ints):])

        self._panels = []
        for column, m, inner_rows, past_rows, (w_ref, ld_ref, m_ref, inner_ref, past_ref, next_ld),\
                (diagonal, below_block, inner, rest, past_inner, past) in zip(
                    first.tolist(), below.tolist(), (split - top).tolist(),
                    (bottom - split).tolist(), ints, zip(*[entries] * 6)):
            updates = []
            if m:
                updates.append((_dtrsm, (_RIGHT, _LOWER, _TRANSPOSE, _NO_TRANSPOSE, m_ref, w_ref,
                                         _PLUS_ONE, diagonal, ld_ref, below_block, ld_ref)))
            if inner_rows:
                updates.append((_dsyrk, (_LOWER, _NO_TRANSPOSE, inner_ref, w_ref, _MINUS_ONE,
                                         below_block, ld_ref, _PLUS_ONE, inner, ld_ref)))
            if past_rows and inner_rows:
                updates.append((_dgemm, (_NO_TRANSPOSE, _TRANSPOSE, past_ref, inner_ref, w_ref,
                                         _MINUS_ONE, rest, ld_ref, below_block, ld_ref, _PLUS_ONE,
                                         past_inner, ld_ref)))
            if past_rows:
                updates.append((_dsyrk, (_LOWER, _NO_TRANSPOSE, past_ref, w_ref, _MINUS_ONE, rest,
                                         ld_ref, _PLUS_ONE, past, next_ld)))
            self._panels.append((column, (_LOWER, w_ref, diagonal, ld_ref, info), updates))

        forward, backward = [], []
        for segment_end, (width_ref, ld_ref, band_ld, rows_past, zero, ku), \
                (band_start, x_start, triangle, x_last, x_next) in zip(
                    end.tolist(), ints, zip(*[entries] * 5)):
            band = (width_ref, ld_ref, band_start, band_ld, x_start, _ONE)
            forward.append((_dtbsv, (_LOWER, _NO_TRANSPOSE, _NO_TRANSPOSE, *band)))
            backward.append((_dtbsv, (_LOWER, _TRANSPOSE, _NO_TRANSPOSE, *band)))
            if segment_end < N:
                triangle = (rows_past, ld_ref, zero, ku, _MINUS_ONE, triangle, band_ld)
                forward.append((_dgbmv, (_NO_TRANSPOSE, *triangle, x_last, _ONE, _PLUS_ONE,
                                         x_next, _ONE)))
                backward.append((_dgbmv, (_TRANSPOSE, *triangle, x_next, _ONE, _PLUS_ONE,
                                          x_last, _ONE)))
        # L y = b segment by segment, then L^T x = y from the last segment back
        self._substitutions = forward + backward[::-1]

    def __call__(self, values):
        store, d = self._store, self._num_diagonal
        store.fill(0.0)
        store[self._diagonal_positions] = values[:d, self._diagonal_entries]
        store[self._positions] = values[d:]
        _one_blas_thread(self._factor_panels)
        return self

    def _factor_panels(self):
        info = self._info
        for column, arguments, updates in self._panels:
            _dpotrf(*arguments)
            if info.value:
                raise SaddleSolveError(
                    f"band Cholesky factorization failed at column {column + info.value} "
                    f"of {self._x.size}: the matrix is not positive definite")
            for routine, arguments in updates:
                routine(*arguments)

    def solve(self, b):
        self._x[:] = b
        _one_blas_thread(self._substitute)
        return self._x.copy()

    def _substitute(self):
        for routine, arguments in self._substitutions:
            routine(*arguments)


class TangentSystem:
    """The reduced step matrix R = Z^T A Z of a mesh, on a pattern fixed at
    construction.

    A is the matrix of the nine dofs per free vertex whose vertex-pair blocks
    are kron(I_3, S_ij), with S_ij the block of the pair (i, j) in `pairs`,
    the (rows, cols, blocks) of the mesh's vertex pairs that
    `vertex_pair_blocks` returns, plus `value_diagonal[v, c]` on the value dof
    of component c of vertex v (an array indexed by mesh vertex, or None).
    The pairs with a vertex that is not free are left out.

    `vertices` holds the free vertices in the elimination order chosen here;
    every per-vertex array passed to `assemble` and `solve` and every dof
    vector follows it, nine dofs (component-major, then value, d1, d2) per
    vertex.  The order is a reverse Cuthill-McKee order, and R is factored
    on its envelope in it.
    """

    def __init__(self, pairs, free_vertices, value_diagonal=None):
        n = len(free_vertices)
        rows, cols, blocks = pairs
        local = np.full(max(cols.max(), free_vertices.max()) + 1, -1)
        local[free_vertices] = np.arange(n)
        rows, cols = local[rows], local[cols]
        kept = (rows >= 0) & (cols >= 0)
        rows, cols, blocks = rows[kept], cols[kept], blocks[kept]

        rank = _reverse_cuthill_mckee_rank(rows, cols, n)
        self.vertices = free_vertices[np.argsort(rank)]
        rows, cols = rank[rows], rank[cols]

        # A step computes the blocks of the pairs i <= j only, since
        # R_ji = R_ij^T: the diagonal pairs first, by vertex, then the others
        # by column, then row.
        upper = np.flatnonzero(rows <= cols)
        upper = upper[np.lexsort((rows[upper], cols[upper], rows[upper] != cols[upper]))]
        self._rows, self._cols = rows[upper], cols[upper]
        # the nine values of each block S_ij, in the contiguous slices that
        # `assemble` multiplies by: S_ij[0, 0], S_ij[1:, 0] and S_ij[:, 1:]
        S = blocks[upper]
        self._S_value = np.ascontiguousarray(S[:, :1, 0])
        self._S_column = np.ascontiguousarray(S[:, None, 1:, 0])
        self._S_gradient = np.ascontiguousarray(S[:, :, 1:])
        self._num_diagonal = int(np.count_nonzero(self._rows == self._cols))
        self._values = np.empty((len(upper), 30))
        self._abs = np.empty_like(self._values)
        # R x from the blocks: the blocks R_ij with i <= j as they are, and
        # the off-diagonal ones transposed, as two views of the stored entries
        # in `_values`; the same views of `_abs` give |R| x
        r = (6 * self._rows[:, None] + _BLOCK_ROWS).reshape(-1).astype(np.int32)
        c = (6 * self._cols[:, None] + _BLOCK_COLS).reshape(-1).astype(np.int32)
        d = 30 * self._num_diagonal
        shape = (6 * n, 6 * n)
        self._views, self._abs_views = (
            (sp.coo_matrix((data.reshape(-1), (r, c)), shape=shape),
             sp.coo_matrix((data.reshape(-1)[d:], (c[d:], r[d:])), shape=shape))
            for data in (self._values, self._abs))
        self._factorize = _BandCholesky(self._rows, self._cols, n)
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
        pairs = len(self._rows)
        # Q_i and Q_j with the kind first, entry [p, k, 3 c + j], gathered
        # from one contiguous copy, which is Q itself in the layout of
        # `tangent_basis`
        Qk = np.ascontiguousarray(Q.transpose(0, 2, 1, 3)).reshape(-1, 2, 9)
        Qi = np.take(Qk, self._rows, axis=0)
        Qj = np.take(Qk, self._cols, axis=0)
        values = self._values
        values[:, :3] = self._S_value
        # SQ[p, k, 3 c + j] = S_ij[k, 1:] applied to the gradient rows of Q_j,
        # for the value row (k = 0) and the two gradient rows of component c
        SQ = np.matmul(self._S_gradient, Qj)
        values[:, 3:12] = SQ[:, 0]
        # value columns: the gradient rows of Q_i against S_ij[1:, 0]
        np.matmul(self._S_column, Qi, out=values[:, None, 12:21])
        # kernel-kernel: Q_i^T kron(I_3, S_ij[1:, 1:]) Q_j
        np.matmul(Qi.reshape(pairs, 6, 3).transpose(0, 2, 1), SQ[:, 1:].reshape(pairs, 6, 3),
                  out=values[:, 21:].reshape(pairs, 3, 3))
        if self._value_diagonal is not None:
            values[:self._num_diagonal, :3] += self._value_diagonal
        return values

    def _product(self, x, views=None) -> np.ndarray:
        """R x for the blocks of the last `assemble`, or the product of the
        given pair of views."""
        upper, lower = views or self._views
        y = upper @ x
        y += lower @ x
        return y

    def _inf_norm(self, values) -> float:
        """||R||_inf = max(|R| 1) for the stored entries `values` of the last
        `assemble`."""
        np.abs(values, out=self._abs)
        return float(self._product(np.ones(6 * len(self.vertices)),
                                   self._abs_views).max(initial=0.0))

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
        values = self.assemble(Q)
        r = rhs.reshape(n, 3, 3)
        b = np.empty((n, 6))
        b[:, :3] = r[:, :, 0]
        # the kernel blocks with the kind first, entry [v, 3 k + c, j]
        Qk = Q.transpose(0, 2, 1, 3).reshape(n, 6, 3)
        b[:, 3:] = np.matmul(r[:, :, 1:].transpose(0, 2, 1).reshape(n, 1, 6), Qk)[:, 0]
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
        d[:, :, 1:] = np.matmul(Qk, u[:, 3:, None]).reshape(n, 2, 3).transpose(0, 2, 1)
        return d.reshape(-1)
