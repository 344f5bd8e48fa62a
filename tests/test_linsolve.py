import ctypes
import re

import numpy as np
import pytest
from scipy.linalg import cython_lapack

from plateflow import linsolve
from plateflow.linsolve import SaddleSolveError, TangentSystem, vertex_pair_blocks

from conftest import GRAD_DOFS, dense_basis, reduced_matrix, stored_lower, tangent_basis


def dense_kkt_oracle(A, B, rhs):
    n = A.shape[0]
    m = 0 if B is None else B.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = A
    if m:
        kkt[:n, n:] = B.T
        kkt[n:, :n] = B
    x = np.linalg.solve(kkt, rhs)
    return x[:n], x[n:]


def strip_triangles(rng, num_vertices):
    """Triangles (v, v+1, v+2) along a strip, plus a few random ones."""
    strip = np.arange(num_vertices - 2)[:, None] + np.arange(3)
    extra = np.array([rng.choice(num_vertices, 3, replace=False) for _ in range(3)])
    return np.vstack([strip, extra])


def random_element_matrices(rng, num_triangles):
    X = rng.standard_normal((num_triangles, 9, 9))
    return X @ X.transpose(0, 2, 1) + 9.0 * np.eye(9)


def dense_matrix(system, triangles, element_matrices, value_diagonal=None):
    """The dense A that a TangentSystem describes, on the nine dofs of each of
    its vertices in its order: kron(I_3, element blocks) summed over the
    triangles, plus the value diagonal."""
    num_vertices = triangles.max() + 1
    A = np.zeros((9 * num_vertices, 9 * num_vertices))
    for tri, E in zip(triangles, element_matrices):
        for p in range(3):
            for q in range(3):
                for c in range(3):
                    rows = 9 * tri[p] + 3 * c + np.arange(3)
                    cols = 9 * tri[q] + 3 * c + np.arange(3)
                    A[np.ix_(rows, cols)] += E[3 * p:3 * p + 3, 3 * q:3 * q + 3]
    if value_diagonal is not None:
        values = 9 * np.arange(num_vertices)[:, None] + 3 * np.arange(3)
        A[values, values] += value_diagonal
    dofs = (9 * system.vertices[:, None] + np.arange(9)).reshape(-1)
    return A[np.ix_(dofs, dofs)]


def constraint_matrix(grads):
    """Global constraint rows B (3 n x 9 n): per vertex the 3x6 block on its
    gradient dofs, (a1.d1w, a2.d2w, a2.d1w + a1.d2w)."""
    n = len(grads)
    B = np.zeros((3 * n, 9 * n))
    for v, g in enumerate(grads):
        block = np.zeros((3, 3, 2))
        block[0, :, 0] = g[:, 0]
        block[1, :, 1] = g[:, 1]
        block[2] = g[:, ::-1]
        B[3 * v:3 * v + 3, 9 * v + GRAD_DOFS] = block.reshape(3, 6)
    return B


# Vertex counts of the random cases: 9 give one segment of envelope
# storage, 90 (the fewest that do on the case of the BLAS-thread test)
# several, with trailing blocks that cross into the next one.
SIZES = (9, 90)


def random_case(rng, num_vertices, scale=1.0, value_diagonal=None):
    """A system on random triangles whose vertex 0 is not free, the dense A it
    describes, and the kernel blocks and constraint rows of random gradients."""
    triangles = strip_triangles(rng, num_vertices)
    E = scale * random_element_matrices(rng, len(triangles))
    system = TangentSystem(vertex_pair_blocks(triangles, E), np.arange(1, num_vertices),
                           value_diagonal)
    A = dense_matrix(system, triangles, E, value_diagonal)
    grads = rng.standard_normal((num_vertices - 1, 3, 2))
    return system, A, tangent_basis(grads)[0], constraint_matrix(grads)


def test_blockwise_matrix_matches_dense_product():
    # R = Z^T A Z, assembled blockwise, with and without a diagonal on the
    # value dofs
    rng = np.random.default_rng(79)
    diagonal = np.abs(rng.standard_normal((7, 3)))
    for value_diagonal in (None, diagonal):
        system, A, Q, _ = random_case(rng, 7, value_diagonal=value_diagonal)
        R = reduced_matrix(system, system.assemble(Q))
        Z = dense_basis(Q)
        expected = Z.T @ A @ Z
        assert np.abs(R.toarray() - expected).max() <= 1e-13 * np.abs(expected).max()
        # 30 stored entries per vertex pair: the value-value off-diagonals are not
        coo = R.tocoo()
        pairs = np.unique(coo.row // 6 * len(Q) + coo.col // 6)
        assert R.nnz == 30 * len(pairs)


def factored_matrix(system, values, monkeypatch):
    """What the system's factorization is handed for the block entries
    `values`: the envelope storage as it stands before the first panel is
    factored, spread out into a dense lower triangle."""
    handed = []
    with monkeypatch.context() as patch:
        def dpotrf(*args, genuine=linsolve._dpotrf):
            if not handed:
                handed.append(stored_lower(system._factorize).toarray())
            return genuine(*args)

        patch.setattr(linsolve, "_dpotrf", dpotrf)
        system._factorize(values)
    return handed[0]


def test_gathered_matrix_equals_scattered_blocks(monkeypatch):
    # the factorization is handed exactly the bits of a scatter of the
    # blocks, with and without a diagonal on the value dofs: the lower
    # triangle, zero outside the pattern and in the stored rows past it
    rng = np.random.default_rng(151)
    for num_vertices in SIZES:
        for value_diagonal in (None, np.abs(rng.standard_normal((num_vertices, 3)))):
            system, _, Q, _ = random_case(rng, num_vertices, value_diagonal=value_diagonal)
            values = system.assemble(Q)
            R = reduced_matrix(system, values)
            handed = factored_matrix(system, values, monkeypatch)
            assert np.array_equal(handed, np.tril(R.toarray()))


def test_product_from_blocks():
    # R x from the blocks equals the product with the matrix they make up,
    # with and without a value diagonal
    rng = np.random.default_rng(163)
    for value_diagonal in (None, np.abs(rng.standard_normal((9, 3)))):
        system, _, Q, _ = random_case(rng, 9, value_diagonal=value_diagonal)
        R = reduced_matrix(system, system.assemble(Q))
        x = rng.standard_normal(R.shape[0])
        scale = abs(R).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(system._product(x) - R @ x).max() <= 1e-14 * scale


def test_band_cholesky_runs_on_one_blas_thread(monkeypatch):
    # every call of the band factorization and its solves sees one BLAS
    # thread, and the caller's thread count is back after the solve; on
    # several segments the crossing trailing blocks and the band products
    # between segments run as well, one per boundary and direction
    get_threads = ctypes.CDLL(cython_lapack.__file__).scipy_openblas_get_num_threads
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    seen = []
    routines = ("_dpotrf", "_dtrsm", "_dsyrk", "_dgemm", "_dtbsv", "_dgbmv")
    for name in routines:
        def recording(*args, routine=getattr(linsolve, name), name=name):
            seen.append((name, get_threads()))
            return routine(*args)

        monkeypatch.setattr(linsolve, name, recording)
    previous = linsolve._set_blas_threads(2)
    try:
        for num_vertices, called in zip(SIZES, ({"_dpotrf", "_dtrsm", "_dsyrk", "_dtbsv"},
                                                set(routines))):
            seen.clear()
            rng = np.random.default_rng(167)
            system, A, Q, _ = random_case(rng, num_vertices)
            before = get_threads()
            system.solve(Q, rng.standard_normal(A.shape[0]))
            assert get_threads() == before == 2
            names = [name for name, _ in seen]
            assert set(names) == called, num_vertices
            assert names[0] == "_dpotrf" and names[-1] == "_dtbsv"
            assert all(threads == 1 for _, threads in seen)
            factorization = system._factorize
            assert len(factorization._substitutions) == 4 * len(factorization.segments) - 2
    finally:
        linsolve._set_blas_threads(previous)


def test_unconstrained_identity():
    # with A = I and a right-hand side in the tangent space the step returns
    # the right-hand side itself
    rng = np.random.default_rng(83)
    triangles = strip_triangles(rng, 6)
    counts = np.bincount(triangles.reshape(-1), minlength=6)
    E = np.zeros((len(triangles), 9, 9))
    for f, tri in enumerate(triangles):
        E[f] = np.diag(np.repeat(1.0 / counts[tri], 3))
    system = TangentSystem(vertex_pair_blocks(triangles, E), np.arange(6))
    assert np.allclose(dense_matrix(system, triangles, E), np.eye(54), atol=1e-15)
    Q = tangent_basis(rng.standard_normal((6, 3, 2)))[0]
    rhs = dense_basis(Q) @ rng.standard_normal(36)
    assert np.allclose(system.solve(Q, rhs), rhs)


def test_random_spd_with_constraints_matches_dense_oracle():
    rng = np.random.default_rng(83)
    system, A, Q, B = random_case(rng, 6)
    n = A.shape[0]
    rhs = rng.standard_normal(n)
    d = system.solve(Q, rhs)
    d0, _ = dense_kkt_oracle(A, B, np.concatenate([rhs, np.zeros(B.shape[0])]))
    assert np.abs(d - d0).max() < 1e-10
    # constraint blocks satisfied
    assert np.abs(B @ d).max() < 1e-12 * np.abs(d).max()


def test_singular_direction_removed_by_constraint():
    # A has no stiffness on any d2 dof, so it is singular, but the basis
    # spans only the values and the d1 dofs: the d2 dofs stay exactly zero and
    # the oracle's multipliers carry their loads
    rng = np.random.default_rng(89)
    triangles = strip_triangles(rng, 5)
    E = random_element_matrices(rng, len(triangles))
    d2 = np.arange(2, 9, 3)
    E[:, d2, :] = 0.0
    E[:, :, d2] = 0.0
    system = TangentSystem(vertex_pair_blocks(triangles, E), np.arange(5))
    A = dense_matrix(system, triangles, E)
    assert np.linalg.matrix_rank(A) == 30
    Q = np.zeros((5, 3, 2, 3))
    Q[:, :, 0, :] = np.eye(3)
    rhs = rng.standard_normal(45)
    d = system.solve(Q, rhs)
    d2_dofs = (9 * np.arange(5)[:, None] + 3 * np.arange(3) + 2).reshape(-1)
    B = np.eye(45)[d2_dofs]
    d0, lam0 = dense_kkt_oracle(A, B, np.concatenate([rhs, np.zeros(15)]))
    assert np.allclose(d, d0)
    assert not d[d2_dofs].any()
    assert np.allclose(lam0, rhs[d2_dofs])


def test_residual_contract():
    # normwise backward error of the reduced system, invariant to its scale,
    # on one segment of envelope storage and on several
    for num_vertices in SIZES:
        for scale in (1.0, 1e-12, 1e12):
            rng = np.random.default_rng(89)
            system, A, Q, _ = random_case(rng, num_vertices, scale=scale)
            rhs = rng.standard_normal(A.shape[0])
            d = system.solve(Q, rhs)
            Z = dense_basis(Q)
            R = Z.T @ A @ Z
            u = Z.T @ d
            b = Z.T @ rhs
            err = np.abs(R @ u - b).max() / (
                np.abs(R).sum(axis=1).max() * np.abs(u).max() + np.abs(b).max())
            assert err <= linsolve.BACKWARD_ERROR_TOL, num_vertices


def test_norm_from_blocks():
    # ||R||_inf from the row and column sums of the blocks equals the largest
    # absolute row sum of the gathered matrix, with and without a value
    # diagonal
    rng = np.random.default_rng(157)
    for value_diagonal in (None, np.abs(rng.standard_normal((9, 3)))):
        system, _, Q, _ = random_case(rng, 9, value_diagonal=value_diagonal)
        values = system.assemble(Q)
        expected = abs(reduced_matrix(system, values)).sum(axis=1).max()
        assert abs(system._inf_norm(values) - expected) <= 1e-14 * expected


def test_corrupted_factorization_rejected():
    # a factorization of a perturbed matrix misses the contract even after
    # the refinement step, and the solve must refuse its answer
    rng = np.random.default_rng(113)
    system, A, Q, _ = random_case(rng, 7)
    rhs = rng.standard_normal(A.shape[0])
    genuine = system._factorize

    def corrupted(values):
        # the diagonal entries of the diagonal blocks
        perturbed = values.copy()
        diagonal = np.ix_(system._rows == system._cols,
                          linsolve._BLOCK_ROWS == linsolve._BLOCK_COLS)
        perturbed[diagonal] += 1e-3 * np.abs(values).max()
        return genuine(perturbed)

    system._factorize = corrupted
    with pytest.raises(SaddleSolveError):
        system.solve(Q, rhs)


def test_basis_invariance():
    # re-signed or rotated kernel directions span the same space: same d
    rng = np.random.default_rng(97)
    system, A, Q, _ = random_case(rng, 5)
    rhs = rng.standard_normal(A.shape[0])
    d1 = system.solve(Q, rhs)
    rotations = []
    for _ in range(len(Q)):
        O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotations.append(O * rng.choice([-1.0, 1.0], size=3))
    d2 = system.solve(Q @ np.array(rotations)[:, None], rhs)
    assert np.abs(d1 - d2).max() < 1e-10 * np.abs(d1).max()


def test_deterministic_resolve():
    # on one segment of envelope storage and on several
    for num_vertices in (6, SIZES[-1]):
        rng = np.random.default_rng(101)
        triangles = strip_triangles(rng, num_vertices)
        E = random_element_matrices(rng, len(triangles))
        free = np.arange(1, num_vertices)
        Q = tangent_basis(rng.standard_normal((len(free), 3, 2)))[0]
        rhs = rng.standard_normal(9 * len(free))
        first = TangentSystem(vertex_pair_blocks(triangles, E), free)
        second = TangentSystem(vertex_pair_blocks(triangles.copy(), E.copy()), free.copy())
        d1 = first.solve(Q, rhs)
        assert np.array_equal(d1, first.solve(Q.copy(), rhs.copy())), num_vertices
        assert np.array_equal(d1, second.solve(Q.copy(), rhs.copy())), num_vertices


def test_singular_system_raises():
    # the factorization names the column where it broke down, a column of
    # the matrix, counted from 1 across its panels
    rng = np.random.default_rng(103)
    triangles = strip_triangles(rng, 4)
    system = TangentSystem(vertex_pair_blocks(triangles, np.zeros((len(triangles), 9, 9))),
                           np.arange(4))
    with pytest.raises(SaddleSolveError) as failure:
        system.solve(tangent_basis(rng.standard_normal((4, 3, 2)))[0], np.ones(36))
    column, N = map(int, re.search(r"column (\d+) of (\d+)", str(failure.value)).groups())
    assert N == 24 and 1 <= column <= N
    # a negative first diagonal entry in the last vertex's block: the band of
    # 8 vertices breaks down at column 43 of 48, in its second panel
    system, _, Q, _ = random_case(np.random.default_rng(109), 9)
    assert len(system._factorize.plan) == 2
    values = system.assemble(Q).copy()
    values[system._num_diagonal - 1, 0] = -1e3 * np.abs(values).max()
    with pytest.raises(SaddleSolveError, match="column 43 of 48"):
        system._factorize(values)


def test_shape_mismatch_raises():
    rng = np.random.default_rng(107)
    system, A, Q, _ = random_case(rng, 4)
    with pytest.raises(ValueError):
        system.solve(Q, np.ones(A.shape[0] + 2))
    with pytest.raises(ValueError):
        system.solve(Q[:-1], np.ones(A.shape[0]))
