import numpy as np
import pytest
import scipy.sparse as sp

from plateflow import linsolve
from plateflow.constraints import constraint_blocks, tangent_basis
from plateflow.dkt import DeformationField
from plateflow.linsolve import SaddleSolveError, tangent_solve


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


def random_spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def vertex_constraints(rng, num_vertices):
    """Tangent basis and global constraint matrix of a random field whose
    vertices are all free: B holds the per-vertex 3x6 blocks on the gradient
    dofs, Z spans its kernel."""
    field = DeformationField(rng.standard_normal(9 * num_vertices))
    free = np.arange(num_vertices)
    Z, _ = tangent_basis(field, free)
    blocks = constraint_blocks(field, free)
    B = np.zeros((3 * num_vertices, 9 * num_vertices))
    grad_dofs = np.array([1, 2, 4, 5, 7, 8])
    for v in free:
        B[3 * v:3 * v + 3, 9 * v + grad_dofs] = blocks[v]
    return Z, B


def test_unconstrained_identity():
    A = sp.identity(4, format="csc")
    rhs = np.zeros(4)
    rhs[0] = 1.0
    d = tangent_solve(A, sp.identity(4, format="csr"), rhs)
    assert np.allclose(d, rhs)


def test_random_spd_with_constraints_matches_dense_oracle():
    rng = np.random.default_rng(83)
    Z, B = vertex_constraints(rng, 5)
    n = B.shape[1]
    A = random_spd(rng, n)
    rhs = rng.standard_normal(n)
    d = tangent_solve(sp.csc_matrix(A), Z, rhs)
    d0, _ = dense_kkt_oracle(A, B, np.concatenate([rhs, np.zeros(B.shape[0])]))
    assert np.abs(d - d0).max() < 1e-10
    # constraint blocks satisfied
    assert np.abs(B @ d).max() < 1e-12 * np.abs(d).max()


def test_singular_direction_removed_by_constraint():
    # A = diag(1, 1, 0) is singular, but the basis excludes the null direction
    A = sp.diags([1.0, 1.0, 0.0]).tocsc()
    Z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    rhs = np.array([2.0, -1.0, 0.5])
    d = tangent_solve(A, Z, rhs)
    d0, lam0 = dense_kkt_oracle(A.toarray(), np.array([[0.0, 0.0, 1.0]]),
                                np.concatenate([rhs, [0.0]]))
    assert np.allclose(d, d0)
    assert d[2] == 0.0
    assert np.isclose(lam0[0], 0.5)  # the oracle's multiplier carries the forced load


def test_residual_contract():
    # normwise backward error of the reduced system, invariant to its scale
    rng = np.random.default_rng(89)
    Z, _ = vertex_constraints(rng, 8)
    n = Z.shape[0]
    A = sp.csc_matrix(random_spd(rng, n))
    rhs = rng.standard_normal(n)
    for scale in (1.0, 1e-12, 1e12):
        d = tangent_solve(scale * A, Z, rhs)
        R = Z.T @ (scale * A) @ Z
        u = Z.T @ d
        b = Z.T @ rhs
        err = np.abs(R @ u - b).max() / (
            abs(R).sum(axis=1).max() * np.abs(u).max() + np.abs(b).max())
        assert err <= linsolve.BACKWARD_ERROR_TOL


def test_corrupted_factorization_rejected(monkeypatch):
    # a factorization of a perturbed matrix misses the contract even after
    # the refinement step, and the solve must refuse its answer
    rng = np.random.default_rng(113)
    Z, _ = vertex_constraints(rng, 6)
    n = Z.shape[0]
    A = sp.csc_matrix(random_spd(rng, n))
    rhs = rng.standard_normal(n)
    genuine = linsolve.spla

    class CorruptedSpla:
        def __getattr__(self, attr):
            return getattr(genuine, attr)

        @staticmethod
        def splu(R, **kwargs):
            perturbed = R + 1e-3 * abs(R).max() * sp.identity(R.shape[0])
            return genuine.splu(perturbed.tocsc(), **kwargs)

    monkeypatch.setattr(linsolve, "spla", CorruptedSpla())
    with pytest.raises(SaddleSolveError):
        tangent_solve(A, Z, rhs)


def test_basis_invariance():
    # re-signed or rotated kernel directions span the same space: same d
    rng = np.random.default_rng(97)
    num_vertices = 4
    Z, _ = vertex_constraints(rng, num_vertices)
    n = Z.shape[0]
    A = sp.csc_matrix(random_spd(rng, n))
    rhs = rng.standard_normal(n)
    d1 = tangent_solve(A, Z, rhs)
    blocks = []
    for _ in range(num_vertices):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        blocks.append(Q * rng.choice([-1.0, 1.0], size=6))
    d2 = tangent_solve(A, Z @ sp.block_diag(blocks, format="csr"), rhs)
    assert np.abs(d1 - d2).max() < 1e-10 * np.abs(d1).max()


def test_deterministic_resolve():
    rng = np.random.default_rng(101)
    Z, _ = vertex_constraints(rng, 5)
    n = Z.shape[0]
    A = sp.csc_matrix(random_spd(rng, n))
    rhs = rng.standard_normal(n)
    d1 = tangent_solve(A, Z, rhs)
    d2 = tangent_solve(A.copy(), Z.copy(), rhs.copy())
    assert np.array_equal(d1, d2)


def test_singular_system_raises():
    A = sp.csc_matrix((3, 3))  # zero matrix, no constraints
    with pytest.raises(SaddleSolveError):
        tangent_solve(A, sp.identity(3, format="csr"), np.ones(3))


def test_shape_mismatch_raises():
    A = sp.identity(3, format="csc")
    with pytest.raises(ValueError):
        tangent_solve(A, sp.identity(3, format="csr"), np.ones(5))
