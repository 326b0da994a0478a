import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil.analysis import oracle_eigensolve, random_generalized_pair
from qpencil.errors import DimensionMismatch
from qpencil.jacobi import eigh_jacobi
from qpencil.linalg import BandedHermitian, BlockDiagonalPD, count_nonzeros
from qpencil.reduction import (
    check_b_orthogonality,
    forward_transform,
    recover_eigenvector,
    reduce_cholesky,
    reduce_sqrt,
)


def banded(matrix, k):
    return BandedHermitian.from_dense(np.asarray(matrix, dtype=complex), k)


A22 = banded([[2.0, 1.0], [1.0, 2.0]], 1)


def test_reduce_sqrt_identity_weight():
    red = reduce_sqrt(A22, BlockDiagonalPD.identity(2))
    assert red.route == "sqrt"
    assert np.allclose(red.hamiltonian.to_dense(), A22.to_dense(), atol=1e-15)


def test_reduce_sqrt_diagonal_weight_entrywise():
    red = reduce_sqrt(A22, BlockDiagonalPD.from_diagonal([1.0, 4.0]))
    expected = np.array([[2.0, 0.5], [0.5, 0.5]])
    assert np.allclose(red.hamiltonian.to_dense(), expected, atol=1e-15)


def test_reduce_sqrt_commuting_diagonal_case():
    A = banded(np.diag([3.0, 8.0, 1.0]), 0)
    red = reduce_sqrt(A, BlockDiagonalPD.from_diagonal([1.5, 2.0, 4.0]))
    assert np.allclose(np.diag(red.hamiltonian.to_dense()),
                       [3.0 / 1.5, 8.0 / 2.0, 1.0 / 4.0], atol=1e-14)


def test_reduce_cholesky_identity_weight():
    red = reduce_cholesky(A22, BlockDiagonalPD.identity(2))
    assert red.route == "cholesky"
    assert np.allclose(red.hamiltonian.to_dense(), A22.to_dense(), atol=1e-15)


def test_reduce_cholesky_diagonal_weight_equals_sqrt_route():
    B = BlockDiagonalPD.from_diagonal([1.0, 4.0])
    bar = reduce_cholesky(A22, B).hamiltonian.to_dense()
    tilde = reduce_sqrt(A22, B).hamiltonian.to_dense()
    assert np.abs(bar - tilde).max() <= 1e-15


def test_reduce_cholesky_unit_pencil_spectrum():
    # A = B makes every generalized eigenvalue 1
    B = BlockDiagonalPD((2,), (np.array([[2.0, 1.0], [1.0, 2.0]]),))
    w, _ = oracle_eigensolve(A22, B)
    assert np.allclose(w, [1.0, 1.0], atol=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        reduce_sqrt(A22, BlockDiagonalPD.identity(3))
    with pytest.raises(DimensionMismatch):
        reduce_cholesky(A22, BlockDiagonalPD.identity(5))


def test_forward_transform_examples():
    B = BlockDiagonalPD.from_diagonal([4.0, 9.0])
    from qpencil.linalg import cholesky_block_diagonal, sqrt_block_diagonal

    S = sqrt_block_diagonal(B)
    assert np.allclose(forward_transform([1.0, 1.0], S, "sqrt"), [2.0, 3.0])
    S_id = sqrt_block_diagonal(BlockDiagonalPD.identity(2))
    v = np.array([0.3, -0.4])
    assert np.allclose(forward_transform(v, S_id, "sqrt"), v)
    L = cholesky_block_diagonal(B)
    assert np.allclose(forward_transform([1.0, 1.0], L, "cholesky"), [2.0, 3.0])


@pytest.mark.parametrize("route", ["sqrt", "cholesky"])
def test_round_trip_recovers_vector(route, rng):
    N, k, m = 12, 1, 3
    A, B = random_generalized_pair(N, k, m, seed=5)
    red = (reduce_sqrt if route == "sqrt" else reduce_cholesky)(A, B)
    v = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
    # normalize to unit weighted norm so the round trip is exact
    v = v / np.sqrt(np.vdot(v, B.matvec(v)).real)
    u = forward_transform(v, red.transform_witness, route)
    back = recover_eigenvector(u, red.transform_witness, route)
    assert np.abs(back - v).max() <= 1e-12
    again = forward_transform(back, red.transform_witness, route)
    assert np.abs(again - u).max() <= 1e-12


def test_recover_with_identity_witness_renormalizes(rng):
    from qpencil.linalg import sqrt_block_diagonal

    S_id = sqrt_block_diagonal(BlockDiagonalPD.identity(5))
    u = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    v = recover_eigenvector(u, S_id, "sqrt")
    assert np.abs(v - u / np.linalg.norm(u)).max() <= 1e-13


def test_recover_normalizes_weighted_norm(rng):
    A, B = random_generalized_pair(9, 1, 3, seed=8)
    red = reduce_sqrt(A, B)
    x = rng.uniform(-1, 1, 9)
    u = forward_transform(3.7 * x, red.transform_witness, "sqrt")
    v = recover_eigenvector(u, red.transform_witness, "sqrt")
    assert abs(np.vdot(v, B.matvec(v)).real - 1.0) <= 1e-12
    # recovered direction matches x up to the weighted normalization
    scale = np.vdot(x, v) / np.vdot(x, x)
    assert np.abs(v - scale * x).max() <= 1e-12 * abs(scale)


def test_recovered_eigenvectors_satisfy_pencil_residual():
    A, B = random_generalized_pair(16, 2, 4, seed=21)
    w, V = oracle_eigensolve(A, B)
    Ad, Bd = A.to_dense(), B.to_dense()
    norm_a = np.linalg.norm(Ad, 2)
    for lam, v in zip(w, V.T):
        res = np.linalg.norm(Ad @ v - lam * (Bd @ v))
        assert res <= 1e-9 * norm_a * np.linalg.norm(v)


def test_b_orthogonality_examples(rng):
    B = BlockDiagonalPD.identity(4)
    v = rng.uniform(-1, 1, 4)
    assert check_b_orthogonality(v, v, B) == pytest.approx(1.0, abs=1e-14)
    assert check_b_orthogonality([1, 0, 0, 0], [0, 1, 0, 0], B) == 0.0

    A, Bw = random_generalized_pair(12, 1, 2, seed=2)
    w, V = oracle_eigensolve(A, Bw)
    span = w[-1] - w[0]
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if abs(w[i] - w[j]) > 1e-8 * span:
                assert check_b_orthogonality(V[:, i], V[:, j], Bw) <= 1e-10


def test_b_orthogonality_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_b_orthogonality([1.0, 0.0], [1.0, 0.0, 0.0], BlockDiagonalPD.identity(2))


def dense_pencil_reduction(A, B, route):
    """Dense reference for either reduction, built with numpy only."""
    Ad, Bd = A.to_dense(), B.to_dense()
    if route == "sqrt":
        w, V = np.linalg.eigh(Bd)
        inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
        return inv_sqrt @ Ad @ inv_sqrt
    L = np.linalg.cholesky(Bd)
    return np.linalg.solve(L, np.linalg.solve(L, Ad.conj().T).conj().T)


@pytest.mark.parametrize("route", ["sqrt", "cholesky"])
@pytest.mark.parametrize("sizes,k", [((2, 3, 1, 4, 2), 1), ((1, 1, 5, 2), 2),
                                     ((4,), 1), ((3, 3, 3), 3)])
def test_blockwise_assembly_matches_dense_reference(route, sizes, k, rng):
    N = sum(sizes)
    bands = [rng.uniform(-1, 1, N)]
    for d in range(1, k + 1):
        bands.append(rng.uniform(-1, 1, N - d) + 1j * rng.uniform(-1, 1, N - d))
    A = BandedHermitian(N, k, tuple(bands))
    blocks = []
    for s in sizes:
        G = rng.uniform(-1, 1, (s, s)) + 1j * rng.uniform(-1, 1, (s, s))
        blocks.append(G @ G.conj().T + 0.2 * np.eye(s))
    B = BlockDiagonalPD(tuple(sizes), tuple(blocks))
    got = (reduce_sqrt if route == "sqrt" else reduce_cholesky)(A, B)
    ref = dense_pencil_reduction(A, B, route)
    scale = np.abs(ref).max()
    assert np.abs(got.hamiltonian.to_dense() - ref).max() <= 1e-11 * scale


def blockwise_reduction_reference(A, B, route):
    """Bands of ``T A T^H`` by a loop over block pairs, ``T`` from per-block numpy.

    Row ``d`` holds the entries ``(i, i + d)``; ``T`` is ``B^{-1/2}`` or
    ``L^{-1}``, block by block.
    """
    if route == "sqrt":
        T = [(V / np.sqrt(w)) @ V.conj().T
             for w, V in (np.linalg.eigh(blk) for blk in B.blocks)]
    else:
        T = [np.linalg.inv(np.linalg.cholesky(blk)) for blk in B.blocks]
    n, k, m = A.size, A.half_bandwidth, max(B.block_sizes)
    ref = np.zeros((k + 2 * m - 1, n), dtype=complex)
    starts, sizes = B.block_starts, B.block_sizes
    for I in range(len(sizes)):
        r0, r1 = starts[I], starts[I] + sizes[I]
        for J in range(I, len(sizes)):
            c0, c1 = starts[J], starts[J] + sizes[J]
            if c0 - (r1 - 1) > k:
                break
            M = T[I] @ A.dense_block(r0, r1, c0, c1) @ T[J].conj().T
            for a in range(r1 - r0):
                for b in range(c1 - c0):
                    if c0 + b >= r0 + a:
                        ref[c0 + b - r0 - a, r0 + a] = M[a, b]
    return ref


@pytest.mark.parametrize("route", ["sqrt", "cholesky"])
def test_reduction_at_n4096_matches_blockwise_numpy(route):
    k, m, N = 1, 4, 4096
    A, B = random_generalized_pair(N, k, m, seed=41)
    H = (reduce_sqrt if route == "sqrt" else reduce_cholesky)(A, B).hamiltonian
    ref = blockwise_reduction_reference(A, B, route)
    assert H.half_bandwidth == k + 2 * (m - 1) == ref.shape[0] - 1
    err = max(np.abs(band - ref[d, :N - d]).max() for d, band in enumerate(H.diagonals))
    assert err <= 1e-11 * np.abs(ref).max()


# ----------------------------------------------------------------- properties


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(1, 1), (1, 2), (2, 4), (1, 4)]))
@settings(max_examples=15, deadline=None)
def test_routes_share_the_generalized_spectrum(seed, km):
    k, m = km
    A, B = random_generalized_pair(16, k, m, seed=seed)
    tilde = reduce_sqrt(A, B).hamiltonian
    bar = reduce_cholesky(A, B).hamiltonian
    w_tilde, _ = eigh_jacobi(tilde.to_dense(), vectors=False)
    w_bar, _ = eigh_jacobi(bar.to_dense(), vectors=False)
    w_oracle, _ = oracle_eigensolve(A, B)
    span = max(w_oracle[-1] - w_oracle[0], 1e-300)
    assert np.abs(w_tilde - w_oracle).max() <= 1e-10 * span
    assert np.abs(w_bar - w_oracle).max() <= 1e-10 * span
    # bandwidth bound of the transformed operator
    bound = k + 2 * (m - 1)
    assert tilde.half_bandwidth <= bound
    assert bar.half_bandwidth <= bound


def test_eigenvalues_are_real_in_general_diagonalization():
    A, B = random_generalized_pair(12, 1, 4, seed=17)
    H = reduce_sqrt(A, B).hamiltonian.to_dense()
    w = np.linalg.eigvals(H)  # general solver, no Hermitian assumption
    assert np.abs(w.imag).max() <= 1e-12 * max(np.abs(w.real).max(), 1.0)


@pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (1, 4), (2, 2), (2, 4)])
def test_cholesky_route_is_sparser(k, m):
    A, B = random_generalized_pair(24, k, m, seed=33)
    nnz_bar = count_nonzeros(reduce_cholesky(A, B).hamiltonian)
    nnz_tilde = count_nonzeros(reduce_sqrt(A, B).hamiltonian)
    assert nnz_bar <= nnz_tilde


@pytest.mark.parametrize("k,m", [(1, 2), (1, 4), (2, 4), (2, 2)])
def test_nnz_never_exceeds_prediction_plus_margin(k, m):
    from qpencil.linalg import predicted_nnz

    N = 32
    A, B = random_generalized_pair(N, k, m, seed=7)
    margin = (2 * k + m) ** 2
    nnz_bar = count_nonzeros(reduce_cholesky(A, B).hamiltonian)
    nnz_tilde = count_nonzeros(reduce_sqrt(A, B).hamiltonian)
    assert nnz_bar <= predicted_nnz("cholesky", k, m, N)
    assert nnz_tilde <= predicted_nnz("sqrt", k, m, N)
    assert nnz_bar >= predicted_nnz("cholesky", k, m, N) - margin
    assert nnz_tilde >= predicted_nnz("sqrt", k, m, N) - margin
