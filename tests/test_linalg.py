import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpencil.errors import DimensionMismatch, NotPositiveDefinite, RegimeViolation
from qpencil.linalg import (
    BandedHermitian,
    BlockDiagonalPD,
    BlockLowerTriangular,
    SparsityReport,
    block_powers,
    cholesky_block_diagonal,
    count_nonzeros,
    invert_block_diagonal,
    predicted_nnz,
    solve_block_lower,
    sparsity_report,
    sqrt_block_diagonal,
)

from conftest import cholesky_by_hand, eig2_sym


def pd_blocks(block_sizes, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for s in block_sizes:
        G = rng.uniform(-1, 1, (s, s)) + 1j * rng.uniform(-1, 1, (s, s))
        blocks.append(G @ G.conj().T + 0.1 * np.eye(s))
    return BlockDiagonalPD(tuple(block_sizes), tuple(blocks))


block_structures = st.lists(st.integers(1, 5), min_size=1, max_size=4)


# ---------------------------------------------------------------------- types


def test_banded_round_trip(rng):
    diag = rng.uniform(-1, 1, 6)
    band1 = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    H = BandedHermitian(6, 1, (diag, band1))
    M = H.to_dense()
    assert np.abs(M - M.conj().T).max() == 0.0
    assert BandedHermitian.from_dense(M).half_bandwidth == 1
    assert np.abs(BandedHermitian.from_dense(M, 1).to_dense() - M).max() == 0.0


def test_banded_rejects_complex_diagonal():
    with pytest.raises(ValueError):
        BandedHermitian(2, 0, (np.array([1.0 + 1.0j, 2.0]),))


def test_banded_rejects_entries_outside_band(rng):
    M = np.eye(4)
    M[0, 3] = M[3, 0] = 0.5
    with pytest.raises(ValueError):
        BandedHermitian.from_dense(M, half_bandwidth=1)


def test_banded_matvec_matches_dense(rng):
    H = BandedHermitian(5, 2, (rng.uniform(-1, 1, 5),
                               rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4),
                               rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)))
    x = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    assert np.allclose(H.matvec(x), H.to_dense() @ x, atol=1e-14)


def test_banded_dense_block_matches_dense(rng):
    H = BandedHermitian(8, 2, (rng.uniform(-1, 1, 8),
                               rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7),
                               rng.uniform(-1, 1, 6)))
    M = H.to_dense()
    assert np.abs(H.dense_block(1, 5, 3, 8) - M[1:5, 3:8]).max() == 0.0


def test_banded_immutable(rng):
    H = BandedHermitian(3, 0, (np.ones(3),))
    with pytest.raises(ValueError):
        H.diagonals[0][0] = 2.0


def test_block_pd_requires_hermitian_blocks():
    with pytest.raises(ValueError):
        BlockDiagonalPD((2,), (np.array([[1.0, 2.0], [0.5, 1.0]]),))


def test_block_pd_requires_positive_definite():
    # indefinite: eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        BlockDiagonalPD((2,), (np.array([[1.0, 2.0], [2.0, 1.0]]),))
    with pytest.raises(NotPositiveDefinite):
        BlockDiagonalPD((1,), (np.array([[0.0]]),))


def test_block_lower_validation():
    with pytest.raises(ValueError):
        BlockLowerTriangular((2,), (np.array([[1.0, 0.5], [0.0, 1.0]]),))
    with pytest.raises(ValueError):
        BlockLowerTriangular((1,), (np.array([[-2.0]]),))


def test_sparsity_report_fields():
    rep = sparsity_report(np.eye(4), 4, "identity")
    assert rep == SparsityReport(4, 4, "identity", 1e-12)
    with pytest.raises(ValueError):
        SparsityReport(-1, 4, "bad", 1e-12)


# ------------------------------------------------------------- factorizations


def test_cholesky_identity():
    B = BlockDiagonalPD.identity(5)
    L = cholesky_block_diagonal(B)
    assert np.abs(L.to_dense() - np.eye(5)).max() == 0.0


def test_cholesky_diagonal_square_roots():
    B = BlockDiagonalPD.from_diagonal([4.0, 9.0])
    L = cholesky_block_diagonal(B)
    assert np.allclose(L.to_dense(), np.diag([2.0, 3.0]))


def test_cholesky_single_block_against_hand_recurrence():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    L = cholesky_block_diagonal(BlockDiagonalPD((2,), (M,)))
    expected = cholesky_by_hand(M)
    assert np.allclose(L.blocks[0], expected, atol=1e-15)
    rebuilt = L.blocks[0] @ L.blocks[0].conj().T
    assert np.linalg.norm(rebuilt - M) <= 1e-12 * np.linalg.norm(M)


def test_sqrt_diagonal_case():
    vals = np.array([1.0, 4.0, 2.25])
    S = sqrt_block_diagonal(BlockDiagonalPD.from_diagonal(vals))
    assert np.allclose(S.to_dense(), np.diag(np.sqrt(vals)), atol=1e-15)
    S_id = sqrt_block_diagonal(BlockDiagonalPD.identity(3))
    assert np.allclose(S_id.to_dense(), np.eye(3), atol=1e-15)


def test_sqrt_2x2_block_against_eigen_oracle():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    S = sqrt_block_diagonal(BlockDiagonalPD((2,), (M,)))
    w, V = eig2_sym(2.0, 1.0, 2.0)
    assert np.allclose(w, [1.0, 3.0])
    expected = (V * np.sqrt(w)) @ V.T
    assert np.allclose(S.blocks[0], expected, atol=1e-14)
    assert np.allclose(S.to_dense() @ S.to_dense(), M, atol=1e-13)


def test_invert_examples():
    inv = invert_block_diagonal(BlockDiagonalPD.from_diagonal([2.0, 4.0]))
    assert np.allclose(inv.to_dense(), np.diag([0.5, 0.25]), atol=1e-15)
    inv_id = invert_block_diagonal(BlockDiagonalPD.identity(4))
    assert np.allclose(inv_id.to_dense(), np.eye(4), atol=1e-15)
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    inv2 = invert_block_diagonal(BlockDiagonalPD((2,), (M,)))
    assert np.allclose(inv2.blocks[0], np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0,
                       atol=1e-14)


def test_solve_block_lower_examples(rng):
    L_id = cholesky_block_diagonal(BlockDiagonalPD.identity(4))
    x = rng.uniform(-1, 1, 4)
    assert np.allclose(solve_block_lower(L_id, x), x, atol=1e-15)

    L_diag = cholesky_block_diagonal(BlockDiagonalPD.from_diagonal([4.0, 9.0]))
    assert np.allclose(solve_block_lower(L_diag, np.array([2.0, 3.0])), [1.0, 1.0])

    B = pd_blocks([2, 3, 1], seed=3)
    L = cholesky_block_diagonal(B)
    e1 = np.zeros(6)
    e1[0] = 1.0
    X = L.to_dense() @ e1
    assert np.allclose(solve_block_lower(L, X), e1, atol=1e-12)


def test_solve_block_lower_dimension_mismatch():
    L = cholesky_block_diagonal(BlockDiagonalPD.identity(3))
    with pytest.raises(DimensionMismatch):
        solve_block_lower(L, np.ones(4))


# ------------------------------------------------------------------- sparsity


def test_count_nonzeros_identity_and_tridiagonal():
    assert count_nonzeros(np.eye(7)) == 7
    n = 9
    T = BandedHermitian(n, 1, (np.full(n, 2.0), np.full(n - 1, -1.0)))
    assert count_nonzeros(T) == 3 * n - 2


def test_count_nonzeros_banded_matches_dense(rng):
    H = BandedHermitian(6, 2, (rng.uniform(-1, 1, 6),
                               rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5),
                               rng.uniform(-1, 1, 4)))
    assert count_nonzeros(H) == count_nonzeros(H.to_dense())


def test_count_nonzeros_rejects_negative_tol():
    with pytest.raises(ValueError):
        count_nonzeros(np.eye(2), rel_tol=-1.0)


def test_count_nonzeros_reduced_pencil_near_prediction():
    from qpencil.analysis import random_generalized_pair
    from qpencil.reduction import reduce_cholesky

    k, m, N = 1, 4, 64
    A, B = random_generalized_pair(N, k, m, seed=12)
    nnz = count_nonzeros(reduce_cholesky(A, B).hamiltonian)
    prediction = (2 * k + m) * N  # 384, short only of boundary deficits
    assert prediction - (2 * k + m) ** 2 <= nnz <= prediction


def test_predicted_nnz_values():
    assert predicted_nnz("cholesky", 1, 4, 100) == 600
    assert predicted_nnz("sqrt", 1, 4, 100) == 1200
    assert predicted_nnz("sqrt", 1, 4, 100) / predicted_nnz("cholesky", 1, 4, 100) == 2.0
    assert predicted_nnz("cholesky", 0, 1, 37) == 37
    with pytest.raises(RegimeViolation):
        predicted_nnz("sqrt", 2, 1, 16)
    with pytest.raises(ValueError):
        predicted_nnz("qr", 1, 1, 4)


# ----------------------------------------------------------------- properties


@given(block_structures, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_sqrt_squares_back(sizes, seed):
    B = pd_blocks(sizes, seed)
    S = sqrt_block_diagonal(B)
    err = np.linalg.norm(S.to_dense() @ S.to_dense() - B.to_dense())
    assert err <= 1e-11 * np.linalg.norm(B.to_dense())


@given(block_structures, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_cholesky_reconstructs(sizes, seed):
    B = pd_blocks(sizes, seed)
    L = cholesky_block_diagonal(B).to_dense()
    err = np.linalg.norm(L @ L.conj().T - B.to_dense())
    assert err <= 1e-12 * np.linalg.norm(B.to_dense())


@given(block_structures, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_sqrt_commutes_with_inverse(sizes, seed):
    B = pd_blocks(sizes, seed)
    left = invert_block_diagonal(sqrt_block_diagonal(B)).to_dense()
    right = sqrt_block_diagonal(invert_block_diagonal(B)).to_dense()
    assert np.linalg.norm(left - right) <= 1e-10 * max(np.linalg.norm(left), 1.0)


@given(block_structures, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_batched_blocks_match_blockwise_references(sizes, seed):
    B = pd_blocks(sizes, seed)
    Bd = B.to_dense()
    scale = np.linalg.norm(Bd)
    S, S_inv = (M.to_dense() for M in block_powers(B, 0.5, -0.5))
    assert np.linalg.norm(S @ S - Bd) <= 1e-11 * scale
    assert np.linalg.norm(S @ S_inv - np.eye(B.size)) <= 1e-11 * B.size
    L = cholesky_block_diagonal(B)
    for blk, factor in zip(B.blocks, L.blocks):
        assert np.abs(factor - cholesky_by_hand(blk)).max() <= 1e-12 * scale
    assert np.linalg.norm(L.to_dense() @ L.to_dense().conj().T - Bd) <= 1e-12 * scale


@given(block_structures, st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=30, deadline=None)
def test_singular_block_in_mixed_stack_rejected(sizes, seed, data):
    blocks = [np.array(blk) for blk in pd_blocks(sizes, seed).blocks]
    bad = blocks[data.draw(st.integers(0, len(sizes) - 1))]
    bad[-1, :] = bad[:, -1] = 0.0  # a zero row and column: exactly singular
    with pytest.raises(NotPositiveDefinite):
        BlockDiagonalPD(tuple(sizes), tuple(blocks))


@given(block_structures, st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=30, deadline=None)
def test_pivot_below_floor_rejected_although_lapack_factors(sizes, seed, data):
    wide = [i for i, s in enumerate(sizes) if s >= 2]
    assume(wide)  # a 1 x 1 block is its own largest diagonal entry
    i = data.draw(st.sampled_from(wide))
    blocks = list(pd_blocks(sizes, seed).blocks)
    blocks[i] = np.diag([1.0] * (sizes[i] - 1) + [1e-15])
    np.linalg.cholesky(blocks[i])  # LAPACK accepts the pivot 1e-15 ...
    with pytest.raises(NotPositiveDefinite):  # ... the 1e-14 relative floor does not
        BlockDiagonalPD(tuple(sizes), tuple(blocks))
