"""Classical oracle eigensolver and quantitative scaling scans.

The oracle solves the pencil problem through the Cholesky route followed by
a dense Jacobi diagonalization, and it is the only caller of the Jacobi
solver: an independent check that shares no eigensolver with the pipeline.
The scans measure nonzero counts of the two reductions, the growth of the
splitting commutator with grid refinement, and the first-order Trotter
error against exact evolution; their dense spectra come from LAPACK, like
the pipeline's.  The Trotter scan powers the cycle the way phase
estimation does, from its eigenphases times the step count, so no cycle
is applied repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooManyQubits
from .jacobi import eigh_jacobi
from .linalg import (
    BandedHermitian,
    BlockDiagonal,
    BlockDiagonalPD,
    block_powers,
    count_nonzeros,
    predicted_nnz,
)
from .qpe import (
    _apply_phases,
    _check_steps,
    _check_time,
    _eigh,
    _hopping_svd,
    _trotter_eig,
)
from .reduction import reduce_cholesky, reduce_sqrt


@dataclass(frozen=True)
class ScanRecord:
    """One (parameter, observable) point of a scaling scan."""

    parameter: float
    observable: float
    label: str

    def __post_init__(self):
        if not np.isfinite(self.observable) or self.observable < 0.0:
            raise ValueError(
                f"observable must be finite and non-negative, got {self.observable}")


def random_banded_hermitian(size: int, half_bandwidth: int,
                            rng: np.random.Generator) -> BandedHermitian:
    """Hermitian matrix with dense-within-band entries drawn uniform on [-1, 1]."""
    bands = [rng.uniform(-1.0, 1.0, size)]
    for d in range(1, half_bandwidth + 1):
        bands.append(rng.uniform(-1.0, 1.0, size - d)
                     + 1j * rng.uniform(-1.0, 1.0, size - d))
    return BandedHermitian(size, half_bandwidth, tuple(bands))


def random_block_diagonal_pd(block_sizes, rng: np.random.Generator) -> BlockDiagonalPD:
    """Positive-definite blocks built as ``G G^H + 0.1 I`` for random ``G``.

    Block after block, the real and then the imaginary part of ``G`` are
    drawn uniform on [-1, 1]; the draws come from one call, and the blocks
    of each size are formed in one batched product.
    """
    sizes = np.array(block_sizes, dtype=int)
    starts = np.cumsum(2 * sizes ** 2) - 2 * sizes ** 2
    draws = rng.uniform(-1.0, 1.0, int((2 * sizes ** 2).sum()))
    blocks = [None] * sizes.size
    for m in set(sizes.tolist()):
        index = np.flatnonzero(sizes == m)
        parts = draws[starts[index, None] + np.arange(2 * m * m)].reshape(-1, 2, m, m)
        G = parts[:, 0] + 1j * parts[:, 1]
        for b, blk in zip(index.tolist(), G @ G.conj().swapaxes(1, 2) + 0.1 * np.eye(m)):
            blocks[b] = blk
    return BlockDiagonalPD(tuple(block_sizes), tuple(blocks))


def uniform_block_sizes(size: int, m: int) -> tuple:
    """Blocks of size ``m`` covering ``size`` rows, last block possibly smaller."""
    sizes = [m] * (size // m)
    if size % m:
        sizes.append(size % m)
    return tuple(sizes)


def random_generalized_pair(size: int, k: int, m: int, seed: int):
    """Seeded random pencil: banded Hermitian ``A`` and block-diagonal PD ``B``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, size, k, m])))
    A = random_banded_hermitian(size, k, rng)
    B = random_block_diagonal_pd(uniform_block_sizes(size, m), rng)
    return A, B


def oracle_eigensolve(A: BandedHermitian, B: BlockDiagonalPD | None = None):
    """Classical reference solution of ``A v = lam B v``.

    Reduces through the Cholesky route, diagonalizes densely with Jacobi
    rotations, and maps eigenvectors back with unit weighted norm.

    Returns
    -------
    (w, V) with eigenvalues ``w`` ascending and ``V`` holding the matching
    eigenvectors as columns, normalized so that ``v^H B v = 1``.
    """
    if A.size > 4096:
        raise TooManyQubits("oracle path is capped at dimension 4096")
    if B is None:
        B = BlockDiagonalPD.identity(A.size)
    reduced = reduce_cholesky(A, B)
    w, W = eigh_jacobi(reduced.hamiltonian.to_dense())
    # Jacobi's columns are orthonormal, so solving with L^H gives v^H B v = 1.
    return w, reduced.transform_witness.adjoint().solve(W)


def _laplacian(size: int) -> BandedHermitian:
    """Dirichlet second-difference operator on ``size`` interior points of (0, 1)."""
    inv_dx2 = float((size + 1) ** 2)
    return BandedHermitian(
        size, 1, (np.full(size, 2.0 * inv_dx2), np.full(size - 1, -1.0 * inv_dx2)))


def scan_commutator_norm(potential, sizes) -> list:
    """Spectral norm of the kinetic/potential splitting commutator versus size.

    The kinetic part is the Dirichlet second-difference operator on the unit
    interval; the potential is evaluated at the integer site index, so its
    per-cell increment stays fixed as the grid refines.  That is the regime
    in which the commutator tracks the kinetic norm's quadratic growth; a
    potential sampled at the physical coordinates of a fixed smooth profile
    varies by O(dx) per cell and would grow only linearly.  Every size must
    be at least 2, so that the grid has a neighbouring pair.
    """
    if any(size < 2 for size in sizes):
        raise ValueError(f"commutator scan needs sizes of at least 2, got {list(sizes)}")
    records = []
    for size in sizes:
        if size > 1024:
            raise TooManyQubits("commutator scan is capped at size 1024")
        H1 = _laplacian(size)
        v = np.asarray(potential(np.arange(1, size + 1, dtype=float)), dtype=float)
        if v.shape != (size,):
            raise ValueError("potential must return one value per site")
        # [H1, diag(v)] has zero diagonal and entries H1[i, j] (v_j - v_i);
        # multiplying by 1j makes it Hermitian with the same spectral norm.
        C = BandedHermitian(size, 1, (np.zeros(size), 1j * H1.diagonals[1] * np.diff(v)))
        norm = float(np.abs(np.linalg.eigvalsh(C.to_dense())).max())
        records.append(ScanRecord(float(size), norm, "commutator_norm"))
    return records


def scan_trotter_error(H1: BandedHermitian, H2: BandedHermitian, time: float,
                       steps_list) -> list:
    """Worst-case Trotter error over a fixed trial basis, per step count.

    The observable is ``max_psi || trotter(psi) - exact(psi) ||`` over the
    eight lowest computational basis states plus the uniform state, a
    reproducible surrogate for the operator-norm error.  Both sides are
    phases in an eigenbasis: exact evolution from one decomposition of
    ``H1 + H2``, and ``s`` Trotter cycles from one decomposition of the
    cycle per step count (``_trotter_eig``), its eigenphases times ``s``.
    The hopping factor's SVD does not depend on the step, so it is taken
    once per scan.
    """
    _check_time(time)
    for steps in steps_list:
        _check_steps(steps)
    hopping = _hopping_svd(H1, H2)
    H = H1.add(H2)
    trials = np.hstack([np.eye(H.size, min(8, H.size)),
                        np.full((H.size, 1), 1.0 / np.sqrt(H.size))]).astype(np.complex128)
    w, V = _eigh(H)
    exact = _apply_phases(-time * w, V, trials)
    records = []
    for steps in steps_list:
        theta, U = _trotter_eig(H1, H2, time / steps, hopping)
        amps = _apply_phases(steps * theta, U, trials)
        worst = float(np.linalg.norm(amps - exact, axis=0).max())
        records.append(ScanRecord(float(steps), worst, "trotter_error"))
    return records


def scan_sparsity(k: int, m: int, sizes, seed: int = 0) -> list:
    """Measured against predicted nonzero counts for both reduction routes.

    Each size gets its own seeded random pencil.  Records carry measured
    and predicted counts, relative deviations, and the Cholesky-to-sqrt
    count ratio.
    """
    if m < 1:
        raise ValueError(f"block size m must be at least 1, got {m}")
    records = []
    for size in sizes:
        if size % m:
            raise ValueError(f"size {size} is not divisible by block size {m}")
        pred_chol = predicted_nnz("cholesky", k, m, size)
        pred_sqrt = predicted_nnz("sqrt", k, m, size)
        A, B = random_generalized_pair(size, k, m, seed)
        nnz_chol = count_nonzeros(reduce_cholesky(A, B).hamiltonian)
        nnz_sqrt = count_nonzeros(reduce_sqrt(A, B).hamiltonian)
        n = float(size)
        records.extend([
            ScanRecord(n, float(nnz_chol), "measured_nnz_cholesky"),
            ScanRecord(n, float(pred_chol), "predicted_nnz_cholesky"),
            ScanRecord(n, abs(nnz_chol - pred_chol) / pred_chol, "rel_dev_cholesky"),
            ScanRecord(n, float(nnz_sqrt), "measured_nnz_sqrt"),
            ScanRecord(n, float(pred_sqrt), "predicted_nnz_sqrt"),
            ScanRecord(n, abs(nnz_sqrt - pred_sqrt) / pred_sqrt, "rel_dev_sqrt"),
            ScanRecord(n, nnz_chol / nnz_sqrt, "nnz_ratio"),
        ])
    return records


def fill_fraction(M, rel_tol: float = 1e-12) -> float:
    """Fraction of entries above the relative threshold, in [0, 1]."""
    if isinstance(M, (BandedHermitian, BlockDiagonal)):
        size = M.size
    else:
        M = np.asarray(M)
        size = M.shape[0]
    if size > 1024:
        raise TooManyQubits("fill fraction path is capped at dimension 1024")
    return count_nonzeros(M, rel_tol) / float(size * size)


def hermitian_inv_sqrt(M) -> np.ndarray:
    """Dense inverse square root of a positive-definite Hermitian matrix.

    The matrix is taken as a single block of :func:`linalg.block_powers`,
    which checks it the same way as every block of ``B``.
    """
    if isinstance(M, (BandedHermitian, BlockDiagonal)):
        M = M.to_dense()
    M = np.asarray(M, dtype=np.complex128)
    return block_powers(BlockDiagonalPD((len(M),), (M,)), -0.5)[0].to_dense()
