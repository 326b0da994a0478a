"""Reduction of the pencil problem ``A v = lam B v`` to standard Hermitian form.

Two routes are provided for Hermitian ``A`` and positive-definite
block-diagonal ``B``:

* square root: ``H = B^{-1/2} A B^{-1/2}`` acting on ``u = B^{1/2} v``;
* Cholesky: ``H = L^{-1} A L^{-H}`` with ``B = L L^H``, acting on ``w = L^H v``.

Both transforms preserve the spectrum, and because ``B`` is block diagonal
the transformed operator stays banded with half-bandwidth at most
``k + 2 (m - 1)`` for source bandwidth ``k`` and largest block ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    BandedHermitian,
    BlockDiagonalPD,
    BlockLowerTriangular,
    block_powers,
    cholesky_block_diagonal,
    congruence,
)

ROUTE_SQRT = "sqrt"
ROUTE_CHOLESKY = "cholesky"
_WITNESS_TYPES = {ROUTE_SQRT: BlockDiagonalPD, ROUTE_CHOLESKY: BlockLowerTriangular}


@dataclass(frozen=True)
class ReducedProblem:
    """Standard-form Hamiltonian plus the witness needed to map vectors back."""

    hamiltonian: BandedHermitian
    route: str
    transform_witness: object

    def __post_init__(self):
        _check_witness(self.route, self.transform_witness, ValueError)


def reduce_sqrt(A: BandedHermitian, B: BlockDiagonalPD) -> ReducedProblem:
    """Square-root reduction ``H = B^{-1/2} A B^{-1/2}``.

    ``B^{1/2}`` (the witness) and ``B^{-1/2}`` come from one batched
    eigendecomposition of the blocks of ``B``.  For diagonal ``B`` this is
    the entrywise rescaling ``H[i, j] = A[i, j] / sqrt(b_i b_j)``.
    """
    S, S_inv = block_powers(B, 0.5, -0.5)
    return ReducedProblem(congruence(S_inv, A), ROUTE_SQRT, S)


def reduce_cholesky(A: BandedHermitian, B: BlockDiagonalPD) -> ReducedProblem:
    """Cholesky reduction ``H = L^{-1} A L^{-H}`` with ``B = L L^H``.

    Only the ``m x m`` block inverses of ``L`` are formed, by one batched
    solve per block size; the inverse of ``L`` as a whole never is.
    """
    L = cholesky_block_diagonal(B)
    return ReducedProblem(congruence(L.inverse(), A), ROUTE_CHOLESKY, L)


#: Reduction function for each route name.  The entries look the functions
#: up when called, so a wrapper installed on the module attribute (as
#: bench/spans.py installs) also sees the calls made through this table.
REDUCERS = {ROUTE_SQRT: lambda A, B: reduce_sqrt(A, B),
            ROUTE_CHOLESKY: lambda A, B: reduce_cholesky(A, B)}


def _witness_vector(x, witness, route: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    _check_witness(route, witness)
    if x.shape != (witness.size,):
        raise DimensionMismatch(
            f"vector of shape {x.shape} against witness of size {witness.size}")
    return x


def forward_transform(v, witness, route: str) -> np.ndarray:
    """Map an original-variable vector into the reduced problem's variable.

    Returns ``B^{1/2} v`` on the square-root route and ``L^H v`` on the
    Cholesky route: both witnesses ``W`` satisfy ``B = W W^H``, so the
    reduced variable is ``W^H v``.
    """
    return witness.adjoint().matvec(_witness_vector(v, witness, route))


def recover_eigenvector(u_or_w, witness, route: str) -> np.ndarray:
    """Invert the change of variables and normalize so that ``v^H B v = 1``.

    Because both transforms turn the weighted norm into the Euclidean one,
    normalizing the input before the blockwise solve with ``W^H`` yields a
    unit weighted norm exactly.
    """
    u = _witness_vector(u_or_w, witness, route)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise ValueError("cannot recover an eigenvector from the zero vector")
    return witness.adjoint().solve(u / norm)


def _check_witness(route: str, witness, error=DimensionMismatch) -> None:
    if route not in _WITNESS_TYPES:
        raise ValueError(f"unknown route {route!r}")
    expected = _WITNESS_TYPES[route]
    if not isinstance(witness, expected):
        raise error(f"route {route!r} requires a {expected.__name__} witness")


def check_b_orthogonality(v1, v2, B: BlockDiagonalPD) -> float:
    """Weighted-orthogonality defect ``|v1^H B v2|`` on unit weighted norms."""
    v1 = np.asarray(v1, dtype=np.complex128)
    v2 = np.asarray(v2, dtype=np.complex128)
    if v1.shape != v2.shape or v1.shape != (B.size,):
        raise DimensionMismatch(
            f"vectors of shapes {v1.shape} and {v2.shape} against size {B.size}")
    bv2 = B.matvec(v2)
    bv1 = B.matvec(v1)
    n1 = np.sqrt(abs(np.vdot(v1, bv1).real))
    n2 = np.sqrt(abs(np.vdot(v2, bv2).real))
    return float(abs(np.vdot(v1, bv2)) / (n1 * n2))
