"""Banded Hermitian and positive-definite block-diagonal matrix storage.

Matrices are stored compactly: a Hermitian band matrix keeps only its
diagonal and upper bands (the lower triangle is implied by conjugate
symmetry), and a block-diagonal matrix keeps only its dense blocks, stacked
into one ``(nb, m, m)`` array per distinct block size ``m``.  Block
routines (Cholesky, square root, inverse, solves, and the congruence
``T A T^H`` that both pencil reductions assemble) are batched LAPACK calls
over those stacks, with no loop over blocks or entries.  A stack of 1x1
blocks is a vector of scalars and is handled elementwise, with no LAPACK
call: square roots, powers and divisions, and for a ``T`` made only of 1x1
blocks the congruence is the band scaling ``t_i A_ij conj(t_j)``.  So a
diagonal ``B``, as in a Sturm-Liouville pencil, costs no more than the
standard problem.  Full matrices are materialized only on small oracle
paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, RegimeViolation

#: Relative threshold below which an entry counts as a structural zero.
NNZ_RTOL = 1e-12

_HERMITIAN_RTOL = 1e-13
_PIVOT_RTOL = 1e-14


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BandedHermitian:
    """Hermitian matrix stored by its diagonal and upper bands.

    ``diagonals[d][i]`` holds entry ``(i, i + d)`` for offsets ``d = 0..k``;
    entries below the diagonal are mirrored by conjugation on read and
    entries beyond offset ``k`` are structurally zero.  The main diagonal is
    kept exactly real.  Values are immutable after construction.
    """

    size: int
    half_bandwidth: int
    diagonals: tuple

    def __post_init__(self):
        n, k = self.size, self.half_bandwidth
        if n < 1:
            raise ValueError(f"size must be positive, got {n}")
        if not 0 <= k <= n - 1:
            raise ValueError(f"half_bandwidth {k} out of range for size {n}")
        if len(self.diagonals) != k + 1:
            raise ValueError(
                f"expected {k + 1} stored bands, got {len(self.diagonals)}")
        bands = []
        for d, band in enumerate(self.diagonals):
            band = np.asarray(band, dtype=np.complex128)
            if band.shape != (n - d,):
                raise ValueError(f"band {d} must have length {n - d}")
            bands.append(band)
        scale = max((float(np.abs(b).max()) if b.size else 0.0) for b in bands)
        diag = bands[0]
        if float(np.abs(diag.imag).max(initial=0.0)) > _HERMITIAN_RTOL * max(scale, 1e-300):
            raise ValueError("diagonal of a Hermitian matrix must be real")
        bands[0] = diag.real.astype(np.complex128)
        object.__setattr__(self, "diagonals", tuple(_frozen(b) for b in bands))

    @classmethod
    def from_dense(cls, dense, half_bandwidth: int | None = None,
                   tol: float = NNZ_RTOL) -> "BandedHermitian":
        """Compress a dense Hermitian matrix into band storage.

        With ``half_bandwidth=None`` the smallest bandwidth covering every
        entry above ``tol`` (relative to the largest magnitude) is used;
        otherwise entries outside the requested band must be negligible.
        """
        M = np.asarray(dense, dtype=np.complex128)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        n = M.shape[0]
        scale = float(np.abs(M).max(initial=0.0))
        if float(np.abs(M - M.conj().T).max(initial=0.0)) > _HERMITIAN_RTOL * max(scale, 1e-300):
            raise ValueError("matrix is not Hermitian within tolerance")
        thr = tol * scale
        if half_bandwidth is None:
            k = 0
            for d in range(n - 1, 0, -1):
                if np.abs(np.diagonal(M, d)).max(initial=0.0) > thr:
                    k = d
                    break
        else:
            k = half_bandwidth
            for d in range(k + 1, n):
                if np.abs(np.diagonal(M, d)).max(initial=0.0) > thr:
                    raise ValueError(
                        f"entries found outside requested half-bandwidth {k}")
        return cls(n, k, tuple(np.diagonal(M, d).copy() for d in range(k + 1)))

    def to_dense(self, dtype=np.complex128) -> np.ndarray:
        """Dense copy; a real ``dtype`` keeps only the real parts of the bands."""
        n = self.size
        M = np.zeros((n, n), dtype=dtype)
        real = M.dtype.kind == "f"
        for d, band in enumerate(self.diagonals):
            if real:
                band = band.real
            idx = np.arange(n - d)
            M[idx, idx + d] = band
            if d > 0:
                M[idx + d, idx] = np.conjugate(band)
        return M

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.size,):
            raise DimensionMismatch(
                f"vector of length {x.shape} against matrix of size {self.size}")
        y = self.diagonals[0] * x
        for d in range(1, self.half_bandwidth + 1):
            band = self.diagonals[d]
            y[:self.size - d] += band * x[d:]
            y[d:] += np.conjugate(band) * x[:self.size - d]
        return y

    def max_abs(self) -> float:
        return max(float(np.abs(b).max(initial=0.0)) for b in self.diagonals)

    def add(self, other: "BandedHermitian") -> "BandedHermitian":
        if self.size != other.size:
            raise DimensionMismatch(
                f"sizes {self.size} and {other.size} differ")
        k = max(self.half_bandwidth, other.half_bandwidth)
        bands = []
        for d in range(k + 1):
            band = np.zeros(self.size - d, dtype=np.complex128)
            if d <= self.half_bandwidth:
                band += self.diagonals[d]
            if d <= other.half_bandwidth:
                band += other.diagonals[d]
            bands.append(band)
        return BandedHermitian(self.size, k, tuple(bands))

    def affine(self, scale: float, shift: float = 0.0) -> "BandedHermitian":
        """Return ``scale * (M - shift * I)`` in band storage."""
        bands = [scale * (self.diagonals[0].real - shift)]
        bands += [scale * b for b in self.diagonals[1:]]
        return BandedHermitian(self.size, self.half_bandwidth, tuple(bands))

    def drop_small(self, rel_tol: float = NNZ_RTOL) -> "BandedHermitian":
        """Zero stored entries at or below ``rel_tol`` times the largest magnitude."""
        thr = rel_tol * self.max_abs()
        bands = tuple(np.where(np.abs(b) > thr, b, 0.0) for b in self.diagonals)
        return BandedHermitian(self.size, self.half_bandwidth, bands)


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


class BlockDiagonal:
    """Block-diagonal matrix of dense square blocks, stacked by size.

    The blocks of each distinct size ``m`` live in one read-only
    ``(nb, m, m)`` stack, so every blockwise operation is one batched numpy
    call per distinct size, for any mix of sizes.  ``blocks`` lists the
    blocks in diagonal order as views of the stacks.
    """

    def __init__(self, block_sizes, blocks):
        self._set_layout(tuple(int(s) for s in block_sizes))
        if len(blocks) != len(self.block_sizes):
            raise ValueError("one dense block required per block size")
        blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
        for s, blk in zip(self.block_sizes, blocks):
            if blk.shape != (s, s):
                raise ValueError(f"block of size {s} has shape {blk.shape}")
        self._adopt([np.array([blocks[b] for b in index.tolist()]) for index, _ in self._groups])

    def _set_layout(self, sizes: tuple) -> None:
        if not sizes or min(sizes) < 1:
            raise ValueError(f"block sizes must be positive, got {sizes}")
        self.block_sizes = sizes
        self.size = sum(sizes)
        self._starts = np.cumsum((0,) + sizes[:-1])
        size_of = np.array(sizes)
        groups = []
        for m in sorted(set(sizes)):
            index = np.flatnonzero(size_of == m)
            groups.append((index, self._starts[index, None] + np.arange(m)))
        # (block numbers, (nb, m) row indices) per distinct size, ascending
        self._groups = tuple(groups)

    def _adopt(self, stacks) -> None:
        self._stacks = tuple(_frozen(np.asarray(s, dtype=np.complex128)) for s in stacks)
        self._validate()

    def _validate(self) -> None:
        """Subclass hook: reject stacks that break the class invariant."""

    @classmethod
    def _like(cls, other: "BlockDiagonal", stacks) -> "BlockDiagonal":
        """A ``cls`` with the block layout of ``other`` and the given stacks."""
        obj = cls.__new__(cls)
        obj.block_sizes, obj.size = other.block_sizes, other.size
        obj._starts, obj._groups = other._starts, other._groups
        obj._adopt(stacks)
        return obj

    @property
    def block_starts(self) -> tuple:
        return tuple(self._starts.tolist())

    @property
    def blocks(self) -> tuple:
        flat = [blk for stack in self._stacks for blk in stack]
        order = np.argsort(np.concatenate([index for index, _ in self._groups]))
        return tuple(flat[j] for j in order.tolist())

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.size, self.size), dtype=np.complex128)
        for (_, rows), stack in zip(self._groups, self._stacks):
            M[rows[:, :, None], rows[:, None, :]] = stack
        return M

    def _apply(self, op, scalar_op, x: np.ndarray) -> np.ndarray:
        """``op(stack, segments)`` on every size group of ``x``, shape (size,) or (size, r).

        The 1x1 group takes ``scalar_op(entries, segments)`` elementwise instead.
        """
        y = np.empty_like(x)
        for (_, rows), stack in zip(self._groups, self._stacks):
            seg = x[rows]
            if stack.shape[1] == 1:
                y[rows] = scalar_op(stack.reshape(seg.shape[:2] + (1,) * (seg.ndim - 2)), seg)
            else:
                y[rows] = op(stack, seg.reshape(*rows.shape, -1)).reshape(seg.shape)
        return y

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.size,):
            raise DimensionMismatch(
                f"vector of length {x.shape} against matrix of size {self.size}")
        return self._apply(np.matmul, np.multiply, x)

    def solve(self, X) -> np.ndarray:
        """Solve ``M Y = X`` block by block with batched LAPACK solves.

        ``X`` may be a vector or a matrix of stacked right-hand sides; rows
        of 1x1 blocks are divided by their entry.
        """
        X = np.asarray(X, dtype=np.complex128)
        if X.shape[:1] != (self.size,):
            raise DimensionMismatch(
                f"right-hand side has leading dimension {X.shape[:1]}, "
                f"matrix has size {self.size}")
        return self._apply(np.linalg.solve, lambda d, seg: seg / d, X)

    def adjoint(self) -> "BlockDiagonal":
        """Conjugate transpose, block by block."""
        return BlockDiagonal._like(self, [_adjoint(s) for s in self._stacks])

    def inverse(self) -> "BlockDiagonal":
        """Blockwise inverse; only the ``m x m`` block inverses are formed."""
        return BlockDiagonal._like(
            self, [1.0 / s if s.shape[1] == 1 else np.linalg.solve(s, np.eye(s.shape[1]))
                   for s in self._stacks])


class BlockDiagonalPD(BlockDiagonal):
    """Positive-definite Hermitian block-diagonal matrix.

    Each block must be Hermitian to within a 1e-13 relative tolerance, and
    positive definiteness is validated eagerly at construction through a
    batched Cholesky witness on every block.
    """

    def _validate(self) -> None:
        for stack in self._stacks:
            scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1e-300)
            if (np.abs(stack - _adjoint(stack)).max(axis=(1, 2)) > _HERMITIAN_RTOL * scale).any():
                raise ValueError("blocks must be Hermitian within tolerance")
        for stack in self._stacks:
            _cholesky(stack)  # positive-definiteness witness

    @classmethod
    def from_diagonal(cls, values) -> "BlockDiagonalPD":
        vals = np.array(values, dtype=np.complex128)
        obj = cls.__new__(cls)
        obj._set_layout((1,) * vals.size)
        obj._adopt([vals.reshape(-1, 1, 1)])
        return obj

    @classmethod
    def identity(cls, n: int) -> "BlockDiagonalPD":
        return cls.from_diagonal(np.ones(n))


class BlockLowerTriangular(BlockDiagonal):
    """Block-diagonal lower-triangular factor with real positive diagonal."""

    def _validate(self) -> None:
        for stack in self._stacks:
            if np.abs(np.triu(stack, 1)).max() != 0.0:
                raise ValueError("blocks must be lower triangular")
            d = np.diagonal(stack, axis1=1, axis2=2)
            if (d.imag != 0.0).any() or (d.real <= 0.0).any():
                raise ValueError("triangular diagonal must be real positive")


@dataclass(frozen=True)
class SparsityReport:
    """Measured versus predicted nonzero count for one matrix."""

    measured_nnz: int
    predicted_nnz: int
    matrix_label: str
    tolerance: float

    def __post_init__(self):
        if self.measured_nnz < 0:
            raise ValueError("measured_nnz must be non-negative")


def _cholesky(stack: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of Hermitian blocks, one LAPACK call.

    A stack of 1x1 blocks takes the square roots of the real parts, as
    LAPACK does, with no call.  Raises :class:`NotPositiveDefinite` when a
    pivot is non-positive (or NaN) or falls at or below 1e-14 times the
    largest diagonal entry of its block.
    """
    if stack.shape[1] == 1:
        d = stack.real
        if not (d > 0.0).all():  # NaN fails too
            raise NotPositiveDefinite("a block of size 1 has a non-positive pivot")
        L = np.sqrt(d).astype(np.complex128)
    else:
        try:
            L = np.linalg.cholesky(stack)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                f"a block of size {stack.shape[1]} has a non-positive pivot") from exc
    pivots = np.diagonal(L, axis1=1, axis2=2).real ** 2
    floor = _PIVOT_RTOL * np.diagonal(stack, axis1=1, axis2=2).real.max(axis=1)
    low = ~(pivots > floor[:, None])  # NaN, which LAPACK lets through, fails too
    if low.any():
        b, j = np.argwhere(low)[0]
        raise NotPositiveDefinite(
            f"pivot {pivots[b, j]:.3e} at position {j} (floor {floor[b]:.3e})")
    return L


def cholesky_block_diagonal(B: BlockDiagonalPD) -> BlockLowerTriangular:
    """Blockwise Cholesky factorization ``B = L L^H``.

    The factor shares the block structure of ``B``, so it stays exactly as
    sparse as the input.
    """
    return BlockLowerTriangular._like(B, [_cholesky(s) for s in B._stacks])


def block_powers(B: BlockDiagonalPD, *exponents: float) -> tuple:
    """``B^p`` for each exponent ``p``, from one eigendecomposition of ``B``.

    Each stack of blocks is diagonalized once by a batched LAPACK call, and
    every power is rebuilt from that decomposition; a 1x1 block is its own
    eigenvalue, so its powers are ``w ** p`` with no call.  Raises
    :class:`NotPositiveDefinite` when a block eigenvalue lies at or below
    1e-14 times the largest eigenvalue of its block.
    """
    powers = [[] for _ in exponents]
    for stack in B._stacks:
        scalar = stack.shape[1] == 1
        w, V = (stack[:, 0].real, None) if scalar else np.linalg.eigh(stack)
        floor = np.maximum(_PIVOT_RTOL * w[:, -1], 0.0)
        low = w[:, 0] <= floor
        if low.any():
            b = int(np.argmax(low))
            raise NotPositiveDefinite(
                f"block eigenvalue {w[b, 0]:.3e} at or below floor {floor[b]:.3e}")
        for out, p in zip(powers, exponents):
            if scalar:
                out.append(w[:, :, None] ** p)
            else:
                M = (V * w[:, None, :] ** p) @ _adjoint(V)
                out.append(0.5 * (M + _adjoint(M)))
    return tuple(BlockDiagonalPD._like(B, stacks) for stacks in powers)


def congruence(T: BlockDiagonal, A: BandedHermitian) -> BandedHermitian:
    """Band storage of ``T A T^H`` for block-diagonal ``T``.

    Block ``(I, J)`` of the result is ``T_I A_IJ T_J^H``.  Blocks are padded
    to the largest size ``m``.  For each block offset ``D = J - I`` whose
    pairs reach the band of ``A``, the sub-blocks ``A_IJ`` are gathered with
    index arrays, multiplied in one batched product, and the entries on and
    above the diagonal are scattered into the bands.  The result has
    half-bandwidth ``k + 2 (m - 1)``, capped at ``size - 1``, and entries
    below the structural-zero threshold are dropped.  When every block is
    1x1 (``m = 1``) the product is the band scaling
    ``t[:n-d] * A_d * conj(t[d:])``, whose diagonal ``|t|**2 A_0`` is kept
    exactly real.
    """
    if A.size != T.size:
        raise DimensionMismatch(f"A has size {A.size}, T has size {T.size}")
    n, k = A.size, A.half_bandwidth
    if len(T.block_sizes) == n:  # every block is 1x1
        t = T._stacks[0][:, 0, 0]
        bands = [(t * A.diagonals[0] * np.conj(t)).real]
        bands += [t[:n - d] * A.diagonals[d] * np.conj(t[d:]) for d in range(1, k + 1)]
        return BandedHermitian(n, k, tuple(bands)).drop_small(NNZ_RTOL)
    sizes = np.array(T.block_sizes)
    nb, m = sizes.size, int(sizes.max())
    kk = min(n - 1, k + 2 * (m - 1))
    Tp = np.zeros((nb, m, m), dtype=np.complex128)
    for (index, _), stack in zip(T._groups, T._stacks):
        Tp[index, :stack.shape[1], :stack.shape[1]] = stack
    valid = np.arange(m) < sizes[:, None]
    rows = np.minimum(T._starts[:, None] + np.arange(m), n - 1)
    # W[k + c - r, r] holds A[r, c] for |c - r| <= k
    W = np.zeros((2 * k + 1, n), dtype=np.complex128)
    for d, band in enumerate(A.diagonals):
        W[k + d, :n - d] = band
        W[k - d, d:] = np.conjugate(band)
    H = np.zeros((kk + 1, n), dtype=np.complex128)
    ends = T._starts + sizes - 1
    for D in range(nb):
        I, J = np.arange(nb - D), np.arange(D, nb)
        if (T._starts[J] - ends[I]).min() > k:
            break  # larger offsets only move further from the band
        R = rows[I][:, :, None]
        off = rows[J][:, None, :] - R
        keep = valid[I][:, :, None] & valid[J][:, None, :]
        sub = np.where(keep & (np.abs(off) <= k), W[np.clip(off + k, 0, 2 * k), R], 0.0)
        M = Tp[I] @ sub @ _adjoint(Tp[J])
        if D == 0:
            M = 0.5 * (M + _adjoint(M))
            keep &= off >= 0  # the lower triangle is implied storage
        keep &= off <= kk  # pairs wholly outside the band are zero
        H[off[keep], np.broadcast_to(R, off.shape)[keep]] = M[keep]
    return BandedHermitian(n, kk, tuple(H[d, :n - d] for d in range(kk + 1))).drop_small(NNZ_RTOL)


def count_nonzeros(M, rel_tol: float = NNZ_RTOL) -> int:
    """Count entries larger in magnitude than ``rel_tol * max|M|``.

    Accepts banded, block-diagonal, triangular, or dense matrices.  The
    count is taken over the full (mirrored) matrix, so Hermitian band
    storage and its dense expansion agree.
    """
    if rel_tol < 0.0:
        raise ValueError("rel_tol must be non-negative")
    if isinstance(M, BandedHermitian):
        thr = rel_tol * M.max_abs()
        total = int((np.abs(M.diagonals[0]) > thr).sum())
        for band in M.diagonals[1:]:
            total += 2 * int((np.abs(band) > thr).sum())
        return total
    if isinstance(M, BlockDiagonal):
        thr = rel_tol * max(float(np.abs(s).max()) for s in M._stacks)
        return sum(int((np.abs(s) > thr).sum()) for s in M._stacks)
    M = np.asarray(M)
    thr = rel_tol * float(np.abs(M).max(initial=0.0))
    return int((np.abs(M) > thr).sum())


def predicted_nnz(variant: str, k: int, m: int, N: int) -> int:
    """Large-size nonzero count prediction for the two reduction routes.

    The Cholesky route fills about ``(2k + m) N`` entries; the square-root
    route about ``3 m N``, valid in the regime ``m >= k``.
    """
    if k < 0 or m < 1 or N < 1:
        raise ValueError(f"invalid parameters k={k}, m={m}, N={N}")
    if variant == "cholesky":
        return (2 * k + m) * N
    if variant == "sqrt":
        if m < k:
            raise RegimeViolation(
                f"square-root prediction requires m >= k, got m={m}, k={k}")
        return 3 * m * N
    raise ValueError(f"unknown variant {variant!r}")


def sparsity_report(M, predicted: int, label: str,
                    rel_tol: float = NNZ_RTOL) -> SparsityReport:
    """Bundle a measured count against its prediction."""
    return SparsityReport(count_nonzeros(M, rel_tol), int(predicted), label, rel_tol)
