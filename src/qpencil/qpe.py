"""Full statevector simulation of textbook phase estimation for banded Hamiltonians.

Conventions (fixed here, once, for the whole package):

* Phase map.  A shift-and-scale pair ``(sigma, tau)`` sends an eigenvalue to
  the phase ``phi = tau * (lam - sigma)``, which must land in
  ``[0, 1 - guard)``.  The controlled unitary is arranged so that an
  eigenvector with mapped phase ``phi`` produces the ancilla phase ``+phi``
  directly: an ancilla reading ``y`` estimates ``phi ~= y / 2**t`` and hence
  ``lam ~= sigma + y / (2**t tau)``, with no reflection anywhere.
* Qubit ordering.  The ancilla register is most significant; ancilla bit
  ``j`` controls the ``2**j``-th power of the unit evolution, so the branch
  with ancilla integer ``a`` carries ``a`` repetitions of it.  Controlled
  powers are realized by multiplying eigenphases: those of ``H`` (exact
  path) or those of one unitary Trotter cycle times the cycles per power
  (trotter path); no matrix is squared and no cycle repeated.
* Padding.  When the physical dimension is not a power of two, the
  Hamiltonian is embedded in the next power of two with decoupled padding
  rows whose mapped phase sits at ``1 - guard/2``, above every physical
  phase, so padding outcomes cannot be mistaken for physical ones.
* Readout.  For exact evolution the outcome distribution has the closed
  form (Cleve, Ekert, Macchiavello & Mosca, quant-ph/9708016)

      P(y) = sum_j |c_j|**2 F_M(phi_j - y/M),
      F_M(d) = sin(pi M d)**2 / (M sin(pi d))**2 = (sinc(M d) / sinc(d))**2,

  with ``M = 2**t``, eigenphases ``phi_j`` and trial-state overlaps ``c_j``
  on the matching eigenvectors.  Trotter evolution uses the same formula
  with the eigenphases ``s theta_j / 2 pi`` and eigenvectors of its unit
  cycle ``C`` (``s`` cycles per power, ``C u_j = exp(i theta_j) u_j``).
* Eigensolver.  Every dense decomposition here is LAPACK: ``_eigh`` for
  Hermitian matrices and ``_unitary_eig`` for the Trotter cycle; the Jacobi
  solver in ``qpencil.jacobi`` stays an independent oracle that this module
  never calls.
* Randomness.  Measurement sampling uses a PCG64 generator seeded
  explicitly and draws outcomes by inverse transform over the exact
  distribution, so a seed pins the full sample sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandwidthTooLarge,
    DegenerateRange,
    DimensionMismatch,
    OutOfRange,
    TooManyQubits,
)
from .linalg import BandedHermitian

#: Fraction of the phase interval kept free above the mapped spectrum.
DEFAULT_GUARD = 0.125

#: Total qubit budget of the dense statevector simulator.
MAX_QUBITS = 24

_NORM_ATOL = 1e-10
# Largest eigenphase-by-outcome kernel block the readout evaluates at once.
_READOUT_BLOCK = 2 ** 18
# Inflation applied to a spectral enclosure so that a tight upper bound
# still maps strictly inside the guarded interval.
_RANGE_PAD = 1.0 / 64.0


@dataclass(frozen=True)
class Statevector:
    """Normalized amplitudes of an ``n_qubits`` register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("a statevector needs at least one qubit")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 ** self.n_qubits,):
            raise DimensionMismatch(
                f"{self.n_qubits} qubits require {2 ** self.n_qubits} amplitudes, "
                f"got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValueError(f"statevector norm {norm} is not 1 within {_NORM_ATOL}")
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "Statevector":
        amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def uniform(cls, n_qubits: int) -> "Statevector":
        dim = 2 ** n_qubits
        return cls(n_qubits, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))

    @classmethod
    def from_vector(cls, vec) -> "Statevector":
        """Normalize a raw vector, zero-padding it up to the next power of two."""
        vec = np.asarray(vec, dtype=np.complex128).ravel()
        if vec.size < 1:
            raise DimensionMismatch("empty vector")
        n_qubits = max(1, int(math.ceil(math.log2(vec.size))))
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
        amps[:vec.size] = vec / norm
        return cls(n_qubits, amps)


@dataclass(frozen=True)
class ShiftScale:
    """Affine map ``lam -> tau (lam - sigma)`` placing a spectrum in [0, 1 - guard)."""

    shift: float
    scale: float
    guard: float = DEFAULT_GUARD

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not 0.0 < self.guard < 1.0:
            raise ValueError(f"guard must lie in (0, 1), got {self.guard}")

    def phase(self, lam):
        return self.scale * (np.asarray(lam, dtype=float) - self.shift)

    def eigenvalue(self, phase):
        return self.shift + np.asarray(phase, dtype=float) / self.scale

    def map_matrix(self, H: BandedHermitian) -> BandedHermitian:
        """Hamiltonian whose spectrum is the mapped phases: ``tau (H - sigma I)``."""
        return H.affine(self.scale, self.shift)


@dataclass(frozen=True)
class QpeResult:
    """Outcome distribution over the ancilla register plus phase-map metadata."""

    t_bits: int
    distribution: np.ndarray
    shift_scale: ShiftScale

    def __post_init__(self):
        dist = np.asarray(self.distribution, dtype=float)
        if dist.shape != (2 ** self.t_bits,):
            raise DimensionMismatch(
                f"{self.t_bits} ancilla bits require {2 ** self.t_bits} probabilities")
        if (dist < 0.0).any():
            raise ValueError("probabilities must be non-negative")
        if abs(float(dist.sum()) - 1.0) > _NORM_ATOL:
            raise ValueError("probabilities must sum to 1")
        dist = np.ascontiguousarray(dist)
        dist.setflags(write=False)
        object.__setattr__(self, "distribution", dist)


def gershgorin_shift_scale(H: BandedHermitian,
                           guard: float = DEFAULT_GUARD) -> ShiftScale:
    """Shift-and-scale map built from Gershgorin disc bounds.

    The shift is the lower disc bound and the scale compresses the disc
    range (inflated slightly, so a tight bound stays strictly inside) onto
    ``[0, 1 - guard)``.  A spectrum collapsed to one point, such as any
    multiple of the identity, maps with unit scale to phase zero.
    """
    centers = H.diagonals[0].real.copy()
    radii = np.zeros(H.size)
    for d in range(1, H.half_bandwidth + 1):
        mag = np.abs(H.diagonals[d])
        radii[:H.size - d] += mag
        radii[d:] += mag
    lower = float((centers - radii).min())
    upper = float((centers + radii).max())
    span = upper - lower
    if not math.isfinite(span):
        raise DegenerateRange("Gershgorin discs are not finite")
    if span < 1e-300:
        return ShiftScale(lower, 1.0, guard)
    return ShiftScale(lower, (1.0 - guard) / (span * (1.0 + _RANGE_PAD)), guard)


def _eigh(H: BandedHermitian):
    """Dense LAPACK eigendecomposition: ascending ``w`` and unitary ``V``."""
    return np.linalg.eigh(H.to_dense())


def _check_system(H: BandedHermitian, psi: Statevector) -> None:
    if H.size != 2 ** psi.n_qubits:
        raise DimensionMismatch(
            f"Hamiltonian of size {H.size} against a {psi.n_qubits}-qubit register")


def evolve_exact(H: BandedHermitian, time: float, psi: Statevector) -> Statevector:
    """Apply ``exp(-i H t)`` through a dense eigendecomposition."""
    _check_system(H, psi)
    if H.size > 4096:
        raise ValueError("dense evolution path is capped at dimension 4096")
    w, V = _eigh(H)
    amps = V @ (np.exp(-1j * w * time) * (V.conj().T @ psi.amplitudes))
    return Statevector(psi.n_qubits, amps)


def split_tridiagonal(H: BandedHermitian):
    """Split a tridiagonal Hamiltonian into diagonal and hopping parts.

    The two parts sum to the input exactly; the second has zero diagonal.
    """
    if H.half_bandwidth > 1:
        raise BandwidthTooLarge(
            f"tridiagonal split needs half-bandwidth <= 1, got {H.half_bandwidth}")
    n = H.size
    H1 = BandedHermitian(n, 0, (H.diagonals[0].copy(),))
    if n == 1:
        return H1, H1.affine(0.0)
    hop = H.diagonals[1].copy() if H.half_bandwidth == 1 else np.zeros(n - 1)
    H2 = BandedHermitian(n, 1, (np.zeros(n), hop))
    return H1, H2


def _trotter_cycle(H1: BandedHermitian, H2: BandedHermitian, dt: float) -> np.ndarray:
    """Dense first-order cycle ``exp(-i H1 dt) exp(-i H2 dt)``.

    The diagonal factor is a phase mask and the hopping factor comes from
    one LAPACK decomposition, so the cycle is unitary to machine precision
    and all error comes from the splitting itself.
    """
    if H1.half_bandwidth != 0:
        raise BandwidthTooLarge("the first Trotter factor must be diagonal")
    if H2.half_bandwidth > 1:
        raise BandwidthTooLarge("the second Trotter factor must be tridiagonal")
    if H1.size != H2.size:
        raise DimensionMismatch(f"factor sizes {H1.size} and {H2.size} differ")
    w2, V2 = _eigh(H2)
    hop = (V2 * np.exp(-1j * w2 * dt)) @ V2.conj().T
    return np.exp(-1j * H1.diagonals[0].real * dt)[:, None] * hop


def _unitary_eig(C: np.ndarray):
    """Eigenphases ``theta`` and an orthonormal eigenbasis ``U`` of a unitary ``C``.

    The eigenvectors ``X`` from ``np.linalg.eig`` are replaced by their
    polar factor ``X (X^H X)^{-1/2}`` (Higham, SIAM J. Sci. Stat. Comput. 7,
    1986), taken from one ``eigh`` of the Gram matrix, and the phases are
    the Rayleigh quotients ``arg(u^H C u)``.
    """
    X = np.linalg.eig(C)[1]
    g, W = np.linalg.eigh(X.conj().T @ X)
    U = X @ ((W / np.sqrt(g)) @ W.conj().T)
    return np.angle(np.einsum("ij,ij->j", U.conj(), C @ U)), U


def evolve_trotter(H1: BandedHermitian, H2: BandedHermitian, time: float,
                   steps: int, psi: Statevector) -> Statevector:
    """First-order product formula ``(exp(-i H1 t/s) exp(-i H2 t/s))^s``."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    _check_system(H1, psi)
    C = _trotter_cycle(H1, H2, time / steps)
    amps = psi.amplitudes
    for _ in range(steps):
        amps = C @ amps
    return Statevector(psi.n_qubits, amps)


def _embed(H: BandedHermitian, dim: int, pad_value: float) -> BandedHermitian:
    """Grow to dimension ``dim`` with decoupled diagonal padding entries."""
    if dim == H.size:
        return H
    pad = dim - H.size
    bands = [np.concatenate([H.diagonals[0].real, np.full(pad, pad_value)])]
    for d in range(1, H.half_bandwidth + 1):
        bands.append(np.concatenate([H.diagonals[d], np.zeros(pad)]))
    return BandedHermitian(dim, H.half_bandwidth, tuple(bands))


def _system_state(psi0, n_sys: int, phys_dim: int) -> np.ndarray:
    if isinstance(psi0, Statevector):
        if psi0.n_qubits != n_sys:
            raise DimensionMismatch(
                f"trial state has {psi0.n_qubits} qubits, system needs {n_sys}")
        return psi0.amplitudes.copy()
    vec = np.asarray(psi0, dtype=np.complex128).ravel()
    if vec.size not in (phys_dim, 2 ** n_sys):
        raise DimensionMismatch(
            f"trial vector of length {vec.size} does not match the problem "
            f"size {phys_dim} or the padded dimension {2 ** n_sys}")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero trial vector")
    amps = np.zeros(2 ** n_sys, dtype=np.complex128)
    amps[:vec.size] = vec / norm
    return amps


def _fejer_readout(phases: np.ndarray, weights: np.ndarray, t_bits: int) -> np.ndarray:
    """Outcome distribution ``sum_j w_j F_M(phi_j - y/M)`` for eigenphases ``phi_j``.

    The eigenphase-by-outcome kernel is evaluated in blocks of at most
    ``_READOUT_BLOCK`` entries.
    """
    M = 2 ** t_bits
    outcome_phases = np.arange(M) / M
    rows = max(1, _READOUT_BLOCK // M)
    distribution = np.zeros(M)
    for start in range(0, phases.size, rows):
        j = slice(start, start + rows)
        delta = phases[j, None] - outcome_phases
        # F_M has period 1; wrapping to |delta| <= 1/2 keeps sinc(delta) >= 2/pi.
        delta -= np.round(delta)
        distribution += weights[j] @ (np.sinc(M * delta) / np.sinc(delta)) ** 2
    return distribution


def run_qpe(H: BandedHermitian, psi0, t_bits: int, shift_scale: ShiftScale,
            evolution: str = "exact", trotter_steps: int | None = None) -> QpeResult:
    """Simulate phase estimation of a banded Hamiltonian.

    The ancilla register starts in uniform superposition, branch ``a``
    accumulates ``a`` applications of the unit evolution (whose eigenphases
    are the mapped phases of ``H``), the inverse Fourier transform acts on
    the ancilla, and the system register is traced out.  Exact evolution
    reads the distribution off the closed form in the module docstring,
    from one decomposition of the embedded, phase-mapped ``H``.  Trotter
    evolution reads it off one decomposition of the physical block's
    Trotter cycle, whose eigenphases times ``trotter_steps`` are the
    phases; the decoupled padding rows keep their own.  No joint
    ancilla-by-system state is formed.

    Parameters
    ----------
    H : BandedHermitian
        Physical Hamiltonian; padded to a power of two when necessary.
    psi0 : Statevector, array_like or "ground"
        Trial state on the padded register, a raw vector of the physical
        dimension (zero-padded and normalized), or ``"ground"`` for the
        lowest eigenvector of the embedded, phase-mapped ``H``, taken from
        the decomposition that the exact readout uses.
    t_bits : int
        Ancilla width; outcomes resolve phases to ``2**-t_bits``.
    shift_scale : ShiftScale
        Phase map; every physical eigenvalue must land in ``[0, 1 - guard)``.
    evolution : {"exact", "trotter"}
        Exact eigenphase evolution, or first-order Trotter cycles of the
        diagonal/hopping split with ``trotter_steps`` cycles per unit power.
    """
    if t_bits < 1:
        raise ValueError(f"t_bits must be at least 1, got {t_bits}")
    if evolution not in ("exact", "trotter"):
        raise ValueError(f"unknown evolution mode {evolution!r}")
    if evolution == "trotter" and (trotter_steps is None or trotter_steps < 1):
        raise ValueError("trotter evolution requires trotter_steps >= 1")
    ground = isinstance(psi0, str)
    if ground and psi0 != "ground":
        raise ValueError(f"unknown trial state {psi0!r}")
    n_sys = max(1, int(math.ceil(math.log2(H.size))))
    if n_sys + t_bits > MAX_QUBITS:
        raise TooManyQubits(
            f"{n_sys} system + {t_bits} ancilla qubits exceed the budget of {MAX_QUBITS}")

    pad_value = float(shift_scale.eigenvalue(1.0 - shift_scale.guard / 2.0))
    H_emb = _embed(H, 2 ** n_sys, pad_value)
    state = None if ground else _system_state(psi0, n_sys, H.size)
    H_phase = shift_scale.map_matrix(H_emb)  # spectrum equals the mapped phases
    if ground or evolution == "exact":
        phases, V = _eigh(H_phase)
    if ground:
        state = V[:, 0]

    if evolution == "exact":
        if ground:  # the trial is eigenvector 0 itself: all weight on phases[0]
            phases, weights = phases[:1], np.ones(1)
        else:
            weights = np.abs(V.conj().T @ state) ** 2
    else:
        # exp(+2 pi i H_phase) as s cycles of time -2 pi / s; the decoupled
        # padding rows are left out of the decomposition and keep their phase.
        n = H.size
        h1, h2 = split_tridiagonal(shift_scale.map_matrix(H))
        theta, U = _unitary_eig(_trotter_cycle(h1, h2, -2.0 * np.pi / trotter_steps))
        phases = np.concatenate([trotter_steps * theta / (2.0 * np.pi) % 1.0,
                                 H_phase.diagonals[0].real[n:]])
        weights = np.concatenate([np.abs(U.conj().T @ state[:n]) ** 2,
                                  np.abs(state[n:]) ** 2])
    return QpeResult(t_bits, _fejer_readout(phases, weights, t_bits), shift_scale)


def sample_outcomes(result: QpeResult, shots: int, seed: int) -> np.ndarray:
    """Draw ancilla outcomes by inverse transform from the exact distribution.

    A fixed seed pins the entire sequence; the generator is PCG64.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(result.distribution)
    cdf[-1] = max(cdf[-1], 1.0)
    draws = rng.random(shots)
    return np.searchsorted(cdf, draws, side="right").astype(np.int64)


def outcome_to_eigenvalue(y: int, t_bits: int, shift_scale: ShiftScale) -> float:
    """Invert the phase map for one ancilla reading."""
    if not 0 <= y < 2 ** t_bits:
        raise OutOfRange(f"outcome {y} outside [0, {2 ** t_bits})")
    return float(shift_scale.eigenvalue(y / 2 ** t_bits))


def overlap_probabilities(psi0, H: BandedHermitian):
    """Eigenvalues of ``H`` with the trial state's overlap on each eigenvector.

    These overlaps are exactly the weights with which phase estimation
    distributes its outcome mass across eigenphases.
    """
    if H.size > 4096:
        raise ValueError("dense overlap path is capped at dimension 4096")
    if isinstance(psi0, Statevector):
        vec = psi0.amplitudes
    else:
        vec = np.asarray(psi0, dtype=np.complex128).ravel()
    if vec.shape != (H.size,):
        raise DimensionMismatch(
            f"trial vector of shape {vec.shape} against dimension {H.size}")
    w, V = _eigh(H)
    probs = np.abs(V.conj().T @ vec) ** 2
    return [(float(lam), float(p)) for lam, p in zip(w, probs)]
