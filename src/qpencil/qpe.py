"""Full statevector simulation of textbook phase estimation for banded Hamiltonians.

Conventions (fixed here, once, for the whole package):

* Phase map.  A shift-and-scale pair ``(sigma, tau)`` sends an eigenvalue to
  the phase ``phi = tau * (lam - sigma)``, which must land in
  ``[0, 1 - guard]``; ``run_qpe`` checks this on the Gershgorin enclosure
  of ``H``.  The controlled unitary is arranged so that an
  eigenvector with mapped phase ``phi`` produces the ancilla phase ``+phi``
  directly: an ancilla reading ``y`` estimates ``phi ~= y / 2**t`` and hence
  ``lam ~= sigma + y / (2**t tau)``, with no reflection anywhere.
* Qubit ordering.  The ancilla register is most significant; ancilla bit
  ``j`` controls the ``2**j``-th power of the unit evolution, so the branch
  with ancilla integer ``a`` carries ``a`` repetitions of it.  Controlled
  powers are realized by multiplying eigenphases: those of ``H`` (exact
  path) or those of one unitary Trotter cycle times the cycles per power
  (trotter path); no matrix is squared and no cycle repeated.
* Padding.  Register rows beyond the physical dimension are decoupled from
  ``H`` and share the mapped phase ``1 - guard/2``, above every physical
  phase, so padding outcomes cannot be mistaken for physical ones.  The
  readout carries them as one entry at that phase; no matrix is padded.
* Readout.  For exact evolution the outcome distribution has the closed
  form (Cleve, Ekert, Macchiavello & Mosca, quant-ph/9708016)

      P(y) = sum_j |c_j|**2 F_M(phi_j - y/M),
      F_M(d) = sin(pi M d)**2 / (M sin(pi d))**2,

  with ``M = 2**t``, eigenphases ``phi_j`` and trial-state overlaps ``c_j``
  on the matching eigenvectors, plus the padding entry weighted by the
  trial state's mass on the padding rows.  The numerator depends only on
  ``phi_j`` (``sin(pi M d)**2 = sin(pi (M phi_j - rint(M phi_j)))**2``,
  exact for a power of two).  The denominator is expanded by the angle-sum
  rule into fixed sine and cosine tables over the ``M`` outcome offsets and
  two values per eigenphase, so each kernel row is a cyclic shift of the
  tables and one readout takes ``O(n + M)`` sines and cosines rather than
  one per kernel entry; every entry keeps its relative accuracy, because
  the two terms of the sum cancel by at most a factor two.
  Trotter evolution uses the same formula with the eigenphases
  ``s theta_j / 2 pi`` and eigenvectors of its unit cycle ``C`` (``s``
  cycles per power, ``C u_j = exp(i theta_j) u_j``).
* Eigensolver.  Every dense eigendecomposition here is LAPACK ``eigh``:
  ``_eigh`` (real arithmetic when every band is real), and for the Trotter
  cycle ``_trotter_eig``, which needs only real symmetric ones (of the
  gauge-fixed hopping factor and of the cycle's Cayley transform, formed by
  one real solve); no general ``eig`` is used.  The Jacobi solver in
  ``qpencil.jacobi`` stays an independent oracle that this module never
  calls.
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
# Largest slice of shifted table rows the readout gathers at once; small
# enough that the gathered copies stay in cache.
_GATHER_BLOCK = 2 ** 15
# Inflation applied to a spectral enclosure so that a tight upper bound
# still maps strictly inside the guarded interval.
_RANGE_PAD = 1.0 / 64.0
# Largest dimension the dense eigendecomposition accepts.
_MAX_DENSE = 4096


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
    """Affine map ``lam -> tau (lam - sigma)`` placing a spectrum in [0, 1 - guard]."""

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


def _gershgorin(H: BandedHermitian):
    """Lower and upper Gershgorin disc bounds of the spectrum of ``H``."""
    centers = H.diagonals[0].real.copy()
    radii = np.zeros(H.size)
    for d in range(1, H.half_bandwidth + 1):
        mag = np.abs(H.diagonals[d])
        radii[:H.size - d] += mag
        radii[d:] += mag
    return float((centers - radii).min()), float((centers + radii).max())


def gershgorin_shift_scale(H: BandedHermitian,
                           guard: float = DEFAULT_GUARD) -> ShiftScale:
    """Shift-and-scale map built from Gershgorin disc bounds.

    The shift is the lower disc bound and the scale compresses the disc
    range (inflated slightly, so a tight bound stays strictly inside) onto
    ``[0, 1 - guard)``.  A spectrum collapsed to one point, such as any
    multiple of the identity, maps with unit scale to phase zero.
    """
    lower, upper = _gershgorin(H)
    span = upper - lower
    if not math.isfinite(span):
        raise DegenerateRange("Gershgorin discs are not finite")
    if span < 1e-300:
        return ShiftScale(lower, 1.0, guard)
    return ShiftScale(lower, (1.0 - guard) / (span * (1.0 + _RANGE_PAD)), guard)


def _eigh(H: BandedHermitian):
    """Dense LAPACK eigendecomposition: ascending ``w`` and unitary ``V``.

    When every band is real the dense copy is real, so the decomposition
    runs in real arithmetic and ``V`` is real orthogonal.
    """
    if H.size > _MAX_DENSE:
        raise TooManyQubits(
            f"dense eigendecomposition is capped at dimension {_MAX_DENSE}, got {H.size}")
    real = not any(band.imag.any() for band in H.diagonals)
    return np.linalg.eigh(H.to_dense(np.float64 if real else np.complex128))


def _check_system(H: BandedHermitian, psi: Statevector) -> None:
    if H.size != 2 ** psi.n_qubits:
        raise DimensionMismatch(
            f"Hamiltonian of size {H.size} against a {psi.n_qubits}-qubit register")


def evolve_exact(H: BandedHermitian, time: float, psi: Statevector) -> Statevector:
    """Apply ``exp(-i H t)`` through a dense eigendecomposition."""
    _check_system(H, psi)
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


def _hopping_factor(H1: BandedHermitian, H2: BandedHermitian, dt: float):
    """Real-basis factors ``(g, d, E)`` of the cycle ``exp(-i H1 dt) exp(-i H2 dt)``.

    The diagonal gauge ``g`` (``g_0 = 1``, ``g_{k+1} = g_k conj(b_k)/|b_k|``
    for the hopping band ``b``, factor 1 where ``b_k = 0``) makes
    ``G^H H2 G`` real symmetric with hopping ``|b|``, so one real ``eigh``
    gives the complex symmetric ``E = exp(-i G^H H2 G dt)``.  With the
    half-step phases ``d = exp(-i H1 dt / 2)`` the cycle is
    ``G D S D^* G^H`` for the complex symmetric unitary ``S = D E D``.
    """
    if H1.half_bandwidth != 0:
        raise BandwidthTooLarge("the first Trotter factor must be diagonal")
    if H2.half_bandwidth > 1:
        raise BandwidthTooLarge("the second Trotter factor must be tridiagonal")
    if H1.size != H2.size:
        raise DimensionMismatch(f"factor sizes {H1.size} and {H2.size} differ")
    hop = H2.diagonals[1:]
    mags = tuple(np.abs(b) for b in hop)
    g = np.ones(H2.size, dtype=np.complex128)
    if hop:
        g[1:] = np.cumprod(np.divide(hop[0].conj(), mags[0], out=np.ones_like(hop[0]),
                                     where=mags[0] > 0.0))
        g /= np.abs(g)  # keeps the gauge unitary however long the chain
    w2, V2 = _eigh(BandedHermitian(H2.size, H2.half_bandwidth, H2.diagonals[:1] + mags))
    E = (V2 * np.cos(w2 * dt)) @ V2.T - 1j * ((V2 * np.sin(w2 * dt)) @ V2.T)
    return g, np.exp(-0.5j * dt * H1.diagonals[0].real), E


def _trotter_cycle(H1: BandedHermitian, H2: BandedHermitian, dt: float) -> np.ndarray:
    """Dense first-order cycle ``exp(-i H1 dt) exp(-i H2 dt)``.

    Built as ``G D^2 E G^H`` from :func:`_hopping_factor`: phase masks around
    one real LAPACK decomposition, so the cycle is unitary to machine
    precision and all error comes from the splitting itself.
    """
    g, d, E = _hopping_factor(H1, H2, dt)
    return (g * d * d)[:, None] * E * g.conj()


def _trotter_eig(H1: BandedHermitian, H2: BandedHermitian, dt: float):
    """Eigenphases ``theta`` and an orthonormal eigenbasis ``U`` of the Trotter cycle.

    The unitary ``S = D E D`` of :func:`_hopping_factor` is complex
    symmetric, so ``S = Q exp(i Theta) Q^T`` with a real orthogonal ``Q``.
    The cosines ``eigvalsh(Re S)`` place every eigenphase among the angles
    ``+-arccos``; the pole ``gamma + pi`` is the midpoint of their widest
    gap, which holds no eigenphase.  The Cayley transform of
    ``R = exp(-i gamma) S``, ``K = (I + Re R)^{-1} Im R = tan((Theta - gamma)/2)``
    in the basis ``Q`` (``I + Re R`` is positive definite, since no phase
    sits at the pole), is real symmetric and monotone in the phase, so
    one real ``eigh`` of ``K`` gives ``Q`` and
    ``theta = gamma + 2 arctan(kappa)``.  ``U = G D Q`` is unitary by
    construction and ``C U = U exp(i theta)``.
    """
    g, d, E = _hopping_factor(H1, H2, dt)
    S = np.outer(d, d) * E
    arcs = np.arccos(np.clip(np.linalg.eigvalsh(S.real), -1.0, 1.0))
    angles = np.sort(np.concatenate([-arcs, arcs]))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    gamma = angles[widest] + 0.5 * gaps[widest] - np.pi
    R = np.exp(-1j * gamma) * S
    K = np.linalg.solve(np.eye(d.size) + R.real, R.imag)
    kappa, Q = np.linalg.eigh(0.5 * (K + K.T))
    return gamma + 2.0 * np.arctan(kappa), (g * d)[:, None] * Q


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

    For ``M = 2**t`` write ``k_j = rint(M phi_j)``; the offset
    ``r_j = M phi_j - k_j`` is exact and ``sin(pi M delta)**2 =
    sin(pi r_j)**2`` for every outcome, so the numerator is one sine per
    eigenphase.  With ``u = (y - k_j) mod M`` wrapped into ``[-M/2, M/2)``,
    ``M delta = r_j - u`` up to a multiple of ``M``, and the denominator is
    ``sin(pi (r_j - u)/M) = C[u] sin(pi r_j/M) - S[u] cos(pi r_j/M)`` up to
    sign, from the tables ``S[u] = sin(pi u/M)`` and ``C[u] = cos(pi u/M)``.
    So one call takes ``O(n + M)`` sines and cosines, and each kernel row
    is a cyclic shift of the tables, gathered as one row of a doubled
    table.  Every entry keeps its relative accuracy: for ``u != 0``,
    ``|r_j - u| >= |u|/2``, so the two products cancel by at most a factor
    two, and for ``u = 0`` the denominator is the sine of ``r_j`` itself.
    ``F_M = 1`` where ``delta = 0``, which happens only for an eigenphase on
    the outcome grid (``r_j = 0``) at its own outcome.  The
    eigenphase-by-outcome kernel is evaluated in blocks of at most
    ``_READOUT_BLOCK`` entries, in one buffer allocated per call, and the
    table rows are gathered ``_GATHER_BLOCK`` entries at a time.
    """
    M = 2 ** t_bits
    scaled = M * phases
    nearest = np.rint(scaled)
    offsets = scaled - nearest
    numerators = np.sin(np.pi * offsets) / M
    half_turns = offsets * (np.pi / M)
    sin_r, cos_r = np.sin(half_turns)[:, None], np.cos(half_turns)[:, None]
    u = np.arange(M)
    u[M // 2:] -= M
    angles = u * (np.pi / M)
    # Row s of a window over the doubled table is the table shifted by s:
    # row (-k_j) mod M holds the entry for u = (y - k_j) mod M at column y.
    sin_rows = np.lib.stride_tricks.sliding_window_view(np.tile(np.sin(angles), 2), M)
    cos_rows = np.lib.stride_tricks.sliding_window_view(np.tile(np.cos(angles), 2), M)
    shifts = (-nearest.astype(np.int64)) % M
    rows = max(1, _READOUT_BLOCK // M)
    gather = max(1, _GATHER_BLOCK // M)
    buffer = np.empty((min(rows, phases.size), M))
    distribution = np.zeros(M)
    for start in range(0, phases.size, rows):
        j = slice(start, start + rows)
        kernel = buffer[:shifts[j].size]
        for low in range(0, kernel.shape[0], gather):
            i = slice(start + low, start + low + gather)
            part = kernel[low:low + gather]
            np.multiply(cos_rows[shifts[i]], sin_r[i], out=part)
            sines = sin_rows[shifts[i]]
            sines *= cos_r[i]
            part -= sines
        with np.errstate(invalid="ignore"):  # 0/0 where delta = 0
            np.divide(numerators[j, None], kernel, out=kernel)
        kernel *= kernel
        on_grid = np.flatnonzero(offsets[j] == 0.0)
        kernel[on_grid, (-shifts[j][on_grid]) % M] = 1.0
        distribution += weights[j] @ kernel
    return distribution


def run_qpe(H: BandedHermitian, psi0, t_bits: int, shift_scale: ShiftScale,
            evolution: str = "exact", trotter_steps: int | None = None) -> QpeResult:
    """Simulate phase estimation of a banded Hamiltonian.

    The ancilla register starts in uniform superposition, branch ``a``
    accumulates ``a`` applications of the unit evolution (whose eigenphases
    are the mapped phases of ``H``), the inverse Fourier transform acts on
    the ancilla, and the system register is traced out.  The distribution
    is read off the closed form in the module docstring from one
    decomposition of the physical block: of the phase-mapped ``H`` for
    exact evolution, or of its Trotter cycle (``_trotter_eig``), whose
    eigenphases times ``trotter_steps`` are the phases.  The padding rows
    are one more readout entry, at phase ``1 - guard/2``.  No padded matrix
    and no joint ancilla-by-system state is formed.

    Parameters
    ----------
    H : BandedHermitian
        Physical Hamiltonian, of size at most 4096; tridiagonal for Trotter.
    psi0 : Statevector, array_like or "ground"
        Trial state on the padded register, a raw vector of the physical
        dimension (zero-padded and normalized), or ``"ground"`` for the
        lowest eigenvector of the phase-mapped ``H``, taken from the
        decomposition that the exact readout uses.
    t_bits : int
        Ancilla width; outcomes resolve phases to ``2**-t_bits``.
    shift_scale : ShiftScale
        Phase map; it must send the Gershgorin enclosure of ``H`` into
        ``[0, 1 - guard]``, else ``DegenerateRange`` is raised before any
        decomposition.
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
    # Mapping H's own bounds sends a Gershgorin map's lower bound to exactly 0.
    low, high = shift_scale.phase(_gershgorin(H))
    if not (low >= 0.0 and high <= 1.0 - shift_scale.guard):
        raise DegenerateRange(
            f"the phase map sends the Gershgorin enclosure of H to [{low}, {high}], "
            f"outside [0, {1.0 - shift_scale.guard}]")

    state = None if ground else _system_state(psi0, n_sys, H.size)
    H_phase = shift_scale.map_matrix(H)  # spectrum equals the mapped phases
    if evolution == "trotter":
        h1, h2 = split_tridiagonal(H_phase)
    if ground or evolution == "exact":
        phases, basis = _eigh(H_phase)
    if ground:
        state = basis[:, 0]
    if evolution == "trotter":
        # exp(+2 pi i H_phase) as s cycles of time -2 pi / s
        theta, basis = _trotter_eig(h1, h2, -2.0 * np.pi / trotter_steps)
        phases = trotter_steps * theta / (2.0 * np.pi) % 1.0
    if ground and evolution == "exact":  # all weight on eigenvector 0
        phases, weights = phases[:1], np.ones(1)
    else:
        weights = np.abs(basis.conj().T @ state[:H.size]) ** 2
    pad_mass = np.linalg.norm(state[H.size:]) ** 2
    if pad_mass > 0.0:  # the padding rows share the phase 1 - guard/2
        phases = np.append(phases, 1.0 - shift_scale.guard / 2.0)
        weights = np.append(weights, pad_mass)
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
