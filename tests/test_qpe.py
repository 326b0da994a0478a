import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil.analysis import random_banded_hermitian
from qpencil import qpe
from qpencil.discretize import (
    Coefficient,
    GridSpec,
    SturmLiouvilleSpec,
    build_sl_generalized,
    build_sl_reduced,
)
from qpencil.errors import (
    BandwidthTooLarge,
    DimensionMismatch,
    OutOfRange,
    TooManyQubits,
)
from qpencil.jacobi import eigh_jacobi
from qpencil.linalg import BandedHermitian
from qpencil.qpe import (
    QpeResult,
    ShiftScale,
    Statevector,
    _eigh,
    _trotter_cycle,
    _unitary_eig,
    evolve_exact,
    evolve_trotter,
    gershgorin_shift_scale,
    outcome_to_eigenvalue,
    overlap_probabilities,
    run_qpe,
    sample_outcomes,
    split_tridiagonal,
)
from qpencil.reduction import reduce_sqrt

from conftest import qpe_kernel, qpe_statevector, qpe_trotter_statevector, random_hermitian


def diag_h(values):
    values = np.asarray(values, dtype=float)
    return BandedHermitian(values.size, 0, (values,))


def tridiag_h(diag, off):
    return BandedHermitian(len(diag), 1, (np.asarray(diag, dtype=complex),
                                          np.asarray(off, dtype=complex)))


UNIT_MAP = ShiftScale(0.0, 1.0)


# -------------------------------------------------------------------- fixtures


def sl_hamiltonian(n=8, r_poly=(1.0, 1.0)):
    spec = SturmLiouvilleSpec(Coefficient.constant(1.0), Coefficient.constant(0.0),
                              Coefficient.polynomial(list(r_poly)))
    return build_sl_reduced(spec, GridSpec(n))


# ------------------------------------------------------------------ statevector


def test_statevector_validation():
    with pytest.raises(ValueError):
        Statevector(1, np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        Statevector(2, np.array([1.0, 0.0]))
    sv = Statevector.from_vector([3.0, 4.0, 0.0])
    assert sv.n_qubits == 2
    assert np.allclose(np.abs(sv.amplitudes), [0.6, 0.8, 0.0, 0.0])


# -------------------------------------------------------------------- eigh seam


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("n", [1, 2, 17, 64, 128])
def test_eigh_seam_agrees_with_jacobi_oracle(n, degenerate, rng):
    if degenerate:
        # eigenvalues repeated in clusters of up to three, in a random basis
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        D = (Q * (np.repeat(np.arange(n), 3)[:n] - n / 3.0)) @ Q.conj().T
        H = BandedHermitian.from_dense(0.5 * (D + D.conj().T))
    else:
        H = BandedHermitian.from_dense(random_hermitian(n, rng))
    dense = H.to_dense()
    w, V = _eigh(H)
    w_oracle, _ = eigh_jacobi(dense, vectors=False)
    norm = max(float(np.abs(w_oracle).max()), 1.0)
    assert np.abs(w - w_oracle).max() <= 1e-12 * norm
    assert np.linalg.norm(dense @ V - V * w, 2) <= 1e-12 * norm
    assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-12


# ------------------------------------------------------------------ shift/scale


def test_gershgorin_maps_diagonal_spectrum_inside_guard():
    H = diag_h([0.0, 0.5])
    ss = gershgorin_shift_scale(H)
    phases = ss.phase(np.array([0.0, 0.5]))
    assert (phases >= 0.0).all() and (phases < 1.0 - ss.guard).all()


def test_gershgorin_zero_matrix():
    ss = gershgorin_shift_scale(diag_h([0.0, 0.0, 0.0]))
    assert ss.shift == 0.0 and ss.scale == 1.0
    assert np.all(ss.phase(np.zeros(3)) == 0.0)


def test_gershgorin_identity_multiple_handled():
    ss = gershgorin_shift_scale(diag_h([2.5, 2.5, 2.5, 2.5]))
    assert ss.scale == 1.0
    assert ss.phase(2.5) == 0.0


def test_gershgorin_encloses_random_spectra(rng):
    for _ in range(10):
        H = BandedHermitian.from_dense(random_hermitian(8, rng))
        ss = gershgorin_shift_scale(H)
        w = np.linalg.eigvalsh(H.to_dense())
        phases = ss.phase(w)
        assert (phases >= 0.0).all() and (phases < 1.0 - ss.guard).all()


def test_shift_scale_round_trip():
    ss = ShiftScale(-2.0, 0.3)
    lam = 1.7
    assert ss.eigenvalue(ss.phase(lam)) == pytest.approx(lam, abs=1e-14)


# -------------------------------------------------------------------- evolution


def test_evolve_exact_zero_time_is_identity(rng):
    H = BandedHermitian.from_dense(random_hermitian(4, rng))
    psi = Statevector.from_vector(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
    out = evolve_exact(H, 0.0, psi)
    assert np.abs(out.amplitudes - psi.amplitudes).max() <= 1e-12


def test_evolve_exact_eigenvector_full_period_phase(rng):
    H = BandedHermitian.from_dense(random_hermitian(4, rng))
    w, V = np.linalg.eigh(H.to_dense())
    psi = Statevector(2, V[:, 1])
    out = evolve_exact(H, 2.0 * np.pi, psi)
    expected = np.exp(-2j * np.pi * w[1]) * V[:, 1]
    assert np.abs(out.amplitudes - expected).max() <= 1e-10


def test_evolve_exact_diagonal_phase():
    H = diag_h([1.0, -1.0])
    out = evolve_exact(H, np.pi / 2.0, Statevector.basis_state(1, 0))
    assert out.amplitudes[0] == pytest.approx(np.exp(-1j * np.pi / 2.0))
    assert out.amplitudes[1] == 0.0


def test_evolve_preserves_norm(rng):
    H = BandedHermitian.from_dense(random_hermitian(8, rng))
    psi = Statevector.from_vector(rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
    out = evolve_exact(H, 3.7, psi)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


# ------------------------------------------------------------------------ split


def test_split_diagonal_hamiltonian():
    H1, H2 = split_tridiagonal(diag_h([1.0, 2.0, 3.0]))
    assert H2.max_abs() == 0.0
    assert np.abs(H1.to_dense() - np.diag([1.0, 2.0, 3.0])).max() == 0.0


def test_split_discrete_laplacian_parts():
    H = tridiag_h([32.0] * 4, [-16.0] * 3)
    H1, H2 = split_tridiagonal(H)
    assert np.abs(H1.to_dense() - 32.0 * np.eye(4)).max() == 0.0
    assert np.abs(np.diag(H2.to_dense())).max() == 0.0
    assert np.abs((H1.add(H2)).to_dense() - H.to_dense()).max() == 0.0
    # both parts pass Hermitian construction by definition of the type
    assert isinstance(H1, BandedHermitian) and isinstance(H2, BandedHermitian)


def test_split_rejects_wide_bands(rng):
    H = BandedHermitian.from_dense(random_hermitian(4, rng))
    assert H.half_bandwidth > 1
    with pytest.raises(BandwidthTooLarge):
        split_tridiagonal(H)


# ---------------------------------------------------------------------- trotter


def test_trotter_commuting_split_is_exact(rng):
    # zero hopping part
    H1, H2 = split_tridiagonal(diag_h([0.3, -0.2, 0.8, 0.1]))
    psi = Statevector.from_vector(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
    for steps in (1, 3, 8):
        trot = evolve_trotter(H1, H2, 1.3, steps, psi)
        exact = evolve_exact(H1.add(H2), 1.3, psi)
        assert np.abs(trot.amplitudes - exact.amplitudes).max() <= 1e-12
    # constant diagonal commutes with any hopping part
    Hc = tridiag_h([2.0] * 4, [-0.7, -0.3, -0.5])
    H1c, H2c = split_tridiagonal(Hc)
    for steps in (1, 4):
        trot = evolve_trotter(H1c, H2c, 0.9, steps, psi)
        exact = evolve_exact(Hc, 0.9, psi)
        assert np.abs(trot.amplitudes - exact.amplitudes).max() <= 1e-12


def trotter_error(H, time, steps, psi):
    H1, H2 = split_tridiagonal(H)
    trot = evolve_trotter(H1, H2, time, steps, psi)
    exact = evolve_exact(H, time, psi)
    return np.linalg.norm(trot.amplitudes - exact.amplitudes)


def test_trotter_error_halves_when_steps_double():
    H = sl_hamiltonian(8)
    ss = gershgorin_shift_scale(H)
    Hs = ss.map_matrix(H)
    psi = Statevector.uniform(3)
    errors = [trotter_error(Hs, 1.0, s, psi) for s in (8, 16, 32)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.4 <= fine / coarse <= 0.6


def test_trotter_error_grows_quadratically_in_time():
    H = sl_hamiltonian(8)
    ss = gershgorin_shift_scale(H)
    Hs = ss.map_matrix(H)
    psi = Statevector.uniform(3)
    errs = {t: trotter_error(Hs, t, 32, psi) for t in (0.5, 1.0, 2.0)}
    assert errs[1.0] / errs[0.5] == pytest.approx(4.0, rel=0.2)
    assert errs[2.0] / errs[1.0] == pytest.approx(4.0, rel=0.2)


def test_trotter_preserves_norm(rng):
    H = sl_hamiltonian(8)
    H1, H2 = split_tridiagonal(H)
    psi = Statevector.from_vector(rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
    out = evolve_trotter(H1, H2, 0.4, 5, psi)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


def test_trotter_validates_arguments(rng):
    H1, H2 = split_tridiagonal(sl_hamiltonian(8))
    psi = Statevector.uniform(3)
    with pytest.raises(ValueError):
        evolve_trotter(H1, H2, 1.0, 0, psi)
    with pytest.raises(BandwidthTooLarge):
        evolve_trotter(sl_hamiltonian(8), H2, 1.0, 2, psi)


# -------------------------------------------------------------------------- qpe


def test_qpe_exact_phase_is_deterministic():
    H = diag_h([0.75, 0.25])
    res = run_qpe(H, Statevector.basis_state(1, 0), 2, UNIT_MAP)
    assert res.distribution[3] == pytest.approx(1.0, abs=1e-12)


def test_qpe_kernel_for_non_representable_phase():
    H = diag_h([1.0 / 3.0, 0.0])
    res = run_qpe(H, Statevector.basis_state(1, 0), 3, UNIT_MAP)
    expected = qpe_kernel(1.0 / 3.0, 3)
    assert np.abs(res.distribution - expected).max() <= 1e-9
    nearest = int(np.round((1.0 / 3.0) * 8)) % 8
    assert nearest == 3
    assert res.distribution[3] >= 4.0 / np.pi ** 2
    assert res.distribution[3] + res.distribution[2] >= 8.0 / np.pi ** 2


def test_qpe_two_eigenvectors_split_mass_evenly():
    H = diag_h([0.25, 0.5])
    psi = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    res = run_qpe(H, psi, 2, UNIT_MAP)
    assert res.distribution[1] == pytest.approx(0.5, abs=1e-12)
    assert res.distribution[2] == pytest.approx(0.5, abs=1e-12)
    assert np.delete(res.distribution, [1, 2]).max() <= 1e-12


def test_qpe_distribution_normalized_random(rng):
    H = BandedHermitian.from_dense(random_hermitian(4, rng), 3)
    ss = gershgorin_shift_scale(H)
    psi = Statevector.from_vector(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
    res = run_qpe(H, psi, 5, ss)
    assert abs(res.distribution.sum() - 1.0) <= 1e-10
    assert (res.distribution >= 0.0).all()


def test_qpe_padding_phase_sits_at_half_guard():
    # a 7-dimensional problem pads one row; feeding the padded basis state
    # must return the padding phase 1 - guard/2 exactly
    H = BandedHermitian(7, 0, (np.linspace(0.1, 0.6, 7),))
    ss = ShiftScale(0.0, 1.0)
    psi = np.zeros(8)
    psi[7] = 1.0
    res = run_qpe(H, psi, 4, ss)
    expected_outcome = int((1.0 - ss.guard / 2.0) * 16)
    assert expected_outcome == 15
    assert res.distribution[expected_outcome] == pytest.approx(1.0, abs=1e-12)


def test_qpe_padding_never_overlaps_physical_mass():
    # representable physical phases: all mass lands on their bins and the
    # padding bin (phase 1 - guard/2 = 15/16) stays exactly empty
    H = BandedHermitian(7, 0, (np.arange(7) / 16.0,))
    res = run_qpe(H, np.ones(7), 4, ShiftScale(0.0, 1.0))
    assert res.distribution[15] <= 1e-12
    assert res.distribution[:7].sum() == pytest.approx(1.0, abs=1e-10)


def test_qpe_trotter_converges_to_exact():
    H = sl_hamiltonian(8)
    ss = gershgorin_shift_scale(H)
    psi = Statevector.uniform(3)
    exact = run_qpe(H, psi, 5, ss).distribution
    tvs = []
    for steps in (1, 2, 4, 8, 16):
        approx = run_qpe(H, psi, 5, ss, evolution="trotter", trotter_steps=steps)
        tvs.append(0.5 * np.abs(approx.distribution - exact).sum())
    for coarse, fine in zip(tvs, tvs[1:]):
        assert fine <= coarse + 1e-9
    assert tvs[-1] < 1e-3


@pytest.mark.parametrize("n,t_bits", [(1, 3), (5, 10), (31, 8), (64, 10), (100, 6), (127, 10)])
def test_closed_form_readout_matches_statevector_simulation(n, t_bits, rng):
    H = random_banded_hermitian(n, min(3, n - 1), rng)
    ss = gershgorin_shift_scale(H)
    dim = 2 ** max(1, (n - 1).bit_length())
    phase_matrix = np.diag(np.full(dim, 1.0 - ss.guard / 2.0)).astype(complex)
    phase_matrix[:n, :n] = ss.scale * (H.to_dense() - ss.shift * np.eye(n))
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    state = np.zeros(dim, dtype=complex)
    state[:n] = psi / np.linalg.norm(psi)
    res = run_qpe(H, psi, t_bits, ss)
    reference = qpe_statevector(phase_matrix, state, t_bits)
    assert np.abs(res.distribution - reference).max() <= 1e-13


def test_qpe_ground_trial_is_lowest_eigenvector():
    H = sl_hamiltonian(11)
    ss = gershgorin_shift_scale(H)
    _, V = np.linalg.eigh(H.to_dense())
    for evolution, steps in (("exact", None), ("trotter", 4)):
        ground = run_qpe(H, "ground", 7, ss, evolution=evolution, trotter_steps=steps)
        explicit = run_qpe(H, V[:, 0], 7, ss, evolution=evolution, trotter_steps=steps)
        assert np.abs(ground.distribution - explicit.distribution).max() <= 1e-12
    with pytest.raises(ValueError, match="unknown trial state"):
        run_qpe(H, "excited", 7, ss)


def test_qpe_trotter_long_chain_stays_normalized():
    # 7 system + 12 ancilla qubits with 8 cycles per power.  The readout
    # uses an orthonormal eigenbasis of one unitary cycle, so no drift
    # accumulates over the 32,760 cycles of the chain.
    H = sl_hamiltonian(127)
    _, V = np.linalg.eigh(H.to_dense())
    res = run_qpe(H, V[:, 0], 12, gershgorin_shift_scale(H),
                  evolution="trotter", trotter_steps=8)
    assert abs(res.distribution.sum() - 1.0) <= 1e-10


def chained_blocks(block: BandedHermitian, copies: int) -> BandedHermitian:
    """``copies`` decoupled copies of a tridiagonal block: every level repeats."""
    hop = np.concatenate([block.diagonals[1], [0.0]])
    return BandedHermitian(block.size * copies, 1,
                           (np.tile(block.diagonals[0], copies),
                            np.tile(hop, copies)[:-1]))


def trotter_case(kind, n, rng):
    if kind == "sl":
        return sl_hamiltonian(n, (1.0, 2.0, 0.5))
    if kind == "random":
        return random_banded_hermitian(n, 1, rng)
    if kind == "twin":
        return chained_blocks(random_banded_hermitian(n // 2, 1, rng), 2)
    # repeated diagonal: ten levels, each several times, no hopping
    return BandedHermitian(n, 1, (np.repeat(rng.uniform(-1.0, 1.0, 10), n // 10),
                                  np.zeros(n - 1)))


@pytest.mark.parametrize("kind,n,t_bits,steps,trial", [
    ("random", 5, 8, 1, "raw"),
    ("sl", 5, 12, 16, "padded"),
    ("sl", 31, 12, 16, "ground"),
    ("random", 33, 10, 4, "padded"),
    ("random", 63, 8, 16, "raw"),
    ("sl", 65, 12, 1, "ground"),
    ("random", 127, 10, 4, "raw"),
    ("sl", 129, 10, 16, "padded"),
    ("random", 255, 10, 4, "ground"),
    ("sl", 255, 8, 16, "padded"),
    ("twin", 60, 10, 4, "padded"),
    ("twin", 128, 8, 16, "raw"),
    ("repeated", 50, 10, 1, "padded"),
    ("repeated", 120, 8, 16, "raw"),
])
def test_qpe_trotter_matches_statevector_simulation(kind, n, t_bits, steps, trial, rng):
    H = trotter_case(kind, n, rng)
    ss = gershgorin_shift_scale(H)
    dim = 2 ** max(1, (n - 1).bit_length())
    phase_matrix = np.diag(np.full(dim, 1.0 - ss.guard / 2.0)).astype(complex)
    phase_matrix[:n, :n] = ss.scale * (H.to_dense() - ss.shift * np.eye(n))
    if trial == "ground":
        psi0 = "ground"
        state = np.linalg.eigh(phase_matrix)[1][:, 0]
    else:
        size = n if trial == "raw" else dim
        psi0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        state = np.zeros(dim, dtype=complex)
        state[:size] = psi0 / np.linalg.norm(psi0)
    res = run_qpe(H, psi0, t_bits, ss, evolution="trotter", trotter_steps=steps)
    reference = qpe_trotter_statevector(phase_matrix, state, t_bits, steps)
    assert np.abs(res.distribution - reference).max() <= 1e-10
    assert abs(res.distribution.sum() - 1.0) <= 1e-13


def test_qpe_trotter_stays_normalized_at_benchmark_seed_1409():
    # The op that raised "probabilities must sum to 1" when the readout
    # repeated 65,520 cycles on a statevector: n = 31, t = 12, 16 steps.
    coeffs = {"p": [1.7051991366948624, 0.1382738269688537, 0.9918391215084956],
              "q": [1.5205376203333063, 0.3082506760205401],
              "r": [1.6494679681069848, 0.621501283979714, 0.9372018222477946]}
    spec = SturmLiouvilleSpec(*(Coefficient.polynomial(coeffs[k]) for k in "pqr"))
    H = reduce_sqrt(*build_sl_generalized(spec, GridSpec(31))).hamiltonian
    ground = np.linalg.eigh(H.to_dense())[1][:, 0]
    res = run_qpe(H, ground, 12, gershgorin_shift_scale(H),
                  evolution="trotter", trotter_steps=16)
    assert abs(res.distribution.sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 31, 127, 255])
def test_unitary_eig_basis_is_orthonormal(n):
    H = sl_hamiltonian(n)
    ss = gershgorin_shift_scale(H)
    h1, h2 = split_tridiagonal(ss.map_matrix(H))
    for steps in (1, 16):
        C = _trotter_cycle(h1, h2, -2.0 * np.pi / steps)
        theta, U = _unitary_eig(C)
        assert np.abs(U.conj().T @ U - np.eye(n)).max() <= 1e-13
        assert np.abs(C @ U - U * np.exp(1j * theta)).max() <= 1e-12


def test_qpe_trotter_decomposes_one_cycle(monkeypatch):
    assert not hasattr(qpe, "_TrotterCycle")
    calls = []
    for name in ("_trotter_cycle", "_unitary_eig"):
        real = getattr(qpe, name)
        monkeypatch.setattr(qpe, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    H = sl_hamiltonian(13)
    run_qpe(H, np.ones(13), 9, gershgorin_shift_scale(H),
            evolution="trotter", trotter_steps=16)
    assert sorted(calls) == ["_trotter_cycle", "_unitary_eig"]


def test_qpe_rejects_oversized_registers():
    with pytest.raises(TooManyQubits):
        run_qpe(diag_h([0.1, 0.2]), Statevector.basis_state(1, 0), 24, UNIT_MAP)


def test_qpe_trial_vector_length_checked():
    with pytest.raises(DimensionMismatch):
        run_qpe(diag_h([0.1, 0.2]), np.ones(3), 3, UNIT_MAP)
    with pytest.raises(DimensionMismatch):
        run_qpe(diag_h([0.1, 0.2]), Statevector.basis_state(2, 0), 3, UNIT_MAP)


# ----------------------------------------------------------------- measurement


def test_sampling_deterministic_distribution():
    res = QpeResult(2, np.array([0.0, 1.0, 0.0, 0.0]), UNIT_MAP)
    samples = sample_outcomes(res, 50, seed=11)
    assert (samples == 1).all()


def test_sampling_seed_reproducibility():
    res = QpeResult(2, np.array([0.25, 0.25, 0.25, 0.25]), UNIT_MAP)
    a = sample_outcomes(res, 100, seed=42)
    b = sample_outcomes(res, 100, seed=42)
    assert (a == b).all()
    c = sample_outcomes(res, 100, seed=43)
    assert (a != c).any()


def test_sampling_frequencies_concentrate():
    res = QpeResult(1, np.array([0.5, 0.5]), UNIT_MAP)
    samples = sample_outcomes(res, 100_000, seed=5)
    freq = (samples == 0).mean()
    assert abs(freq - 0.5) < 0.01


def test_outcome_to_eigenvalue_inverts_phase_map():
    ss = ShiftScale(-1.5, 0.25)
    assert outcome_to_eigenvalue(0, 4, ss) == ss.shift
    lam = ss.eigenvalue(5 / 16)
    assert outcome_to_eigenvalue(5, 4, ss) == pytest.approx(lam, abs=1e-12)
    with pytest.raises(OutOfRange):
        outcome_to_eigenvalue(16, 4, ss)
    with pytest.raises(OutOfRange):
        outcome_to_eigenvalue(-1, 4, ss)


def test_qpe_resolution_bound_dominant_outcome(rng):
    H = BandedHermitian.from_dense(random_hermitian(4, rng), 3)
    ss = gershgorin_shift_scale(H)
    w, V = np.linalg.eigh(H.to_dense())
    res = run_qpe(H, Statevector(2, V[:, 0]), 8, ss)
    y = int(np.argmax(res.distribution))
    lam_hat = outcome_to_eigenvalue(y, 8, ss)
    assert abs(lam_hat - w[0]) <= 1.0 / (2 ** 8 * ss.scale)


# -------------------------------------------------------------------- overlaps


def test_overlap_probabilities_examples(rng):
    H = BandedHermitian.from_dense(random_hermitian(4, rng), 3)
    w, V = np.linalg.eigh(H.to_dense())
    pairs = overlap_probabilities(V[:, 2], H)
    probs = np.array([p for _, p in pairs])
    assert probs[2] == pytest.approx(1.0, abs=1e-10)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    psi = (V[:, 0] + V[:, 3]) / np.sqrt(2.0)
    pairs = overlap_probabilities(psi, H)
    assert pairs[0][1] == pytest.approx(0.5, abs=1e-10)
    assert pairs[3][1] == pytest.approx(0.5, abs=1e-10)


def test_overlaps_match_qpe_masses_for_representable_phases():
    H = diag_h([0.125, 0.375, 0.625, 0.875])
    amps = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1]))
    psi = Statevector(2, amps)
    res = run_qpe(H, psi, 3, UNIT_MAP)
    for lam, p in overlap_probabilities(psi, H):
        y = int(round(lam * 8))
        assert res.distribution[y] == pytest.approx(p, abs=1e-6)


# ----------------------------------------------------------------- properties


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_qpe_unitarity_property(seed, t_bits):
    rng = np.random.default_rng(seed)
    H = BandedHermitian.from_dense(
        0.5 * (lambda X: X + X.conj().T)(rng.uniform(-1, 1, (4, 4))
                                         + 1j * rng.uniform(-1, 1, (4, 4))))
    ss = gershgorin_shift_scale(H)
    psi = Statevector.from_vector(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
    res = run_qpe(H, psi, t_bits, ss)
    assert abs(res.distribution.sum() - 1.0) <= 1e-10


@given(st.integers(2, 6))
@settings(max_examples=5, deadline=None)
def test_exact_phase_support_property(t_bits):
    # all eigenphases representable: outcome support is exactly those phases
    M = 2 ** t_bits
    phases = np.array([0, M // 4, M // 2]) / M
    H = diag_h(np.concatenate([phases, [0.0]]))
    amps = np.zeros(4)
    amps[:3] = np.sqrt(1.0 / 3.0)
    res = run_qpe(H, Statevector(2, amps), t_bits, UNIT_MAP)
    support = {int(round(p * M)) % M for p in phases} | {0}
    for y in range(M):
        if y in support:
            continue
        assert res.distribution[y] <= 1e-9
