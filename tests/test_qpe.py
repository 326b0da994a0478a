import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil import analysis
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
    DegenerateRange,
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
    _fejer_readout,
    _trotter_eig,
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

from conftest import (
    fejer_readout_two_sinc,
    qpe_kernel,
    qpe_statevector,
    qpe_trotter_statevector,
    random_hermitian,
)


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


def test_statevector_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="norm"):
        Statevector(3, np.full(8, np.nan))


def test_qpe_result_rejects_nan_probabilities():
    with pytest.raises(ValueError, match="sum to 1"):
        QpeResult(2, np.full(4, np.nan), UNIT_MAP)


@pytest.mark.parametrize("evolution", ["exact", "trotter"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qpe_rejects_non_finite_trial_vector(evolution, bad, monkeypatch):
    H = sl_hamiltonian(13)
    sizes = record_decompositions(monkeypatch)
    psi0 = np.ones(13)
    psi0[5] = bad
    with pytest.raises(ValueError, match="finite"):
        run_qpe(H, psi0, 6, gershgorin_shift_scale(H), evolution=evolution,
                trotter_steps=4)
    assert sizes == []


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
    with pytest.raises(BandwidthTooLarge):
        _trotter_eig(H1, random_banded_hermitian(8, 2, rng), 1.0)
    with pytest.raises(DimensionMismatch):
        evolve_trotter(H1, split_tridiagonal(sl_hamiltonian(9))[1], 1.0, 2, psi)
    with pytest.raises(ValueError, match="zero diagonal"):
        evolve_trotter(H1, tridiag_h(np.ones(8), np.ones(7)), 1.0, 2, psi)


def forbid_decomposition(monkeypatch):
    def forbid(*args):
        raise AssertionError("decomposed before checking the arguments")

    for name in ("_eigh", "_eigvalsh", "_hopping_svd", "_trotter_eig"):
        monkeypatch.setattr(qpe, name, forbid)


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
def test_evolution_rejects_non_finite_time(time, monkeypatch):
    H = sl_hamiltonian(8)
    H1, H2 = split_tridiagonal(H)
    psi = Statevector.uniform(3)
    forbid_decomposition(monkeypatch)
    with pytest.raises(ValueError, match="time must be finite"):
        evolve_exact(H, time, psi)
    with pytest.raises(ValueError, match="time must be finite"):
        evolve_trotter(H1, H2, time, 4, psi)


@pytest.mark.parametrize("steps", [2.5, 4.0, True, "4"])
def test_trotter_step_counts_must_be_integers(steps, monkeypatch):
    H = sl_hamiltonian(8)
    H1, H2 = split_tridiagonal(H)
    forbid_decomposition(monkeypatch)
    with pytest.raises(ValueError, match="steps must be an integer"):
        evolve_trotter(H1, H2, 1.0, steps, Statevector.uniform(3))
    with pytest.raises(ValueError, match="steps must be an integer"):
        run_qpe(H, np.ones(8), 6, gershgorin_shift_scale(H), evolution="trotter",
                trotter_steps=steps)


def test_trotter_accepts_numpy_integer_steps():
    H = sl_hamiltonian(8)
    ss = gershgorin_shift_scale(H)
    plain = run_qpe(H, np.ones(8), 6, ss, evolution="trotter", trotter_steps=4)
    numpy_int = run_qpe(H, np.ones(8), 6, ss, evolution="trotter",
                        trotter_steps=np.int64(4))
    assert np.array_equal(plain.distribution, numpy_int.distribution)


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


def reference_cycle(h1, h2, dt):
    # exp(-i h1 dt) exp(-i h2 dt) from numpy's complex eigh of the dense
    # hopping part: no gauge, no Cayley transform, nothing shared with qpe
    w2, V2 = np.linalg.eigh(h2.to_dense())
    hop = (V2 * np.exp(-1j * dt * w2)) @ V2.conj().T
    return np.exp(-1j * dt * h1.diagonals[0].real)[:, None] * hop


def assert_cycle_eigenbasis(h1, h2, dt):
    C = reference_cycle(h1, h2, dt)
    theta, U = _trotter_eig(h1, h2, dt)
    assert np.abs(U.conj().T @ U - np.eye(h1.size)).max() <= 1e-13
    assert np.abs(C @ U - U * np.exp(1j * theta)).max() <= 1e-12
    return theta


@pytest.mark.parametrize("n", [1, 2, 31, 127, 255])
def test_unitary_eig_basis_is_orthonormal(n):
    H = sl_hamiltonian(n)
    ss = gershgorin_shift_scale(H)
    h1, h2 = split_tridiagonal(ss.map_matrix(H))
    for steps in (1, 16):
        assert_cycle_eigenbasis(h1, h2, -2.0 * np.pi / steps)


def widest_gap(theta):
    angles = np.sort(theta % (2.0 * np.pi))
    return float(np.diff(angles, append=angles[0] + 2.0 * np.pi).max())


def test_trotter_eig_hard_cycles(rng):
    # n = 511 at one step: the phases cover 7/8 of the circle
    H = sl_hamiltonian(511)
    ss = gershgorin_shift_scale(H)
    assert_cycle_eigenbasis(*split_tridiagonal(ss.map_matrix(H)), -2.0 * np.pi)

    # complex hopping with one zero bond: the gauge skips it
    n = 96
    off = rng.uniform(-1.0, 1.0, n - 1) + 1j * rng.uniform(-1.0, 1.0, n - 1)
    off[40] = 0.0
    h1, h2 = split_tridiagonal(tridiag_h(rng.uniform(-1.0, 1.0, n), off))
    assert_cycle_eigenbasis(h1, h2, 0.9)

    # a long time step wraps the phases around the circle many times
    H = random_banded_hermitian(255, 1, rng)
    theta = assert_cycle_eigenbasis(*split_tridiagonal(H), 40.0)
    assert widest_gap(theta) < 0.1

    # zero-diagonal hopping has a spectrum symmetric about 0, so with a
    # constant diagonal every phase pairs with one mirrored about -c dt; at
    # odd n one phase sits at -c dt itself, here once at pi
    for n, c, dt in ((64, 0.8173, 1.3), (65, np.pi / 1.3, 1.3)):
        off = rng.uniform(-1.0, 1.0, n - 1) + 1j * rng.uniform(-1.0, 1.0, n - 1)
        theta = assert_cycle_eigenbasis(diag_h(np.full(n, c)),
                                        tridiag_h(np.zeros(n), off), dt)
        mirrored = np.sort((-2.0 * c * dt - theta) % (2.0 * np.pi))
        assert np.abs(np.sort(theta % (2.0 * np.pi)) - mirrored).max() <= 1e-12


def window_case(kind, n, rng):
    """Trotter factors: complex hopping, with one zero bond, or a constant diagonal."""
    diag = np.full(n, 0.37) if kind == "constant" else rng.uniform(-1.0, 1.0, n)
    off = rng.uniform(-1.0, 1.0, n - 1) + 1j * rng.uniform(-1.0, 1.0, n - 1)
    if kind == "zero bond" and n > 1:
        off[(n - 1) // 2] = 0.0
    return split_tridiagonal(tridiag_h(diag, off) if n > 1 else diag_h(diag))


def unit_window_dt(h1, h2):
    """The time step at which the cycle's phase window has length 1."""
    width = qpe._phase_window(h1, h2, 1.0)[1]
    return 1.0 / width if width > 0.0 else 1.0


@pytest.mark.parametrize("kind", ["complex", "zero bond", "constant"])
@pytest.mark.parametrize("n", [1, 2, 3, 31, 127])
def test_cycle_phases_lie_in_the_window(kind, n, rng):
    h1, h2 = window_case(kind, n, rng)
    for length in (0.01, 0.5, 2.0, 3.0, 3.14):   # every window shorter than pi
        for sign in (1.0, -1.0):
            dt = sign * length * unit_window_dt(h1, h2)
            centre, width = qpe._phase_window(h1, h2, dt)
            assert width <= length * (1.0 + 1e-12)
            phases = np.angle(np.linalg.eigvals(reference_cycle(h1, h2, dt)))
            offsets = (phases - centre + np.pi) % (2.0 * np.pi) - np.pi
            assert np.abs(offsets).max() <= 0.5 * width + 1e-12
            assert_cycle_eigenbasis(h1, h2, dt)


def count_cayley_calls(monkeypatch):
    calls = []
    for name in ("solve", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("kind,n", [("sl", 127), ("random", 64), ("random", 65)])
def test_trotter_eig_on_both_sides_of_the_window_bound(kind, n, rng, monkeypatch):
    H = trotter_case(kind, n, rng)
    h1, h2 = split_tridiagonal(gershgorin_shift_scale(H).map_matrix(H))
    calls = count_cayley_calls(monkeypatch)
    bound = qpe._WINDOW_MAX * unit_window_dt(h1, h2)
    assert_cycle_eigenbasis(h1, h2, (1.0 - 1e-9) * bound)
    assert calls == []   # one real eigh, no pole, no solve
    assert_cycle_eigenbasis(h1, h2, (1.0 + 1e-9) * bound)
    assert calls == ["eigvalsh", "solve"]


def test_trotter_eig_window_memory_peak(monkeypatch):
    # n = 2047 at 16 steps takes the window path; 224 MiB is seven real
    # n x n arrays
    H = sl_hamiltonian(2047)
    h1, h2 = split_tridiagonal(gershgorin_shift_scale(H).map_matrix(H))
    calls = count_cayley_calls(monkeypatch)
    tracemalloc.start()
    try:
        _trotter_eig(h1, h2, -2.0 * np.pi / 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak <= 224 * 2 ** 20


def test_qpe_trotter_decomposes_one_cycle(monkeypatch):
    for gone in ("_TrotterCycle", "_unitary_eig", "_trotter_cycle", "_hopping_factor"):
        assert not hasattr(qpe, gone)
    time_steps, svds = [], []

    def forbid_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig called on a Trotter path")

    monkeypatch.setattr(np.linalg, "eig", forbid_eig)
    # analysis imports the names, so they are patched where each module looks them up
    real, svd = qpe._trotter_eig, qpe._hopping_svd

    def counted(h1, h2, dt, hopping=None):
        time_steps.append(dt)
        return real(h1, h2, dt, hopping)

    def counted_svd(h1, h2):
        svds.append(h2.size)
        return svd(h1, h2)

    for module in (qpe, analysis):
        monkeypatch.setattr(module, "_trotter_eig", counted)
        monkeypatch.setattr(module, "_hopping_svd", counted_svd)
    H = sl_hamiltonian(13)
    ss = gershgorin_shift_scale(H)
    run_qpe(H, np.ones(13), 9, ss, evolution="trotter", trotter_steps=16)
    assert time_steps == [-2.0 * np.pi / 16] and svds == [13]

    time_steps.clear()
    svds.clear()
    h1, h2 = split_tridiagonal(ss.map_matrix(sl_hamiltonian(16)))
    evolve_trotter(h1, h2, 1.0, 8, Statevector.uniform(4))
    assert time_steps == [1.0 / 8] and svds == [16]

    # the hopping SVD does not depend on the time step: once per scan
    time_steps.clear()
    svds.clear()
    analysis.scan_trotter_error(h1, h2, 1.0, [4, 1024])
    assert time_steps == [1.0 / 4, 1.0 / 1024] and svds == [16]


def readout_phases(t_bits):
    M = 2 ** t_bits
    grid = np.arange(M) / M
    special = np.concatenate([
        grid, [0.0, 15.0 / 16.0, 1.0 - 2.0 ** -52],   # on the grid and just below 1
        (grid + 1e-12) % 1.0, (grid - 1e-12) % 1.0,   # 1e-12 off the grid
    ])
    # two and a half readout blocks of uniform phases after them
    rows = 5 * max(1, qpe._READOUT_BLOCK // M) // 2
    fill = np.random.default_rng(t_bits).uniform(0.0, 1.0, rows)
    return np.concatenate([special, fill])


@pytest.mark.parametrize("t_bits", [1, 4, 12])
def test_fejer_readout_matches_two_sinc_kernel(t_bits):
    phases = readout_phases(t_bits)
    weights = np.random.default_rng(7).uniform(0.0, 1.0, phases.size)
    weights /= weights.sum()
    got = _fejer_readout(phases, weights, t_bits)
    want = fejer_readout_two_sinc(phases, weights, t_bits)
    assert np.abs(got - want).max() <= 1e-15
    assert abs(got.sum() - want.sum()) <= 1e-15


def fejer_row_longdouble(phase, t_bits):
    """``F_M(phase - y/M)`` for every outcome ``y``, in extended precision."""
    M = 2 ** t_bits
    pi = 4 * np.arctan(np.longdouble(1))
    scaled = np.longdouble(phase) * M
    offset = scaled - np.rint(scaled)  # exact: sin(pi M delta)**2 = sin(pi offset)**2
    delta = np.longdouble(phase) - np.arange(M, dtype=np.longdouble) / M
    delta -= np.rint(delta)
    with np.errstate(invalid="ignore", divide="ignore"):
        row = np.sin(pi * offset) ** 2 / (M * np.sin(pi * delta)) ** 2
    row[delta == 0] = 1
    return row


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0 ** -52,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("t_bits", [1, 4, 8, 12, 16])
def test_fejer_readout_keeps_relative_accuracy(t_bits):
    M = 2 ** t_bits
    phases = [0.0, 1.0 / M, 0.5, (M - 1.0) / M, 1.0 - 2.0 ** -52,
              3.0 / M + 1e-13, 3.0 / M - 1e-13, 0.5 / M]
    for phase in phases:
        got = _fejer_readout(np.array([phase]), np.ones(1), t_bits)
        want = fejer_row_longdouble(phase, t_bits)
        kept = want > 1e-300
        rel = np.abs(got[kept] - want[kept]) / want[kept]
        assert rel.max() <= 1e-14, (phase, float(rel.max()))
        assert np.all(got[~kept] <= 1e-300)


def test_fejer_readout_takes_no_transcendental_per_entry(monkeypatch):
    n, t_bits = 127, 12
    rng = np.random.default_rng(11)
    phases, weights = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    counted = []
    for name in ("sin", "cos"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, *args, real=real, **kwargs:
                            counted.append(np.size(x)) or real(x, *args, **kwargs))
    _fejer_readout(phases, weights, t_bits)
    assert 0 < sum(counted) <= 4 * (n + 2 ** t_bits)


def test_fejer_readout_memory_peak():
    n, t_bits = 127, 12
    rng = np.random.default_rng(12)
    phases, weights = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    tracemalloc.start()
    try:
        _fejer_readout(phases, weights, t_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * qpe._READOUT_BLOCK * 8 + 64 * 2 ** t_bits


def record_decompositions(monkeypatch):
    """Sizes of the dense ``eigh`` and ``eigvalsh`` calls and of the hopping SVDs, in call order."""
    sizes = []
    eigh, eigvalsh, svd = qpe._eigh, qpe._eigvalsh, qpe._hopping_svd
    monkeypatch.setattr(qpe, "_eigh", lambda H: sizes.append(("eigh", H.size)) or eigh(H))
    monkeypatch.setattr(qpe, "_eigvalsh",
                        lambda H: sizes.append(("eigvalsh", H.size)) or eigvalsh(H))
    monkeypatch.setattr(qpe, "_hopping_svd",
                        lambda H1, H2: sizes.append(("svd", H2.size)) or svd(H1, H2))
    return sizes


@pytest.mark.parametrize("evolution,trial,expected", [
    ("exact", "uniform", [("eigh", 13)]),
    ("exact", "ground", [("eigvalsh", 13)]),   # the lowest phase alone
    ("trotter", "uniform", [("svd", 13)]),
    ("trotter", "ground", [("eigh", 13), ("svd", 13)]),   # the ground trial, then the cycle
])
def test_qpe_decomposes_physical_block_only(evolution, trial, expected, monkeypatch):
    # n = 13 pads to 16 rows, but only the 13-row block is ever decomposed
    assert not hasattr(qpe, "_embed")
    sizes = record_decompositions(monkeypatch)
    H = sl_hamiltonian(13)
    psi0 = "ground" if trial == "ground" else np.ones(13)
    res = run_qpe(H, psi0, 8, gershgorin_shift_scale(H), evolution=evolution,
                  trotter_steps=4)
    assert sizes == expected
    assert abs(res.distribution.sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("t_bits", [6, 12])
@pytest.mark.parametrize("H", [sl_hamiltonian(13), sl_hamiltonian(127, (1.0, -0.5, 2.0)),
                               random_banded_hermitian(40, 2, np.random.default_rng(9))],
                         ids=["sl-13", "sl-127", "complex-k2"])
def test_exact_ground_from_eigenvalues_matches_eigenvector_path(H, t_bits):
    ss = gershgorin_shift_scale(H)
    ground = _eigh(ss.map_matrix(H))[1][:, 0]
    via_vector = run_qpe(H, ground, t_bits, ss).distribution
    values_only = run_qpe(H, "ground", t_bits, ss).distribution
    assert np.abs(values_only - via_vector).max() <= 1e-11
    assert np.argmax(values_only) == np.argmax(via_vector)


def test_qpe_rejects_phase_map_outside_guard(monkeypatch):
    # n = 7 with a map 3x too steep: the top eigenvalue's phase wraps past 1
    # and would alias to a low outcome without the check
    H = sl_hamiltonian(7)
    ss = gershgorin_shift_scale(H)
    steep = ShiftScale(ss.shift, 3.0 * ss.scale, ss.guard)
    assert steep.phase(np.linalg.eigvalsh(H.to_dense())).max() > 1.0
    sizes = record_decompositions(monkeypatch)
    for evolution in ("exact", "trotter"):
        for psi0 in ("ground", np.ones(7)):
            with pytest.raises(DegenerateRange):
                run_qpe(H, psi0, 8, steep, evolution=evolution, trotter_steps=4)
    # a lower bound one step below the shift is rejected as well
    with pytest.raises(DegenerateRange):
        run_qpe(diag_h([0.0, 0.5]), np.ones(2), 4, ShiftScale(1e-3, 1.0))
    assert sizes == []


def test_qpe_trotter_splits_before_decomposing(rng, monkeypatch):
    H = random_banded_hermitian(40, 2, rng)
    ss = gershgorin_shift_scale(H)
    sizes = record_decompositions(monkeypatch)
    for psi0 in ("ground", np.ones(40)):
        with pytest.raises(BandwidthTooLarge):
            run_qpe(H, psi0, 6, ss, evolution="trotter", trotter_steps=4)
    assert sizes == []


def test_dense_paths_refuse_dimensions_above_4096(monkeypatch):
    def forbid_dense(self, dtype=np.complex128):
        raise AssertionError(f"dense copy of dimension {self.size} formed")

    monkeypatch.setattr(BandedHermitian, "to_dense", forbid_dense)
    H = tridiag_h(np.full(4097, 2.0), np.full(4096, -1.0))
    ss = gershgorin_shift_scale(H)
    for evolution in ("exact", "trotter"):
        for psi0 in ("ground", np.ones(4097)):
            with pytest.raises(TooManyQubits, match="4096"):
                run_qpe(H, psi0, 1, ss, evolution=evolution, trotter_steps=1)
    with pytest.raises(TooManyQubits, match="4096"):
        overlap_probabilities(np.ones(4097), H)
    # evolve_exact needs a power-of-two register: the next one above the cap
    H = tridiag_h(np.full(8192, 2.0), np.full(8191, -1.0))
    with pytest.raises(TooManyQubits, match="4096"):
        evolve_exact(H, 1.0, Statevector.uniform(13))


def test_qpe_rejects_oversized_registers():
    with pytest.raises(TooManyQubits):
        run_qpe(diag_h([0.1, 0.2]), Statevector.basis_state(1, 0), 24, UNIT_MAP)


def test_qpe_trial_vector_length_checked():
    with pytest.raises(DimensionMismatch):
        run_qpe(diag_h([0.1, 0.2]), np.ones(3), 3, UNIT_MAP)
    with pytest.raises(DimensionMismatch):
        run_qpe(diag_h([0.1, 0.2]), Statevector.basis_state(2, 0), 3, UNIT_MAP)


# ----------------------------------------------------------------- measurement


def test_sampling_caps_shots_before_allocating():
    res = QpeResult(2, np.array([0.25, 0.25, 0.25, 0.25]), UNIT_MAP)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at 16777216"):
            sample_outcomes(res, 2 ** 24 + 1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


def test_overlap_probabilities_normalize_a_raw_vector(rng):
    H = BandedHermitian.from_dense(random_hermitian(4, rng), 3)
    raw = np.array([1.0, 2.0, -1.0, 0.5j])
    probs = np.array([p for _, p in overlap_probabilities(raw, H)])
    assert probs.sum() == pytest.approx(1.0, abs=1e-13)
    unit = np.array([p for _, p in overlap_probabilities(Statevector.from_vector(raw), H)])
    assert np.abs(probs - unit).max() <= 1e-15
    # unnormalized, np.ones(3) gave weights summing to 3
    pairs = overlap_probabilities(np.ones(3), tridiag_h([0.1, 0.2, 0.3], [0.05, 0.05]))
    assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("vec,match", [(np.zeros(4), "zero"),
                                       (np.array([1.0, np.nan, 0.0, 0.0]), "finite"),
                                       (np.array([1.0, 0.0, np.inf, 0.0]), "finite")],
                         ids=["zero", "nan", "inf"])
def test_overlap_probabilities_reject_unnormalizable_vectors(vec, match, monkeypatch):
    forbid_decomposition(monkeypatch)
    with pytest.raises(ValueError, match=match):
        overlap_probabilities(vec, diag_h([0.1, 0.2, 0.3, 0.4]))


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
