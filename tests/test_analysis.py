import numpy as np
import pytest

from qpencil import analysis
from qpencil.analysis import (
    ScanRecord,
    fill_fraction,
    hermitian_inv_sqrt,
    oracle_eigensolve,
    random_generalized_pair,
    scan_commutator_norm,
    scan_sparsity,
    scan_trotter_error,
)
from qpencil.discretize import Coefficient, GridSpec, SturmLiouvilleSpec, build_sl_reduced
from qpencil.errors import NotPositiveDefinite, RegimeViolation
from qpencil.linalg import BandedHermitian, BlockDiagonalPD
from qpencil.qpe import gershgorin_shift_scale, split_tridiagonal
from qpencil.reduction import reduce_sqrt

from conftest import random_hermitian


def scaled_split(n=8):
    spec = SturmLiouvilleSpec(Coefficient.constant(1.0), Coefficient.constant(0.0),
                              Coefficient.polynomial([1.0, 1.0]))
    H = build_sl_reduced(spec, GridSpec(n))
    ss = gershgorin_shift_scale(H)
    return split_tridiagonal(ss.map_matrix(H))


def test_scan_record_validates_observable():
    with pytest.raises(ValueError):
        ScanRecord(1.0, -0.5, "bad")
    with pytest.raises(ValueError):
        ScanRecord(1.0, float("nan"), "bad")


# --------------------------------------------------------------------- oracle


def test_oracle_identity_weight_diagonal():
    A = BandedHermitian(3, 0, (np.array([1.0, 2.0, 3.0]),))
    w, V = oracle_eigensolve(A)
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-12)


def test_oracle_two_by_two_characteristic_polynomial():
    # det(A - lam B) = 4 lam^2 - 10 lam + 3 = 0
    A = BandedHermitian.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
    B = BlockDiagonalPD.from_diagonal([1.0, 4.0])
    w, _ = oracle_eigensolve(A, B)
    roots = np.sort((10.0 + np.array([-1.0, 1.0]) * np.sqrt(52.0)) / 8.0)
    assert np.allclose(w, roots, atol=1e-12)


def test_oracle_discrete_laplacian_spectrum():
    spec = SturmLiouvilleSpec(Coefficient.constant(1.0), Coefficient.constant(0.0),
                              Coefficient.constant(1.0))
    H = build_sl_reduced(spec, GridSpec(20))
    w, _ = oracle_eigensolve(H)
    grid = GridSpec(20)
    exact = (4.0 / grid.dx ** 2) * np.sin(np.arange(1, 21) * np.pi * grid.dx / 2.0) ** 2
    assert np.abs(w - exact).max() <= 1e-10


def test_oracle_matches_direct_hermitian_diagonalization(rng):
    A = BandedHermitian.from_dense(random_hermitian(10, rng))
    w, V = oracle_eigensolve(A)
    w_ref = np.linalg.eigvalsh(A.to_dense())
    assert np.abs(w - w_ref).max() <= 1e-10 * max(np.abs(w_ref).max(), 1.0)


def test_oracle_weighted_normalization():
    A, B = random_generalized_pair(10, 1, 2, seed=4)
    w, V = oracle_eigensolve(A, B)
    Bd = B.to_dense()
    for v in V.T:
        assert np.vdot(v, Bd @ v).real == pytest.approx(1.0, abs=1e-12)


def test_route_agreement_on_spectra():
    A, B = random_generalized_pair(20, 2, 4, seed=9)
    from qpencil.jacobi import eigh_jacobi

    w_sqrt, _ = eigh_jacobi(reduce_sqrt(A, B).hamiltonian.to_dense(), vectors=False)
    w_oracle, _ = oracle_eigensolve(A, B)
    span = w_oracle[-1] - w_oracle[0]
    assert np.abs(w_sqrt - w_oracle).max() <= 1e-10 * span


# ---------------------------------------------------------------------- scans


def test_commutator_scan_constant_potential_vanishes():
    records = scan_commutator_norm(lambda s: np.full_like(s, 2.5), [8, 16, 32])
    assert all(r.observable <= 1e-12 for r in records)


def test_commutator_scan_linear_potential_quadratic_slope():
    sizes = [8, 16, 32, 64, 128]
    records = scan_commutator_norm(lambda s: s, sizes)
    norms = np.array([r.observable for r in records])
    slope = np.polyfit(np.log(np.array(sizes, dtype=float)), np.log(norms), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.15)
    assert norms[-1] / norms[-2] == pytest.approx(4.0, abs=0.4)


@pytest.mark.parametrize("size", [300, 1024])
def test_commutator_scan_matches_eigvalsh_above_256(size):
    v = np.arange(1, size + 1, dtype=float) ** 1.5
    hop = -float((size + 1) ** 2) * np.diff(v)
    C = np.zeros((size, size), dtype=complex)
    idx = np.arange(size - 1)
    C[idx, idx + 1] = 1j * hop
    C[idx + 1, idx] = -1j * hop
    ref = np.abs(np.linalg.eigvalsh(C)).max()
    [record] = scan_commutator_norm(lambda s: s ** 1.5, [size])
    assert record.observable == pytest.approx(ref, rel=1e-12)


def test_trotter_scan_commuting_split_floors():
    n = 8
    diag = BandedHermitian(n, 0, (np.linspace(0.0, 0.5, n),))
    zero = BandedHermitian(n, 1, (np.zeros(n), np.zeros(n - 1)))
    records = scan_trotter_error(diag, zero, 1.0, [1, 2, 4])
    assert all(r.observable <= 1e-12 for r in records)


def test_trotter_scan_first_order_convergence():
    h1, h2 = scaled_split()
    records = scan_trotter_error(h1, h2, 1.0, [8, 16, 32, 64])
    errs = [r.observable for r in records]
    assert errs[-1] / errs[-2] == pytest.approx(0.5, abs=0.1)


def test_trotter_scan_halves_at_any_dimension():
    # n = 15 is not a power of two; the scan evolves the unpadded H on both sides
    h1, h2 = scaled_split(15)
    errs = [r.observable for r in scan_trotter_error(h1, h2, 1.0, [4, 8, 16, 32, 64])]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=0.05)


def test_trotter_scan_time_squared_scaling():
    h1, h2 = scaled_split()
    e1 = scan_trotter_error(h1, h2, 1.0, [32])[0].observable
    e2 = scan_trotter_error(h1, h2, 2.0, [32])[0].observable
    assert e2 / e1 == pytest.approx(4.0, abs=0.8)


def test_trotter_scan_monotone_beyond_four_steps():
    h1, h2 = scaled_split()
    records = scan_trotter_error(h1, h2, 1.0, [4, 8, 16, 32, 64, 128])
    errs = [r.observable for r in records]
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse + 1e-9


def test_sparsity_scan_ratio_and_deviation():
    records = {(-int(r.parameter), r.label): r.observable
               for r in scan_sparsity(1, 4, [256], seed=0)}
    assert records[(-256, "nnz_ratio")] == pytest.approx(0.5, abs=0.05)
    assert records[(-256, "rel_dev_cholesky")] <= 0.05
    assert records[(-256, "rel_dev_sqrt")] <= 0.05


def test_sparsity_scan_diagonal_weight_stays_tridiagonal():
    records = {r.label: r.observable for r in scan_sparsity(1, 1, [32], seed=1)}
    assert records["measured_nnz_cholesky"] == 3 * 32 - 2
    assert records["measured_nnz_sqrt"] == 3 * 32 - 2


def test_sparsity_scan_deviation_shrinks_with_size():
    recs = scan_sparsity(1, 4, [64, 512], seed=2)
    dev = {int(r.parameter): r.observable for r in recs if r.label == "rel_dev_cholesky"}
    assert dev[512] <= 0.05
    assert dev[512] < dev[64]


def test_sparsity_scan_regime_violation():
    with pytest.raises(RegimeViolation):
        scan_sparsity(2, 1, [16], seed=0)


def test_sparsity_scan_reproducible():
    a = scan_sparsity(1, 2, [32], seed=11)
    b = scan_sparsity(1, 2, [32], seed=11)
    assert [(r.parameter, r.observable, r.label) for r in a] == \
           [(r.parameter, r.observable, r.label) for r in b]


# ----------------------------------------------------------------- fill / roots


def test_fill_fraction_identity():
    assert fill_fraction(np.eye(16)) == pytest.approx(1.0 / 16.0)


def test_hermitian_inv_sqrt_against_direct(rng):
    X = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
    M = X @ X.conj().T + 0.5 * np.eye(6)
    S = hermitian_inv_sqrt(M)
    assert np.abs(S @ M @ S - np.eye(6)).max() <= 1e-10


def test_hermitian_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        hermitian_inv_sqrt(np.diag([1.0, -1.0]))


# ------------------------------------------------------------------ the oracle


def test_jacobi_runs_only_in_the_oracle(monkeypatch):
    calls = []
    real = analysis.eigh_jacobi
    monkeypatch.setattr(analysis, "eigh_jacobi",
                        lambda M, *args, **kwargs: calls.append(len(M)) or real(M, *args, **kwargs))
    h1, h2 = scaled_split()
    scan_trotter_error(h1, h2, 1.0, [4, 8])
    scan_commutator_norm(lambda s: s, [8, 300])
    hermitian_inv_sqrt(np.diag([1.0, 2.0, 3.0]))
    assert calls == []
    A, B = random_generalized_pair(12, 1, 3, seed=6)
    oracle_eigensolve(A, B)
    assert calls == [12]
