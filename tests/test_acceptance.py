"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

import qpencil as qp
from qpencil.jacobi import eigh_jacobi

from conftest import qpe_kernel


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} [{description}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")


UNIT = qp.Coefficient.constant(1.0)
ZERO = qp.Coefficient.constant(0.0)

COMBOS = [(k, m, N) for k in (1, 2) for m in (1, 2, 4) for N in (16, 32, 64)]


@lru_cache(maxsize=1)
def pencil_corpus():
    """The 50 seeded pencils shared by criteria 1 and 11."""
    corpus = []
    for i in range(50):
        k, m, N = COMBOS[i % len(COMBOS)]
        A, B = qp.random_generalized_pair(N, k, m, seed=1000 + i)
        corpus.append((A, B))
    return tuple(corpus)


@lru_cache(maxsize=1)
def corpus_oracles():
    return tuple(qp.oracle_eigensolve(A, B) for A, B in pencil_corpus())


def test_criterion_01_reduction_correctness():
    with criterion(1, "reduction route agreement", 10.0):
        for (A, B), (w_oracle, _) in zip(pencil_corpus(), corpus_oracles()):
            w_sqrt, _ = eigh_jacobi(qp.reduce_sqrt(A, B).hamiltonian.to_dense(),
                                    vectors=False)
            w_chol, _ = eigh_jacobi(qp.reduce_cholesky(A, B).hamiltonian.to_dense(),
                                    vectors=False)
            span = w_oracle[-1] - w_oracle[0]
            assert np.abs(w_sqrt - w_chol).max() <= 1e-10 * span
            assert np.abs(w_sqrt - w_oracle).max() <= 1e-10 * span
            assert np.abs(w_chol - w_oracle).max() <= 1e-10 * span


def test_criterion_02_sparsity_counts():
    with criterion(2, "nonzero counts of both routes", 5.0):
        k, m, N = 1, 4, 256
        A, B = qp.random_generalized_pair(N, k, m, seed=7)
        nnz_chol = qp.count_nonzeros(qp.reduce_cholesky(A, B).hamiltonian)
        nnz_sqrt = qp.count_nonzeros(qp.reduce_sqrt(A, B).hamiltonian)
        assert abs(nnz_chol / nnz_sqrt - 0.5) <= 0.05
        assert abs(nnz_chol - (2 * k + m) * N) <= 0.05 * (2 * k + m) * N
        assert abs(nnz_sqrt - 3 * m * N) <= 0.05 * 3 * m * N


def test_criterion_03_discrete_spectrum_and_convergence():
    with criterion(3, "unit-coefficient spectrum", 2.0):
        spec = qp.SturmLiouvilleSpec(UNIT, ZERO, UNIT)
        grid = qp.GridSpec(31)
        A, B = qp.build_sl_generalized(spec, grid)
        w, _ = qp.oracle_eigensolve(A, B)
        js = np.arange(1, 32)
        exact = (4.0 / grid.dx ** 2) * np.sin(js * np.pi * grid.dx / 2.0) ** 2
        assert np.abs(w - exact).max() <= 1e-10

        errors = []
        for n in (15, 31, 63):
            H = qp.build_sl_reduced(spec, qp.GridSpec(n))
            w_n, _ = eigh_jacobi(H.to_dense(), vectors=False)
            errors.append(np.pi ** 2 - w_n[0])
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(coarse / fine - 4.0) <= 0.4


def test_criterion_04_reduction_consistency_identity():
    with criterion(4, "direct vs reduced assembly", 1.0):
        corpus = [
            qp.SturmLiouvilleSpec(UNIT, ZERO, UNIT),
            qp.SturmLiouvilleSpec(UNIT, ZERO, qp.Coefficient.polynomial([1.0, 1.0])),
            qp.SturmLiouvilleSpec(qp.Coefficient.polynomial([1.0, 0.5]), ZERO, UNIT),
            qp.SturmLiouvilleSpec(UNIT, qp.Coefficient.constant(5.0), UNIT),
            qp.SturmLiouvilleSpec(qp.Coefficient.polynomial([2.0, 0.0, 1.0]),
                                  qp.Coefficient.polynomial([0.0, 1.0]),
                                  qp.Coefficient.polynomial([1.0, 1.0, 1.0])),
            qp.SturmLiouvilleSpec(UNIT, qp.Coefficient.polynomial([-0.5, 1.0]), UNIT),
            qp.SturmLiouvilleSpec(qp.Coefficient.from_samples(np.linspace(1, 3, 15)),
                                  ZERO, UNIT),
            qp.SturmLiouvilleSpec(UNIT, ZERO,
                                  qp.Coefficient.from_samples(
                                      1.0 + np.linspace(0, 1, 15) ** 2)),
            qp.SturmLiouvilleSpec(qp.Coefficient.polynomial([1.0, -0.9]),
                                  qp.Coefficient.constant(2.0),
                                  qp.Coefficient.polynomial([0.5, 0.2])),
            qp.SturmLiouvilleSpec(qp.Coefficient.constant(0.7),
                                  qp.Coefficient.polynomial([1.0, 0.0, -0.8]),
                                  qp.Coefficient.constant(2.5)),
        ]
        grid = qp.GridSpec(13)
        for spec in corpus:
            direct = qp.build_sl_reduced(spec, grid).to_dense()
            A, B = qp.build_sl_generalized(spec, grid)
            reduced = qp.reduce_sqrt(A, B).hamiltonian.to_dense()
            assert np.abs(direct - reduced).max() <= 1e-14 * np.abs(direct).max()


def test_criterion_05_exact_phase_determinism():
    with criterion(5, "exact eigenphase readout", 1.0):
        multiples = np.array([0, 1, 2, 3, 5, 8, 11, 13]) / 16.0
        H = qp.BandedHermitian(8, 0, (multiples,))
        ss = qp.ShiftScale(0.0, 1.0)
        for j, phase in enumerate(multiples):
            res = qp.run_qpe(H, qp.Statevector.basis_state(3, j), 4, ss)
            y = int(phase * 16)
            assert res.distribution[y] >= 1.0 - 1e-9
            lam = qp.outcome_to_eigenvalue(y, 4, ss)
            assert abs(lam - multiples[j]) <= 1e-10


def test_criterion_06_kernel_bound():
    with criterion(6, "non-representable phase kernel", 5.0):
        phi = 1.0 / 3.0
        H = qp.BandedHermitian(2, 0, (np.array([phi, 0.0]),))
        ss = qp.ShiftScale(0.0, 1.0)
        psi = qp.Statevector.basis_state(1, 0)
        for t_bits in range(3, 9):
            res = qp.run_qpe(H, psi, t_bits, ss)
            expected = qpe_kernel(phi, t_bits)
            assert np.abs(res.distribution - expected).max() <= 1e-9
            M = 2 ** t_bits
            nearest = int(np.round(phi * M)) % M
            assert res.distribution[nearest] >= 4.0 / np.pi ** 2 - 1e-6


def test_criterion_07_overlap_law():
    with criterion(7, "outcome masses equal overlaps", 1.0):
        phases = np.array([1, 4, 9, 2, 6, 12, 14, 7]) / 16.0
        H = qp.BandedHermitian(8, 0, (phases,))
        weights = np.array([0.45, 0.35, 0.2])
        amps = np.zeros(8)
        amps[:3] = np.sqrt(weights)
        psi = qp.Statevector(3, amps)
        res = qp.run_qpe(H, psi, 4, qp.ShiftScale(0.0, 1.0))
        for j, w in enumerate(weights):
            y = int(phases[j] * 16)
            assert abs(res.distribution[y] - w) <= 1e-8


def scaled_trotter_split():
    spec = qp.SturmLiouvilleSpec(UNIT, ZERO, qp.Coefficient.polynomial([1.0, 1.0]))
    H = qp.build_sl_reduced(spec, qp.GridSpec(8))
    ss = qp.gershgorin_shift_scale(H)
    return qp.split_tridiagonal(ss.map_matrix(H))


def test_criterion_08_trotter_scalings():
    with criterion(8, "first-order error scalings", 10.0):
        h1, h2 = scaled_trotter_split()
        errs_t1 = [r.observable for r in
                   qp.scan_trotter_error(h1, h2, 1.0, [8, 16, 32, 64])]
        # halving per doubling in the asymptotic regime
        assert abs(errs_t1[-1] / errs_t1[-2] - 0.5) <= 0.05
        errs_t2 = [r.observable for r in qp.scan_trotter_error(h1, h2, 2.0, [64])]
        assert abs(errs_t2[0] / errs_t1[-1] - 4.0) <= 0.8


def test_criterion_09_commutator_norm_scaling():
    with criterion(9, "commutator norm growth", 20.0):
        sizes = [8, 16, 32, 64, 128]
        records = qp.scan_commutator_norm(lambda s: s, sizes)
        norms = np.array([r.observable for r in records])
        slope = np.polyfit(np.log(np.array(sizes, float)), np.log(norms), 1)[0]
        assert abs(slope - 2.0) <= 0.15


def test_criterion_10_mass_matrix_density():
    with criterion(10, "tent vs block mass density", 5.0):
        # structural fill: exact zeros only (the dense inverse square root of
        # the tent mass has none; the block one is confined to its pattern)
        tent = qp.build_fem_mass_tent(UNIT, qp.GridSpec(32))
        tent_fill = qp.fill_fraction(qp.hermitian_inv_sqrt(tent), rel_tol=0.0)
        assert tent_fill > 0.9

        dg = qp.build_fem_mass_dg(UNIT, n_cells=16, order=1)
        inv_sqrt = qp.block_powers(dg, -0.5)[0]
        dense = inv_sqrt.to_dense()
        pattern = np.zeros_like(dense, dtype=bool)
        for start, s in zip(inv_sqrt.block_starts, inv_sqrt.block_sizes):
            pattern[start:start + s, start:start + s] = True
        assert np.abs(dense[~pattern]).max() == 0.0
        expected_fill = pattern.sum() / dense.size
        assert qp.fill_fraction(inv_sqrt, rel_tol=0.0) == pytest.approx(expected_fill)


def test_criterion_11_weighted_orthogonality():
    with criterion(11, "weighted eigenvector orthogonality", 30.0):
        for (A, B), (w, V) in zip(pencil_corpus(), corpus_oracles()):
            span = w[-1] - w[0]
            Bd = B.to_dense()
            BV = Bd @ V
            gram = np.abs(V.conj().T @ BV)
            norms = np.sqrt(np.diag(gram).real)
            normalized = gram / np.outer(norms, norms)
            distinct = np.abs(w[:, None] - w[None, :]) > 1e-8 * span
            off = np.triu(distinct, 1)
            if off.any():
                assert normalized[off].max() <= 1e-10


def test_criterion_12_end_to_end_qpe():
    with criterion(12, "pipeline on a weighted problem", 10.0):
        spec = qp.SturmLiouvilleSpec(UNIT, ZERO, qp.Coefficient.polynomial([1.0, 1.0]))
        grid = qp.GridSpec(7)
        A, B = qp.build_sl_generalized(spec, grid)
        red = qp.reduce_sqrt(A, B)
        H = red.hamiltonian
        ss = qp.gershgorin_shift_scale(H)
        w, V = qp.oracle_eigensolve(A, B)
        trial = qp.forward_transform(V[:, 0], red.transform_witness, red.route)
        res = qp.run_qpe(H, trial, 8, ss, evolution="exact")
        y = int(np.argmax(res.distribution))
        lam_hat = qp.outcome_to_eigenvalue(y, 8, ss)
        assert abs(lam_hat - w[0]) <= 1.0 / (2 ** 8 * ss.scale)
