import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(n, rng, complex_entries=True):
    X = rng.uniform(-1.0, 1.0, (n, n))
    if complex_entries:
        X = X + 1j * rng.uniform(-1.0, 1.0, (n, n))
    return 0.5 * (X + X.conj().T)


def eig2_sym(a, b, c):
    """Closed-form eigendecomposition of [[a, b], [b, c]] (real symmetric).

    Returns (w, V) with w ascending and V columns the eigenvectors.
    """
    tr = a + c
    disc = np.sqrt((a - c) ** 2 + 4.0 * b * b)
    w = np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])
    vecs = []
    for lam in w:
        if abs(b) > 1e-300:
            v = np.array([b, lam - a])
        else:
            v = np.array([1.0, 0.0]) if abs(lam - a) < abs(lam - c) else np.array([0.0, 1.0])
        vecs.append(v / np.linalg.norm(v))
    return w, np.column_stack(vecs)


def cholesky_by_hand(M):
    """Textbook Cholesky recurrence, kept independent of the package."""
    n = M.shape[0]
    L = np.zeros_like(np.asarray(M, dtype=complex))
    for j in range(n):
        s = M[j][j] - sum(abs(L[j, t]) ** 2 for t in range(j))
        L[j, j] = np.sqrt(s.real)
        for i in range(j + 1, n):
            acc = sum(L[i, t] * np.conj(L[j, t]) for t in range(j))
            L[i, j] = (M[i][j] - acc) / L[j, j]
    return L


def qpe_kernel(phi, t_bits):
    """Closed-form phase-estimation outcome distribution for one eigenphase."""
    M = 2 ** t_bits
    ys = np.arange(M)
    delta = phi - ys / M
    out = np.empty(M)
    for i, d in enumerate(delta):
        s = np.sin(np.pi * d)
        if abs(s) < 1e-15:
            out[i] = 1.0
        else:
            out[i] = (np.sin(np.pi * M * d) / (M * s)) ** 2
    return out


def qpe_statevector(phase_matrix, state, t_bits):
    """Phase-estimation distribution by statevector simulation plus an FFT.

    ``phase_matrix`` is a dense Hermitian matrix whose eigenvalues are the
    eigenphases.  Branch ``a`` of the joint state holds
    ``exp(2 pi i a phase_matrix) state`` (from a numpy.linalg
    diagonalization), the inverse Fourier transform acts on the ancilla
    axis, and the system register is traced out.
    """
    w, V = np.linalg.eigh(phase_matrix)
    M = 2 ** t_bits
    kick = np.exp(2j * np.pi * np.outer(np.arange(M), w))
    joint = (kick * (V.conj().T @ state)) @ V.T / np.sqrt(M)
    amps = np.fft.fft(joint, axis=0) / np.sqrt(M)
    return (np.abs(amps) ** 2).sum(axis=1)


def qpe_trotter_statevector(phase_matrix, state, t_bits, steps):
    """Trotter phase-estimation distribution by statevector simulation plus an FFT.

    ``phase_matrix`` is a dense tridiagonal Hermitian matrix.  One cycle is
    ``exp(2 pi i D / steps) exp(2 pi i K / steps)`` for its diagonal part
    ``D`` and hopping part ``K`` (the hopping factor from a numpy.linalg
    diagonalization).  The unit power is ``steps`` repeated cycles, branch
    ``a`` of the joint state holds ``a`` unit powers applied to ``state``,
    the inverse Fourier transform acts on the ancilla axis, and the system
    register is traced out.
    """
    diag = np.diag(phase_matrix).real
    w, V = np.linalg.eigh(phase_matrix - np.diag(diag))
    cycle = np.exp(2j * np.pi * diag / steps)[:, None] * (
        (V * np.exp(2j * np.pi * w / steps)) @ V.conj().T)
    power = np.eye(len(diag), dtype=complex)
    for _ in range(steps):
        power = cycle @ power
    M = 2 ** t_bits
    joint = np.empty((M, len(diag)), dtype=complex)
    joint[0] = state
    for a in range(1, M):
        joint[a] = power @ joint[a - 1]
    amps = np.fft.fft(joint, axis=0) / M
    return (np.abs(amps) ** 2).sum(axis=1)
