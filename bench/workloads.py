"""The benchmark's workloads: seeded inputs, one timed op each, and output checks.

Every op is one user-level solve.  Inputs derive only from the benchmark
seed, and the program receives only the generated inputs.  References come
from ``numpy.linalg`` on the dense pencil, assembled here from the problem
definition, never from qpencil's Jacobi solver or its reductions.

A round is the workload's whole op mix: every configuration once, each with
fresh seeded inputs.  Runs are made of whole rounds, so every run measures the
same mix of sizes whatever its seed.  Each mix puts its median among
configurations of nearly equal cost (the n = 63 ops of ``sl-qpe-exact``, whose
cost hardly depends on t_bits): a median that fell between a cheap and an
expensive half of the mix would jump between the two from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np

SHOTS = 1000
#: Entries at or below this share of the largest one are structural zeros
#: (qpencil's documented nonzero convention).
NNZ_RTOL = 1e-12
PROB_SUM_ATOL = 1e-9
CONGRUENCE_RTOL = 1e-9
CONGRUENCE_VECTORS = 3
_COMPLEX_BYTES = 16


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


class CliExit(Exception):
    """``cli.main`` returned a nonzero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(stderr.strip() or f"exit code {code}")
        # The CLI reports "<kind> error: <ExceptionType>: <message>".
        parts = stderr.strip().split(": ", 2)
        self.reported_type = parts[1] if len(parts) == 3 else f"exit{code}"


def failure_origin(exc: BaseException) -> tuple:
    """``(exception type, originating layer)`` of a failed op.

    The layer is the qpencil module of the innermost traceback frame.  A CLI
    failure reaches the benchmark only as an exit code and a stderr line, so
    its layer is the CLI that reported it.
    """
    if isinstance(exc, CliExit):
        return exc.reported_type, "cli"
    if isinstance(exc, CheckFailed):
        return "CheckFailed", "bench"
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("qpencil."):
            layer = module.split(".", 1)[1]
        tb = tb.tb_next
    return type(exc).__name__, layer


def run_cli(cli, argv) -> None:
    """Run one CLI command in-process, looking ``main`` up at call time."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliExit(code, err.getvalue())


# ---------------------------------------------------------------------------
# Sturm-Liouville problems and their numpy reference


def random_sl_coefficients(rng: np.random.Generator) -> dict:
    """Low-degree polynomials, low degree first, with p > 0, q >= 0, r > 0 on [0, 1].

    Every coefficient is non-negative and the constant terms of p and r are
    at least 1, which gives the signs on the whole interval.
    """
    return {
        "p": [1.0 + rng.uniform(), rng.uniform(), rng.uniform()],
        "q": [rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)],
        "r": [1.0 + rng.uniform(), rng.uniform(), rng.uniform()],
    }


def sl_dense_pencil(n: int, coeffs: dict):
    """Dense finite-difference ``A`` and the diagonal of ``B`` for -(p y')' + q y = lam r y."""
    dx = 1.0 / (n + 1)
    nodes = np.arange(1, n + 1) * dx
    half_nodes = (np.arange(n + 1) + 0.5) * dx
    polyval = np.polynomial.polynomial.polyval
    ph = polyval(half_nodes, coeffs["p"])
    A = np.diag((ph[:-1] + ph[1:]) / dx**2 + polyval(nodes, coeffs["q"]))
    off = -ph[1:-1] / dx**2
    A += np.diag(off, 1) + np.diag(off, -1)
    return A, polyval(nodes, coeffs["r"])


def sl_ground(n: int, coeffs: dict):
    """Lowest eigenvalue and its eigenvector ``v`` (``v^T B v = 1``) by numpy.linalg."""
    A, r = sl_dense_pencil(n, coeffs)
    s = 1.0 / np.sqrt(r)
    w, U = np.linalg.eigh(A * np.outer(s, s))
    return float(w[0]), U[:, 0] * s


def check_qpe(distribution, samples, eigenvalue: float, scale: float,
              t_bits: int, reference: float) -> None:
    """Raise :class:`CheckFailed` unless a QPE output matches the reference."""
    M = 2**t_bits
    dist = np.asarray(distribution, dtype=float)
    if dist.shape != (M,):
        raise CheckFailed(f"distribution of shape {dist.shape}, expected ({M},)")
    if (dist < 0.0).any() or abs(float(dist.sum()) - 1.0) > PROB_SUM_ATOL:
        raise CheckFailed(f"distribution sums to {float(dist.sum())!r}")
    drawn = np.asarray(samples)
    if drawn.shape != (SHOTS,) or drawn.min() < 0 or drawn.max() >= M:
        raise CheckFailed(f"{drawn.size} samples, range [{drawn.min()}, {drawn.max()}]")
    step = 1.0 / (M * scale)
    if not abs(eigenvalue - reference) <= step:
        raise CheckFailed(
            f"dominant eigenvalue {eigenvalue!r} lies {abs(eigenvalue - reference) / step:.3g} "
            f"resolution steps from the reference {reference!r}")


def register_dim(n: int) -> int:
    """Dimension of the smallest register of at least one qubit holding ``n`` states."""
    return 2 ** max(1, (n - 1).bit_length())


def _qpe_working_set(n: int, t_bits: int) -> dict:
    dim = register_dim(n)
    return {"input_bytes": _COMPLEX_BYTES * (3 * n - 1),
            "dense_operator_bytes": _COMPLEX_BYTES * dim * dim,
            "readout_array_bytes": _COMPLEX_BYTES * 2**t_bits * dim}


class ExactCliOp:
    """CLI ``qpe`` on a seeded Sturm-Liouville problem file, exact evolution."""

    def __init__(self, config, rng, tmp, qp):
        self.config = tuple(config)
        self.n, self.t_bits, self.route = config
        self.m = 1
        coeffs = random_sl_coefficients(rng)
        self.reference, _ = sl_ground(self.n, coeffs)
        problem = tmp / "problem.json"
        problem.write_text(json.dumps(
            {"n": self.n, **{name: {"poly": c} for name, c in coeffs.items()}}))
        self.out_path = tmp / "qpe.json"
        self.argv = ["qpe", "--problem", str(problem), "--reduction", self.route,
                     "--t-bits", str(self.t_bits), "--shots", str(SHOTS),
                     "--seed", str(int(rng.integers(2**63))), "--trial", "ground",
                     "--out", str(self.out_path)]

    def run(self, qp):
        run_cli(qp.cli, self.argv)

    def check(self, _output) -> None:
        doc = json.loads(self.out_path.read_text())
        if doc["dominant_outcome"] != int(np.argmax(doc["distribution"])):
            raise CheckFailed("dominant_outcome is not the distribution's argmax")
        check_qpe(doc["distribution"], doc["samples"], doc["dominant_eigenvalue"],
                  doc["scale"], self.t_bits, self.reference)

    @staticmethod
    def working_set(config) -> dict:
        return _qpe_working_set(config[0], config[1])


class TrotterOp:
    """The README's library pipeline with Trotter evolution; B diagonal, so H is tridiagonal."""

    out_path = None

    def __init__(self, config, rng, tmp, qp):
        self.config = tuple(config)
        self.n, self.t_bits, self.steps = config
        self.m = 1
        coeffs = random_sl_coefficients(rng)
        self.reference, self.ground = sl_ground(self.n, coeffs)
        self.spec = qp.SturmLiouvilleSpec(
            *(qp.Coefficient.polynomial(coeffs[name]) for name in ("p", "q", "r")))
        self.grid = qp.GridSpec(self.n)
        self.sample_seed = int(rng.integers(2**63))

    def run(self, qp):
        A, B = qp.build_sl_generalized(self.spec, self.grid)
        red = qp.reduce_sqrt(A, B)
        ss = qp.gershgorin_shift_scale(red.hamiltonian)
        trial = qp.forward_transform(self.ground, red.transform_witness, red.route)
        result = qp.run_qpe(red.hamiltonian, trial, self.t_bits, ss,
                            evolution="trotter", trotter_steps=self.steps)
        samples = qp.sample_outcomes(result, SHOTS, self.sample_seed)
        y = int(np.argmax(result.distribution))
        return (result.distribution, samples,
                qp.outcome_to_eigenvalue(y, self.t_bits, ss), ss.scale)

    def check(self, output) -> None:
        distribution, samples, eigenvalue, scale = output
        check_qpe(distribution, samples, eigenvalue, scale, self.t_bits, self.reference)

    @staticmethod
    def working_set(config) -> dict:
        return _qpe_working_set(config[0], config[1])


# ---------------------------------------------------------------------------
# random pencils and the congruence check


def random_pencil(size: int, k: int, m: int, seed: int):
    """The seeded random pencil the CLI builds for ``--k --m --size --seed``.

    Returns the bands of ``A`` (diagonal first) and B's ``(size // m, m, m)``
    block stack, drawn in the program's documented order from
    ``PCG64(SeedSequence([seed, size, k, m]))``.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, size, k, m])))
    bands = [rng.uniform(-1.0, 1.0, size).astype(complex)]
    for d in range(1, k + 1):
        bands.append(rng.uniform(-1.0, 1.0, size - d) + 1j * rng.uniform(-1.0, 1.0, size - d))
    draws = rng.uniform(-1.0, 1.0, (size // m, 2, m, m))
    G = draws[:, 0] + 1j * draws[:, 1]
    blocks = G @ G.conj().transpose(0, 2, 1) + 0.1 * np.eye(m)
    return bands, blocks


def band_matvec(bands, x: np.ndarray) -> np.ndarray:
    """``M x`` for Hermitian ``M`` stored by its diagonal and upper bands."""
    y = bands[0][:, None] * x
    for d in range(1, len(bands)):
        y[:-d] += bands[d][:, None] * x[d:]
        y[d:] += np.conj(bands[d])[:, None] * x[:-d]
    return y


def _block_apply(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    nb, m, _ = blocks.shape
    return (blocks @ x.reshape(nb, m, -1)).reshape(x.shape)


def check_congruence(bands, blocks: np.ndarray, route: str, emitted,
                     rng: np.random.Generator) -> None:
    """Check emitted bands ``H`` against ``T^{-1} A T^{-H}`` on seeded vectors.

    ``T`` is ``B^{1/2}`` on the square-root route and the Cholesky factor
    ``L`` on the Cholesky route, both from batched numpy.linalg on B's blocks.
    """
    size, m = blocks.shape[0] * blocks.shape[1], blocks.shape[1]
    x = rng.standard_normal((size, CONGRUENCE_VECTORS)) \
        + 1j * rng.standard_normal((size, CONGRUENCE_VECTORS))
    if route == "sqrt":
        w, V = np.linalg.eigh(blocks)
        inv_root = (V / np.sqrt(w)[:, None, :]) @ V.conj().transpose(0, 2, 1)
        reference = _block_apply(inv_root, band_matvec(bands, _block_apply(inv_root, x)))
    else:
        L = np.linalg.cholesky(blocks)
        y = np.linalg.solve(L.conj().transpose(0, 2, 1), x.reshape(-1, m, CONGRUENCE_VECTORS))
        z = band_matvec(bands, y.reshape(x.shape)).reshape(-1, m, CONGRUENCE_VECTORS)
        reference = np.linalg.solve(L, z).reshape(x.shape)
    err = np.linalg.norm(band_matvec(emitted, x) - reference) / np.linalg.norm(reference)
    if not err <= CONGRUENCE_RTOL:
        raise CheckFailed(f"congruence residual {err:.3e} exceeds {CONGRUENCE_RTOL:g}")


def count_band_nonzeros(bands) -> int:
    """Nonzeros of the full Hermitian matrix: the diagonal once, each upper band twice."""
    scale = max(float(np.abs(b).max(initial=0.0)) for b in bands)
    thr = NNZ_RTOL * scale
    return int((np.abs(bands[0]) > thr).sum()) + sum(
        2 * int((np.abs(b) > thr).sum()) for b in bands[1:])


class ReduceCliOp:
    """CLI ``reduce`` of a seeded random pencil, JSON output."""

    def __init__(self, config, rng, tmp, qp):
        self.config = tuple(config)
        self.k, self.m, self.n, self.route = config
        self.pencil_seed = int(rng.integers(2**63))
        self.check_seed = int(rng.integers(2**63))
        self.out_path = tmp / "reduce.json"
        self.argv = ["reduce", "--k", str(self.k), "--m", str(self.m),
                     "--size", str(self.n), "--seed", str(self.pencil_seed),
                     "--reduction", self.route, "--out", str(self.out_path)]

    def run(self, qp):
        run_cli(qp.cli, self.argv)

    def check(self, _output) -> None:
        doc = json.loads(self.out_path.read_text())
        emitted = [pairs[:, 0] + 1j * pairs[:, 1]
                   for pairs in (np.asarray(band, dtype=float).reshape(-1, 2)
                                 for band in doc["diagonals"])]
        if doc["size"] != self.n or len(emitted) != doc["half_bandwidth"] + 1:
            raise CheckFailed("emitted band shape disagrees with size and half_bandwidth")
        recount = count_band_nonzeros(emitted)
        if doc["nnz"] != recount:
            raise CheckFailed(f"reported nnz {doc['nnz']} but the bands hold {recount}")
        bands, blocks = random_pencil(self.n, self.k, self.m, self.pencil_seed)
        check_congruence(bands, blocks, self.route, emitted,
                         np.random.default_rng(self.check_seed))

    @staticmethod
    def working_set(config) -> dict:
        k, m, n, _ = config
        return {"input_bytes": _COMPLEX_BYTES * ((k + 1) * n + m * n),
                "output_band_bytes": _COMPLEX_BYTES * (k + 2 * m - 1) * n}


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple
    op_type: type

    @property
    def tag(self) -> int:
        return WORKLOADS.index(self)

    def make_op(self, seed: int, round_index: int, config_index: int, tmp, qp):
        """Op for one config of one round; round ``-1`` is the untimed warm-up op."""
        rng = np.random.default_rng([seed, self.tag, round_index + 1, config_index])
        return self.op_type(self.configs[config_index], rng, tmp, qp)

    def round_order(self, round_index: int) -> list:
        """Config order of a round: shuffled, but the same for every seed.

        Peak memory depends on the allocator's history, so every seed runs
        the same sequence of sizes.
        """
        rng = np.random.default_rng([self.tag, round_index])
        return [int(i) for i in rng.permutation(len(self.configs))]


WORKLOADS = (
    Workload(
        "sl-qpe-exact",
        "CLI qpe with exact evolution on Sturm-Liouville files: the dense spectral "
        "path, where two Jacobi solves per op dominate and readout arrays set peak memory.",
        tuple((n, t, route) for n in (31, 63, 127) for t in (8, 12)
              for route in ("sqrt", "cholesky")),
        ExactCliOp),
    Workload(
        "sl-qpe-trotter",
        "Library pipeline with Trotter evolution: M*steps cycle applications per op; "
        "the known norm drift shows here as failed ops.",
        tuple((n, t, s) for n in (31, 63, 127) for t in (8, 10, 12) for s in (4, 8, 16)),
        TrotterOp),
    Workload(
        "pencil-reduce",
        "CLI reduce of random banded pencils with block-diagonal B: block and band "
        "layers plus JSON serialization, no QPE.",
        tuple((k, m, n, route) for k, m in ((1, 4), (2, 2), (3, 8)) for n in (512, 768, 1024)
              for route in ("sqrt", "cholesky")),
        ReduceCliOp),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = (
    ("jacobi.self_s, jacobi.dense_calls, jacobi.max_dim",
     "op_s.p50 and ops_per_s on sl-qpe-exact; about a quarter of op time on "
     "sl-qpe-trotter (the V2 decomposition)"),
    ("jacobi.block_calls", "op_s.p50 on pencil-reduce"),
    ("qpe.self_s, qpe.readout_bytes",
     "op_s and peak_rss_mb on sl-qpe-exact at t_bits = 12; qpe.self_s also op_s "
     "on sl-qpe-trotter"),
    ("qpe.trotter_cycles, qpe.failed", "op_s and failed_frac on sl-qpe-trotter"),
    ("reduction.self_s, linalg.self_s, linalg.blocks, reduction.nnz_over_pred",
     "op_s.p50 on pencil-reduce; near zero on the two QPE workloads"),
    ("cli.self_s, cli.out_bytes", "op_s on pencil-reduce; small on sl-qpe-exact"),
    ("analysis.self_s, discretize.self_s",
     "small everywhere; measured so that no cost goes unaccounted"),
)
