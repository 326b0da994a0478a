"""Command-line front end: spectra, reductions, phase estimation, and scans.

Every command emits a deterministic document (JSON with a schema_version
field, or CSV with LF line endings).  Floating-point values are written
with 17 significant digits, so identical configurations and seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, discretize, qpe, reduction
from .errors import (
    ConfigInvalid,
    NonPositiveCoefficient,
    ParseError,
    QpencilError,
    RegimeViolation,
)
from .linalg import count_nonzeros, predicted_nnz

SCHEMA_VERSION = 1

_COEFF_KEYS = ("constant", "poly", "samples")


# ---------------------------------------------------------------------------
# problem loading


@dataclass(frozen=True)
class RandomPencilParams:
    """Seeded random-pencil problem: banded A, uniform blocks for B."""

    k: int
    m: int
    size: int
    seed: int

    def __post_init__(self):
        if self.k < 0 or self.m < 1 or self.size < 1 or not 0 <= self.seed < 2 ** 64:
            raise ConfigInvalid(
                "random pencil needs k >= 0, m >= 1, size >= 1 and 0 <= seed < 2**64")


@dataclass(frozen=True)
class RunConfig:
    command: str
    problem: object = None
    reduction_route: str = "sqrt"
    t_bits: int = 6
    shots: int = 0
    seed: int = 0
    evolution: str = "exact"
    trotter_steps: int | None = None
    trial: str = "ground"
    scan_k: int = 1
    scan_m: int = 4
    sizes: tuple = ()
    steps_list: tuple = ()
    time: float = 1.0
    out_format: str = "json"
    out_path: str | None = None


def _number(value, name: str) -> float:
    """A finite JSON number as a float; anything else raises ParseError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ParseError(f"field {name} must be a finite number")


def _integer(value, name: str) -> int:
    """A JSON integer; floats, strings and booleans raise ParseError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {name!r} must be an integer")
    return value


def _parse_coefficient(node, name: str) -> discretize.Coefficient:
    if not isinstance(node, dict) or len(node) != 1:
        raise ParseError(
            f"field {name!r} must be an object with exactly one of {_COEFF_KEYS}")
    key, value = next(iter(node.items()))
    if key == "constant":
        return discretize.Coefficient.constant(_number(value, f"{name}.constant"))
    if key == "poly":
        if not isinstance(value, list) or not value:
            raise ParseError(f"field {name}.poly must be a non-empty list")
        return discretize.Coefficient.polynomial([_number(v, f"{name}.poly") for v in value])
    if key == "samples":
        if not isinstance(value, list) or len(value) < 2:
            raise ParseError(f"field {name}.samples must list at least two values")
        return discretize.Coefficient.from_samples(
            [_number(v, f"{name}.samples") for v in value])
    raise ParseError(f"field {name!r} has unknown coefficient form {key!r}")


def load_problem_spec(path: str, n_override: int | None = None):
    """Load a problem document from disk.

    Returns either ``(SturmLiouvilleSpec, GridSpec)`` for a coefficient
    problem or :class:`RandomPencilParams` for a random-pencil problem.
    Sampled coefficients must carry exactly ``n + 2`` values (one per grid
    node including both boundaries).  Every coefficient value must be a
    finite number, every count a JSON integer, and coefficient positivity
    is validated at every grid point the discretization will touch.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path!r} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal beyond Python's digit limit
        raise ParseError(f"cannot read problem file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")

    if "k" in doc:
        return RandomPencilParams(
            k=_integer(doc["k"], "k"), m=_integer(doc.get("m"), "m"),
            size=_integer(doc.get("size", doc.get("N")), "size"),
            seed=_integer(doc.get("seed", 0), "seed"))

    coeffs = doc.get("coefficients", doc)
    if not isinstance(coeffs, dict):
        raise ParseError("field 'coefficients' must be an object")
    missing = [name for name in ("p", "q", "r") if name not in coeffs]
    if missing:
        raise ParseError(f"missing coefficient fields: {', '.join(missing)}")
    if "n" not in doc and n_override is None:
        raise ParseError("missing field 'n'")
    n = n_override if n_override is not None else _integer(doc["n"], "n")
    if n < 1:
        raise ParseError(f"field 'n' must be at least 1, got {n}")

    parsed = {name: _parse_coefficient(coeffs[name], name) for name in ("p", "q", "r")}
    for name, coeff in parsed.items():
        if coeff.kind == "samples" and coeff.data.size != n + 2:
            raise ParseError(
                f"field {name}.samples length mismatch: expected {n + 2} values "
                f"for n = {n}, got {coeff.data.size}")
    spec = discretize.SturmLiouvilleSpec(parsed["p"], parsed["q"], parsed["r"])
    grid = discretize.GridSpec(n)
    # Positivity at every point the builders will evaluate.
    discretize.require_positive(spec.p(grid.half_nodes), "p", "at the half-grid points")
    discretize.require_positive(spec.r(grid.nodes), "r", "at the grid points")
    return spec, grid


def _problem_matrices(config: RunConfig):
    """Pencil (A, B) plus a JSON-friendly echo of where it came from."""
    problem = config.problem
    if isinstance(problem, RandomPencilParams):
        A, B = analysis.random_generalized_pair(
            problem.size, problem.k, problem.m, problem.seed)
        echo = {"kind": "random_pencil", "k": problem.k, "m": problem.m,
                "size": problem.size, "seed": problem.seed}
        return A, B, echo
    spec, grid = problem
    A, B = discretize.build_sl_generalized(spec, grid)
    echo = {"kind": "sturm_liouville", "n": grid.n}
    return A, B, echo


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(x, ".17g")


def _to_json(value) -> str:
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim in (1, 2):
        # One template for the whole array: "%.17g" formats exactly as
        # _format_float does, and finiteness is checked once.
        if not np.isfinite(value).all():
            raise ValueError("refusing to serialize a non-finite float")
        template = "[" + ",".join(["%.17g"] * value.shape[-1]) + "]"
        if value.ndim == 2:
            template = "[" + ",".join([template] * value.shape[0]) + "]"
        return template % tuple(value.ravel().tolist())
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu" and value.ndim == 1:
        return "[" + ",".join(map(str, value.tolist())) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_to_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    return str(value)


def _to_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _records_doc(command: str, records):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "records": [
            {"parameter": r.parameter, "observable": r.observable, "label": r.label}
            for r in records
        ],
    }


def _records_csv(records):
    return lambda: _to_csv(("parameter", "observable", "label"),
                           [(r.parameter, r.observable, r.label) for r in records])


# ---------------------------------------------------------------------------
# commands
#
# Each command returns its JSON document and a zero-argument function that
# builds the CSV text, so the CSV is only built when it is asked for.


def _cmd_spectrum(config: RunConfig):
    A, B, echo = _problem_matrices(config)
    w, _ = analysis.oracle_eigensolve(A, B)
    doc = {"schema_version": SCHEMA_VERSION, "command": "spectrum",
           "problem": echo, "eigenvalues": list(map(float, w))}
    return doc, lambda: _to_csv(("index", "eigenvalue"), enumerate(map(float, w)))


def _cmd_reduce(config: RunConfig):
    A, B, echo = _problem_matrices(config)
    route = config.reduction_route
    H = reduction.REDUCERS[route](A, B).hamiltonian
    block_sizes = set(B.block_sizes)
    predicted = None
    if len(block_sizes) == 1:
        try:
            predicted = predicted_nnz(route, A.half_bandwidth, B.block_sizes[0], A.size)
        except RegimeViolation:
            predicted = None
    bands = [np.stack([band.real, band.imag], axis=1) for band in H.diagonals]
    doc = {"schema_version": SCHEMA_VERSION, "command": "reduce", "problem": echo,
           "route": route, "size": H.size, "half_bandwidth": H.half_bandwidth,
           "nnz": count_nonzeros(H), "predicted_nnz": predicted,
           "diagonals": bands}
    rows = ((d, i, float(v.real), float(v.imag))
            for d, band in enumerate(H.diagonals) for i, v in enumerate(band))
    return doc, lambda: _to_csv(("offset", "index", "value_re", "value_im"), rows)


def _cmd_qpe(config: RunConfig):
    A, B, echo = _problem_matrices(config)
    route = config.reduction_route
    H = reduction.REDUCERS[route](A, B).hamiltonian
    ss = qpe.gershgorin_shift_scale(H)
    trial = "ground"
    if config.trial == "uniform":
        trial = np.full(H.size, 1.0 / np.sqrt(H.size), dtype=complex)
    result = qpe.run_qpe(H, trial, config.t_bits, ss,
                         evolution=config.evolution,
                         trotter_steps=config.trotter_steps)
    dominant = int(np.argmax(result.distribution))
    samples = []
    if config.shots > 0:
        samples = qpe.sample_outcomes(result, config.shots, config.seed)
    doc = {
        "schema_version": SCHEMA_VERSION, "command": "qpe", "problem": echo,
        "route": route, "t_bits": config.t_bits,
        "evolution": config.evolution, "trotter_steps": config.trotter_steps,
        "shift": ss.shift, "scale": ss.scale, "guard": ss.guard,
        "distribution": result.distribution,
        "dominant_outcome": dominant,
        "dominant_eigenvalue": qpe.outcome_to_eigenvalue(dominant, config.t_bits, ss),
        "shots": config.shots, "seed": config.seed, "samples": samples,
    }
    rows = ((y, float(p), qpe.outcome_to_eigenvalue(y, config.t_bits, ss))
            for y, p in enumerate(result.distribution))
    return doc, lambda: _to_csv(("outcome", "probability", "eigenvalue"), rows)


def _cmd_scan_sparsity(config: RunConfig):
    records = analysis.scan_sparsity(config.scan_k, config.scan_m,
                                     config.sizes, config.seed)
    doc = _records_doc("scan-sparsity", records)
    by_size = {}
    for r in records:
        by_size.setdefault(int(r.parameter), {})[r.label] = r.observable
    header = ("N", "nnz_cholesky", "nnz_sqrt", "predicted_cholesky",
              "predicted_sqrt", "ratio", "rel_dev_cholesky", "rel_dev_sqrt")
    rows = []
    for size in sorted(by_size):
        vals = by_size[size]
        rows.append((size,
                     int(vals["measured_nnz_cholesky"]),
                     int(vals["measured_nnz_sqrt"]),
                     int(vals["predicted_nnz_cholesky"]),
                     int(vals["predicted_nnz_sqrt"]),
                     vals["nnz_ratio"],
                     vals["rel_dev_cholesky"],
                     vals["rel_dev_sqrt"]))
    return doc, lambda: _to_csv(header, rows)


def _default_trotter_problem():
    spec = discretize.SturmLiouvilleSpec(
        discretize.Coefficient.constant(1.0),
        discretize.Coefficient.constant(0.0),
        discretize.Coefficient.polynomial([1.0, 1.0]))
    return spec, discretize.GridSpec(8)


def _cmd_scan_trotter(config: RunConfig):
    spec, grid = config.problem or _default_trotter_problem()
    H = discretize.build_sl_reduced(spec, grid)
    ss = qpe.gershgorin_shift_scale(H)
    h1, h2 = qpe.split_tridiagonal(ss.map_matrix(H))
    records = analysis.scan_trotter_error(h1, h2, config.time, config.steps_list)
    return _records_doc("scan-trotter", records), _records_csv(records)


def _cmd_scan_commutator(config: RunConfig):
    records = analysis.scan_commutator_norm(lambda s: s, config.sizes)
    return _records_doc("scan-commutator", records), _records_csv(records)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "reduce": _cmd_reduce,
    "qpe": _cmd_qpe,
    "scan-sparsity": _cmd_scan_sparsity,
    "scan-trotter": _cmd_scan_trotter,
    "scan-commutator": _cmd_scan_commutator,
}


def run(config: RunConfig) -> tuple:
    """Execute a validated configuration; returns (exit_code, output_text)."""
    doc, build_csv = _COMMANDS[config.command](config)
    if config.out_format == "csv":
        return 0, build_csv()
    return 0, _to_json(doc) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpencil",
        description="Reduce pencil eigenproblems to Hermitian form and "
                    "estimate eigenvalues with simulated phase estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, problem=False, pencil=False):
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output document format")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        if problem:
            p.add_argument("--problem", metavar="PATH",
                           help="problem-spec JSON file")
            p.add_argument("--n", type=int, default=None,
                           help="override the grid size of the problem file")
        if pencil:
            p.add_argument("--k", type=int, default=None,
                           help="half-bandwidth of the random matrix A")
            p.add_argument("--m", type=int, default=None,
                           help="block size of the random matrix B")
            p.add_argument("--size", type=int, default=None,
                           help="dimension of the random pencil")

    p = sub.add_parser("spectrum", help="classical spectrum of a pencil problem")
    add_common(p, problem=True, pencil=True)

    p = sub.add_parser("reduce", help="reduce a pencil to standard Hermitian form")
    add_common(p, problem=True, pencil=True)
    p.add_argument("--reduction", choices=tuple(reduction.REDUCERS), default="sqrt")

    p = sub.add_parser("qpe", help="simulate phase estimation on a reduced problem")
    add_common(p, problem=True, pencil=True)
    p.add_argument("--reduction", choices=tuple(reduction.REDUCERS), default="sqrt")
    p.add_argument("--t-bits", type=int, default=6, help="ancilla register width")
    p.add_argument("--shots", type=int, default=0, help="samples to draw (0 = none)")
    p.add_argument("--evolution", choices=("exact", "trotter"), default="exact")
    p.add_argument("--trotter-steps", type=int, default=None,
                   help="Trotter cycles per unit power (trotter evolution)")
    p.add_argument("--trial", choices=("ground", "uniform"), default="ground",
                   help="trial state: lowest eigenvector of the reduced "
                        "Hamiltonian, or the uniform state")

    p = sub.add_parser("scan-sparsity", help="nonzero counts of both reductions")
    add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--sizes", type=_int_list, default=(64, 128, 256),
                   help="comma-separated problem sizes")

    p = sub.add_parser("scan-trotter", help="Trotter error versus step count")
    add_common(p, problem=True)
    p.add_argument("--time", type=float, default=1.0, help="evolution time")
    p.add_argument("--steps", type=_int_list, default=(4, 8, 16, 32, 64),
                   dest="steps_list", help="comma-separated step counts")

    p = sub.add_parser("scan-commutator", help="splitting commutator norm versus size")
    add_common(p)
    p.add_argument("--sizes", type=_int_list, default=(8, 16, 32, 64, 128))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and shared by later calls."""
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    problem = None
    if getattr(args, "problem", None):
        problem = load_problem_spec(args.problem, getattr(args, "n", None))
        if args.command == "scan-trotter" and isinstance(problem, RandomPencilParams):
            raise ConfigInvalid("scan-trotter needs a Sturm-Liouville problem, "
                                "not a random pencil")
    elif getattr(args, "k", None) is not None and args.command in ("spectrum", "reduce", "qpe"):
        if getattr(args, "size", None) is None or getattr(args, "m", None) is None:
            raise ConfigInvalid("random pencil needs --k, --m, and --size together")
        problem = RandomPencilParams(args.k, args.m, args.size, args.seed)
    elif args.command in ("spectrum", "reduce", "qpe"):
        raise ConfigInvalid(
            f"command {args.command!r} needs --problem or --k/--m/--size")

    t_bits = getattr(args, "t_bits", 6)
    shots = getattr(args, "shots", 0)
    if t_bits < 1:
        raise ConfigInvalid("--t-bits must be at least 1")
    if shots < 0:
        raise ConfigInvalid("--shots must be non-negative")
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigInvalid("--seed must be an unsigned 64-bit integer")
    evolution = getattr(args, "evolution", "exact")
    trotter_steps = getattr(args, "trotter_steps", None)
    if evolution == "trotter" and (trotter_steps is None or trotter_steps < 1):
        raise ConfigInvalid("--evolution trotter requires --trotter-steps >= 1")

    return RunConfig(
        command=args.command,
        problem=problem,
        reduction_route=getattr(args, "reduction", "sqrt"),
        t_bits=t_bits,
        shots=shots,
        seed=args.seed,
        evolution=evolution,
        trotter_steps=trotter_steps,
        trial=getattr(args, "trial", "ground"),
        scan_k=args.k if getattr(args, "k", None) is not None else 1,
        scan_m=args.m if getattr(args, "m", None) is not None else 4,
        sizes=getattr(args, "sizes", ()),
        steps_list=getattr(args, "steps_list", ()),
        time=getattr(args, "time", 1.0),
        out_format=args.format,
        out_path=args.out,
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        # Input errors exit 2 also when only assembly finds them (overflow).
        code, text = run(config)
    except (ConfigInvalid, ParseError, NonPositiveCoefficient) as exc:
        print(f"configuration error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (QpencilError, ValueError) as exc:
        print(f"compute error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
