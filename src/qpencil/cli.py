"""Command-line front end: spectra, reductions, phase estimation, and scans.

Every command emits a deterministic document (JSON with a schema_version
field, or CSV with LF line endings).  Floating-point values are written
with 17 significant digits, so identical configurations and seeds produce
byte-identical output on one host with one BLAS thread count; LAPACK
results can differ in their last bits between thread counts.

``"%.17g" % value`` defines the text of every float.  Scalars and CSV
columns go through that template; 1-D and 2-D float arrays in JSON go
through a numpy kernel (``_float_array_json``) that computes the same
17 digits exactly and hands every value whose rounding it cannot prove
(ties, near-ties, magnitudes outside [1e-280, 1e280]) to the template.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
        if not 0 <= self.k < self.size or self.m < 1 or not 0 <= self.seed < 2 ** 64:
            raise ConfigInvalid(
                "random pencil needs 0 <= k < size, m >= 1 and 0 <= seed < 2**64")


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


def _problem(args: argparse.Namespace):
    """The problem a command runs on, or None if it takes none or has its own.

    It comes from ``--problem`` or, for the pencil commands, from
    ``--k``/``--m``/``--size``.  Conflicting sources raise ConfigInvalid
    rather than one of them being ignored.
    """
    if "problem" not in args:
        return None
    if args.problem and "size" in args and (args.k, args.m, args.size) != (None,) * 3:
        raise ConfigInvalid("--problem cannot be combined with --k, --m or --size")
    if args.problem:
        problem = load_problem_spec(args.problem, args.n)
    elif args.command == "scan-trotter":
        problem = None
    elif args.k is None:
        raise ConfigInvalid(f"command {args.command!r} needs --problem or --k/--m/--size")
    elif args.size is None or args.m is None:
        raise ConfigInvalid("random pencil needs --k, --m, and --size together")
    else:
        problem = RandomPencilParams(args.k, args.m, args.size, args.seed)
    if args.command == "scan-trotter" and isinstance(problem, RandomPencilParams):
        raise ConfigInvalid("scan-trotter needs a Sturm-Liouville problem, "
                            "not a random pencil")
    if args.n is not None and (problem is None or isinstance(problem, RandomPencilParams)):
        raise ConfigInvalid("--n sets the grid of a coefficient problem from --problem")
    return problem


def _problem_matrices(problem):
    """Pencil (A, B) plus a JSON-friendly echo of where it came from."""
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


def _float_field(values) -> str:
    """The ``%`` field for floats, once ``values`` (one or many) are checked finite.

    ``"%.17g"`` writes 17 significant digits, enough to round-trip a double.
    """
    if not np.isfinite(values).all():
        raise ValueError("refusing to serialize a non-finite float")
    return "%.17g"


# Float arrays in JSON.  ``_float_array_json`` writes the bytes that
# ``"%.17g" % v`` writes for every entry, computed by numpy a block at a time.
#
# Digits.  With ``E = floor(log10|x|)``, ``y = |x| 10**(16 - E)`` lies in
# [10**16, 10**17) and ``round(y)`` is the 17-digit significand that ``%.17g``
# prints (CPython rounds correctly, ties to even).  ``y`` is formed as
# ``p + err``: Dekker's product (Numer. Math. 18, 1971) gives ``|x| hi = p + e``
# exactly, with the operands split at 2**27 + 1 since numpy has no fused
# multiply-add, and ``err = e + |x| lo`` adds the tail of ``10**s = hi + lo``.
# Table and rounding errors add up to below 1e-14 (the largest seen over
# 20000 magnitudes against exact rationals was 1.6e-15), so ``E`` moves by one
# wherever ``p + err`` leaves [10**16, 10**17), and rounding ``y`` by the
# fractional part of ``err`` is exact wherever that part is at least 1e-9 away
# from 1/2.  Ties and near-ties (every odd j / 2**17 in [1, 10) is one),
# magnitudes outside [1e-280, 1e280], where the split could underflow, and
# the rare significands that round up to 10**17 are written by the ``%``
# field itself.
#
# Text.  The 17 digits go to ASCII by multiply-shift-mask steps on eight
# digits per uint64, and ``%g``'s layout (fixed notation for exponents in
# [-4, 17), else scientific with at least two exponent digits; trailing zeros
# and a bare point dropped) is one gather: every value has a 32-byte source
# row, and its case (sign, exponent, significant digits) selects the columns
# to copy, padded with NUL bytes that are deleted at the end.  The uint64
# arithmetic uses np.uint64 operands, which promote alike under numpy's
# legacy and NEP 50 casting rules.

_SPLIT = 134217729.0  # 2**27 + 1


def _pow10_table():
    """``10**s = hi + lo`` for s in [-300, 300], by exact integer arithmetic.

    Returns ``hi`` (10**s rounded), ``lo`` (the remainder rounded) and the
    two halves of ``hi`` for Dekker's product, each indexed by ``s + 300``.
    """
    hi, lo = [], []
    for s in range(-300, 301):
        power = 10 ** abs(s)
        if s >= 0:
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    c = hi * _SPLIT
    top = c - (c - hi)
    return hi, np.array(lo), top, hi - top


_POW10 = _pow10_table()

# Source row: digits 1-8 (bytes 0-7), 10-17 (8-15) and 9 (16), then the
# columns below; "[" at _PRE opens a row of a 2-D array, _POST holds the
# separator after the value and _SIGN a "-" for negative values.  A fallback
# row holds its whole text in bytes 0-23.
_MINUS, _E, _PLUS, _EXP, _POINT, _ZERO, _POST, _PRE, _SIGN, _NUL = (
    17, 18, 19, 20, 23, 24, 25, 27, 28, 29)
_DIGIT = (None, *range(8), 16, *range(8, 16))  # column of digit k
_OPEN, _CLOSE, _NEXT = ord("["), ord("]"), ord(",")
_ASCII_ZEROS = np.uint64(0x3030303030303030)


def _text_columns(X, L, sci, expneg, wide):
    """Source columns of a nonzero value's text, without its sign."""
    digits = [_DIGIT[k] for k in range(1, L + 1)]
    if sci:
        exponent = [_E, _MINUS if expneg else _PLUS] + [_EXP, _EXP + 1, _EXP + 2][1 - wide:]
        return digits[:1] + ([_POINT] + digits[1:] if L > 1 else []) + exponent
    if X < 0:
        return [_ZERO, _POINT] + [_ZERO] * (-X - 1) + digits
    whole = [_DIGIT[k] for k in range(1, X + 2)]
    return whole + ([_POINT] + digits[X + 1:] if L > X + 1 else [])


def _layouts():
    """Gather columns per case, and the case of each exponent at 17 digits.

    Case ``(X + 4) * 17 + L - 1`` is fixed notation with exponent X and L
    significant digits, ``357 + (2 * (X < 0) + (|X| >= 100)) * 17 + L - 1``
    scientific, 425 zero and 426 a fallback row's text.
    """
    texts = [_text_columns(X, L, False, False, False) for X in range(-4, 17) for L in range(1, 18)]
    texts += [_text_columns(None, L, True, expneg, wide)
              for expneg in (False, True) for wide in (False, True) for L in range(1, 18)]
    texts.append([_ZERO])
    rows = [[_PRE, _SIGN] + t + [_POST, _POST + 1] for t in texts]
    rows.append([_PRE] + list(range(24)) + [_POST, _POST + 1])
    width = max(map(len, rows))
    layout = np.array([r + [_NUL] * (width - len(r)) for r in rows], dtype=np.int32)
    case17 = np.array([(X + 4) * 17 + 16 if -4 <= X < 17 else
                       357 + (2 * (X < 0) + (abs(X) >= 100)) * 17 + 16 for X in range(-300, 301)])
    return layout, case17


_LAYOUT, _CASE17 = _layouts()
_ZERO_CASE, _FALLBACK_CASE = len(_LAYOUT) - 2, len(_LAYOUT) - 1
# Bytes 16-23 of a source row (digit 9 as 0, "-e+", exponent digits, "."), by |exponent|;
# bytes 24-31 ("0", separator ","), and the sign of a negative value.
_EXP_WORD = np.array([int.from_bytes(b"0-e+%03d." % e, "little") for e in range(301)],
                     dtype=np.uint64)
_TAIL_WORD = np.uint64(int.from_bytes(b"0,", "little"))
_SIGN_WORD = np.uint64(ord("-") << 8 * (_SIGN - 24))
# Values per block: the gather index of a block (27 int32 per value, widened
# to intp by the gather) stays near 0.5 MB.
_BLOCK = 2048


def _scaled(a, E):
    """``a * 10**(16 - E)`` as ``p + err``: ``p`` the rounded product, ``err`` the rest."""
    hi, lo, hi_top, hi_bottom = (t[316 - E] for t in _POW10)
    p = a * hi
    c = a * _SPLIT
    top = c - (c - a)
    bottom = a - top
    err = ((top * hi_top - p) + top * hi_bottom + bottom * hi_top) + bottom * hi_bottom
    err += a * lo
    return p, err


def _digits8(v):
    """The eight decimal digits of each ``v < 10**8`` as bytes 0-9, most significant first."""
    U = np.uint64
    q = (v * U(109951163)) >> U(40)  # v // 10**4
    v = q | ((v - q * U(10 ** 4)) << U(32))
    q = ((v * U(10486)) >> U(20)) & U(0x0000007F0000007F)  # // 100 per 32-bit lane
    v = q | ((v - q * U(100)) << U(16))
    q = ((v * U(103)) >> U(10)) & U(0x000F000F000F000F)  # // 10 per 16-bit lane
    return q | ((v - q * U(10)) << U(8))


def _format_block(x, fmt, start, cols, size):
    """The text of ``x``, entries ``start`` on of a flattened array of ``size``.

    ``cols`` is the row length of a 2-D array, whose rows get brackets, or
    None for a 1-D one.
    """
    n = x.size
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.intp)
    p, err = _scaled(a, E)
    low = (p - 1e16) + err < 0
    high = (p - 1e17) + err >= 0
    fix = np.flatnonzero(low | high)
    if fix.size:
        E[fix] += high[fix].astype(np.intp) - low[fix]
        p[fix], err[fix] = _scaled(a[fix], E[fix])
    whole = np.floor(err)
    frac = err - whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) >= 1e-9) & (D >= 10 ** 16) & (D < 10 ** 17)  # no carry

    D = D.astype(np.uint64)
    top = D // np.uint64(10 ** 9)
    digit9 = D // np.uint64(10 ** 8) - top * np.uint64(10)
    words = np.empty((n, 2), np.uint64)
    words[:, 0] = top
    words[:, 1] = D % np.uint64(10 ** 8)
    words = _digits8(words)
    case = _CASE17[E + 300]
    short = np.flatnonzero((words[:, 1] < np.uint64(1 << 56)) & ok)  # digit 17 is 0
    if short.size:  # significant digits from the highest nonzero byte of each word
        used = (np.frexp(words[short].astype(float))[1] + 7) // 8
        case[short] -= 17 - np.where((used[:, 1] > 0) | (digit9[short] > 0),
                                      9 + used[:, 1], used[:, 0])
    case[x == 0] = _ZERO_CASE

    src = np.empty((n, 4), np.uint64)
    src[:, :2] = words + _ASCII_ZEROS
    src[:, 2] = _EXP_WORD[np.abs(E)] + digit9
    src[:, 3] = _TAIL_WORD + np.signbit(x) * _SIGN_WORD
    row = src.view(np.uint8)
    if cols is not None:
        row[-start % cols::cols, _PRE] = _OPEN
        row[(cols - 1 - start) % cols::cols, _POST:_POST + 2] = (_CLOSE, _NEXT)
    if start + n == size:
        row[-1, _POST:_POST + 2] = (_CLOSE, _CLOSE if cols is not None else 0)
    fallback = np.flatnonzero(~ok & (x != 0))
    if fallback.size:
        text = np.array([fmt % v for v in x[fallback].tolist()], dtype="S24")
        row[fallback, :24] = text.view(np.uint8).reshape(-1, 24)
        case[fallback] = _FALLBACK_CASE
    index = _LAYOUT[case]
    index += (np.arange(n, dtype=np.int32) * 32)[:, None]
    return row.ravel().take(index).tobytes().translate(None, b"\0").decode("ascii")


def _float_array_json(value) -> str:
    """A 1-D or 2-D float array as JSON, each entry as ``"%.17g" % entry`` writes it."""
    fmt = _float_field(value)
    x = np.ascontiguousarray(value, dtype=np.float64).ravel()
    cols = value.shape[1] if value.ndim == 2 else None
    if x.size == 0:
        return "[" + ",".join(["[]"] * value.shape[0] if cols is not None else []) + "]"
    return "[" + "".join([_format_block(x[start:start + _BLOCK], fmt, start, cols, x.size)
                          for start in range(0, x.size, _BLOCK)])


def _to_json(value) -> str:
    """Compact JSON text of ``value``, every float as ``"%.17g"`` writes it.

    Float scalars go through that template.  1-D and 2-D float arrays go
    through ``_float_array_json``, which writes the same bytes: it computes
    each value's 17 digits with an error below 1e-14 (1.6e-15 measured),
    rounds them itself only where the discarded fraction is at least 1e-9
    from one half, and passes ties, near-ties and magnitudes outside
    [1e-280, 1e280] to the template.  Arrays and scalars are checked finite
    first; NaN and infinities raise ``ValueError``.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim in (1, 2):
        return _float_array_json(value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu" and value.ndim == 1:
        return "[" + ",".join(map(str, value.tolist())) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_field(value) % value
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_to_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _to_csv(header, *columns) -> str:
    """The header row, then row ``i`` from entry ``i`` of every column.

    As in ``_to_json``, each float column is checked for finite values once
    and the whole text is one template, so no copy is made after formatting;
    entries of other columns go through ``str``.
    """
    columns = [np.asarray(column) for column in columns]
    row = ",".join(_float_field(c) if c.dtype.kind == "f" else "%s" for c in columns)
    template = ",".join(header) + "\n" + (row + "\n") * len(columns[0])
    return template % tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))


def _records(command: str, records):
    """A scan's JSON document and CSV builder: one entry per record."""
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "records": [{"parameter": r.parameter, "observable": r.observable,
                        "label": r.label} for r in records]}
    return doc, lambda: _to_csv(("parameter", "observable", "label"),
                                [r.parameter for r in records],
                                [r.observable for r in records],
                                [r.label for r in records])


# ---------------------------------------------------------------------------
# commands
#
# Each command takes the parsed arguments and the problem from _problem, and
# returns its JSON document and a zero-argument function that builds the CSV
# text, so the CSV is only built when it is asked for.


def _cmd_spectrum(args, problem):
    A, B, echo = _problem_matrices(problem)
    w, _ = analysis.oracle_eigensolve(A, B)
    doc = {"schema_version": SCHEMA_VERSION, "command": "spectrum",
           "problem": echo, "eigenvalues": w}
    return doc, lambda: _to_csv(("index", "eigenvalue"), np.arange(w.size), w)


def _cmd_reduce(args, problem):
    A, B, echo = _problem_matrices(problem)
    H = reduction.REDUCERS[args.reduction](A, B).hamiltonian
    predicted = None
    if len(set(B.block_sizes)) == 1:
        try:
            predicted = predicted_nnz(args.reduction, A.half_bandwidth, B.block_sizes[0], A.size)
        except RegimeViolation:
            pass
    bands = [np.stack([band.real, band.imag], axis=1) for band in H.diagonals]
    doc = {"schema_version": SCHEMA_VERSION, "command": "reduce", "problem": echo,
           "route": args.reduction, "size": H.size, "half_bandwidth": H.half_bandwidth,
           "nnz": count_nonzeros(H), "predicted_nnz": predicted,
           "diagonals": bands}
    return doc, lambda: _to_csv(("offset", "index", "value_re", "value_im"),
                                np.repeat(np.arange(len(bands)), [len(b) for b in bands]),
                                np.concatenate([np.arange(len(b)) for b in bands]),
                                *np.concatenate(bands).T)


def _cmd_qpe(args, problem):
    if args.t_bits < 1:
        raise ConfigInvalid("--t-bits must be at least 1")
    if args.shots < 0:
        raise ConfigInvalid("--shots must be non-negative")
    if args.shots > qpe._MAX_SHOTS:
        raise ConfigInvalid(f"--shots is capped at {qpe._MAX_SHOTS}, got {args.shots}")
    if args.evolution == "trotter" and (args.trotter_steps is None or args.trotter_steps < 1):
        raise ConfigInvalid("--evolution trotter requires --trotter-steps >= 1")
    A, B, echo = _problem_matrices(problem)
    H = reduction.REDUCERS[args.reduction](A, B).hamiltonian
    ss = qpe.gershgorin_shift_scale(H)
    trial = args.trial  # run_qpe takes "ground" as it is
    if trial == "uniform":
        trial = np.full(H.size, 1.0 / np.sqrt(H.size), dtype=complex)
    result = qpe.run_qpe(H, trial, args.t_bits, ss, evolution=args.evolution,
                         trotter_steps=args.trotter_steps)
    dominant = int(np.argmax(result.distribution))
    samples = []
    if args.shots > 0:
        samples = qpe.sample_outcomes(result, args.shots, args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION, "command": "qpe", "problem": echo,
        "route": args.reduction, "t_bits": args.t_bits,
        "evolution": args.evolution, "trotter_steps": args.trotter_steps,
        "shift": ss.shift, "scale": ss.scale, "guard": ss.guard,
        "distribution": result.distribution,
        "dominant_outcome": dominant,
        "dominant_eigenvalue": qpe.outcome_to_eigenvalue(dominant, args.t_bits, ss),
        "shots": args.shots, "seed": args.seed, "samples": samples,
    }
    # y / 2**t is exact, so the column equals outcome_to_eigenvalue entry by entry.
    outcomes = np.arange(result.distribution.size)
    return doc, lambda: _to_csv(("outcome", "probability", "eigenvalue"), outcomes,
                                result.distribution,
                                ss.eigenvalue(outcomes / 2 ** args.t_bits))


def _cmd_scan_sparsity(args, problem):
    if args.k < 0 or args.m < 1:
        raise ConfigInvalid("scan-sparsity needs --k >= 0 and --m >= 1")
    for size in args.sizes:
        if size < 1 or size % args.m or size <= args.k:
            raise ConfigInvalid(f"--sizes must be positive multiples of --m {args.m} "
                                f"above --k {args.k}, got {size}")
    records = analysis.scan_sparsity(args.k, args.m, args.sizes, args.seed)
    doc, _ = _records("scan-sparsity", records)
    by_size = {}
    for r in records:
        by_size.setdefault(int(r.parameter), {})[r.label] = r.observable
    sizes = sorted(by_size)
    labels = ("measured_nnz_cholesky", "measured_nnz_sqrt", "predicted_nnz_cholesky",
              "predicted_nnz_sqrt", "nnz_ratio", "rel_dev_cholesky", "rel_dev_sqrt")
    table = np.array([[by_size[size][label] for size in sizes] for label in labels])
    header = ("N", "nnz_cholesky", "nnz_sqrt", "predicted_cholesky",
              "predicted_sqrt", "ratio", "rel_dev_cholesky", "rel_dev_sqrt")
    return doc, lambda: _to_csv(header, sizes, *table[:4].astype(np.int64), *table[4:])


def _default_trotter_problem():
    spec = discretize.SturmLiouvilleSpec(
        discretize.Coefficient.constant(1.0),
        discretize.Coefficient.constant(0.0),
        discretize.Coefficient.polynomial([1.0, 1.0]))
    return spec, discretize.GridSpec(8)


def _cmd_scan_trotter(args, problem):
    if min(args.steps_list) < 1:
        raise ConfigInvalid("--steps must be at least 1")
    if not math.isfinite(args.time):
        raise ConfigInvalid("--time must be finite")
    spec, grid = problem or _default_trotter_problem()
    H = discretize.build_sl_reduced(spec, grid)
    ss = qpe.gershgorin_shift_scale(H)
    h1, h2 = qpe.split_tridiagonal(ss.map_matrix(H))
    records = analysis.scan_trotter_error(h1, h2, args.time, args.steps_list)
    return _records("scan-trotter", records)


def _cmd_scan_commutator(args, problem):
    if min(args.sizes) < 2:
        raise ConfigInvalid("--sizes must be at least 2")
    records = analysis.scan_commutator_norm(lambda s: s, args.sizes)
    return _records("scan-commutator", records)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "reduce": _cmd_reduce,
    "qpe": _cmd_qpe,
    "scan-sparsity": _cmd_scan_sparsity,
    "scan-trotter": _cmd_scan_trotter,
    "scan-commutator": _cmd_scan_commutator,
}


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

    def add_common(p, problem=False, pencil=False, route=False):
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output document format")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        if problem:
            p.add_argument("--problem", metavar="PATH",
                           help="problem-spec JSON file")
            p.add_argument("--n", type=int, help="override the grid size of the problem file")
        if pencil:
            p.add_argument("--k", type=int, help="half-bandwidth of the random matrix A")
            p.add_argument("--m", type=int, help="block size of the random matrix B")
            p.add_argument("--size", type=int, help="dimension of the random pencil")
        if route:
            p.add_argument("--reduction", choices=tuple(reduction.REDUCERS), default="sqrt")

    p = sub.add_parser("spectrum", help="classical spectrum of a pencil problem")
    add_common(p, problem=True, pencil=True)

    p = sub.add_parser("reduce", help="reduce a pencil to standard Hermitian form")
    add_common(p, problem=True, pencil=True, route=True)

    p = sub.add_parser("qpe", help="simulate phase estimation on a reduced problem")
    add_common(p, problem=True, pencil=True, route=True)
    p.add_argument("--t-bits", type=int, default=6, help="ancilla register width")
    p.add_argument("--shots", type=int, default=0,
                   help="samples to draw (0 = none, at most 2**24 = 16777216)")
    p.add_argument("--evolution", choices=("exact", "trotter"), default="exact")
    p.add_argument("--trotter-steps", type=int,
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        problem = _problem(args)
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigInvalid("--seed must be an unsigned 64-bit integer")
        # Input errors exit 2 also when only assembly finds them (overflow).
        doc, build_csv = _COMMANDS[args.command](args, problem)
        text = build_csv() if args.format == "csv" else _to_json(doc) + "\n"
    except (ConfigInvalid, ParseError, NonPositiveCoefficient) as exc:
        print(f"configuration error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (QpencilError, ValueError) as exc:
        print(f"compute error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
