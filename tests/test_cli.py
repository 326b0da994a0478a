import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qpencil import analysis, cli, linalg, qpe
from qpencil.cli import _to_json, load_problem_spec, main, RandomPencilParams
from qpencil.discretize import GridSpec, SturmLiouvilleSpec, build_sl_generalized
from qpencil.errors import NonPositiveCoefficient, ParseError
from qpencil.reduction import reduce_sqrt

UNIT_PROBLEM = '{"p":{"constant":1},"q":{"constant":0},"r":{"constant":1},"n":15}'


def write_problem(tmp_path, text, name="problem.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- loading


def test_load_flat_document(tmp_path):
    spec, grid = load_problem_spec(write_problem(tmp_path, UNIT_PROBLEM))
    assert isinstance(spec, SturmLiouvilleSpec)
    assert isinstance(grid, GridSpec) and grid.n == 15


def test_load_nested_coefficients_document(tmp_path):
    doc = ('{"n": 7, "coefficients": {"p": {"constant": 1}, '
           '"q": {"poly": [0, 1]}, "r": {"constant": 2}}}')
    spec, grid = load_problem_spec(write_problem(tmp_path, doc))
    assert grid.n == 7
    assert spec.q(0.5) == pytest.approx(0.5)


def test_load_random_pencil_document(tmp_path):
    doc = '{"k": 1, "m": 4, "size": 32, "seed": 9}'
    params = load_problem_spec(write_problem(tmp_path, doc))
    assert params == RandomPencilParams(1, 4, 32, 9)


def test_load_rejects_negative_weight(tmp_path):
    doc = '{"p":{"constant":1},"q":{"constant":0},"r":{"constant":-1},"n":5}'
    with pytest.raises(NonPositiveCoefficient):
        load_problem_spec(write_problem(tmp_path, doc))


def test_load_sample_arity(tmp_path):
    good = json.dumps({"p": {"samples": [1.0] * 7}, "q": {"constant": 0},
                       "r": {"constant": 1}, "n": 5})
    spec, grid = load_problem_spec(write_problem(tmp_path, good))
    assert grid.n == 5
    bad = json.dumps({"p": {"samples": [1.0] * 6}, "q": {"constant": 0},
                      "r": {"constant": 1}, "n": 5})
    with pytest.raises(ParseError, match="length mismatch"):
        load_problem_spec(write_problem(tmp_path, bad, "bad.json"))


def test_load_reports_json_error_position(tmp_path):
    with pytest.raises(ParseError, match="line"):
        load_problem_spec(write_problem(tmp_path, '{"n": 3,', "broken.json"))


def test_load_rejects_unknown_coefficient_form(tmp_path):
    doc = '{"p":{"table":[1]},"q":{"constant":0},"r":{"constant":1},"n":3}'
    with pytest.raises(ParseError):
        load_problem_spec(write_problem(tmp_path, doc))


@pytest.mark.parametrize("fields", [
    '"p":{"constant":NaN},"q":{"constant":0},"r":{"constant":1}',
    '"p":{"constant":1},"q":{"constant":Infinity},"r":{"constant":1}',
    '"p":{"constant":1},"q":{"constant":0},"r":{"samples":[1,1,NaN,1,1,1,1]}',
], ids=["p-nan", "q-infinity", "r-samples-nan"])
def test_non_finite_coefficient_exits_2(fields, tmp_path, capsys):
    path = write_problem(tmp_path, "{" + fields + ',"n":5}')
    for command in ("spectrum", "reduce", "qpe"):
        code, out, err = run_cli(capsys, command, "--problem", path)
        assert (code, out) == (2, "")
        assert "ParseError" in err and "finite number" in err


@pytest.mark.parametrize("doc", [
    '{"p":{"constant":1},"q":{"constant":0},"r":{"constant":1},"n":"abc"}',
    '{"p":{"constant":1},"q":{"constant":0},"r":{"constant":1},"n":5.7}',
    '{"p":{"poly":["a"]},"q":{"constant":0},"r":{"constant":1},"n":5}',
    '{"p":{"poly":[[1,2]]},"q":{"constant":0},"r":{"constant":1},"n":5}',
    '{"k":1,"m":2.5,"size":8}',
], ids=["n-string", "n-float", "poly-string", "poly-nested", "m-float"])
def test_ill_typed_field_exits_2(doc, tmp_path, capsys):
    path = write_problem(tmp_path, doc)
    with pytest.raises(ParseError):
        load_problem_spec(path)
    code, _, err = run_cli(capsys, "spectrum", "--problem", path)
    assert code == 2 and "ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("fields", [
    '"p":{"poly":[1e308,1e308]},"q":{"constant":0},"r":{"constant":1}',
    '"p":{"constant":1},"q":{"constant":0},"r":{"poly":[1e308,1e308]}',
], ids=["p-overflows", "r-overflows"])
def test_overflowing_coefficient_exits_2(fields, tmp_path, capsys):
    path = write_problem(tmp_path, "{" + fields + ',"n":4}')
    for command in ("spectrum", "reduce", "qpe"):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, command, "--problem", path)
        assert (code, out) == (2, "")
        assert "NonPositiveCoefficient" in err and "overflow" in err


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_random_pencil_file_seed_out_of_range_exits_2(seed, tmp_path, capsys):
    path = write_problem(tmp_path, json.dumps({"k": 1, "m": 2, "size": 8, "seed": seed}))
    code, out, err = run_cli(capsys, "spectrum", "--problem", path)
    assert (code, out) == (2, "")
    assert "ConfigInvalid" in err and "Traceback" not in err


def test_oversized_integer_literal_is_a_parse_error(tmp_path, capsys):
    path = write_problem(tmp_path, '{"n": ' + "9" * 5000 + "}")
    with pytest.raises(ParseError):
        load_problem_spec(path)
    code, out, err = run_cli(capsys, "spectrum", "--problem", path)
    assert (code, out) == (2, "") and "ParseError" in err


# ------------------------------------------------------------------- commands


def test_spectrum_command_unit_problem(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, out, _ = run_cli(capsys, "spectrum", "--problem", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    evs = doc["eigenvalues"]
    assert len(evs) == 15
    assert evs == sorted(evs)
    dx = 1.0 / 16
    assert evs[0] == pytest.approx((4 / dx ** 2) * np.sin(np.pi * dx / 2) ** 2,
                                   abs=1e-9)
    assert evs[0] == pytest.approx(9.84, abs=0.01)


def test_reduce_command_reports_counts(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, out, _ = run_cli(capsys, "reduce", "--problem", path,
                           "--reduction", "cholesky")
    doc = json.loads(out)
    assert code == 0
    assert doc["route"] == "cholesky"
    assert doc["nnz"] == 3 * 15 - 2
    assert doc["predicted_nnz"] == 3 * 15
    assert len(doc["diagonals"]) == doc["half_bandwidth"] + 1


def test_qpe_command_deterministic_samples(tmp_path, capsys):
    # a one-dimensional problem maps its only eigenvalue to phase zero, so
    # every sample must coincide
    path = write_problem(
        tmp_path, '{"p":{"constant":1},"q":{"constant":0},"r":{"constant":1},"n":1}')
    code, out, _ = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "4",
                           "--shots", "100", "--seed", "3")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["samples"]) == 100
    assert set(doc["samples"]) == {doc["dominant_outcome"]}


def test_qpe_samples_serialize_as_a_json_integer_list(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    _, out, _ = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "5")
    assert '"shots":0,"seed":0,"samples":[]}' in out
    _, out, _ = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "5",
                        "--shots", "7", "--seed", "2")
    samples = json.loads(out)["samples"]
    assert '"samples":[' + ",".join(map(str, samples)) + "]}" in out
    assert len(samples) == 7 and all(type(y) is int for y in samples)


def test_qpe_command_estimates_lowest_eigenvalue(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, out, _ = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "8")
    doc = json.loads(out)
    assert code == 0
    resolution = 1.0 / (2 ** 8 * doc["scale"])
    assert abs(doc["dominant_eigenvalue"] - 9.8379364335460284) <= resolution


def test_scan_sparsity_csv_ratio_column(capsys):
    code, out, _ = run_cli(capsys, "scan-sparsity", "--k", "1", "--m", "4",
                           "--sizes", "64,128", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    ratio_col = header.index("ratio")
    for line in lines[1:]:
        assert float(line.split(",")[ratio_col]) == pytest.approx(0.5, abs=0.05)


def test_scan_trotter_and_commutator_run(capsys):
    code, out, _ = run_cli(capsys, "scan-trotter", "--steps", "4,8")
    assert code == 0
    doc = json.loads(out)
    assert {r["label"] for r in doc["records"]} == {"trotter_error"}
    code, out, _ = run_cli(capsys, "scan-commutator", "--sizes", "8,16")
    assert code == 0
    doc = json.loads(out)
    assert [r["parameter"] for r in doc["records"]] == [8.0, 16.0]


# ------------------------------------------------------- determinism and codes


def test_byte_identical_reruns(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "6",
                               "--shots", "25", "--seed", "123")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    # JSON round-trips under the documented schema
    doc = json.loads(next(iter(outputs)))
    assert doc["schema_version"] == 1


def test_output_file_written_with_lf(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "scan-sparsity", "--sizes", "64",
                           "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_missing_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "spectrum")
    assert code == 2
    assert "ConfigInvalid" in err


def test_parse_error_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, '{"p":{"constant":1},"n":3}')
    code, _, err = run_cli(capsys, "spectrum", "--problem", path)
    assert code == 2
    assert "ParseError" in err


def test_nonpositive_coefficient_exits_2(tmp_path, capsys):
    path = write_problem(
        tmp_path, '{"p":{"constant":1},"q":{"constant":0},"r":{"constant":-1},"n":3}')
    code, _, err = run_cli(capsys, "spectrum", "--problem", path)
    assert code == 2
    assert "NonPositiveCoefficient" in err


def test_compute_failure_exits_1_with_error_name(tmp_path, capsys):
    path = write_problem(
        tmp_path, '{"p":{"constant":1},"q":{"constant":0},"r":{"constant":1},"n":1}')
    code, _, err = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "30")
    assert code == 1
    assert "TooManyQubits" in err


def test_random_pencil_flags(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--k", "1", "--m", "2",
                           "--size", "16", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"]["kind"] == "random_pencil"
    assert len(doc["eigenvalues"]) == 16


@pytest.mark.parametrize("k, m, size", [(1, 2, 0), (-1, 2, 8), (1, 0, 8)])
def test_invalid_random_pencil_exits_2_from_flags_and_file(k, m, size, tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--k", str(k), "--m", str(m),
                           "--size", str(size))
    assert code == 2 and "ConfigInvalid" in err
    path = write_problem(tmp_path, json.dumps({"k": k, "m": m, "size": size}))
    code, _, err = run_cli(capsys, "spectrum", "--problem", path)
    assert code == 2 and "ConfigInvalid" in err


@pytest.mark.parametrize("command", ["reduce", "spectrum", "qpe"])
@pytest.mark.parametrize("k, m, size", [(5, 2, 4), (4, 2, 4), (9, 1, 3), (7, 1, 3), (1, 1, 1)])
def test_random_pencil_bandwidth_at_least_size_exits_2(command, k, m, size, tmp_path, capsys):
    code, out, err = run_cli(capsys, command, "--k", str(k), "--m", str(m),
                             "--size", str(size))
    assert (code, out) == (2, "") and "ConfigInvalid" in err and "k < size" in err
    path = write_problem(tmp_path, json.dumps({"k": k, "m": m, "size": size}))
    code, out, err = run_cli(capsys, command, "--problem", path)
    assert (code, out) == (2, "") and "ConfigInvalid" in err and "k < size" in err


@pytest.mark.parametrize("argv", [
    ("scan-trotter", "--steps", "0"),
    ("scan-trotter", "--steps", "-2"),
    ("scan-sparsity", "--m", "0"),
    ("scan-sparsity", "--sizes", "0"),
    ("scan-sparsity", "--k", "-1"),
    ("scan-sparsity", "--sizes", "10", "--m", "4"),
    ("scan-commutator", "--sizes", "0"),
    ("scan-trotter", "--time", "nan"),
    ("scan-trotter", "--time", "inf"),
    ("scan-commutator", "--sizes", "2,1"),
    ("scan-sparsity", "--k", "4", "--m", "4", "--sizes", "8,4"),
], ids=["steps-0", "steps-negative", "m-0", "sizes-0", "k-negative", "sizes-indivisible",
        "commutator-sizes-0", "time-nan", "time-inf", "commutator-sizes-1", "sizes-not-above-k"])
def test_out_of_range_scan_flag_exits_2(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: ConfigInvalid: ") and err.count("\n") == 1
    assert argv[-2] in err


@pytest.mark.parametrize("argv", [
    ("reduce", "--problem", "PENCIL", "--n", "100"),
    ("spectrum", "--k", "1", "--m", "2", "--size", "8", "--n", "5"),
    ("scan-trotter", "--n", "5", "--steps", "4"),
], ids=["pencil-file", "pencil-flags", "scan-trotter-default"])
def test_grid_override_without_coefficient_problem_exits_2(argv, tmp_path, capsys):
    pencil = write_problem(tmp_path, '{"k": 1, "m": 2, "size": 8}')
    code, out, err = run_cli(capsys, *(pencil if a == "PENCIL" else a for a in argv))
    assert (code, out) == (2, "")
    assert "ConfigInvalid" in err and "--n" in err


@pytest.mark.parametrize("flags", [("--k", "1", "--m", "2", "--size", "8"), ("--k", "1")],
                         ids=["all-pencil-flags", "k-only"])
def test_problem_file_with_pencil_flags_exits_2(flags, tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, out, err = run_cli(capsys, "reduce", "--problem", path, *flags)
    assert (code, out) == (2, "")
    assert "ConfigInvalid" in err and "--problem" in err


def test_grid_override_flag(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, out, _ = run_cli(capsys, "spectrum", "--problem", path, "--n", "7")
    assert code == 0
    assert len(json.loads(out)["eigenvalues"]) == 7


def test_negative_seed_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, _, err = run_cli(capsys, "qpe", "--problem", path, "--seed", "-1")
    assert code == 2
    assert "ConfigInvalid" in err


def test_qpe_shots_above_cap_exit_2_before_allocating(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "4",
                                 "--shots", str(2 ** 24 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "ConfigInvalid" in err and "--shots is capped at 16777216" in err
    assert peak < 10 * 2 ** 20
    with pytest.raises(SystemExit):
        main(["qpe", "--help"])
    assert "at most 2**24" in " ".join(capsys.readouterr().out.split())


def test_qpe_uniform_trial(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, out, _ = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "5",
                           "--trial", "uniform")
    doc = json.loads(out)
    assert code == 0
    assert sum(doc["distribution"]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("route", ["cholesky", "sqrt"])
def test_qpe_ground_trial_decomposes_once(route, tmp_path, capsys, monkeypatch):
    # Exact ground QPE reads only the lowest eigenvalue: one values-only call
    decompositions, jacobi_dims = [], []
    for name in ("_eigh", "_eigvalsh"):
        monkeypatch.setattr(qpe, name, lambda H, _name=name, _real=getattr(qpe, name):
                            decompositions.append((_name, H.size)) or _real(H))
    monkeypatch.setattr(analysis, "eigh_jacobi",
                        lambda M, *args, _real=analysis.eigh_jacobi, **kwargs:
                        jacobi_dims.append(len(M)) or _real(M, *args, **kwargs))
    assert not hasattr(qpe, "eigh_jacobi") and not hasattr(linalg, "eigh_jacobi")
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, _, _ = run_cli(capsys, "qpe", "--problem", path, "--reduction", route,
                         "--t-bits", "6", "--trial", "ground")
    assert code == 0
    assert decompositions == [("_eigvalsh", 15)]
    # Jacobi is the oracle only: neither route's block routines call it
    assert jacobi_dims == []

    decompositions.clear()
    jacobi_dims.clear()
    code, _, _ = run_cli(capsys, "spectrum", "--problem", path)
    assert code == 0
    assert decompositions == [] and jacobi_dims == [15]


@pytest.mark.parametrize("trial", ["ground", "uniform"])
@pytest.mark.parametrize("t_bits", [4, 5, 6])
def test_one_step_trotter_qpe_matches_a_dense_cycle_on_the_cayley_path(
        trial, t_bits, tmp_path, capsys, monkeypatch):
    # One step per unit power widens the cycle's phase window past _WINDOW_MAX
    windows = []
    real = qpe._phase_window
    monkeypatch.setattr(qpe, "_phase_window",
                        lambda *args: windows.append(real(*args)) or real(*args))
    path = write_problem(
        tmp_path, '{"p":{"poly":[1,0.5]},"q":{"constant":0.3},"r":{"poly":[1,1]},"n":7}')
    code, out, _ = run_cli(capsys, "qpe", "--problem", path, "--evolution", "trotter",
                           "--trotter-steps", "1", "--t-bits", str(t_bits), "--trial", trial)
    assert code == 0
    assert len(windows) == 1 and windows[0][1] > qpe._WINDOW_MAX

    # Reference: the dense cycle diag(exp(-i h1 dt)) V exp(-i w dt) V^H, applied a times
    spec, grid = load_problem_spec(path)
    H = reduce_sqrt(*build_sl_generalized(spec, grid)).hamiltonian
    ss = qpe.gershgorin_shift_scale(H)
    h1, h2 = qpe.split_tridiagonal(ss.map_matrix(H))
    dt = -2.0 * np.pi
    w, V = np.linalg.eigh(h2.to_dense())
    cycle = (np.exp(-1j * dt * h1.diagonals[0].real)[:, None]
             * ((V * np.exp(-1j * dt * w)) @ V.conj().T))
    if trial == "ground":
        psi = np.linalg.eigh(ss.map_matrix(H).to_dense())[1][:, 0]
    else:
        psi = np.full(H.size, H.size ** -0.5)
    M = 2 ** t_bits
    powers = [psi]
    for _ in range(M - 1):
        powers.append(cycle @ powers[-1])
    fourier = np.exp(-2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M) / M
    expected = (np.abs(fourier @ np.array(powers)) ** 2).sum(axis=1)
    assert np.abs(np.array(json.loads(out)["distribution"]) - expected).max() < 1e-12


@pytest.mark.parametrize("argv", [("qpe", "--t-bits", "5", "--shots", "4"),
                                  ("reduce", "--reduction", "sqrt"),
                                  ("spectrum",)])
def test_csv_output_matches_json(argv, tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    _, out_json, _ = run_cli(capsys, argv[0], "--problem", path, *argv[1:])
    _, out_csv, _ = run_cli(capsys, argv[0], "--problem", path, *argv[1:],
                            "--format", "csv")
    doc = json.loads(out_json)
    rows = [line.split(",") for line in out_csv.splitlines()[1:]]
    if argv[0] == "qpe":
        assert [int(r[0]) for r in rows] == list(range(2 ** 5))
        assert [float(r[1]) for r in rows] == doc["distribution"]
        assert float(rows[doc["dominant_outcome"]][2]) == doc["dominant_eigenvalue"]
        ss = qpe.ShiftScale(doc["shift"], doc["scale"], doc["guard"])
        assert [float(r[2]) for r in rows] == [qpe.outcome_to_eigenvalue(y, 5, ss)
                                               for y in range(2 ** 5)]
    elif argv[0] == "reduce":
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (d, i) for d, band in enumerate(doc["diagonals"]) for i in range(len(band))]
        values = [[float(r[2]), float(r[3])] for r in rows]
        assert values == [pair for band in doc["diagonals"] for pair in band]
    else:
        assert [(int(r[0]), float(r[1])) for r in rows] == list(enumerate(doc["eigenvalues"]))


@pytest.mark.parametrize("argv", [
    ("scan-sparsity", "--k", "1", "--m", "2", "--sizes", "16,8,16"),
    ("scan-trotter", "--steps", "4,8"),
    ("scan-commutator", "--sizes", "8,16"),
], ids=["sparsity", "trotter", "commutator"])
def test_scan_csv_output_matches_json(argv, capsys):
    _, out_json, _ = run_cli(capsys, *argv)
    _, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    records = json.loads(out_json)["records"]
    header, *lines = out_csv.splitlines()
    rows = [line.split(",") for line in lines]
    if argv[0] != "scan-sparsity":
        assert header == "parameter,observable,label"
        assert [(float(p), float(o), label) for p, o, label in rows] == [
            (r["parameter"], r["observable"], r["label"]) for r in records]
        return
    by_size = {}
    for r in records:
        by_size.setdefault(int(r["parameter"]), {})[r["label"]] = r["observable"]
    labels = ("measured_nnz_cholesky", "measured_nnz_sqrt", "predicted_nnz_cholesky",
              "predicted_nnz_sqrt", "nnz_ratio", "rel_dev_cholesky", "rel_dev_sqrt")
    assert [int(r[0]) for r in rows] == [8, 16]
    for row in rows:
        values = by_size[int(row[0])]
        assert [int(v) for v in row[1:5]] == [values[label] for label in labels[:4]]
        assert [float(v) for v in row[5:]] == [values[label] for label in labels[4:]]


def test_csv_formats_floats_as_json_and_refuses_non_finite_ones():
    text = cli._to_csv(("i", "x", "s"), np.arange(2), np.array([0.1, -0.0]), ["a", "b"])
    assert text == f"i,x,s\n0,{_to_json(0.1)},a\n1,{_to_json(-0.0)},b\n"
    assert text == "i,x,s\n0,0.10000000000000001,a\n1,-0,b\n"
    for bad in (np.array([1.0, np.nan]), [0.5, -np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            cli._to_csv(("i", "x"), [0, 1], bad)


def test_scan_trotter_accepts_problem_file(tmp_path, capsys):
    doc = '{"p":{"constant":1},"q":{"constant":0},"r":{"poly":[1,1]},"n":8}'
    path = write_problem(tmp_path, doc)
    code, out, _ = run_cli(capsys, "scan-trotter", "--problem", path,
                           "--steps", "4,8")
    assert code == 0
    errs = [r["observable"] for r in json.loads(out)["records"]]
    assert errs[1] < errs[0]


def test_scan_trotter_rejects_random_pencil_file(tmp_path, capsys):
    path = write_problem(tmp_path, '{"k": 1, "m": 2, "size": 8}')
    code, out, err = run_cli(capsys, "scan-trotter", "--problem", path, "--steps", "4")
    assert (code, out) == (2, "")
    assert "ConfigInvalid" in err


def test_float_arrays_serialize_like_their_elements(rng):
    values = rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)
    values[:3] = (-0.0, 5e-324, 0.1)
    for arr in (values, values.reshape(32, 2), values[:0], values[:0].reshape(0, 2)):
        assert _to_json(arr) == "[" + ",".join(_to_json(v) for v in arr) + "]"
    assert _to_json(values[:4]) == "[" + ",".join(format(float(v), ".17g") for v in values[:4]) + "]"
    for bad in (np.array([1.0, np.nan]), np.array([[np.inf, 0.0]])):
        with pytest.raises(ValueError):
            _to_json(bad)


def test_integer_arrays_serialize_like_their_elements(rng):
    values = rng.integers(-2 ** 63, 2 ** 63 - 1, 64, dtype=np.int64, endpoint=True)
    for arr in (values, values[:0], values.astype(np.uint8), np.arange(5, dtype=np.int32)):
        assert _to_json(arr) == "[" + ",".join(_to_json(v) for v in arr) + "]"
        assert _to_json(arr) == _to_json(arr.tolist())
    assert _to_json(values[:0]) == "[]"


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert cli.build_parser() is not cli.build_parser()
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for _ in range(3):
        assert run_cli(capsys, "scan-commutator", "--sizes", "8")[0] == 0
    assert len(built) <= 1


# ------------------------------------------------- float arrays and "%.17g"


def template_json(value):
    """A 1-D or 2-D float array through one "%.17g" template, entry by entry."""
    row = "[" + ",".join(["%.17g"] * value.shape[-1]) + "]"
    if value.ndim == 2:
        row = "[" + ",".join([row] * value.shape[0]) + "]"
    return row % tuple(value.ravel().tolist())


def _random_bit_patterns():
    bits = np.random.default_rng(22).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def _powers_and_neighbours():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def _edges_and_neighbours():
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    edges = np.array([1e-280, 1e280, 1e16, 1e17, 1e-4, 1e-5, tiny, huge / 2])
    subnormals = np.ldexp(np.arange(1.0, 4097.0), -1074)
    return np.concatenate([[0.0, huge, 5e-324], subnormals, edges,
                           np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


def _everyday_values():
    rng = np.random.default_rng(23)
    y = np.arange(4096)
    delta = 0.3217 - y / 4096
    fejer = (np.sin(np.pi * 4096 * delta) / (4096 * np.sin(np.pi * delta))) ** 2
    dyadic = rng.integers(1, 2 ** 30, 20_000) / 2.0 ** rng.integers(0, 60, 20_000)
    return np.concatenate([fejer, dyadic, np.arange(-5000.0, 5000.0),
                           rng.standard_normal(20_000) * 10.0 ** rng.integers(-20, 20, 20_000)])


@pytest.mark.parametrize("values", [_random_bit_patterns, _powers_and_neighbours,
                                    _edges_and_neighbours, _everyday_values],
                         ids=["random-bits", "powers", "edges", "everyday"])
def test_float_array_kernel_writes_the_template_bytes(values):
    values = values()
    for signed in (values, -values[:50_000]):
        assert _to_json(signed) == template_json(signed)


def test_float_array_kernel_sends_ties_to_the_template(monkeypatch):
    ties = np.arange(2 ** 17 + 1, 10 * 2 ** 17, 2) / 2 ** 17  # 18 digits, the last a 5
    fallback = []

    class Field(str):
        def __mod__(self, value):
            fallback.append(value)
            return str.__mod__(self, value)

    real = cli._float_field
    monkeypatch.setattr(cli, "_float_field", lambda values: Field(real(values)))
    assert _to_json(ties) == template_json(ties)
    assert len(fallback) == ties.size


@pytest.mark.parametrize("shape", [(cli._BLOCK * 2 + 3,), (1,), (1025, 2), (3001, 7),
                                   (1, 5000), (5, 0), (0, 3), (0,)])
def test_float_array_kernel_keeps_the_layout_of_each_shape(shape, rng):
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    values[rng.random(shape) < 0.3] = 0.0
    for arr in (values, -values, values.astype(np.float32)):
        assert _to_json(arr) == template_json(arr)
    if values.ndim == 2:
        assert _to_json(values.T) == template_json(values.T)


def test_float_array_kernel_refuses_non_finite_arrays_before_formatting(monkeypatch):
    monkeypatch.setattr(cli, "_format_block", lambda *args: pytest.fail("formatted"))
    for bad in (np.array([1.0, np.nan]), np.array([[0.5, -np.inf]]), np.full(5000, np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            _to_json(bad)


def test_powers_of_ten_table_is_exact():
    hi, lo, hi_top, hi_bottom = cli._POW10
    for s in range(-300, 301):
        exact = Fraction(10) ** s
        assert hi[s + 300] == float(exact)
        assert lo[s + 300] == float(exact - Fraction(hi[s + 300]))
    assert (hi_top + hi_bottom == hi).all()
    assert (np.frexp(hi_top)[0] * 2 ** 26 % 1 == 0).all()  # 26 significant bits
