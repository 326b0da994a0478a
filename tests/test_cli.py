import json

import numpy as np
import pytest

from qpencil import analysis, cli, linalg, qpe
from qpencil.cli import _to_json, load_problem_spec, main, RandomPencilParams
from qpencil.discretize import GridSpec, SturmLiouvilleSpec
from qpencil.errors import NonPositiveCoefficient, ParseError

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


def test_qpe_uniform_trial(tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, out, _ = run_cli(capsys, "qpe", "--problem", path, "--t-bits", "5",
                           "--trial", "uniform")
    doc = json.loads(out)
    assert code == 0
    assert sum(doc["distribution"]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("route", ["cholesky", "sqrt"])
def test_qpe_ground_trial_decomposes_once(route, tmp_path, capsys, monkeypatch):
    eigh_sizes, jacobi_dims = [], []
    real_eigh = qpe._eigh
    monkeypatch.setattr(qpe, "_eigh", lambda H: eigh_sizes.append(H.size) or real_eigh(H))
    monkeypatch.setattr(analysis, "eigh_jacobi",
                        lambda M, *args, _real=analysis.eigh_jacobi, **kwargs:
                        jacobi_dims.append(len(M)) or _real(M, *args, **kwargs))
    assert not hasattr(qpe, "eigh_jacobi") and not hasattr(linalg, "eigh_jacobi")
    path = write_problem(tmp_path, UNIT_PROBLEM)
    code, _, _ = run_cli(capsys, "qpe", "--problem", path, "--reduction", route,
                         "--t-bits", "6", "--trial", "ground")
    assert code == 0
    assert eigh_sizes == [15]
    # Jacobi is the oracle only: neither route's block routines call it
    assert jacobi_dims == []

    eigh_sizes.clear()
    jacobi_dims.clear()
    code, _, _ = run_cli(capsys, "spectrum", "--problem", path)
    assert code == 0
    assert eigh_sizes == [] and jacobi_dims == [15]


@pytest.mark.parametrize("argv", [("qpe", "--t-bits", "5", "--shots", "4"),
                                  ("reduce", "--reduction", "sqrt")])
def test_csv_output_matches_json(argv, tmp_path, capsys):
    path = write_problem(tmp_path, UNIT_PROBLEM)
    _, out_json, _ = run_cli(capsys, argv[0], "--problem", path, *argv[1:])
    _, out_csv, _ = run_cli(capsys, argv[0], "--problem", path, *argv[1:],
                            "--format", "csv")
    doc = json.loads(out_json)
    rows = [line.split(",") for line in out_csv.splitlines()[1:]]
    if argv[0] == "qpe":
        assert [float(r[1]) for r in rows] == doc["distribution"]
        assert float(rows[doc["dominant_outcome"]][2]) == doc["dominant_eigenvalue"]
    else:
        values = [[float(r[2]), float(r[3])] for r in rows]
        assert values == [pair for band in doc["diagonals"] for pair in band]


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
