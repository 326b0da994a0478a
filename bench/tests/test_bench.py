"""Self-tests of the benchmark: seeded inputs, output checks, tracing, metric names.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import program  # noqa: E402

qp = program.load_qpencil()

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CheckFailed, ExactCliOp, ReduceCliOp, TrotterOp  # noqa: E402


def _inputs(op):
    """Everything an op hands the program, minus the temp-dir paths."""
    if isinstance(op, TrotterOp):
        return (op.reference, op.ground.tolist(), op.sample_seed)
    argv = [a for a in op.argv if not a.startswith("/")]
    problem = op.argv[op.argv.index("--problem") + 1] if "--problem" in op.argv else None
    return argv, Path(problem).read_text() if problem else None


@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_inputs_are_seeded(workload, tmp_path):
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    assert sorted(workload.round_order(3)) == list(range(len(workload.configs)))
    first = _inputs(workload.make_op(7, 3, 1, dirs[0], qp))
    again = _inputs(workload.make_op(7, 3, 1, dirs[1], qp))
    other = _inputs(workload.make_op(8, 3, 1, dirs[2], qp))
    assert first == again
    assert first != other


@pytest.mark.parametrize("k,m,size", [(1, 4, 32), (3, 8, 64), (2, 2, 16)])
def test_random_pencil_is_the_program_pencil(k, m, size):
    bands, blocks = workloads.random_pencil(size, k, m, 12345)
    A, B = qp.analysis.random_generalized_pair(size, k, m, 12345)
    for mine, theirs in zip(bands, A.diagonals, strict=True):
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-15)
    np.testing.assert_allclose(blocks, np.stack(B.blocks), rtol=1e-14, atol=1e-14)


def test_qpe_check_rejects_eigenvalue_two_steps_off(tmp_path):
    op = ExactCliOp((15, 8, "sqrt"), np.random.default_rng(1), tmp_path, qp)
    op.run(qp)
    op.check(None)
    doc = json.loads(op.out_path.read_text())
    doc["dominant_eigenvalue"] += 2.0 / (2**8 * doc["scale"])
    op.out_path.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="resolution steps"):
        op.check(None)


def test_trotter_check_rejects_bad_distribution(tmp_path):
    op = TrotterOp((15, 6, 8), np.random.default_rng(2), tmp_path, qp)
    distribution, samples, eigenvalue, scale = op.run(qp)
    op.check((distribution, samples, eigenvalue, scale))
    with pytest.raises(CheckFailed, match="sums to"):
        op.check((distribution * 0.5, samples, eigenvalue, scale))
    with pytest.raises(CheckFailed, match="resolution steps"):
        op.check((distribution, samples, eigenvalue - 2.0 / (2**6 * scale), scale))


@pytest.mark.parametrize("route", ["sqrt", "cholesky"])
def test_reduce_check_rejects_perturbed_band_and_wrong_nnz(route, tmp_path):
    op = ReduceCliOp((2, 4, 64, route), np.random.default_rng(3), tmp_path, qp)
    op.run(qp)
    op.check(None)
    good = json.loads(op.out_path.read_text())

    bad = json.loads(json.dumps(good))
    bad["diagonals"][1][10][0] += 1e-6
    op.out_path.write_text(json.dumps(bad))
    with pytest.raises(CheckFailed, match="congruence"):
        op.check(None)

    bad = json.loads(json.dumps(good))
    bad["nnz"] += 2
    op.out_path.write_text(json.dumps(bad))
    with pytest.raises(CheckFailed, match="nnz"):
        op.check(None)


def _traced(op, tracer):
    tracer.install()
    try:
        tracer.begin_op(0, op.n, op.m)
        op.run(qp)
        tracer.end_op(False, keep=True)
    finally:
        tracer.uninstall()


def test_tracer_counts_today_structure(tmp_path):
    original = qp.qpe.eigh_jacobi
    tracer = Tracer(qp)
    _traced(ExactCliOp((31, 6, "cholesky"), np.random.default_rng(4), tmp_path, qp), tracer)
    assert qp.qpe.eigh_jacobi is original and qp.cli.main.__module__ == "qpencil.cli"
    assert tracer.totals["jacobi.dense_calls"] == 2
    assert tracer.max_dim == 32
    table = {row["layer"]: row for row in tracer.layer_table()}
    assert max(table, key=lambda layer: table[layer]["self_s_per_op"]) == "jacobi"
    assert abs(sum(row["share"] for row in table.values()) - 1.0) < 1e-9

    tracer = Tracer(qp)
    _traced(ReduceCliOp((1, 4, 64, "sqrt"), np.random.default_rng(5), tmp_path, qp), tracer)
    assert tracer.totals["jacobi.block_calls"] == 2 * 64 / 4
    assert tracer.totals["qpe.calls"] == 0
    assert tracer.totals["linalg.blocks"] == 2 * 64 / 4
    assert tracer.totals["reduction.predicted_nnz"] == 3 * 4 * 64
    spans = tracer.kept
    assert spans[0][3] == "op" and spans[1][3] == "cli.main" and spans[1][2] == 0


def test_trotter_cycles_are_counted(tmp_path):
    tracer = Tracer(qp)
    _traced(TrotterOp((15, 5, 4), np.random.default_rng(6), tmp_path, qp), tracer)
    assert tracer.totals["qpe.trotter_cycles"] == (2**5 - 1) * 4


def _declared():
    return json.loads((program.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    declared = _declared()
    assert [m["name"] for m in declared["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in workloads.WORKLOADS]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_declaration(trace, section):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sl-qpe-exact", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=program.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.BY_NAME["sl-qpe-exact"].configs) * (1 + trace)
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "program.py", "workloads.py", "spans.py"):
        (tmp_path / "bench" / name).write_text((BENCH / name).read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pencil-reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
