"""qpencil benchmark: one workload, one closed-loop client, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload sl-qpe-exact --seed 1 --seconds 16 --trace 0

One client runs one op at a time in this process, and each op starts only
after the previous one has finished and been checked.  After one untimed
warm-up op the run is made of whole rounds of the workload's op mix; a new
round starts while the summed op time, at the reference speed of
:class:`Calibration`, is below ``--seconds``.  Output checks run outside the
timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics from the traced
ones and the tracing overhead from the difference between the two.  Either
way a report goes to ``bench/results/`` and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import program

#: Fresh interpreters started per run to time import plus warm-up op.
SETUP_PROBES = 5
#: The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: A run stops, even mid-round, once this much wall time has passed.
WALL_CAP_S = 150.0
#: CPU seconds the calibration kernel takes at the reference speed (typical
#: on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread).
CALIBRATION_REF_S = 0.011

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    from spans import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/op"
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.failed"] = "calls/op"
    units.update({
        "jacobi.dense_calls": "calls/op",
        "jacobi.block_calls": "calls/op",
        "jacobi.max_dim": "rows",
        "qpe.readout_bytes": "B/op",
        "qpe.trotter_cycles": "cycles/op",
        "linalg.blocks": "blocks/op",
        "reduction.nnz_over_pred": "ratio",
        "cli.out_bytes": "B/op",
        "trace.overhead_frac": "fraction",
    })
    return units


def parse_args(argv):
    from workloads import BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------------------------
# measuring


class Calibration:
    """A fixed kernel of interpreter loops and small complex matrix-vector products.

    The machine's speed drifts by tens of percent within a minute when other
    tenants load it, and qpencil's op times drift with it.  Timing this kernel
    next to every op measures that drift, so op times can be reported at a
    fixed reference speed.  The kernel does not call qpencil, so no change to
    the program moves it; garbage collection is off while it runs, so garbage
    left by an op is not charged to it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._norm = np.linalg.norm
        self._a = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 8
        self.measure()  # the first run pays one-time costs

    def measure(self) -> float:
        gc.disable()
        try:
            start = time.process_time()
            total = 0
            for i in range(80_000):
                total += i * i
            v = self._a[:, 0].copy()
            for _ in range(600):
                v = self._a @ v
                v /= self._norm(v)
            return time.process_time() - start
        finally:
            gc.enable()


def speed(calibrations) -> float:
    """The machine's speed over a run, relative to the reference speed."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args) -> dict:
    """CPU and wall times of fresh interpreters that import qpencil and run the warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        cpu_start, wall_start = _children_cpu_s(), time.perf_counter()
        # No timeout: with one, the wait polls and rounds wall times up to 50 ms steps.
        subprocess.run(cmd, check=True, cwd=program.ROOT, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - wall_start)
        cpu.append(_children_cpu_s() - cpu_start)
    return {"cpu_s": cpu, "wall_s": wall}


def _failure(exc: Exception) -> dict:
    from workloads import failure_origin

    kind, layer = failure_origin(exc)
    return {"type": kind, "layer": layer, "message": str(exc)[:300]}


def run_op(op, op_id: int, qp, tracer, keep: bool) -> dict:
    """Run, time and check one op.

    Failures are kept as records, never as exception objects: a traceback
    would hold the failed op's arrays alive until the next garbage
    collection and blur the peak-memory reading.
    """
    failure = output = None
    if tracer is not None:
        tracer.begin_op(op_id, op.n, op.m)
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    try:
        output = op.run(qp)
    except Exception as exc:  # any program failure is a failed op
        failure = _failure(exc)
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - wall_start
    if tracer is not None:
        tracer.end_op(failure is not None, keep)
    wrong = False
    if failure is None:
        try:
            op.check(output)
        except Exception as exc:  # a malformed output fails its check too
            failure, wrong = _failure(exc), True
    del output
    if op.out_path is not None and op.out_path.exists():
        if tracer is not None:
            tracer.add("cli.out_bytes", op.out_path.stat().st_size)
        op.out_path.unlink()
    return {"config": list(op.config), "cpu_s": cpu, "wall_s": wall,
            "traced": tracer is not None, "failure": failure, "wrong": wrong}


def run_rounds(workload, args, qp, tmp, tracer, calibration) -> tuple:
    """At least one whole round of the op mix; with a tracer, odd rounds are traced."""
    records = []
    busy = 0.0
    wall_start = time.perf_counter()
    round_index = traced_rounds = 0
    while round_index == 0 or busy < args.seconds or (tracer is not None and traced_rounds == 0):
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        try:
            for config_index in workload.round_order(round_index):
                if time.perf_counter() - wall_start > WALL_CAP_S:
                    return records, True
                op = workload.make_op(args.seed, round_index, config_index, tmp, qp)
                calibration_s = calibration.measure()
                record = run_op(op, len(records), qp, tracer if traced else None,
                                keep=traced and traced_rounds == 0)
                record["calibration_s"] = calibration_s
                records.append(record)
                busy += record["cpu_s"] * CALIBRATION_REF_S / calibration_s
        finally:
            if traced:
                tracer.uninstall()
        traced_rounds += traced
        round_index += 1
    return records, False


# ---------------------------------------------------------------------------
# reporting


def tail(times: list) -> tuple:
    """``(value, percentile)``: the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    rank = len(ordered) - beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def failure_summary(records) -> dict:
    summary = {}
    for r in records:
        if r["failure"] is not None:
            key = f"{r['failure']['type']} in {r['failure']['layer']}"
            summary[key] = summary.get(key, 0) + 1
    return summary


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
        caches[f"L{level}" + ("d" if kind == "Data" else "")] = int(size.rstrip("KM")) * factor
    return caches


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    caches = _cache_sizes()
    working_set = {}
    for config in workload.configs:
        for name, size in workload.op_type.working_set(config).items():
            working_set[name] = max(working_set.get(name, 0), size)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ.get(name) for name in program.BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "largest_arrays_bytes_computed": {
            name: {"bytes": size,
                   **{f"over_{level}": size / caches[level]
                      for level in ("L2", "L3") if caches.get(level)}}
            for name, size in working_set.items()},
    }


def _timing(times) -> dict:
    return {"ops_per_s": len(times) / sum(times), "op_s.p50": statistics.median(times),
            "op_s.tail": tail(times)[0]}


def end_to_end_metrics(records, setup, run_speed, report) -> tuple:
    """Times are CPU seconds at the reference speed; raw CPU and wall times go to the report."""
    times = [r["s"] for r in records]
    _, tail_pct = tail(times)
    report["tail"] = {"percentile": tail_pct, "samples": len(times), "beyond": TAIL_BEYOND}
    report["speed"] = run_speed
    print(f"end-to-end (CPU seconds at the reference speed; op_s.tail is p{tail_pct:.1f} "
          f"of {len(times)} ops):")
    for kind in ("cpu_s", "wall_s"):
        report[kind] = _timing([r[kind] for r in records]) | {
            "setup_s": statistics.median(setup[kind])}
        print(f"  unscaled {kind[:-2]:<4}: " + ", ".join(
            f"{name} {value:.6g}" for name, value in report[kind].items()))
    print(f"  machine speed over the run: {run_speed:.3f} of the reference")
    metrics = _timing(times) | {
        "setup_s": statistics.median(setup["cpu_s"]) * run_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, E2E_UNITS


def per_layer_metrics(records, tracer, report) -> tuple:
    """Counts per traced op; span times are wall clock."""
    units = per_layer_units()
    metrics = {name: tracer.per_op(name) for name in units}
    metrics["jacobi.max_dim"] = float(tracer.max_dim)
    totals = tracer.totals
    metrics["reduction.nnz_over_pred"] = (
        totals["reduction.nnz"] / totals["reduction.predicted_nnz"]
        if totals["reduction.predicted_nnz"] else 0.0)
    # Each op against its own calibration, so drift between rounds cancels.
    relative = {False: [], True: []}
    for r in records:
        relative[r["traced"]].append(r["cpu_s"] / r["calibration_s"])
    base = statistics.median(relative[False])
    metrics["trace.overhead_frac"] = (statistics.median(relative[True]) - base) / base
    report["layer_table"] = tracer.layer_table()
    report["call_tree"] = tracer.call_tree_report()
    report["spans_first_traced_round"] = {
        "columns": ["op", "span", "parent", "name", "start_s", "end_s", "failed"],
        "rows": tracer.kept}
    print(f"per-layer self time (wall clock) over {tracer.ops} traced ops:")
    print(f"  {'layer':<12} {'self s/op':>12} {'share':>8} {'calls/op':>12} {'failed/op':>10}")
    for row in report["layer_table"]:
        print(f"  {row['layer']:<12} {row['self_s_per_op']:>12.6f} {row['share']:>8.1%} "
              f"{row['calls_per_op']:>12.2f} {row['failed_per_op']:>10.3f}")
    print("per-layer metrics (qpe.readout_bytes is computed from array shapes):")
    return metrics, units


def print_table(rows) -> None:
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    try:
        qp = program.load_qpencil()
    except program.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    args = parse_args(argv)
    workload = workloads.BY_NAME[args.workload]
    program.RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=program.RESULTS, prefix="tmp-") as tmpname:
        tmp = Path(tmpname)
        if args.setup_probe:
            workload.make_op(args.seed, -1, 0, tmp, qp).run(qp)
            return 0
        setup = None if args.trace else measure_setup(args)
        calibration = Calibration()
        warm = workload.make_op(args.seed, -1, 0, tmp, qp)
        warm.check(warm.run(qp))
        tracer = Tracer(qp) if args.trace else None
        records, truncated = run_rounds(workload, args, qp, tmp, tracer, calibration)
    run_speed = speed([r["calibration_s"] for r in records])
    for r in records:
        r["s"] = r["cpu_s"] * run_speed

    failed = sum(r["failure"] is not None for r in records)
    correct = not any(r["wrong"] for r in records)
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "truncated": truncated,
        "environment": environment(workload),
        "layer_map": [{"metrics": m, "moves": moves} for m, moves in workloads.LAYER_MAP],
        "attempted": len(records), "failed": failed, "failed_frac": failed / len(records),
        "failures": failure_summary(records),
    }
    print(f"workload {workload.name}: {len(records)} ops in "
          f"{len(records) // len(workload.configs)} rounds of {len(workload.configs)}, "
          f"seed {args.seed}, trace {args.trace}")
    if args.trace:
        metrics, units = per_layer_metrics(records, tracer, report)
    else:
        metrics, units = end_to_end_metrics(records, setup, run_speed, report)
        report["setup_probes"] = setup
    report["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    report["ops"] = records

    print_table((name, metrics[name], units[name]) for name in units)
    print(f"  {'failed_frac':<28} {failed / len(records):>14.6g} fraction "
          f"({failed} of {len(records)})")
    for kind, count in report["failures"].items():
        print(f"  failure: {count} x {kind}")
    out = program.RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"report: {out.relative_to(program.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
