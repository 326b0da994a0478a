"""Span tracer for the benchmark's traced runs.

The tracer wraps qpencil's public functions, and the public methods of the
``linalg`` storage classes, at every module attribute that names them, so a
call is seen whichever import path the caller used.  ``cli.main`` is such a
function, so for a CLI op its span separates the CLI's own work (parsing,
problem load, serialization) from the layers below.  Spans are kept in
memory.  Each op's spans are folded into per-layer totals when the op ends;
the spans of the ops chosen for the report are also kept whole.

A span's self time is its duration minus its children's durations.  Calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

from workloads import count_band_nonzeros, register_dim

LAYERS = ("discretize", "linalg", "jacobi", "reduction", "qpe", "analysis", "cli")
#: Name of the span around a whole op; its self time is the benchmark's glue.
OP_SPAN = "op"


def _eigh_hook(tracer, fn, args, kwargs, result):
    dim = len(args[0])
    tracer.totals["jacobi.dense_calls"] += dim >= tracer.op_n
    tracer.totals["jacobi.block_calls"] += dim <= tracer.op_m
    tracer.max_dim = max(tracer.max_dim, dim)


def _blocks_hook(tracer, fn, args, kwargs, result):
    tracer.totals["linalg.blocks"] += len(args[0].blocks)


def _readout_hook(tracer, fn, args, kwargs, result):
    call = inspect.signature(fn).bind(*args, **kwargs).arguments
    # Computed, not measured: one complex128 array over the joint
    # ancilla-by-system register, 2**t_bits x padded dimension.
    tracer.totals["qpe.readout_bytes"] += 16 * 2 ** call["t_bits"] * register_dim(call["H"].size)


def _reduction_hook(tracer, fn, args, kwargs, result):
    if result is not None:
        tracer.reductions.append((args[0], args[1], result))


_HOOKS = {
    "jacobi.eigh_jacobi": _eigh_hook,
    "linalg.sqrt_block_diagonal": _blocks_hook,
    "linalg.invert_block_diagonal": _blocks_hook,
    "linalg.cholesky_block_diagonal": _blocks_hook,
    "linalg.solve_block_lower": _blocks_hook,
    "qpe.run_qpe": _readout_hook,
    "reduction.reduce_sqrt": _reduction_hook,
    "reduction.reduce_cholesky": _reduction_hook,
}


class Tracer:
    """Wraps qpencil between :meth:`install` and :meth:`uninstall`; records spans of ops."""

    def __init__(self, qp):
        self._qp = qp
        self._restore = []
        self._stack = []
        self._spans = []
        self.op = None
        self.op_n = self.op_m = 0
        self.reductions = []
        self.totals = defaultdict(float)
        self.max_dim = 0
        self.ops = 0
        self.call_tree = {}
        self.kept = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self._qp, layer)
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._span_wrapper(f"{layer}.{name}", obj)
                elif layer == "linalg" and inspect.isclass(obj):
                    self._wrap_methods(obj)
        for module in [self._qp] + [getattr(self._qp, layer) for layer in LAYERS]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, name, wrappers[id(obj)])
        cycle = getattr(self._qp.qpe, "_TrotterCycle", None)
        if cycle is not None:
            self._patch(cycle, "apply", self._counter(cycle.apply, "qpe.trotter_cycles"))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_methods(self, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"linalg.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(self._span_wrapper(label, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._span_wrapper(label, raw))

    def _span_wrapper(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        exit_code = name == "cli.main"  # the CLI reports failure by exit code

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            spans, stack = tracer._spans, tracer._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            failed = True
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = exit_code and result != 0
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, failed)
                if hook is not None:  # failed calls count too; result is then None
                    hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.totals[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int, n: int, m: int) -> None:
        """Open the root span of an op of dimension ``n`` whose B has blocks of at most ``m``."""
        self.op, self.op_n, self.op_m = op_id, n, m
        self._spans = [None]
        self._stack = [0]
        self._op_start = perf_counter()

    def end_op(self, failed: bool, keep: bool) -> None:
        self._spans[0] = (0, None, OP_SPAN, self._op_start, perf_counter(), failed)
        op, self.op = self.op, None
        self._fold(op, self._spans, keep)
        self._spans = []
        for A, B, red in self.reductions:
            predicted = self._predicted_nnz(A, B, red.route)
            if predicted is not None:
                self.totals["reduction.nnz"] += count_band_nonzeros(red.hamiltonian.diagonals)
                self.totals["reduction.predicted_nnz"] += predicted
        self.reductions = []

    def _predicted_nnz(self, A, B, route: str):
        """qpencil's own prediction for uniform blocks, or None outside its regime."""
        sizes = set(B.block_sizes)
        if len(sizes) != 1:
            return None
        try:
            return self._qp.predicted_nnz(route, A.half_bandwidth, sizes.pop(), A.size)
        except self._qp.RegimeViolation:
            return None

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def _fold(self, op: int, spans, keep: bool) -> None:
        self.ops += 1
        child = [0.0] * len(spans)
        for sid, parent, _, start, end, _ in spans[1:]:
            child[parent] += end - start
        paths = [None] * len(spans)
        t0 = spans[0][3]
        for sid, parent, name, start, end, failed in spans:
            duration = end - start
            own = duration - child[sid]
            layer = name.split(".", 1)[0]
            self.totals[f"{layer}.self_s"] += own
            self.totals[f"{layer}.calls"] += 1
            self.totals[f"{layer}.failed"] += failed
            paths[sid] = name if parent is None else f"{paths[parent]} > {name}"
            node = self.call_tree.setdefault(paths[sid], [0, 0.0, 0.0])
            node[0] += 1
            node[1] += duration
            node[2] += own
            if keep:
                self.kept.append([op, sid, parent, name, start - t0, end - t0, failed])

    # -- results -----------------------------------------------------------

    def per_op(self, key: str) -> float:
        return self.totals[key] / self.ops if self.ops else 0.0

    def layer_table(self) -> list:
        """Per-layer self time per op, its share of op time, calls and failures per op."""
        op_time = sum(self.totals[f"{layer}.self_s"] for layer in (OP_SPAN,) + LAYERS)
        return [{"layer": layer,
                 "self_s_per_op": self.per_op(f"{layer}.self_s"),
                 "share": self.totals[f"{layer}.self_s"] / op_time if op_time else 0.0,
                 "calls_per_op": self.per_op(f"{layer}.calls"),
                 "failed_per_op": self.per_op(f"{layer}.failed")}
                for layer in LAYERS + (OP_SPAN,)]

    def call_tree_report(self) -> list:
        return [{"path": path, "calls": calls, "total_s": total, "self_s": own}
                for path, (calls, total, own) in sorted(self.call_tree.items())]
