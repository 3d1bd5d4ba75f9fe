"""Spans and counters around calls into qromkit's public functions.

A function is wrapped in every qromkit module namespace that binds it, since
that is where callers look it up at call time: ``build_qrom`` finds
``emit_select`` in ``qromkit.qrom``, ``cmd_verify`` finds ``parse_circuit`` in
``qromkit.cli``. Modules are fetched with ``importlib`` because the package
attribute ``qromkit.simulate`` is the ``simulate`` function, not the module.

Spans are aggregated as they close: each span adds its duration to its name's
total and its duration minus its wrapped children to its name's self time.
The program itself is not changed; wrappers are removed when ``traced`` exits.
"""
from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Wrapped functions, as ``<module>.<function>`` of ``qromkit.<module>``.
SPANS = (
    "tablefile.load_table_file",
    "costs.optimize_parameters",
    "qrom.compute_xor_schedule",
    "qrom.emit_select",
    "qrom.emit_copy",
    "qrom.emit_restore",
    "qrom.build_qrom",
    "qrom.build_sequential_qroms",
    "iteration.emit_unary_iteration",
    "circuit.check_temp_and_pairing",
    "circuit.count_resources",
    "gatefile.serialize_circuit",
    "gatefile.parse_circuit",
    "baselines.build_selectswap_dirty",
    "simulate.verify_qrom",
    "simulate.batch_simulate",
    "cli.main",
)

#: Per-layer metrics of one traced step, with their units.
PER_LAYER = (
    ("simulate.verify_qrom_s", "s"),
    ("simulate.verify_self_s", "s"),
    ("simulate.batch_simulate_s", "s"),
    ("simulate.gate_cases", "count"),
    ("gatefile.parse_circuit_s", "s"),
    ("gatefile.serialize_circuit_s", "s"),
    ("gatefile.lines", "count"),
    ("tablefile.load_table_file_s", "s"),
    ("cli.self_s", "s"),
    ("qrom.compute_xor_schedule_s", "s"),
    ("qrom.emit_select_s", "s"),
    ("qrom.emit_copy_s", "s"),
    ("qrom.emit_restore_s", "s"),
    ("qrom.select_gates", "count"),
    ("qrom.copy_gates", "count"),
    ("qrom.restore_gates", "count"),
    ("qrom.build_qrom_s", "s"),
    ("qrom.build_sequential_qroms_s", "s"),
    ("baselines.build_selectswap_dirty_s", "s"),
    ("iteration.scaffold_self_s", "s"),
    ("iteration.calls", "count"),
    ("iteration.windows", "count"),
    ("circuit.check_temp_and_pairing_s", "s"),
    ("circuit.count_resources_s", "s"),
    ("circuit.gates", "count"),
    ("circuit.qubits", "count"),
    ("costs.optimize_parameters_s", "s"),
    ("trace.overhead_s", "s"),
)

_STAGE_GATES = {
    "qrom.emit_select": "qrom.select_gates",
    "qrom.emit_copy": "qrom.copy_gates",
    "qrom.emit_restore": "qrom.restore_gates",
}


class Tracer:
    """Span totals, self times and counters for one traced step."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.problems: list[str] = []
        self._child_time: list[float] = []

    def call(self, name, fn, args, kwargs):
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
            self.total[name] += duration
            self.self_time[name] += duration - children

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``; 0 where a layer
        was not called."""
        t, s, c = self.total, self.self_time, self.counts
        values = {
            "simulate.verify_self_s": s["simulate.verify_qrom"],
            "cli.self_s": s["cli.main"],
            "iteration.scaffold_self_s": s["iteration.emit_unary_iteration"],
        }
        for metric, unit in PER_LAYER:
            if metric in values or metric == "trace.overhead_s":
                continue
            values[metric] = t[metric[:-2]] if unit == "s" else c[metric]
        return values

    def consistency_problems(self) -> list[str]:
        """Stage gate counts that missed a circuit's gate count, and negative
        self times."""
        negative = [
            f"negative self time {value!r} for {name}"
            for name, value in self.self_time.items()
            if value < 0
        ]
        return self.problems + negative


def _wrap(tracer: Tracer, name: str, fn):
    stage = _STAGE_GATES.get(name)

    def wrapper(*args, **kwargs):
        if name == "iteration.emit_unary_iteration":
            tracer.counts["iteration.calls"] += 1
            circuit, spec, emitter = args
            args = (circuit, spec, _window_counter(tracer, emitter))
        before = len(args[0].gates) if stage else 0
        stages_before = sum(tracer.counts[key] for key in _STAGE_GATES.values())
        result = tracer.call(name, fn, args, kwargs)
        if stage:
            tracer.counts[stage] += len(args[0].gates) - before
        elif name == "qrom.build_qrom":
            staged = sum(tracer.counts[key] for key in _STAGE_GATES.values()) - stages_before
            if staged != len(result.gates):
                tracer.problems.append(
                    f"build_qrom stages emitted {staged} gates, circuit has {len(result.gates)}"
                )
        elif name == "circuit.count_resources":
            tracer.counts["circuit.gates"] += len(args[0].gates)
            tracer.counts["circuit.qubits"] += args[0].num_qubits
        elif name == "gatefile.serialize_circuit":
            tracer.counts["gatefile.lines"] += result.count("\n")
        elif name == "simulate.batch_simulate":
            tracer.counts["simulate.gate_cases"] += len(args[0].gates) * args[1].shape[1]
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _window_counter(tracer: Tracer, emitter):
    def window(win):
        tracer.counts["iteration.windows"] += 1
        return tracer.call("iteration.window", emitter, (win,), {})

    return window


@contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every name in ``SPANS`` and remove them on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n == "qromkit" or n.startswith("qromkit.")]
    patched = []
    try:
        for name in SPANS:
            module_name, function = name.split(".")
            original = getattr(importlib.import_module(f"qromkit.{module_name}"), function)
            wrapper = _wrap(tracer, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
