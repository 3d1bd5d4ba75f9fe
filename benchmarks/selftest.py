"""Self-test of the benchmark, on small versions of its workloads.

    python3 benchmarks/selftest.py

Checks that tracing leaves gate lists and verification reports identical,
that every traced step passes the trace consistency checks and reports every
per-layer metric, each nonzero on at least one workload, that tracing
wrappers are removed afterwards, and that the metric names and units the
benchmark prints are those of BENCHMARK.json. Exits 0 when all hold.
"""
from __future__ import annotations

import importlib
import json
import shutil
import sys

from run import END_TO_END, ROOT, WORKLOAD_NAMES, import_qromkit

import_qromkit()

from tracing import PER_LAYER, SPANS, Tracer, traced  # noqa: E402
from workloads import Checks, CliB16, GridSmall  # noqa: E402

SEED = 7
SMALL = {
    "cli_b16": lambda workdir: CliB16(SEED, workdir, n=256, expected_toffoli=None),
    "grid_small": lambda workdir: GridSmall(SEED, workdir, shapes=[(9, 3), (20, 4)]),
}


def main() -> int:
    problems: list[str] = []
    nonzero: set[str] = set()
    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, make in SMALL.items():
            workload = make(workdir)
            workload.setup()
            workload.outputs = []
            checks = Checks()
            workload.step(checks)
            untraced = len(workload.outputs)
            tracer = Tracer()
            with traced(tracer):
                workload.step(checks)
            if workload.outputs[:untraced] != workload.outputs[untraced:]:
                problems.append(f"{name}: tracing changed gate lists or verification reports")
            problems += [f"{name}: {p}" for p in checks.failures + tracer.consistency_problems()]
            metrics = tracer.layer_metrics()
            expected = {m for m, _ in PER_LAYER} - {"trace.overhead_s"}
            if set(metrics) != expected:
                problems.append(f"{name}: per-layer metrics {sorted(set(metrics) ^ expected)} missing or extra")
            nonzero |= {m for m, v in metrics.items() if v > 0}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    never = {m for m, _ in PER_LAYER} - {"trace.overhead_s"} - nonzero
    if never:
        problems.append(f"per-layer metrics zero on every workload: {sorted(never)}")
    for span in SPANS:
        module, function = span.split(".")
        if hasattr(getattr(importlib.import_module(f"qromkit.{module}"), function), "__wrapped__"):
            problems.append(f"tracing wrapper left on {span}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(emitted):
            problems.append(f"BENCHMARK.json {key} names or units differ from what run.py prints")

    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
