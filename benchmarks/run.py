"""qromkit benchmark: build and verify lookup circuits, timed end to end.

Usage, from the repository root::

    python3 benchmarks/run.py --workload cli_b16 --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 55 --trace 0

One workload runs in this process on one thread; ``all`` runs each workload
in a fresh child process, one at a time, so that ``peak_rss_mb`` belongs to
that workload alone. The inputs come from ``--seed``. After set-up and a
small warm-up, steps repeat until ``--seconds`` would be exceeded; every
circuit is checked against its closed-form Toffoli count and verified by
simulation. A calibration loop runs before and after every step, and every
time is scaled to the loop's reference speed (see ``calibrate``). Metrics are
medians over steps. With ``--trace 1`` untraced and traced steps alternate,
and the per-layer metrics of the traced steps are reported instead. The last
line of output is one JSON object. The exit code is 0 when every check passed, 1
when one failed, 2 on a usage or set-up error.
"""
from __future__ import annotations

import os

# Pin native thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cli_b16", "grid_small")
#: Set-up is timed in batches of at least this many repeats and this long,
#: one batch before every step, so that the median of even a
#: sub-millisecond set-up spans the whole run.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.05
#: Reported times are in seconds at the speed where one calibration loop
#: takes this long: on a shared 2-vCPU x86-64 host with Python 3.11.7 and
#: numpy 2.4.6 the loop took 3.6 to 3.9 ms in fast spells, 5.5 ms median.
CALIBRATION_REF_S = 0.004
CALIBRATION_REPEATS = 3
_CALIBRATION_BITS = np.random.default_rng(0).integers(0, 2, size=(96, 16384), dtype=np.uint8)

END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("time_to_verified_s", "s"),
    ("circuits_per_s", "1/s"),
    ("circuit_p50_ms", "ms"),
    ("circuit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("toffoli", "count"),
    ("gates", "count"),
)


def import_qromkit():
    """Import qromkit from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "qromkit"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no qromkit sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import qromkit

    if Path(qromkit.__file__).resolve().parent != package.resolve():
        raise ImportError(f"qromkit imported from {qromkit.__file__}, expected {package}")
    return qromkit


def _calibration_work() -> int:
    """Fixed work in the program's mix: tuples and strings, dict updates with
    tuple keys, and row operations on a uint8 bit matrix."""
    items = [(i, str(i)) for i in range(8000)]
    table: dict[tuple[int, int], int] = {}
    for i in range(8000):
        table[(i & 1023, i >> 10)] = table.get((i & 511, i >> 9), 0) + i
    bits = _CALIBRATION_BITS.copy()
    for i in range(20):
        bits[i % 96] ^= bits[(i * 7) % 96] & bits[(i * 13) % 96]
    return len(items) + len(table) + int(bits[0].sum())


def calibrate() -> float:
    """Fastest of a few runs of the calibration loop, in seconds.

    A CPU shared with other tenants runs the same Python work up to ~1.6x
    slower for seconds to minutes at a time. Dividing a step's time by the
    loop's time just before and after it takes most of that out: over 15 s
    windows of ``cli_b16`` steps, the spread of step times fell from 12% to
    3% (coefficient of variation). A program change moves the scaled time as
    it moves the raw one, since the loop does not call the program."""
    gc.disable()
    try:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = perf_counter()
            _calibration_work()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return min(times)


def scaled(sample, scale: float):
    return dataclasses.replace(
        sample,
        build_s=[t * scale for t in sample.build_s],
        verify_s=[t * scale for t in sample.verify_s],
    )


def time_setup(workload) -> list[float]:
    batch: list[float] = []
    gc.collect()
    while len(batch) < SETUP_REPEATS or sum(batch) < SETUP_MIN_S:
        t0 = perf_counter()
        workload.setup()
        batch.append(perf_counter() - t0)
    return batch


def measure(workload, checks, seconds: float, trace: bool):
    """Repeat set-up and steps until the next step would pass ``seconds``.
    Returns the set-up times, the untraced samples and, when tracing, the
    traced samples with their tracers and scales; every time is scaled by
    the calibration runs around its step."""
    from tracing import Tracer, traced

    setup_times, plain, traced_steps = [], [], []
    start = perf_counter()
    before = calibrate()
    while True:
        setups = time_setup(workload)
        gc.collect()
        sample = workload.step(checks)
        if trace:
            gc.collect()
            tracer = Tracer()
            with traced(tracer):
                traced_sample = workload.step(checks)
        after = calibrate()
        scale = 2 * CALIBRATION_REF_S / (before + after)
        before = after
        setup_times += [t * scale for t in setups]
        plain.append(scaled(sample, scale))
        if trace:
            traced_steps.append((scaled(traced_sample, scale), tracer, scale))
        rounds = len(plain)
        elapsed = perf_counter() - start
        if checks.failures or (rounds >= (1 if trace else 2) and elapsed * (rounds + 1) / rounds > seconds):
            return setup_times, plain, traced_steps


def build_verify_s(samples) -> tuple[float, float]:
    """Medians over steps of the build and the verify time of all circuits."""
    return (
        statistics.median(sum(s.build_s) for s in samples),
        statistics.median(sum(s.verify_s) for s in samples),
    )


def end_to_end(samples, setup_times) -> dict[str, float]:
    """The percentiles are over circuits of each circuit's median build plus
    verify time."""
    build_s, verify_s = build_verify_s(samples)
    per_step = ([b + v for b, v in zip(s.build_s, s.verify_s)] for s in samples)
    circuit_s = [statistics.median(times) for times in zip(*per_step)]
    if len(circuit_s) > 1:
        deciles = statistics.quantiles(circuit_s, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = circuit_s[0]
    return {
        "setup_s": statistics.median(setup_times),
        "build_s": build_s,
        "verify_s": verify_s,
        "time_to_verified_s": build_s + verify_s,
        "circuits_per_s": len(circuit_s) / (build_s + verify_s),
        "circuit_p50_ms": p50 * 1e3,
        "circuit_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "toffoli": samples[0].toffoli,
        "gates": samples[0].gates,
    }


def per_layer(plain, traced_steps, checks) -> dict[str, float]:
    from tracing import PER_LAYER

    units = dict(PER_LAYER)
    layers = [
        {m: v * scale if units[m] == "s" else v for m, v in tracer.layer_metrics().items()}
        for _, tracer, scale in traced_steps
    ]
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["trace.overhead_s"] = (
        sum(build_verify_s([s for s, _, _ in traced_steps])) - sum(build_verify_s(plain))
    )
    for _, tracer, _ in traced_steps:
        problems = tracer.consistency_problems()
        checks.expect(not problems, "trace: " + "; ".join(problems))
    return {name: values[name] for name, _ in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # The benchmark's own modules import qromkit, so they load after
    # import_qromkit has put this checkout's sources first on the path.
    from workloads import WORKLOADS, Checks
    from tracing import PER_LAYER

    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    metrics, units = {}, {}
    try:
        workload = WORKLOADS[name](seed, workdir)
        workload.setup()
        workload.warm_up(checks)
        setup_times, plain, traced_steps = measure(workload, checks, seconds, trace)
        for sample in plain[1:] + [s for s, _, _ in traced_steps]:
            checks.expect(
                (sample.toffoli, sample.gates) == (plain[0].toffoli, plain[0].gates),
                "counts repeat exactly across steps",
            )
        if trace:
            metrics, units = per_layer(plain, traced_steps, checks), dict(PER_LAYER)
        else:
            metrics, units = end_to_end(plain, setup_times), dict(END_TO_END)
    except Exception:  # a program error is a failed check, reported like the others
        traceback.print_exc()
        checks.expect(False, "the workload raised an exception")
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = len(checks.failures)
    for failure in checks.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"{name:<13} {metric:<36} {value:>16.6g} {units[metric]}")
    print(f"{name:<13} {'failure_rate':<36} {failed / checks.attempted:>16.6g} "
          f"({failed} of {checks.attempted} checks)")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=os.environ.copy(), check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, child.returncode)
        if child.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        import_qromkit()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
