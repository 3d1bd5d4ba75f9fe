"""The benchmark's workloads: seeded inputs, one timed step, correctness checks.

``setup`` builds a workload's inputs from the seed and is timed as
``setup_s``. ``step`` builds and verifies circuits and returns a ``Sample``.
Timed calls go through module attributes (``MOD["qrom"].build_qrom``) so that
tracing wrappers see them; checks call the functions imported by name below,
which tracing never replaces.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from qromkit.circuit import CircuitError, QubitRef, Role, check_temp_and_pairing, count_resources
from qromkit.costs import cost_bit_packet
from qromkit.gatefile import parse_circuit, serialize_circuit
from qromkit.qrom import LookupTable, SequentialSpec, ceil_div
from qromkit.simulate import qubit_indexer
from qromkit.tablefile import format_table

MOD = {
    name: importlib.import_module(f"qromkit.{name}")
    for name in ("baselines", "circuit", "cli", "costs", "qrom", "simulate")
}


class Checks:
    """Correctness checks of one run: how many were made, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Sample:
    """One timed step: the build and verify time of each of its circuits, in
    the same order on every step, and the circuits' summed counts."""

    build_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    toffoli: int = 0
    gates: int = 0

    def add(self, build_s: float, verify_s: float, toffoli: int, gates: int) -> None:
        self.build_s.append(build_s)
        self.verify_s.append(verify_s)
        self.toffoli += toffoli
        self.gates += gates


def random_table(rng: random.Random, n: int, b: int) -> LookupTable:
    return LookupTable(tuple(rng.getrandbits(b) for _ in range(n)), b)


class CliB16:
    """(N, b, lam, mu) = (1024, 16, 16, 4) through ``qromkit.cli.main``:
    ``build --out`` from a table file, then ``verify --circuit --trials 4``.
    Wide outputs and many dirty trials stress the verifier's per-case work
    and the gate-file parser."""

    def __init__(self, seed: int, workdir: Path, n: int = 1024, b: int = 16,
                 lam: int = 16, mu: int = 4, trials: int = 4, expected_toffoli: int | None = 685):
        self.seed, self.n, self.b, self.lam, self.mu, self.trials = seed, n, b, lam, mu, trials
        self.expected_toffoli = expected_toffoli
        self.workdir = workdir
        self.table_path = workdir / f"table_{n}_{b}.txt"
        self.circuit_path = workdir / f"circuit_{n}_{b}_{lam}_{mu}.txt"
        self.first_file: bytes | None = None
        self.gates = 0
        self.outputs: list | None = None

    def setup(self) -> None:
        table = random_table(random.Random(self.seed), self.n, self.b)
        with open(self.table_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(format_table(table))

    def warm_up(self, checks: Checks) -> None:
        small = CliB16(self.seed, self.workdir, n=256, b=self.b, lam=self.lam, mu=self.mu,
                       trials=self.trials, expected_toffoli=None)
        small.setup()
        small.step(checks)

    def step(self, checks: Checks) -> Sample:
        table, out = str(self.table_path), str(self.circuit_path)
        t0 = perf_counter()
        build_code, build_out = _run_cli(
            ["build", "--table", table, "--lambda", str(self.lam), "--mu", str(self.mu), "--out", out]
        )
        t1 = perf_counter()
        verify_code, verify_out = _run_cli(
            ["verify", "--table", table, "--circuit", out,
             "--trials", str(self.trials), "--seed", str(self.seed)]
        )
        t2 = perf_counter()

        checks.expect(build_code == 0, f"cli: build exited {build_code}: {build_out!r}")
        checks.expect(verify_code == 0, f"cli: verify exited {verify_code}: {verify_out!r}")
        formula = cost_bit_packet(self.n, self.b, self.lam, self.mu).toffoli_total
        match = re.search(r"^toffoli=(\d+)$", build_out, re.MULTILINE)
        toffoli = int(match.group(1)) if match else -1
        checks.expect(toffoli == formula, f"cli: toffoli {toffoli} != closed form {formula}")
        if self.expected_toffoli is not None:
            checks.expect(toffoli == self.expected_toffoli, f"cli: toffoli {toffoli} != {self.expected_toffoli}")
        cases = self.n * self.trials
        checks.expect(
            f"cases_run={cases}\nfailures=0\n" in verify_out,
            f"cli: verify did not pass {cases} cases: {verify_out!r}",
        )
        data = self.circuit_path.read_bytes()
        if self.first_file is None:
            self._check_file(checks, data, formula)
        else:
            checks.expect(data == self.first_file, "cli: build wrote a different gate file")
        if self.outputs is not None:
            self.outputs.append((data, verify_out))
        sample = Sample()
        sample.add(t1 - t0, t2 - t1, toffoli, self.gates)
        return sample

    def _check_file(self, checks: Checks, data: bytes, formula: int) -> None:
        """Round trip and structure of the first gate file of a run; later
        builds must write the same bytes."""
        self.first_file = data
        circuit = parse_circuit(data.decode("utf-8"))
        self.gates = len(circuit.gates)
        checks.expect(
            serialize_circuit(circuit).encode("utf-8") == data,
            "cli: serialize(parse(file)) differs from the file",
        )
        try:
            check_temp_and_pairing(circuit)
            paired = True
        except CircuitError:
            paired = False
        checks.expect(paired, "cli: gate file breaks temp-AND pairing")
        toffoli = count_resources(circuit).toffoli
        checks.expect(toffoli == formula, f"cli: parsed toffoli {toffoli} != closed form {formula}")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = MOD["cli"].main(argv)
    return code, out.getvalue()


#: Fixed seed of the grid's shape draw, so every run does the same work;
#: ``--seed`` draws the tables and dirty states.
SHAPE_SEED = 2605

#: Shapes drawn per octave 2^k < N <= 2^(k+1). Smaller N gets more shapes so
#: that per-circuit fixed cost dominates; beyond N=64, every-lam shapes with b
#: up to 8 spend most of their time in the verifier's per-case work instead.
SHAPES_PER_OCTAVE = {2: 4, 3: 4, 4: 3, 5: 2}


def draw_shapes() -> list[tuple[int, int]]:
    """(N, b) pairs with 4 < N <= 64 and 2 <= b <= 8."""
    rng = random.Random(SHAPE_SEED)
    return [
        (rng.randint((1 << k) + 1, 1 << (k + 1)), rng.randint(2, 8))
        for k, count in SHAPES_PER_OCTAVE.items()
        for _ in range(count)
    ]


class GridSmall:
    """Many small circuits: for each drawn (N, b), the optimizer's pick under
    the paper's budget of 31 dirty qubits, every valid lam with mu in
    {1, ~b/2, b}, and at mu=b also the dirty swap-network baseline and three
    sequential lookups. Every circuit is verified exhaustively with 4 dirty
    trials, so per-circuit fixed costs dominate."""

    M = 3
    BUDGET = 31

    def __init__(self, seed: int, workdir: Path, shapes: list[tuple[int, int]] | None = None,
                 trials: int = 4):
        self.seed, self.trials = seed, trials
        self.shapes = draw_shapes() if shapes is None else shapes
        self.workdir = workdir
        self.outputs: list | None = None

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.tables = [
            tuple(random_table(rng, n, b) for _ in range(self.M)) for n, b in self.shapes
        ]

    def warm_up(self, checks: Checks) -> None:
        small = GridSmall(self.seed, self.workdir, shapes=self.shapes[:2], trials=self.trials)
        small.setup()
        small.step(checks)

    def step(self, checks: Checks) -> Sample:
        qrom, baselines, simulate = MOD["qrom"], MOD["baselines"], MOD["simulate"]
        sample = Sample()
        for tables in self.tables:
            table = tables[0]
            n, b = table.n_entries, table.bit_width

            def verify(circuit, plan=None):
                report = simulate.verify_qrom(circuit, table, plan, dirty_trials=self.trials, seed=self.seed)
                return report.cases_run, report.failures

            picked = {}

            def build_optimized():
                best = MOD["costs"].optimize_parameters(n, b, self.BUDGET)
                picked["best"] = best
                picked["plan"] = qrom.plan_qrom(n, b, best.lam, best.mu)
                return qrom.build_qrom(table, picked["plan"])

            def optimized_formula():
                best = picked["best"]
                checks.expect(
                    best.feasible and best.mu * (best.lam - 1) <= self.BUDGET,
                    f"optimizer N={n} b={b}: pick {best} is outside the budget {self.BUDGET}",
                )
                return cost_bit_packet(n, b, best.lam, best.mu).toffoli_total

            self._measure(
                sample, checks, f"optimizer N={n} b={b} budget={self.BUDGET}",
                build_optimized, lambda c: verify(c, picked["plan"]), optimized_formula, n,
            )
            lam = 2
            while lam < n:
                blocks = ceil_div(n, lam)
                for mu in sorted({1, (b + 1) // 2, b}):
                    plan = qrom.plan_qrom(n, b, lam, mu)
                    self._measure(
                        sample, checks, f"qrom N={n} b={b} lam={lam} mu={mu}",
                        lambda: qrom.build_qrom(table, plan), lambda c: verify(c, plan),
                        lambda: cost_bit_packet(n, b, lam, mu).toffoli_total, n,
                    )
                self._measure(
                    sample, checks, f"selectswap N={n} b={b} lam={lam}",
                    lambda: baselines.build_selectswap_dirty(table, lam), verify,
                    lambda: 2 * (blocks - 1) + 4 * b * (lam - 1), n,
                )
                self._measure(
                    sample, checks, f"sequential N={n} b={b} lam={lam} m={self.M}",
                    lambda: qrom.build_sequential_qroms(SequentialSpec(tables, lam)),
                    lambda c: _verify_sequential(c, tables, lam, self.trials, self.seed),
                    lambda: (self.M + 1) * (blocks + b * (lam - 1) + lam - 3), n,
                )
                lam *= 2
        return sample

    def _measure(self, sample, checks, label, build, verify, formula, n) -> None:
        """Time ``build`` plus the resource count, then ``verify``; check the
        Toffoli count against ``formula()``, evaluated after the timing."""
        t0 = perf_counter()
        circuit = build()
        toffoli = MOD["circuit"].count_resources(circuit).toffoli
        t1 = perf_counter()
        cases, failures = verify(circuit)
        t2 = perf_counter()
        formula = formula()
        checks.expect(toffoli == formula, f"{label}: toffoli {toffoli} != closed form {formula}")
        checks.expect(
            not failures and cases == n * self.trials,
            f"{label}: {len(failures)} of {cases} cases failed",
        )
        if self.outputs is not None:
            self.outputs.append((circuit.gates, cases, failures))
        sample.add(t1 - t0, t2 - t1, toffoli, len(circuit.gates))


def _verify_sequential(circuit, tables, lam: int, trials: int, seed: int) -> tuple[int, list[int]]:
    """Check every output register of a sequential circuit on all addresses
    and ``trials`` seeded dirty states: outputs equal their tables, address
    and dirty qubits are restored, work qubits end at 0. ``verify_qrom`` takes
    one output register only. Returns (cases, failing case indices)."""
    n, b = tables[0].n_entries, tables[0].bit_width
    index = qubit_indexer(circuit)

    def rows(*roles):
        return [
            index[QubitRef(reg.name, off)]
            for reg in circuit.registers if reg.role in roles
            for off in range(reg.size)
        ]

    xs = np.repeat(np.arange(n), trials)
    r_bits = lam.bit_length() - 1
    dirty = rows(Role.DIRTY)
    matrix = np.zeros((circuit.num_qubits, xs.size), dtype=np.uint8)
    for off, row in enumerate(rows(Role.ADDRESS_R)):
        matrix[row] = (xs >> off) & 1
    for off, row in enumerate(rows(Role.ADDRESS_Q)):
        matrix[row] = (xs >> (r_bits + off)) & 1
    patterns = np.random.default_rng(seed).integers(0, 2, size=(len(dirty), trials), dtype=np.uint8)
    matrix[dirty] = np.tile(patterns, n)

    final = MOD["simulate"].batch_simulate(circuit, matrix)
    kept = rows(Role.ADDRESS_Q, Role.ADDRESS_R, Role.DIRTY)
    bad = (final[kept] != matrix[kept]).any(axis=0) | final[rows(Role.WORK, Role.TEMP)].any(axis=0)
    weights = 1 << np.arange(b, dtype=np.int64)
    for i, table in enumerate(tables):
        out = [index[QubitRef(f"output_{i + 1}", off)] for off in range(b)]
        values = weights @ final[out].astype(np.int64)
        bad |= values != np.asarray(table.entries, dtype=np.int64)[xs]
    return xs.size, np.flatnonzero(bad).tolist()


WORKLOADS = {"cli_b16": CliB16, "grid_small": GridSmall}
