"""Exact bit-level simulation of permutation-gate circuits, and the lookup verifier.

Every gate kind in the IR permutes computational basis states, so simulating
basis states is exact and, by linearity, covers superpositions: if each
|x>|0>|phi> maps to |x>|f(x)>|phi>, so does any sum of them. Amplitudes are
not tracked.

``simulate`` runs one assignment through the gate list and is the independent
oracle; ``batch_simulate`` runs a matrix of assignments (one row per qubit in
``qubit_indexer`` order, one column per case). Both raise ``SimulationError``
on a temp-AND computed onto a nonzero target or uncomputed to a nonzero result.

``verify_qrom`` is the one lookup verifier: one table or one per output
register, every address times seeded dirty patterns in one ``batch_simulate``
call, whole-array checks, and Python only over failing cases. It raises
``ValueError`` before allocating for a circuit it cannot check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, GateKind, QubitRef, Role
from .qrom import LookupTable

__all__ = [
    "SimulationError",
    "BitState",
    "simulate",
    "batch_simulate",
    "qubit_indexer",
    "VerificationFailure",
    "VerificationReport",
    "verify_qrom",
]

MAX_STATE_CELLS = 1 << 30  # qubits x cases cap on verify_qrom's uint8 state matrix


class SimulationError(RuntimeError):
    """A gate was applied to a state violating its precondition."""


@dataclass
class BitState:
    """Complete bit assignment for every qubit of a circuit."""

    sizes: dict[str, int]
    bits: dict[QubitRef, int]

    @classmethod
    def for_circuit(cls, circuit: Circuit, values: dict[str, int] | None = None) -> "BitState":
        """All-zero state, with named registers initialized to integer values
        (bit j of the value goes to offset j)."""
        values = dict(values or {})
        sizes = {reg.name: reg.size for reg in circuit.registers}
        bits: dict[QubitRef, int] = {}
        for reg in circuit.registers:
            value = values.pop(reg.name, 0)
            if not 0 <= value < 1 << reg.size:
                raise ValueError(f"value {value} does not fit register {reg.name!r}")
            for offset in range(reg.size):
                bits[QubitRef(reg.name, offset)] = (value >> offset) & 1
        if values:
            raise ValueError(f"unknown registers: {sorted(values)}")
        return cls(sizes, bits)

    def register_value(self, name: str) -> int:
        size = self.sizes[name]
        return sum(self.bits[QubitRef(name, j)] << j for j in range(size))

    def copy(self) -> "BitState":
        return BitState(dict(self.sizes), dict(self.bits))


def simulate(circuit: Circuit, initial: BitState) -> BitState:
    """Apply the gate list to a single basis-state assignment.

    X flips its target; CNOT xors the control into the target; TOFFOLI and
    TEMP_AND xor the AND of both controls in; CSWAP exchanges its two targets
    when the control is 1. TEMP_AND additionally requires a zero target
    before it fires, and TEMP_AND_UNCOMPUTE must leave the target at zero.
    """
    state = initial.copy()
    bits = state.bits
    for i, gate in enumerate(circuit.gates):
        kind = gate.kind
        ops = gate.operands
        if kind is GateKind.X:
            bits[ops[0]] ^= 1
        elif kind is GateKind.CNOT:
            bits[ops[1]] ^= bits[ops[0]]
        elif kind is GateKind.TOFFOLI:
            bits[ops[2]] ^= bits[ops[0]] & bits[ops[1]]
        elif kind is GateKind.TEMP_AND:
            if bits[ops[2]]:
                raise SimulationError(f"gate {i}: TEMP_AND target {ops[2]} is not 0")
            bits[ops[2]] = bits[ops[0]] & bits[ops[1]]
        elif kind is GateKind.TEMP_AND_UNCOMPUTE:
            bits[ops[2]] ^= bits[ops[0]] & bits[ops[1]]
            if bits[ops[2]]:
                raise SimulationError(
                    f"gate {i}: TEMP_AND_UNCOMPUTE left target {ops[2]} at 1"
                )
        elif kind is GateKind.CSWAP:
            if bits[ops[0]]:
                bits[ops[1]], bits[ops[2]] = bits[ops[2]], bits[ops[1]]
        else:  # pragma: no cover
            raise SimulationError(f"unknown gate kind {kind}")
    return state


def qubit_indexer(circuit: Circuit) -> dict[QubitRef, int]:
    """Flat row index for every qubit, in register declaration order."""
    index: dict[QubitRef, int] = {}
    for reg in circuit.registers:
        for offset in range(reg.size):
            index[QubitRef(reg.name, offset)] = len(index)
    return index


def batch_simulate(circuit: Circuit, bit_matrix: np.ndarray) -> np.ndarray:
    """Run many cases at once.

    ``bit_matrix`` has shape (num_qubits, num_cases) with rows ordered by
    ``qubit_indexer``; a fresh final matrix is returned. Semantics and
    temp-AND checks match ``simulate`` exactly, applied across all cases.
    """
    if bit_matrix.shape[0] != circuit.num_qubits:
        raise ValueError(
            f"bit matrix has {bit_matrix.shape[0]} rows, circuit has {circuit.num_qubits} qubits"
        )
    state = bit_matrix.astype(np.uint8, copy=True)
    index = qubit_indexer(circuit)
    for i, gate in enumerate(circuit.gates):
        kind = gate.kind
        rows = [index[ref] for ref in gate.operands]
        if kind is GateKind.X:
            state[rows[0]] ^= 1
        elif kind is GateKind.CNOT:
            state[rows[1]] ^= state[rows[0]]
        elif kind is GateKind.TOFFOLI:
            state[rows[2]] ^= state[rows[0]] & state[rows[1]]
        elif kind is GateKind.TEMP_AND:
            if state[rows[2]].any():
                raise SimulationError(f"gate {i}: TEMP_AND target is not 0 in some case")
            state[rows[2]] = state[rows[0]] & state[rows[1]]
        elif kind is GateKind.TEMP_AND_UNCOMPUTE:
            state[rows[2]] ^= state[rows[0]] & state[rows[1]]
            if state[rows[2]].any():
                raise SimulationError(
                    f"gate {i}: TEMP_AND_UNCOMPUTE left target at 1 in some case"
                )
        elif kind is GateKind.CSWAP:
            mask = state[rows[0]] & (state[rows[1]] ^ state[rows[2]])
            state[rows[1]] ^= mask
            state[rows[2]] ^= mask
        else:  # pragma: no cover
            raise SimulationError(f"unknown gate kind {kind}")
    return state


@dataclass(frozen=True, slots=True)
class VerificationFailure:
    x: int
    dirty_pattern: int
    observed_output: int
    observed_dirty: int
    diagnostics: str


@dataclass
class VerificationReport:
    cases_run: int
    failures: list[VerificationFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_qrom(
    circuit: Circuit, table, plan=None, dirty_trials: int = 10, seed: int = 0
) -> VerificationReport:
    """Check the lookup contract for every address against random dirty states.

    ``table`` is one ``LookupTable`` or a sequence of them, one per output
    register in declaration order. For each x in [0, N) and ``dirty_trials``
    seeded dirty patterns, each output register's low b bits must equal its
    table's entry x, every dirty bit must be restored, the address unchanged
    and all work/temp qubits 0. Failures are reported, not raised;
    ``observed_output`` packs all output registers in declaration order.
    ``plan``, when given, is only cross-checked against the table dimensions.

    Input contract, raising ``ValueError`` before any allocation: one table
    per output register, all with the same N; at most one ``address_q`` and one
    ``address_r`` register, together at least ceil(log2 N) qubits; each output
    register at least b wide; ``dirty_trials >= 1``; and at most
    ``MAX_STATE_CELLS`` qubits times cases.
    """
    tables = [table] if isinstance(table, LookupTable) else list(table)
    out_regs = circuit.registers_with_role(Role.OUTPUT)
    q_regs = circuit.registers_with_role(Role.ADDRESS_Q)
    r_regs = circuit.registers_with_role(Role.ADDRESS_R)
    if not out_regs or len(tables) != len(out_regs):
        raise ValueError(f"{len(tables)} tables for {len(out_regs)} output registers")
    n = tables[0].n_entries
    if any(t.n_entries != n for t in tables):
        raise ValueError("tables differ in their number of entries")
    dims = {(n, t.bit_width) for t in tables}
    if plan is not None and dims != {(plan.n_entries, plan.bit_width)}:
        raise ValueError("plan dimensions do not match table")
    for reg, t in zip(out_regs, tables):
        if reg.size < t.bit_width:
            raise ValueError(f"output register {reg.name!r} is narrower than b={t.bit_width}")
    if len(q_regs) > 1 or len(r_regs) > 1:
        raise ValueError("verify_qrom expects at most one address_q and one address_r register")
    address_bits = sum(reg.size for reg in q_regs + r_regs)
    if (n - 1).bit_length() > address_bits:
        raise ValueError(f"{address_bits} address qubits cannot address {n} entries")
    if dirty_trials < 1:
        raise ValueError("dirty_trials must be >= 1")
    trials, cases = dirty_trials, n * dirty_trials
    if circuit.num_qubits * cases > MAX_STATE_CELLS:
        cells = f"{circuit.num_qubits} qubits x {cases} cases"
        raise ValueError(f"verifier state of {cells} exceeds {MAX_STATE_CELLS} cells")

    index = qubit_indexer(circuit)

    def rows(regs) -> list[int]:
        return [index[QubitRef(reg.name, off)] for reg in regs for off in range(reg.size)]

    addr_rows = rows(r_regs + q_regs)  # row i holds address bit i
    dirty_rows = rows(circuit.registers_with_role(Role.DIRTY))
    clean_rows = rows(reg for reg in circuit.registers if reg.role in (Role.WORK, Role.TEMP))
    out_rows = [rows([reg]) for reg in out_regs]

    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2, size=(trials, len(dirty_rows)), dtype=np.uint8)
    xs = np.repeat(np.arange(n), trials)
    matrix = np.zeros((circuit.num_qubits, cases), dtype=np.uint8)
    for shift, row in enumerate(addr_rows):
        matrix[row] = (xs >> shift) & 1
    matrix[dirty_rows] = np.tile(patterns.T, n)

    final = batch_simulate(circuit, matrix)

    out_bad = [_mismatch(final[r[: t.bit_width]], t, trials) for r, t in zip(out_rows, tables)]
    dirty_bad = (final[dirty_rows] != matrix[dirty_rows]).any(axis=0)
    addr_bad = (final[addr_rows] != matrix[addr_rows]).any(axis=0)
    clean_bad = final[clean_rows].any(axis=0)

    labels = ["output"] if len(out_regs) == 1 else [reg.name for reg in out_regs]
    all_out_rows = sum(out_rows, [])
    report = VerificationReport(cases_run=cases)
    for j in np.flatnonzero(np.logical_or.reduce([*out_bad, dirty_bad, addr_bad, clean_bad])):
        x, column = int(j) // trials, final[:, j]
        problems = [
            f"{label} {_pack(column, reg_rows):#x} != f(x) {t.entries[x]:#x}"
            for label, reg_rows, t, bad in zip(labels, out_rows, tables, out_bad)
            if bad[j]
        ]
        if dirty_bad[j]:
            problems.append("dirty register not restored")
        if addr_bad[j]:
            problems.append("address register changed")
        if clean_bad[j]:
            problems.append("work/temp qubit left nonzero")
        report.failures.append(
            VerificationFailure(
                x=x,
                dirty_pattern=_pack(matrix[:, j], dirty_rows),
                observed_output=_pack(column, all_out_rows),
                observed_dirty=_pack(column, dirty_rows),
                diagnostics="; ".join(problems),
            )
        )
    return report


def _mismatch(observed: np.ndarray, table: LookupTable, trials: int) -> np.ndarray:
    """Per case, whether the b observed output rows differ from entry x's bits."""
    values = np.array(table.entries, dtype=np.uint64 if table.bit_width <= 64 else object)
    expected = np.array([(values >> j) & 1 for j in range(table.bit_width)], dtype=np.uint8)
    return (observed.reshape(*expected.shape, trials) != expected[..., None]).any(axis=0).ravel()


def _pack(column: np.ndarray, rows: list[int]) -> int:
    value = 0
    for j, row in enumerate(rows):
        value |= int(column[row]) << j
    return value
