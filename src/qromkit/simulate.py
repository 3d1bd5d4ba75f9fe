"""Exact bit-level simulation of permutation-gate circuits, and the lookup verifier.

Every gate kind in the IR permutes computational basis states, so simulating
basis states is exact and, by linearity, covers superpositions: if each
|x>|0>|phi> maps to |x>|f(x)>|phi>, so does any sum of them. Amplitudes are
not tracked.

Both engines read the circuit's gate list, an array of indices into the
distinct ops the circuit interned: each op is ``(kind, a, b, t)``, headed by
its ``GateKind`` and holding its operand rows, checked once when first
stored (a lookup repeats a few hundred gates thousands of times).
``simulate`` runs one assignment through the gates, the ``Gate`` view of the
ops, dispatching on each gate's kind and ``QubitRef`` operands, and is the
independent oracle. The batch engine holds each qubit row as one Python int
with bit j for case j and runs the gate list once over all cases; it has one
gate loop and two callers. The loop maps the stored ops over the positions
and dispatches on the kind's identity, and makes no ``Gate``.
``batch_simulate`` takes and returns a 0/1 matrix (one row per qubit in
``qubit_indexer`` order, one column per case) and turns it into rows for the
engine and back with qrom's ints/bit-matrix codec, ``_row_ints`` and
``_bit_matrix``, which the builders share. Both raise ``SimulationError`` on
a temp-AND computed onto a nonzero target or uncomputed to a nonzero result.

``verify_qrom`` is the one lookup verifier: one table or one per output
register, every address times seeded dirty patterns in one engine run. Its
set-up is kept small, since a small circuit simulates in tens of
microseconds. It groups the registers by role in one pass for its input
checks and, once they pass, lists each role's rows in one pass over the
register spans. It builds only the address and dirty rows, each in
O(log N) int operations by bit doubling: address bit i's row repeats a
period of 2 * trials * 2^i bits with its upper half set, and a dirty
qubit's row is its trials-bit pattern column times a doubled row of ones.
The patterns and their columns come from a memo keyed by (seed, trials,
dirty count), which keeps the last ``DRAW_MEMO_ENTRIES`` draws of at most
``DRAW_MEMO_CELLS`` cells, read-only: a draw depends on its key alone, so a
report never depends on earlier calls. It compares final rows with
expected rows by XOR/OR into one failure mask per check, and reaches Python
per case only for failing cases, whose fields it reads from their columns
as one int each through the same codec. It raises ``ValueError`` before
allocating for a circuit, trial count or seed it cannot check.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, GateKind, QubitRef, Role
from .qrom import LookupTable, _bit_matrix, _check_int, _row_ints

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

MAX_STATE_CELLS = 1 << 30  # qubits x cases cap on verify_qrom's state, one bit per cell
DRAW_MEMO_ENTRIES = 64  # dirty-pattern draws kept between verify_qrom calls
DRAW_MEMO_CELLS = 1 << 12  # trials x dirty qubits of the largest draw kept

_ROLES = tuple(Role)  # iterating the enum itself costs a microsecond per call


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
    for i, gate in enumerate(map(circuit._distinct.__getitem__, circuit._index)):
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
    return {qubit: row for row, qubit in enumerate(circuit.qubits())}


def batch_simulate(circuit: Circuit, bit_matrix: np.ndarray) -> np.ndarray:
    """Run many cases at once.

    ``bit_matrix`` is a 2-D 0/1 matrix of integers or bools with shape
    (num_qubits, num_cases) and rows ordered by ``qubit_indexer``; anything
    else raises ``ValueError``. A fresh ``uint8`` final matrix is returned.
    Semantics and temp-AND checks match ``simulate`` exactly, applied across
    all cases. The matrix is packed into rows with ``qrom._row_ints``, run on
    the bit-packed engine and unpacked with ``qrom._bit_matrix``.
    """
    if bit_matrix.ndim != 2 or bit_matrix.shape[0] != circuit.num_qubits:
        raise ValueError(
            f"bit matrix has shape {bit_matrix.shape}, circuit has {circuit.num_qubits} qubits"
        )
    if bit_matrix.dtype.kind not in "biu":
        raise ValueError(f"bit matrix must hold integers or bools, not {bit_matrix.dtype}")
    if bit_matrix.size and (bit_matrix.min() < 0 or bit_matrix.max() > 1):
        raise ValueError("bit matrix entries must be 0 or 1")
    cases = bit_matrix.shape[1]
    state = _row_ints(bit_matrix)
    _run_packed(circuit, state, cases)
    return _bit_matrix(state, len(state), cases)


def _run_packed(circuit: Circuit, state: list[int], cases: int) -> None:
    """The one gate loop: apply the gate list in place to ``state``, one
    Python int per qubit row (``qubit_indexer`` order) whose bit j is case j.

    Every gate is one or two int operations over all cases. Each distinct
    gate is interned as its ``(kind, a, b, t)`` op of its ``GateKind`` and
    operand rows, and the loop maps the ops over the positions. The kinds
    are bound to locals once per run and tested by identity, most frequent
    first; CSWAP is the one left.
    """
    full = (1 << cases) - 1
    cnot, x, toffoli = GateKind.CNOT, GateKind.X, GateKind.TOFFOLI
    temp_and, uncompute = GateKind.TEMP_AND, GateKind.TEMP_AND_UNCOMPUTE
    for i, (kind, a, b, t) in enumerate(map(circuit._ops.__getitem__, circuit._index)):
        if kind is cnot:  # control a, target b
            state[b] ^= state[a]
        elif kind is x:  # X on a
            state[a] ^= full
        elif kind is toffoli:
            state[t] ^= state[a] & state[b]
        elif kind is temp_and:
            if state[t]:
                raise SimulationError(f"gate {i}: TEMP_AND target is not 0 in some case")
            state[t] = state[a] & state[b]
        elif kind is uncompute:
            state[t] ^= state[a] & state[b]
            if state[t]:
                raise SimulationError(
                    f"gate {i}: TEMP_AND_UNCOMPUTE left target at 1 in some case"
                )
        else:  # CSWAP of rows b and t, controlled by a
            mask = state[a] & (state[b] ^ state[t])
            state[b] ^= mask
            state[t] ^= mask


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
    seeded dirty patterns, each output register must equal its table's entry
    x zero-extended to the register's width (output qubits start clean, so
    bits above b must end at 0), every dirty bit must be restored, the
    address unchanged and all work/temp qubits 0. Failures are reported, not
    raised;
    ``observed_output`` packs all output registers in declaration order.
    ``plan``, when given, is only cross-checked against the table dimensions.

    Input contract, raising ``ValueError`` before any allocation: one table
    per output register, all with the same N; at most one ``address_q`` and one
    ``address_r`` register, together at least ceil(log2 N) qubits; each output
    register at least b wide; ``dirty_trials`` an ``int`` >= 1 and ``seed`` an
    ``int`` >= 0, a bool or numpy integer refused; and at most
    ``MAX_STATE_CELLS`` qubits times cases.

    The dirty patterns are ``default_rng(seed).integers(0, 2, size=(trials,
    D), dtype=uint8)`` for the D dirty qubits, pattern k in row k, and case j
    is address ``j // trials`` with pattern ``j % trials``. The draw is
    memoized per (seed, trials, D) within a process (see ``_dirty_draw``);
    it is the same draw with or without the memo.
    """
    tables = [table] if isinstance(table, LookupTable) else list(table)
    by_role = {role: [] for role in _ROLES}
    for reg in circuit.registers:
        by_role[reg.role].append(reg)
    out_regs, q_regs, r_regs = by_role[Role.OUTPUT], by_role[Role.ADDRESS_Q], by_role[Role.ADDRESS_R]
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
    _check_int("dirty_trials", dirty_trials)
    if dirty_trials < 1:
        raise ValueError("dirty_trials must be >= 1")
    _check_int("seed", seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    trials, cases = dirty_trials, n * dirty_trials
    if circuit.num_qubits * cases > MAX_STATE_CELLS:
        cells = f"{circuit.num_qubits} qubits x {cases} cases"
        raise ValueError(f"verifier state of {cells} exceeds {MAX_STATE_CELLS} cells")

    out_rows, addr_rows, dirty_rows, clean_rows = _role_rows(circuit)
    patterns, columns = _dirty_draw(seed, trials, len(dirty_rows))
    # Case j is address j // trials with dirty pattern j % trials.
    addr_init = _address_rows(address_bits, trials, cases)
    dirty_init = _dirty_rows(columns, trials, cases)
    state = [0] * circuit.num_qubits
    for row, value in zip(addr_rows + dirty_rows, addr_init + dirty_init):
        state[row] = value
    _run_packed(circuit, state, cases)

    # One mask per check, bit j set where case j fails it.
    masks = [
        _differ(state, reg_rows, _case_rows(t.entries, len(reg_rows), trials))
        for reg_rows, t in zip(out_rows, tables)
    ]
    masks.append(_differ(state, dirty_rows, dirty_init))
    masks.append(_differ(state, addr_rows, addr_init))
    masks.append(_differ(state, clean_rows, [0] * len(clean_rows)))
    report = VerificationReport(cases_run=cases)
    if not any(masks):
        return report

    # Only failing cases reach Python: their columns of flags and final rows
    # are cut out, and each field of a case is read as one int.
    flags = _bit_matrix(masks, len(masks), cases)
    failing = np.flatnonzero(flags.any(axis=0))
    *out_flags, dirty_flags, addr_flags, clean_flags = flags[:, failing].tolist()
    final = [state[row] for row in sum(out_rows, []) + dirty_rows]
    observed = _bit_matrix(final, len(final), cases)[:, failing]
    per_reg, start = [], 0
    for reg_rows in out_rows:
        per_reg.append(_row_ints(observed[start:start + len(reg_rows)].T))
        start += len(reg_rows)
    outputs, dirty = _row_ints(observed[:start].T), _row_ints(observed[start:].T)
    pattern_values = _row_ints(patterns)
    labels = ["output"] if len(out_regs) == 1 else [reg.name for reg in out_regs]
    for k, j in enumerate(failing.tolist()):
        x = j // trials
        problems = [
            f"{label} {values[k]:#x} != f(x) {t.entries[x]:#x}"
            for label, values, t, bad in zip(labels, per_reg, tables, out_flags)
            if bad[k]
        ]
        if dirty_flags[k]:
            problems.append("dirty register not restored")
        if addr_flags[k]:
            problems.append("address register changed")
        if clean_flags[k]:
            problems.append("work/temp qubit left nonzero")
        report.failures.append(
            VerificationFailure(
                x=x,
                dirty_pattern=pattern_values[j % trials],
                observed_output=outputs[k],
                observed_dirty=dirty[k],
                diagnostics="; ".join(problems),
            )
        )
    return report


def _role_rows(circuit: Circuit) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """The rows the verifier reads, listed in one pass over the register
    spans, each in ``qubit_indexer`` order: every output register's rows, the
    address rows (``address_r`` before ``address_q``, so row i holds address
    bit i), the dirty rows, and the work and temp rows."""
    out_rows, r_rows, q_rows, dirty_rows, clean_rows = [], [], [], [], []
    lists = {Role.ADDRESS_R: r_rows, Role.ADDRESS_Q: q_rows, Role.DIRTY: dirty_rows,
             Role.WORK: clean_rows, Role.TEMP: clean_rows}
    span = circuit._span
    for reg in circuit.registers:
        rows = span(reg.name, reg.size)
        if reg.role is Role.OUTPUT:
            out_rows.append(list(rows))
        else:
            lists[reg.role] += rows
    return out_rows, r_rows + q_rows, dirty_rows, clean_rows


def _draw(seed: int, trials: int, dirty: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The documented draw of dirty patterns,
    ``default_rng(seed).integers(0, 2, size=(trials, dirty), dtype=uint8)``
    with row k pattern k, made read-only, and each dirty qubit's
    ``trials``-bit column of it as an int, bit k from pattern k."""
    patterns = np.random.default_rng(seed).integers(0, 2, size=(trials, dirty), dtype=np.uint8)
    patterns.flags.writeable = False
    return patterns, tuple(_row_ints(patterns.T))


# Every verify call over one (seed, trials, dirty count) draws the same
# patterns, so small draws are kept, by key, the last DRAW_MEMO_ENTRIES used.
# ``typed``: a seed that numpy refuses, such as 1.0, must not find the draw
# of an equal int, even from a caller that skips ``verify_qrom``'s checks.
_memo_draw = functools.lru_cache(maxsize=DRAW_MEMO_ENTRIES, typed=True)(_draw)


def _dirty_draw(seed: int, trials: int, dirty: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """``_draw``, memoized for draws of at most ``DRAW_MEMO_CELLS`` cells;
    a bigger draw is made afresh and not kept. The result is shared between
    calls and threads, and read-only."""
    if trials * dirty > DRAW_MEMO_CELLS:
        return _draw(seed, trials, dirty)
    return _memo_draw(seed, trials, dirty)


def _case_rows(values, width: int, trials: int) -> list[int]:
    """``width`` rows whose bit j is bit i of ``values[j // trials]``, from
    the values' ``qrom._bit_matrix``; each value fits in ``width`` bits."""
    bits = _bit_matrix(values, len(values), width).T
    return _row_ints(np.repeat(bits, trials, axis=1))


def _doubled(period: int, width: int, cases: int) -> int:
    """The ``cases``-bit row that repeats the ``width``-bit ``period`` from
    bit 0, built by doubling in O(log(cases / width)) int operations."""
    row = period
    while width < cases:
        row |= row << width
        width *= 2
    return row & ((1 << cases) - 1)


def _address_rows(width: int, trials: int, cases: int) -> list[int]:
    """``width`` rows whose bit j is bit i of the address ``j // trials``:
    row i repeats a period of ``2 * trials << i`` bits whose upper half is
    set, and is 0 once that half starts at or past ``cases``."""
    rows = []
    for i in range(width):
        half = trials << i
        rows.append(_doubled(((1 << half) - 1) << half, 2 * half, cases) if half < cases else 0)
    return rows


def _dirty_rows(columns, trials: int, cases: int) -> list[int]:
    """One row per dirty qubit whose bit j is its bit in pattern
    ``j % trials``: the qubit's ``trials``-bit column times the row with bit
    0 of every period set, so the copies never carry."""
    ones = _doubled(1, trials, cases)
    return [column * ones for column in columns]


def _differ(state: list[int], rows: list[int], expected: list[int]) -> int:
    """Mask of the cases where any of ``rows`` differs from its expected row."""
    mask = 0
    for row, value in zip(rows, expected):
        mask |= state[row] ^ value
    return mask
