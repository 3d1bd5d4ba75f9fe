"""Prior-art lookup circuits used for differential testing.

``build_plain_qrom`` is the bare unary-iteration lookup: one window per
address, CNOT-loading the entry bits, at N - 1 Toffolis total.

``build_selectswap_dirty`` is the swap-network architecture with borrowed
registers: Select loads every block entry XOR-style into lam registers
(block 0 being a clean buffer), a multiplexed swap routes the addressed
register to the buffer, and two buffer copies around a second Select cancel
the borrowed bits out of the output. Exactly 2*(ceil(N/lam) - 1) +
4*b*(lam-1) Toffolis, with b*(lam-1) dirty qubits.
"""
from __future__ import annotations

from .circuit import Circuit, GateKind, RegisterSpec, Role, check_temp_and_pairing
from .iteration import IterationSpec, _load_rows
from .qrom import (
    LookupTable, _bit_matrix, _row_ints, ceil_log2, check_build_width, plan_qrom,
    registers_for_plan, work_size,
)

__all__ = ["build_plain_qrom", "build_selectswap_dirty"]


def build_plain_qrom(table: LookupTable) -> Circuit:
    """Unary-iteration lookup over all N addresses; N - 1 Toffolis."""
    n, b = table.n_entries, table.bit_width
    check_build_width(b)
    if n == 1:
        circuit = Circuit([RegisterSpec("output", b, Role.OUTPUT)])
        for j, row in enumerate(circuit._span("output", b)):
            if (table.entries[0] >> j) & 1:
                circuit._index.append(circuit._intern(GateKind.X, row))
        return circuit

    circuit = Circuit(
        [
            RegisterSpec("addr_q", ceil_log2(n), Role.ADDRESS_Q),
            RegisterSpec("output", b, Role.OUTPUT),
            RegisterSpec("work", work_size(n, 1), Role.WORK),
        ]
    )

    outputs = circuit._span("output", b)
    _load_rows(circuit, IterationSpec("addr_q", 0, n), outputs, table.entries)
    check_temp_and_pairing(circuit)
    return circuit


def build_selectswap_dirty(table: LookupTable, lam: int) -> Circuit:
    """Swap-network lookup with borrowed registers, per the eight-step
    borrow discipline: Select, swap-in, buffer copy, swap-out, unloading
    Select, swap-in, buffer copy, swap-out."""
    b = table.bit_width
    check_build_width(b)
    plan = plan_qrom(table.n_entries, b, lam, b)
    registers = registers_for_plan(plan)
    registers.insert(3, RegisterSpec("buffer", b, Role.WORK))  # after "output"
    circuit = Circuit(registers)
    append, intern = circuit._index.append, circuit._intern

    # Block 0 is the clean buffer; blocks 1..lam-1 are borrowed. Window q
    # loads blocks 0..lam-1 as one word, block l in bits l*b..(l+1)*b.
    buffer, output = circuit._span("buffer", b), circuit._span("output", b)
    blocks = [*buffer, *circuit._span("dirty", plan.dirty_qubits)]
    controls = circuit._span("addr_r", plan.r_bits)

    bits = _bit_matrix(table.entries, plan.q_range * lam, b)
    words = _row_ints(bits.reshape(plan.q_range, lam * b))

    def swap_network(inverse: bool) -> None:
        # Layer beta halves the distance-2^beta pairs; the forward order
        # routes block r to the buffer, the reversed order undoes it.
        layers = range(plan.r_bits - 1, -1, -1) if inverse else range(plan.r_bits)
        for beta in layers:
            step, control = 1 << beta, controls[beta]
            for base in range(0, lam, 2 * step):
                for j in range(b):
                    pair = blocks[base * b + j], blocks[(base + step) * b + j]
                    append(intern(GateKind.CSWAP, control, *pair))

    for _ in range(2):  # the loading half, then the identical unloading half
        _load_rows(circuit, IterationSpec("addr_q", 0, plan.q_range), blocks, words)
        swap_network(inverse=False)
        for source, target in zip(buffer, output):
            append(intern(GateKind.CNOT, source, target))
        swap_network(inverse=True)
    check_temp_and_pairing(circuit)
    return circuit
