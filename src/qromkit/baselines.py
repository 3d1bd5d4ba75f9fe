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

from .circuit import Circuit, GateKind, QubitRef, RegisterSpec, Role, check_temp_and_pairing
from .iteration import IterationSpec, emit_loads
from .qrom import LookupTable, ceil_div, ceil_log2, is_power_of_two, work_size

__all__ = ["build_plain_qrom", "build_selectswap_dirty"]


def build_plain_qrom(table: LookupTable) -> Circuit:
    """Unary-iteration lookup over all N addresses; N - 1 Toffolis."""
    n, b = table.n_entries, table.bit_width
    if n == 1:
        circuit = Circuit([RegisterSpec("output", b, Role.OUTPUT)])
        for j in range(b):
            if (table.entries[0] >> j) & 1:
                circuit.append(GateKind.X, QubitRef("output", j))
        return circuit

    address_bits = ceil_log2(n)
    work_bits = max(address_bits, 2 if n == 2 else 1)
    circuit = Circuit(
        [
            RegisterSpec("addr_q", address_bits, Role.ADDRESS_Q),
            RegisterSpec("output", b, Role.OUTPUT),
            RegisterSpec("work", work_bits, Role.WORK),
        ]
    )

    outputs = [QubitRef("output", j) for j in range(b)]
    emit_loads(circuit, IterationSpec("addr_q", 0, n), outputs, table.entries)
    check_temp_and_pairing(circuit)
    return circuit


def build_selectswap_dirty(table: LookupTable, lam: int) -> Circuit:
    """Swap-network lookup with borrowed registers, per the eight-step
    borrow discipline: Select, swap-in, buffer copy, swap-out, unloading
    Select, swap-in, buffer copy, swap-out."""
    n, b = table.n_entries, table.bit_width
    if not is_power_of_two(lam) or lam < 2:
        raise ValueError(f"lam = {lam} must be a power of 2 >= 2")
    if not lam < n:
        raise ValueError(f"lam = {lam} violates 1 < lam < N = {n}")
    q_range = ceil_div(n, lam)
    r_bits = lam.bit_length() - 1
    address_bits = max(ceil_log2(n), 1)
    q_bits = address_bits - r_bits

    circuit = Circuit(
        [
            RegisterSpec("addr_q", q_bits, Role.ADDRESS_Q),
            RegisterSpec("addr_r", r_bits, Role.ADDRESS_R),
            RegisterSpec("output", b, Role.OUTPUT),
            RegisterSpec("buffer", b, Role.WORK),
            RegisterSpec("dirty", b * (lam - 1), Role.DIRTY),
            RegisterSpec("work", work_size(q_range, lam), Role.WORK),
        ]
    )

    # Block 0 is the clean buffer; blocks 1..lam-1 are borrowed. Window q
    # loads blocks 0..lam-1 as one word, block l in bits l*b..(l+1)*b.
    blocks = [QubitRef("buffer", j) for j in range(b)]
    blocks += [QubitRef("dirty", k) for k in range(b * (lam - 1))]

    def block_qubit(block: int, j: int) -> QubitRef:
        return blocks[block * b + j]

    words = [
        sum(table.padded(q * lam + block) << (block * b) for block in range(lam))
        for q in range(q_range)
    ]

    def select() -> None:
        emit_loads(circuit, IterationSpec("addr_q", 0, q_range), blocks, words)

    def swap_network(inverse: bool) -> None:
        # Layer beta halves the distance-2^beta pairs; the forward order
        # routes block r to the buffer, the reversed order undoes it.
        layers = range(r_bits - 1, -1, -1) if inverse else range(r_bits)
        for beta in layers:
            step = 1 << beta
            for base in range(0, lam, 2 * step):
                for j in range(b):
                    circuit.append(
                        GateKind.CSWAP,
                        QubitRef("addr_r", beta),
                        block_qubit(base, j),
                        block_qubit(base + step, j),
                    )

    def buffer_copy() -> None:
        for j in range(b):
            circuit.append(GateKind.CNOT, QubitRef("buffer", j), QubitRef("output", j))

    select()
    swap_network(inverse=False)
    buffer_copy()
    swap_network(inverse=True)
    select()
    swap_network(inverse=False)
    buffer_copy()
    swap_network(inverse=True)
    check_temp_and_pairing(circuit)
    return circuit
