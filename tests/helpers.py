"""Shared test utilities."""
import random

import numpy as np

from qromkit import Circuit, Gate, GateKind, LookupTable
from qromkit.simulate import _case_rows, _pack_rows, qubit_indexer


def random_table(n: int, b: int, seed: int) -> LookupTable:
    rng = random.Random(seed)
    return LookupTable(tuple(rng.randrange(1 << b) for _ in range(n)), b)


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Reverse the gate list; every kind is self-inverse except temp-AND
    pairs, which swap compute and uncompute."""
    swap = {
        GateKind.TEMP_AND: GateKind.TEMP_AND_UNCOMPUTE,
        GateKind.TEMP_AND_UNCOMPUTE: GateKind.TEMP_AND,
    }
    inv = Circuit(circuit.registers)
    for gate in reversed(circuit.gates):
        inv.append(swap.get(gate.kind, gate.kind), *gate.operands)
    return inv


def circuit_with_gates(registers, gates) -> Circuit:
    """A new circuit over ``registers`` holding ``gates`` in order, each put
    in through ``Circuit.append``, which validates it. Fault injection edits
    a copy of a circuit's gates and rebuilds the circuit with this."""
    circuit = Circuit(registers)
    for gate in gates:
        circuit.append(gate.kind, *gate.operands)
    return circuit


def indexed_op(index: dict, gate: Gate) -> tuple:
    """Reference op: the gate's kind and its operand rows from ``index``, a
    ``qubit_indexer`` map, padded with None to four fields."""
    return (gate.kind, *(index[ref] for ref in gate.operands), None, None)[:4]


def indexed_ops(circuit: Circuit) -> list[tuple]:
    """Reference op stream: ``indexed_op`` of the gate at every position."""
    index = qubit_indexer(circuit)
    return [indexed_op(index, gate) for gate in circuit.gates]


def address_rows_reference(n: int, width: int, trials: int) -> list[int]:
    """Reference verifier address rows, built from ``uint8`` bits: row i has
    bit j set where bit i of the address ``j // trials`` is."""
    return _case_rows(range(n), width, trials)


def dirty_rows_reference(patterns: np.ndarray, n: int) -> list[int]:
    """Reference verifier dirty rows: the ``(trials, qubits)`` pattern
    matrix transposed, tiled ``n`` times across the cases and packed."""
    return _pack_rows(np.tile(patterns.T, n))
