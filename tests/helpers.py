"""Shared test utilities."""
import random

from qromkit import Circuit, GateKind, LookupTable


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
