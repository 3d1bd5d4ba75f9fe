"""Shared test utilities."""
import random

import numpy as np

from qromkit import Circuit, Gate, GateKind, IterationSpec, IterationWindow, LookupTable, QubitRef
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


def reference_record_scaffold(circuit: Circuit, spec: IterationSpec) -> tuple:
    """Reference recorder: what ``iteration._record_scaffold`` returns, from
    one walk over the circuit's own register rows, with no template and no
    memo. It walks the iteration tree once without appending anything.

    Returns ``(steps, tail)``: ``steps`` is one ``(gates before the window,
    window)`` pair per index value in ascending order, and ``tail`` the gates
    after the last window. The walk records ops over rows, ``(kind, a, b,
    t)`` with the rows a gate takes, and counts its temp-ANDs; only once the
    cost and the work register check out are the ops interned and turned
    into the indices of the circuit's gates.

    At the root the top index bit is the children's wire, X-negated around a
    0 branch that meets the range; the 1 branch always holds ``range_hi - 1``.
    An inner node ANDs its wire with its bit into its work slot, runs a 0
    branch that meets the range under the X-negated bit, then CNOTs across
    to the 1 branch. A 1 branch wholly above the range is pruned, and the 0
    branch reuses the node's wire.
    """
    reg = circuit.register(spec.index_register)
    lo, hi = spec.range_lo, spec.range_hi
    if not 0 <= lo < hi:
        raise ValueError(f"empty or negative range [{lo}, {hi})")
    if hi == 1:
        raise ValueError("range [0, 1) has no index bit to branch on")
    if hi > 1 << reg.size:
        raise ValueError(
            f"range [{lo}, {hi}) does not fit in {reg.size}-qubit register {reg.name!r}"
        )
    steps: list[tuple[tuple[tuple, ...], IterationWindow]] = []
    pending: list[tuple] = []

    levels = (hi - 1).bit_length()
    ands = 0
    # The rows of the index bits and of the work slots. The work register is
    # checked after the walk, before any recorded op is used, so no op with
    # a None slot, one the register lacks, is interned.
    bits, slots = circuit._span(reg.name, reg.size), circuit._span("work", max(levels, 2))

    def walk(height: int, base: int, wire: QubitRef, row: int) -> None:
        # Every node visited meets [lo, hi), so its 0 branch meets it when
        # lo < mid and its 1 branch when mid < hi. ``row`` is ``wire``'s.
        nonlocal ands
        if height == 0:
            steps.append((tuple(pending), IterationWindow(base, wire)))
            pending.clear()
            return
        mid = base + (1 << (height - 1))
        if mid >= hi:
            # The 1 branch holds only values >= hi: reuse the wire below.
            walk(height - 1, base, wire, row)
            return
        # A 0 branch below lo is skipped, but its values are reachable, so the
        # bit stays in the AND. A height-h node's children use work slot
        # levels-1-h: slots grow toward the leaves, so no path reuses one.
        slot = levels - 1 - height
        bit, child, child_wire = bits[height - 1], slots[slot], QubitRef("work", slot)
        if lo < mid:
            pending.append((GateKind.X, bit))
        pending.append((GateKind.TEMP_AND, row, bit, child))
        ands += 1
        if lo < mid:
            walk(height - 1, base, child_wire, child)
            pending.append((GateKind.X, bit))
            # Sibling transition: flips the conditioned bit inside the AND.
            pending.append((GateKind.CNOT, row, child))
        walk(height - 1, mid, child_wire, child)
        pending.append((GateKind.TEMP_AND_UNCOMPUTE, row, bit, child))

    top, row, mid = reg[levels - 1], bits[levels - 1], 1 << (levels - 1)
    if lo < mid:
        pending.append((GateKind.X, row))
        walk(levels - 1, 0, top, row)
        pending.append((GateKind.X, row))
    walk(levels - 1, mid, top, row)

    cost = hi - lo - 1
    deficit = cost - ands
    if deficit < 0:
        raise ValueError(f"range [{lo}, {hi}) cannot be scaffolded in exactly {cost} Toffolis")
    work = circuit.register("work")
    needed = levels - 1
    if deficit:
        # Each alignment pair targets the slot above the tree's. Its controls
        # are the top two index bits, or a 1-qubit register's bit and work
        # slot 1.
        if reg.size > 1:
            needed, controls = levels, (bits[-1], bits[-2])
        else:
            needed, controls = 2, (bits[0], slots[1])
        pair = (*controls, slots[levels - 1])
        pending += [(GateKind.TEMP_AND, *pair), (GateKind.TEMP_AND_UNCOMPUTE, *pair)] * deficit
    if work.size < needed:
        raise ValueError(
            f"insufficient work qubits: need {needed}, register {work.name!r} has {work.size}"
        )

    # Each recorded op becomes the index of the circuit's gate.
    intern = circuit._intern
    recorded = tuple((tuple(intern(*op) for op in segment), win) for segment, win in steps)
    return recorded, tuple(intern(*op) for op in pending)
