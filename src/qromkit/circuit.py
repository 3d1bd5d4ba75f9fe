"""Gate-level intermediate representation for reversible lookup circuits.

A circuit is a set of named registers plus a flat, ordered gate list. Registers
carry a role that determines how the verifier initializes them: ``output``,
``work`` and ``temp`` registers are clean (start in 0 and, for work/temp, must
return to 0), ``dirty`` registers hold arbitrary borrowed state, and the two
address roles are inputs.

Circuits are append-only while being built and treated as immutable afterwards,
so finished circuits can be shared freely between threads. A circuit owns its
register and gate lists: ``registers`` and ``gates`` are read-only tuples, and
every entry comes in through a call that validates it. A lookup circuit
repeats a few hundred distinct gates across millions of positions, so a
circuit stores each distinct gate once, with its op (its ``GateKind`` and
operand rows, resolved from the registers' spans on validation), and its gate
list as one ``array("I")`` of indices into them. A ``Gate`` is a named
``(kind, operands)`` tuple, so each stored gate is also its own key in the
circuit's index of gates. ``append`` validates every call and appends one
gate; the builders look gates up with ``_lookup``, which validates a gate
once, when it is first stored, and append indices themselves, and the
builders replay each recorded unary-iteration scaffold (see
``qromkit.iteration``). The gate-file parser resolves each distinct operand
of a file to its row once and looks gates up with ``_lookup_rows``, which
skips the type checks. Both ways share ``_op``, the one place for the
arity, distinctness and range rules. Every pass reads the index array:
resources are a tally of indices folded over the distinct kinds, the
temp-AND pairing check keys each distinct temp-AND gate once by its op's
rows and compares controls as one ordered row pair per temp-AND position,
and the simulators map gates or ops over it.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "CircuitError",
    "Role",
    "GateKind",
    "QubitRef",
    "RegisterSpec",
    "Gate",
    "Circuit",
    "ResourceEstimate",
    "count_resources",
    "check_temp_and_pairing",
]


class CircuitError(ValueError):
    """Raised when a circuit, register, or gate violates a structural rule."""


class Role(str, Enum):
    ADDRESS_Q = "address_q"
    ADDRESS_R = "address_r"
    OUTPUT = "output"
    DIRTY = "dirty"
    WORK = "work"
    TEMP = "temp"


#: Roles whose qubits are guaranteed to start in |0>.
CLEAN_ROLES = frozenset({Role.OUTPUT, Role.WORK, Role.TEMP})


class GateKind(str, Enum):
    X = "X"
    CNOT = "CNOT"
    TOFFOLI = "TOFFOLI"
    CSWAP = "CSWAP"
    TEMP_AND = "TEMP_AND"
    TEMP_AND_UNCOMPUTE = "TEMP_AND_UNCOMPUTE"

    @classmethod
    def _missing_(cls, value: object) -> "GateKind":
        raise CircuitError(f"unknown gate kind {value!r}")


GATE_ARITY = {
    GateKind.X: 1,
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
    GateKind.CSWAP: 3,
    GateKind.TEMP_AND: 3,
    GateKind.TEMP_AND_UNCOMPUTE: 3,
}

# Toffoli-equivalent cost per gate. A temp-AND costs one Toffoli to compute
# and nothing to uncompute (measurement-based uncomputation); a CSWAP is one
# Toffoli plus two CNOTs when expanded, so it counts as one.
TOFFOLI_COST = {
    GateKind.X: 0,
    GateKind.CNOT: 0,
    GateKind.TOFFOLI: 1,
    GateKind.CSWAP: 1,
    GateKind.TEMP_AND: 1,
    GateKind.TEMP_AND_UNCOMPUTE: 0,
}


class QubitRef(NamedTuple):
    """A single qubit, addressed as (register name, offset within register)."""

    register: str
    offset: int


@dataclass(frozen=True, slots=True)
class RegisterSpec:
    """A named qubit register with a fixed size and role."""

    name: str
    size: int
    role: Role

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise CircuitError(f"register name {self.name!r} is not an identifier")
        if self.size < 1:
            raise CircuitError(f"register {self.name!r} must have size >= 1")
        if not isinstance(self.role, Role):
            object.__setattr__(self, "role", Role(self.role))

    def __getitem__(self, offset: int) -> QubitRef:
        if not 0 <= offset < self.size:
            raise CircuitError(
                f"offset {offset} out of range for register {self.name!r} (size {self.size})"
            )
        return QubitRef(self.name, offset)


class Gate(NamedTuple):
    """One gate application; operands are ordered with targets last.

    CNOT is (control, target), TOFFOLI/TEMP_AND are (control, control, target),
    CSWAP is (control, target, target). A gate is a tuple: it equals
    and hashes as ``(kind, operands)``. A circuit's gates come from its own
    validating calls, so their kinds are ``GateKind`` members.
    """

    kind: GateKind
    operands: tuple[QubitRef, ...]


class Circuit:
    """Ordered gate list over named registers.

    Gates are validated on every ``append``: operand arity must match the
    kind, operands must be pairwise distinct, and every operand must resolve
    to a declared register qubit. ``registers`` and ``gates`` are read-only;
    only the circuit writes them.
    """

    def __init__(self, registers: Iterable[RegisterSpec]):
        self._registers: tuple[RegisterSpec, ...] = tuple(registers)
        self._by_name: dict[str, RegisterSpec] = {}
        # (first row, size) of each register, rows in declaration order.
        self._spans: dict[str, tuple[int, int]] = {}
        first = 0
        for reg in self._registers:
            if reg.name in self._by_name:
                raise CircuitError(f"duplicate register name {reg.name!r}")
            self._by_name[reg.name] = reg
            self._spans[reg.name] = (first, reg.size)
            first += reg.size
        # The distinct gates in first-intern order, their ops, the index of
        # each keyed by the gate itself, and the gate list as indices; only
        # ``append`` and this package's builders and parser write them.
        self._distinct: list[Gate] = []
        self._ops: list[tuple] = []
        self._index = array("I")
        self._interned: dict[Gate, int] = {}
        # Unary-iteration recordings, keyed by IterationSpec; owned by
        # ``qromkit.iteration`` and never part of equality.
        self._scaffolds: dict[object, tuple] = {}

    @property
    def registers(self) -> tuple[RegisterSpec, ...]:
        """The registers in declaration order."""
        return self._registers

    @property
    def gates(self) -> tuple[Gate, ...]:
        """A copy of the gate list, in order."""
        return tuple(map(self._distinct.__getitem__, self._index))

    @property
    def num_qubits(self) -> int:
        return sum(reg.size for reg in self.registers)

    def register(self, name: str) -> RegisterSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise CircuitError(f"unknown register {name!r}") from None

    def has_register(self, name: str) -> bool:
        return name in self._by_name

    def registers_with_role(self, role: Role) -> list[RegisterSpec]:
        return [reg for reg in self.registers if reg.role == role]

    def qubits(self) -> Iterable[QubitRef]:
        for reg in self.registers:
            for offset in range(reg.size):
                yield QubitRef(reg.name, offset)

    def append(self, kind: GateKind, *operands: QubitRef) -> Gate:
        """Append the gate ``(kind, operands)`` and return the stored ``Gate``.

        The one way in that validates every call, so ``QubitRef("a", 1.0)``
        raises even once a gate on ``QubitRef("a", 1)`` is stored. A ``str``
        kind becomes its ``GateKind`` or raises ``CircuitError``, so both
        spellings share one gate whose kind is the enum; equal gates are one
        shared object.
        """
        if not isinstance(kind, GateKind):
            kind = GateKind(kind)
        op = self._validate(kind, operands)
        index = self._interned.get((kind, operands))
        if index is None:
            index = self._store(kind, operands, op)
        self._index.append(index)
        return self._distinct[index]

    def _lookup(self, kind: GateKind, *operands: QubitRef) -> int:
        """The index of the gate ``(kind, operands)``, validated and stored on
        first use. The builders resolve each gate many times, always with a
        ``GateKind`` and ``QubitRef(str, int)`` operands, so a stored gate's
        index is returned unchecked."""
        index = self._interned.get((kind, operands))
        if index is None:
            index = self._store(kind, operands, self._validate(kind, operands))
        return index

    def _lookup_rows(self, kind: GateKind, operands: tuple, rows: list) -> int:
        """``_lookup`` for the gate-file parser, which has already resolved
        each ``QubitRef(str, int)`` operand to its row (``_row``), once per
        distinct token pair of a file; on first use the gate goes through
        ``_op`` alone."""
        index = self._interned.get((kind, operands))
        if index is None:
            index = self._store(kind, operands, self._op(kind, operands, rows))
        return index

    def _store(self, kind: GateKind, operands: tuple, op: tuple) -> int:
        """Store ``Gate(kind, operands)``, the key and the entry at once, and
        its validated ``op``; return its index."""
        # tuple.__new__ skips the NamedTuple's Python-level __new__; the
        # result is the same Gate.
        gate = tuple.__new__(Gate, (kind, operands))
        index = self._interned[gate] = len(self._distinct)
        self._distinct.append(gate)
        self._ops.append(op)
        return index

    def _row(self, register: str, offset: int) -> int | None:
        """The row of qubit ``register[offset]`` (rows number the qubits
        register by register, in declaration order), or None when the
        register is unknown or the offset out of range."""
        span = self._spans.get(register)
        if span is not None and 0 <= offset < span[1]:
            return span[0] + offset
        return None

    def _validate(self, kind: GateKind, operands: tuple) -> tuple:
        """Check one gate and return its op: type-check the operands and
        resolve their rows, then ``_op``."""
        rows = []
        # Type errors rank below the arity error, which ``_op`` raises.
        if len(operands) == GATE_ARITY[kind]:
            for ref in operands:
                if not isinstance(ref, QubitRef):
                    raise CircuitError(f"{kind.value} operand {ref!r} is not a QubitRef")
                register, offset = ref
                # Not isinstance: a bool offset would be written as "True".
                if type(register) is not str or type(offset) is not int:
                    raise CircuitError(
                        f"{kind.value} operand {ref!r} needs a str register and an int offset"
                    )
                rows.append(self._row(register, offset))
        return self._op(kind, operands, rows)

    def _op(self, kind: GateKind, operands: tuple, rows: list) -> tuple:
        """The op of a gate whose ``QubitRef(str, int)`` operands resolve to
        ``rows`` (``_row``, None for an unresolved operand): its ``GateKind``
        and operand rows in gate order, X and CNOT padded with None. Checks
        arity, then pairwise distinctness, then range, the one place those
        rules live."""
        arity = GATE_ARITY[kind]
        if len(operands) != arity:
            raise CircuitError(f"{kind.value} takes {arity} operands, got {len(operands)}")
        if None not in rows:
            # Resolved operands map one to one onto rows, so the rows are
            # distinct exactly when the operands are. Unrolled, as a set of
            # the rows and a padded tuple cost 0.3 us more per stored gate.
            if arity == 1:
                return (kind, rows[0], None, None)
            if arity == 2:
                a, b = rows
                if a != b:
                    return (kind, a, b, None)
            else:
                a, b, t = rows
                if a != b and a != t and b != t:
                    return (kind, a, b, t)
        elif len(set(operands)) == arity:  # some operand is unresolved: raise for the first
            for register, offset in operands:
                size = self.register(register).size
                if not 0 <= offset < size:
                    raise CircuitError(f"qubit {register}[{offset}] out of range (size {size})")
        raise CircuitError(f"{kind.value} operands must be pairwise distinct")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        # Two circuits may intern equal gates in different orders, so each
        # gate here maps to the other's index of it, or to one it never
        # holds, and the gate lists are compared as index arrays.
        absent = len(other._distinct)
        theirs = [other._interned.get(g, absent) for g in self._distinct]
        gates = array("I", map(theirs.__getitem__, self._index))
        return self._registers == other._registers and gates == other._index

    def __repr__(self) -> str:
        return f"Circuit({len(self._registers)} registers, {len(self._index)} gates)"


@dataclass(frozen=True, slots=True)
class ResourceEstimate:
    """Exact gate and qubit counts for a circuit.

    ``toffoli`` is the Toffoli-equivalent non-Clifford count: every TOFFOLI,
    CSWAP, and TEMP_AND contributes one; TEMP_AND_UNCOMPUTE contributes zero.
    ``clean_qubits`` covers output/work/temp roles, ``dirty_qubits`` the dirty
    role; address qubits count only toward ``total_qubits``.
    """

    toffoli: int
    temp_and: int
    cnot: int
    x: int
    clean_qubits: int
    dirty_qubits: int
    total_qubits: int


def count_resources(circuit: Circuit) -> ResourceEstimate:
    """Count gates and qubits exactly; deterministic for a given circuit.

    The gate list's indices are tallied in one numpy pass, and the tallies
    folded over the distinct gates' kinds."""
    tally = np.bincount(np.frombuffer(circuit._index, np.uintc), minlength=len(circuit._distinct))
    kinds: Counter = Counter()
    for gate, times in zip(circuit._distinct, tally.tolist()):
        kinds[gate.kind] += times
    toffoli = sum(TOFFOLI_COST[kind] * times for kind, times in kinds.items())
    temp_and, cnot, x = kinds[GateKind.TEMP_AND], kinds[GateKind.CNOT], kinds[GateKind.X]
    clean = sum(reg.size for reg in circuit.registers if reg.role in CLEAN_ROLES)
    dirty = sum(reg.size for reg in circuit.registers if reg.role is Role.DIRTY)
    return ResourceEstimate(
        toffoli=toffoli,
        temp_and=temp_and,
        cnot=cnot,
        x=x,
        clean_qubits=clean,
        dirty_qubits=dirty,
        total_qubits=circuit.num_qubits,
    )


def check_temp_and_pairing(circuit: Circuit) -> None:
    """Verify TEMP_AND / TEMP_AND_UNCOMPUTE pairing per target qubit.

    Every TEMP_AND must target a qubit not currently held by an earlier
    TEMP_AND, and must be released by a TEMP_AND_UNCOMPUTE with the same
    control pair, in either order, before circuit end. Raises CircuitError
    on violation. Each distinct temp-AND gate is keyed once from its op, as
    ``(computes, target row, ordered control-row pair)``; one numpy pass
    finds the temp-AND positions, and each uncompute is one tuple
    comparison. A row is named as ``register[offset]`` only in an error.
    """
    temps = (GateKind.TEMP_AND, GateKind.TEMP_AND_UNCOMPUTE)
    keys = [
        (kind is GateKind.TEMP_AND, t, (a, b) if a < b else (b, a)) if kind in temps else None
        for kind, a, b, t in circuit._ops
    ]
    positions = np.frombuffer(circuit._index, dtype=np.uintc)
    at = np.flatnonzero(np.array([k is not None for k in keys], dtype=bool)[positions])
    held: dict[int, tuple] = {}  # target row -> control rows of its pending TEMP_AND
    found = map(keys.__getitem__, positions[at].tolist())
    for i, (computes, target, controls) in zip(at.tolist(), found):
        if computes:
            if target in held:
                raise CircuitError(
                    f"gate {i}: TEMP_AND on already-held target {_qubit_names(circuit)[target]}"
                )
            held[target] = controls
        elif held.pop(target, None) != controls:
            raise CircuitError(
                f"gate {i}: TEMP_AND_UNCOMPUTE on {_qubit_names(circuit)[target]} does "
                "not match a pending TEMP_AND with the same controls"
            )
    if held:
        names = _qubit_names(circuit)
        targets = ", ".join(names[t] for t in held)
        raise CircuitError(f"unreleased TEMP_AND targets at circuit end: {targets}")


def _qubit_names(circuit: Circuit) -> list[str]:
    """``register[offset]`` of every qubit, indexed by row."""
    return [f"{register}[{offset}]" for register, offset in circuit.qubits()]
