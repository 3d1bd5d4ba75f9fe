"""Gate-level intermediate representation for reversible lookup circuits.

A circuit is a set of named registers plus a flat, ordered gate list. Registers
carry a role that determines how the verifier initializes them: ``output``,
``work`` and ``temp`` registers are clean (start in 0 and, for work/temp, must
return to 0), ``dirty`` registers hold arbitrary borrowed state, and the two
address roles are inputs.

Circuits are append-only while being built and treated as immutable afterwards,
so finished circuits can be shared freely between threads. A lookup circuit
repeats a few hundred distinct gates thousands of times, so each circuit
interns its gates: equal gates are one shared frozen ``Gate`` object, built
and validated once.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application; operands are ordered with targets last.

    CNOT is (control, target), TOFFOLI/TEMP_AND are (control, control, target),
    CSWAP is (control, target, target).
    """

    kind: GateKind
    operands: tuple[QubitRef, ...]

    def __post_init__(self) -> None:
        # Simulation dispatches on identity, so bare strings must become
        # enum members here.
        if not isinstance(self.kind, GateKind):
            object.__setattr__(self, "kind", GateKind(self.kind))


class Circuit:
    """Ordered gate list over named registers.

    Gates are validated on append: operand arity must match the kind, operands
    must be pairwise distinct, and every operand must resolve to a declared
    register qubit.
    """

    def __init__(self, registers: Iterable[RegisterSpec]):
        self.registers: list[RegisterSpec] = list(registers)
        self._by_name: dict[str, RegisterSpec] = {}
        for reg in self.registers:
            if reg.name in self._by_name:
                raise CircuitError(f"duplicate register name {reg.name!r}")
            self._by_name[reg.name] = reg
        self.gates: list[Gate] = []
        self._interned: dict[tuple, Gate] = {}

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
        """Append a gate and return it.

        Equal gates are one shared frozen object: the first append of a
        ``(kind, operands)`` pair builds and validates the ``Gate``, later ones
        reuse it. A ``str`` kind equals its ``GateKind``, so both spellings
        share one gate whose kind is the enum. A gate that fails validation is
        never stored and raises the same ``CircuitError`` on every append.
        """
        key = (kind, operands)
        gate = self._interned.get(key)
        if gate is None:
            gate = Gate(kind, operands)
            self._validate(gate)
            self._interned[key] = gate
        self.gates.append(gate)
        return gate

    def _validate(self, gate: Gate) -> None:
        arity = GATE_ARITY[gate.kind]
        if len(gate.operands) != arity:
            raise CircuitError(
                f"{gate.kind.value} takes {arity} operands, got {len(gate.operands)}"
            )
        if len(set(gate.operands)) != len(gate.operands):
            raise CircuitError(f"{gate.kind.value} operands must be pairwise distinct")
        for ref in gate.operands:
            reg = self.register(ref.register)
            if not 0 <= ref.offset < reg.size:
                raise CircuitError(
                    f"qubit {ref.register}[{ref.offset}] out of range (size {reg.size})"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.registers == other.registers and self.gates == other.gates

    def __repr__(self) -> str:
        return f"Circuit({len(self.registers)} registers, {len(self.gates)} gates)"


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
    """Count gates and qubits exactly; deterministic for a given circuit."""
    toffoli = temp_and = cnot = x = 0
    for gate in circuit.gates:
        toffoli += TOFFOLI_COST[gate.kind]
        if gate.kind is GateKind.TEMP_AND:
            temp_and += 1
        elif gate.kind is GateKind.CNOT:
            cnot += 1
        elif gate.kind is GateKind.X:
            x += 1
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
    control pair before circuit end. Raises CircuitError on violation.
    """
    held: dict[QubitRef, frozenset[QubitRef]] = {}
    for i, gate in enumerate(circuit.gates):
        if gate.kind is GateKind.TEMP_AND:
            target = gate.operands[-1]
            if target in held:
                raise CircuitError(
                    f"gate {i}: TEMP_AND on already-held target {target.register}[{target.offset}]"
                )
            held[target] = frozenset(gate.operands[:2])
        elif gate.kind is GateKind.TEMP_AND_UNCOMPUTE:
            target = gate.operands[-1]
            controls = frozenset(gate.operands[:2])
            if held.get(target) != controls:
                raise CircuitError(
                    f"gate {i}: TEMP_AND_UNCOMPUTE on {target.register}[{target.offset}] does "
                    "not match a pending TEMP_AND with the same controls"
                )
            del held[target]
    if held:
        targets = ", ".join(f"{t.register}[{t.offset}]" for t in held)
        raise CircuitError(f"unreleased TEMP_AND targets at circuit end: {targets}")
