"""Gate-level intermediate representation for reversible lookup circuits.

A circuit is a set of named registers plus a flat, ordered gate list. Registers
carry a role that determines how the verifier initializes them: ``output``,
``work`` and ``temp`` registers are clean (start in 0 and, for work/temp, must
return to 0), ``dirty`` registers hold arbitrary borrowed state, and the two
address roles are inputs.

Circuits are append-only while being built and treated as immutable afterwards,
so finished circuits can be shared freely between threads. A circuit owns its
register and gate lists: ``registers`` is a tuple and ``gates`` a read-only
copy of the gate list, so neither can be assigned or edited from outside, and
every entry comes in through a call that validates it. A lookup circuit
repeats a few hundred distinct gates thousands of times, so each circuit
interns its gates: equal gates are one shared frozen ``Gate`` object. Gates
come in through ``Circuit.intern``, which validates every call and resolves
the gate's op: its kind's code and operand qubit rows, from each register's
span of rows, so rows are resolved once per distinct gate. ``append`` is
``intern`` plus a list append; the builders resolve gates through
``Circuit._lookup`` and add them to the private list themselves. The builders
also record each unary-iteration scaffold once per circuit (see
``qromkit.iteration``) and replay its interned gates.

Every entry of the private list is therefore this circuit's validated,
interned gate, and every pass reads that list directly. Resources are a tally
of kinds, the temp-AND pairing check visits only temp-AND positions, and the
simulator streams the stored ops.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

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


# Op code of each gate kind in a gate's op (see ``Circuit._validate``), in
# the order the simulator's gate loop tests them: most frequent first.
_OP_CODES = {
    GateKind.CNOT: 0,
    GateKind.X: 1,
    GateKind.TOFFOLI: 2,
    GateKind.TEMP_AND: 3,
    GateKind.TEMP_AND_UNCOMPUTE: 4,
    GateKind.CSWAP: 5,
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
    # Its op in the circuit that stored it (see ``Circuit._validate``);
    # never part of equality, hash or repr.
    _op: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Simulation dispatches on identity, so bare strings must become
        # enum members here.
        if not isinstance(self.kind, GateKind):
            object.__setattr__(self, "kind", GateKind(self.kind))


_set_kind, _set_operands, _set_op = Gate.kind.__set__, Gate.operands.__set__, Gate._op.__set__


class Circuit:
    """Ordered gate list over named registers.

    Gates are validated on every ``append`` and ``intern``: operand arity must
    match the kind, operands must be pairwise distinct, and every operand must
    resolve to a declared register qubit. ``registers`` and ``gates`` are
    read-only; only the circuit writes them.
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
        # Only interned gates of this circuit: ``append`` and the builders
        # in this package are the only writers.
        self._gates: list[Gate] = []
        self._interned: dict[tuple, Gate] = {}
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
        return tuple(self._gates)

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

    def intern(self, kind: GateKind, *operands: QubitRef) -> Gate:
        """Return this circuit's validated gate for ``(kind, operands)``
        without appending it.

        Every call is validated, so ``QubitRef("a", 1.0)`` raises even once a
        gate on ``QubitRef("a", 1)`` is stored. Equal gates are one shared
        frozen object; a ``str`` kind equals its ``GateKind``, so both
        spellings share one gate whose kind is the enum.
        """
        if not isinstance(kind, GateKind):
            kind = GateKind(kind)
        op = self._validate(kind, operands)
        return self._interned.get((kind, operands)) or self._store(kind, operands, op)

    def append(self, kind: GateKind, *operands: QubitRef) -> Gate:
        """Append the interned gate for ``(kind, operands)`` and return it."""
        gate = self.intern(kind, *operands)
        self._gates.append(gate)
        return gate

    def _lookup(self, kind: GateKind, *operands: QubitRef) -> Gate:
        """``intern`` for the builders, which resolve each gate many times and
        pass only a ``GateKind`` and well-typed operands: a stored gate is
        returned unchecked, and a new one is validated and stored."""
        return self._interned.get((kind, operands)) or self._store(
            kind, operands, self._validate(kind, operands))

    def _store(self, kind: GateKind, operands: tuple, op: tuple) -> Gate:
        """Store ``Gate(kind, operands)`` with its validated ``op``. The kind
        is already coerced, so the slots are written directly: ``__init__``
        would also write the default op and run ``__post_init__``."""
        gate = self._interned[kind, operands] = object.__new__(Gate)
        _set_kind(gate, kind)
        _set_operands(gate, operands)
        _set_op(gate, op)
        return gate

    def per_gate(self, fn: Callable[[Gate], object]) -> Iterator:
        """``fn`` of the gate at every position, in list order, with ``fn``
        run once per interned gate."""
        # Interned gates live as long as the circuit, so no id is reused.
        results = {id(gate): fn(gate) for gate in self._interned.values()}
        return map(results.__getitem__, map(id, self._gates))

    def _validate(self, kind: GateKind, operands: tuple) -> tuple:
        """Check one gate and return its op: its ``_OP_CODES`` code and
        operand rows in gate order (rows number the qubits register by
        register, in declaration order), X and CNOT padded with None."""
        arity = GATE_ARITY[kind]
        if len(operands) != arity:
            raise CircuitError(f"{kind.value} takes {arity} operands, got {len(operands)}")
        # One pass checks types and finds rows; a range error is raised only
        # after the distinctness check, which outranks it.
        rows, spans = [], self._spans
        for ref in operands:
            if not isinstance(ref, QubitRef):
                raise CircuitError(f"{kind.value} operand {ref!r} is not a QubitRef")
            register, offset = ref
            # Not isinstance: a bool offset would be written as "True".
            if type(register) is not str or type(offset) is not int:
                raise CircuitError(
                    f"{kind.value} operand {ref!r} needs a str register and an int offset"
                )
            span = spans.get(register)
            if span is not None and 0 <= offset < span[1]:
                rows.append(span[0] + offset)
        if len(rows) == arity:
            # In-range operands map one to one onto rows, so the rows are
            # distinct exactly when the operands are. Unrolled, as a set of
            # the rows and a padded tuple cost 0.3 us more per stored gate.
            code = _OP_CODES[kind]
            if arity == 1:
                return (code, rows[0], None, None)
            if arity == 2:
                a, b = rows
                if a != b:
                    return (code, a, b, None)
            else:
                a, b, t = rows
                if a != b and a != t and b != t:
                    return (code, a, b, t)
        elif len(set(operands)) == arity:  # some operand is out of range: raise for the first
            for register, offset in operands:
                size = self.register(register).size
                if not 0 <= offset < size:
                    raise CircuitError(f"qubit {register}[{offset}] out of range (size {size})")
        raise CircuitError(f"{kind.value} operands must be pairwise distinct")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self._registers == other._registers and self._gates == other._gates

    def __repr__(self) -> str:
        return f"Circuit({len(self._registers)} registers, {len(self._gates)} gates)"


_kind = attrgetter("kind")


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

    Gates are tallied per kind in one C-level pass, then weighted per kind."""
    kinds = Counter(map(_kind, circuit._gates))
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
    control pair before circuit end. Raises CircuitError on violation.
    Only temp-AND positions are visited, found in one C-level pass over the
    gate kinds; other gates cannot affect pairing.
    Controls match in either order.
    """
    gates = circuit._gates
    temps = {GateKind.TEMP_AND, GateKind.TEMP_AND_UNCOMPUTE}
    held: dict[QubitRef, Gate] = {}  # target -> pending TEMP_AND
    for i in compress(count(), map(temps.__contains__, map(_kind, gates))):
        gate = gates[i]
        target = gate.operands[-1]
        if gate.kind is GateKind.TEMP_AND:
            if target in held:
                raise CircuitError(
                    f"gate {i}: TEMP_AND on already-held target {target.register}[{target.offset}]"
                )
            held[target] = gate
            continue
        pending = held.get(target)
        if pending is None or (
            pending.operands[:2] != gate.operands[:2]
            and frozenset(pending.operands[:2]) != frozenset(gate.operands[:2])
        ):
            raise CircuitError(
                f"gate {i}: TEMP_AND_UNCOMPUTE on {target.register}[{target.offset}] does "
                "not match a pending TEMP_AND with the same controls"
            )
        del held[target]
    if held:
        targets = ", ".join(f"{t.register}[{t.offset}]" for t in held)
        raise CircuitError(f"unreleased TEMP_AND targets at circuit end: {targets}")
