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
circuit interns each distinct gate by its op, ``(kind, a, b, t)``: its
``GateKind`` and operand rows (rows number the qubits register by register,
in declaration order), X and CNOT padded with None. The gate list is one
``array("I")`` of indices into the ops. ``_intern`` is the one way in: it
checks arity, distinctness and range on an op's rows the first time it sees
the op. The builders hand it rows read from the register spans, and replay
each recorded unary-iteration scaffold (see ``qromkit.iteration``);
``append`` type-checks its ``QubitRef`` operands and the gate-file parser
resolves each distinct operand of a file to its row once, and both raise the
errors that name an operand (``_op``) before interning. ``Gate`` objects are
a view: ``gates`` and ``_distinct`` make one ``Gate`` per op from the rows
when first read, and no build, CLI or verify path makes one. Every pass
reads the ops and the index array: resources are a tally of indices folded
over the ops' kinds, the temp-AND pairing check keys each distinct temp-AND
op once and compares controls as one ordered row pair per temp-AND
position, and the simulators map gates or ops over it.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

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

# A code per kind, in declaration order, for folding tallies in numpy; the
# Toffoli cost of each code; and the kinds ResourceEstimate counts apart.
_KIND_CODE = {kind: code for code, kind in enumerate(GateKind)}
_TOFFOLI_BY_CODE = [TOFFOLI_COST[kind] for kind in _KIND_CODE]
_COUNTED = (GateKind.TEMP_AND, GateKind.CNOT, GateKind.X)


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
        self._row_count = first
        # The distinct ops in first-intern order, the index of each keyed by
        # the op itself, and the gate list as indices; only ``_intern`` and
        # this package's builders and parser write them.
        self._ops: list[tuple] = []
        self._index = array("I")
        self._interned: dict[tuple, int] = {}
        # One Gate per op, made on first read (``_distinct``), and one kind
        # code per op, made on first count (``count_resources``).
        self._view: list[Gate] = []
        self._codes = array("B")
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
    def _distinct(self) -> list[Gate]:
        """One ``Gate`` per op, in first-intern order, made from the ops not
        yet viewed. The list is built aside and published in one assignment,
        so threads that race here each read a whole list."""
        view = self._view
        if len(view) < len(self._ops):
            view = self._view = view + list(map(_Qubits(self).gate, self._ops[len(view):]))
        return view

    @property
    def num_qubits(self) -> int:
        return self._row_count

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
        """Append the gate ``(kind, operands)`` and return its ``Gate``, the
        object ``gates`` holds.

        The one public way in, and it validates every call, so
        ``QubitRef("a", 1.0)`` raises even once a gate on ``QubitRef("a", 1)``
        is stored. A ``str`` kind becomes its ``GateKind`` or raises
        ``CircuitError``, so both spellings share one gate whose kind is the
        enum; equal gates are one shared object.
        """
        if not isinstance(kind, GateKind):
            kind = GateKind(kind)
        index = self._intern(kind, *self._validate(kind, operands))
        self._index.append(index)
        view = self._view
        if index == len(view) == len(self._ops) - 1:
            # A new op on a view that holds every earlier one: view it here,
            # so that appending gate by gate does not copy the view each time.
            view.append(tuple.__new__(Gate, (kind, operands)))
        return self._distinct[index]

    def _intern(self, kind: GateKind, a: int, b: int | None = None, t: int | None = None) -> int:
        """The index of the op ``(kind, a, b, t)`` over int rows, stored on
        first use: the one way a gate comes into a circuit. ``kind`` is a
        ``GateKind``; X and CNOT leave the rows they do not take as None. An
        op is checked once, when first stored (see ``_refuse``)."""
        op = (kind, a, b, t)
        index = self._interned.get(op)
        if index is None:
            # Unrolled by arity: builders store tens of thousands of ops, and
            # a generic check of the rows costs twice as much.
            arity, n = GATE_ARITY[kind], self._row_count
            if arity == 3:
                valid = (None not in op and a != b != t != a
                         and 0 <= a < n and 0 <= b < n and 0 <= t < n)
            elif arity == 2:
                valid = (t is None and a is not None and b is not None and a != b
                         and 0 <= a < n and 0 <= b < n)
            else:
                valid = a is not None and b is None and t is None and 0 <= a < n
            if not valid:
                self._refuse(op)
            index = self._interned[op] = len(self._ops)
            self._ops.append(op)
        return index

    def _refuse(self, op: tuple) -> None:
        """Raise the error of an op that ``_intern`` refuses: arity, then
        pairwise distinctness, then range."""
        kind, n = op[0], self._row_count
        arity = GATE_ARITY[kind]
        rows = op[1:arity + 1]
        if None in rows or op.count(None) != 3 - arity:
            raise CircuitError(f"{kind.value} takes {arity} operands, got {3 - op.count(None)}")
        if len(set(rows)) != arity:
            raise CircuitError(f"{kind.value} operands must be pairwise distinct")
        row = next(row for row in rows if not 0 <= row < n)
        raise CircuitError(f"qubit row {row} out of range ({n} qubits)")

    def _row(self, register: str, offset: int) -> int | None:
        """The row of qubit ``register[offset]``, or None when the register
        is unknown or the offset out of range."""
        span = self._spans.get(register)
        if span is not None and 0 <= offset < span[1]:
            return span[0] + offset
        return None

    def _validate(self, kind: GateKind, operands: tuple) -> list:
        """The rows of ``operands`` as the operands of a ``kind`` gate:
        type-check them and resolve their rows, then ``_op``."""
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
        self._op(kind, operands, rows)
        return rows

    def _span(self, name: str, count: int) -> Sequence[int | None]:
        """The rows of ``name[0]`` to ``name[count - 1]``, read from the
        register's span, with None for each offset that names no qubit (every
        offset of an unknown register). A builder checks a gate on a None
        row with ``_validate``, which raises ``append``'s error for it."""
        first, size = self._spans.get(name, (0, 0))
        rows = range(first, first + min(count, size))
        return rows if count <= size else [*rows, *[None] * (count - size)]

    def _rows(self, refs) -> list[int | None]:
        """The row of each of ``refs`` that is a ``QubitRef(str, int)``
        naming a qubit, and None for any other (see ``_span``)."""
        return [
            self._row(*ref)
            if isinstance(ref, QubitRef) and type(ref[0]) is str and type(ref[1]) is int else None
            for ref in refs
        ]

    def _op(self, kind: GateKind, operands, rows: list) -> None:
        """Raise the errors that name an operand, for a gate whose
        ``(str, int)`` operands resolve to ``rows`` (``_row``, None for an
        unresolved operand): arity, then, when some operand is unresolved,
        pairwise distinctness and range. ``_intern`` checks resolved rows."""
        arity = GATE_ARITY[kind]
        if len(operands) != arity:
            raise CircuitError(f"{kind.value} takes {arity} operands, got {len(operands)}")
        if None in rows:
            if len(set(operands)) != arity:
                raise CircuitError(f"{kind.value} operands must be pairwise distinct")
            for register, offset in operands:  # raise for the first unresolved one
                size = self.register(register).size
                if not 0 <= offset < size:
                    raise CircuitError(f"qubit {register}[{offset}] out of range (size {size})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self._registers != other._registers:
            return False
        # Over equal registers, equal ops are equal gates. Two circuits may
        # intern them in different orders, so each op here maps to the
        # other's index of it, or to one it never holds, and the gate lists
        # are compared as index arrays.
        absent = len(other._ops)
        theirs = [other._interned.get(op, absent) for op in self._ops]
        return array("I", map(theirs.__getitem__, self._index)) == other._index

    def __repr__(self) -> str:
        return f"Circuit({len(self._registers)} registers, {len(self._index)} gates)"


class _Qubits(dict):
    """Each row's ``QubitRef``, made on first lookup by bisecting the
    registers' first rows: a register may declare far more qubits than any
    gate touches, so no table of every row is built."""

    def __init__(self, circuit: Circuit) -> None:
        super().__init__()
        self.names = list(circuit._spans)
        self.firsts = [first for first, _ in circuit._spans.values()]

    def __missing__(self, row: int) -> QubitRef:
        k = bisect_right(self.firsts, row) - 1
        ref = self[row] = QubitRef(self.names[k], row - self.firsts[k])
        return ref

    def gate(self, op: tuple) -> Gate:
        """The ``Gate`` of ``op``."""
        kind = op[0]
        operands = tuple(map(self.__getitem__, op[1:GATE_ARITY[kind] + 1]))
        # tuple.__new__ skips the NamedTuple's Python-level __new__; the
        # result is the same Gate.
        return tuple.__new__(Gate, (kind, operands))


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
    folded over the kind codes of the distinct ops in a second, weighted
    one. The codes are kept on the circuit, and a call codes only the ops
    interned since the last; like ``_distinct``, it builds the longer array
    aside and publishes it in one assignment."""
    ops, codes = circuit._ops, circuit._codes
    if len(codes) < len(ops):
        new = map(_KIND_CODE.__getitem__, map(itemgetter(0), ops[len(codes):]))
        codes = circuit._codes = codes + array("B", new)
    tally = np.bincount(np.frombuffer(circuit._index, np.uintc), minlength=len(ops))
    # Float weights sum exactly below 2^53 gates.
    kinds = np.bincount(np.frombuffer(codes, np.uint8), weights=tally, minlength=len(_KIND_CODE))
    kinds = kinds.astype(np.int64).tolist()
    toffoli = sum(map(mul, _TOFFOLI_BY_CODE, kinds))
    temp_and, cnot, x = (kinds[_KIND_CODE[kind]] for kind in _COUNTED)
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
                    f"gate {i}: TEMP_AND on already-held target {_qubit_name(circuit, target)}"
                )
            held[target] = controls
        elif held.pop(target, None) != controls:
            raise CircuitError(
                f"gate {i}: TEMP_AND_UNCOMPUTE on {_qubit_name(circuit, target)} does "
                "not match a pending TEMP_AND with the same controls"
            )
    if held:
        targets = ", ".join(_qubit_name(circuit, t) for t in held)
        raise CircuitError(f"unreleased TEMP_AND targets at circuit end: {targets}")


def _qubit_name(circuit: Circuit, row: int) -> str:
    """``register[offset]`` of the qubit at ``row``."""
    return "{}[{}]".format(*_Qubits(circuit)[row])
