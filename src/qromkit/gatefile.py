"""Line-based text format for circuits.

Header lines declare registers, then one gate per line, targets last::

    REGISTER addr_q 4 address_q
    REGISTER output 8 output
    TOFFOLI work 0 dirty 3 output 5

``#`` starts a comment (full line or trailing); lines are LF-terminated.
``parse_circuit(serialize_circuit(c))`` reproduces the register list and gate
list exactly. A lookup circuit repeats few distinct gates many times, so each
distinct gate line is tokenized once and each distinct gate formatted once.
"""
from __future__ import annotations

from .circuit import Circuit, GateKind, QubitRef, RegisterSpec, Role

__all__ = ["ParseError", "serialize_circuit", "parse_circuit"]


class ParseError(ValueError):
    """Malformed gate-list or table text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize_circuit(circuit: Circuit) -> str:
    lines = [
        f"REGISTER {reg.name} {reg.size} {reg.role.value}" for reg in circuit.registers
    ]
    # Keyed by id: equal gates are one object, and every key stays alive in
    # circuit.gates while this runs.
    formatted: dict[int, str] = {}
    for gate in circuit.gates:
        line = formatted.get(id(gate))
        if line is None:
            parts = [gate.kind.value]
            for ref in gate.operands:
                parts.append(ref.register)
                parts.append(str(ref.offset))
            line = formatted[id(gate)] = " ".join(parts)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    registers: list[RegisterSpec] = []
    seen_names: set[str] = set()
    gate_lines: list[tuple[int, str]] = []
    # The header pass covers the whole file, so a misplaced REGISTER line is
    # reported before any gate error on an earlier line.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        # startswith first: only REGISTER-like lines pay for a split here.
        if line.startswith("REGISTER") and line.split(None, 1)[0] == "REGISTER":
            if gate_lines:
                raise ParseError(lineno, "REGISTER after first gate line")
            tokens = line.split()
            if len(tokens) != 4:
                raise ParseError(lineno, "expected: REGISTER <name> <size> <role>")
            _, name, size_s, role_s = tokens
            try:
                size = int(size_s)
            except ValueError:
                raise ParseError(lineno, f"bad register size {size_s!r}") from None
            try:
                role = Role(role_s)
            except ValueError:
                raise ParseError(lineno, f"unknown register role {role_s!r}") from None
            if name in seen_names:
                raise ParseError(lineno, f"duplicate register name {name!r}")
            seen_names.add(name)
            registers.append(_make_register(lineno, name, size, role))
        else:
            gate_lines.append((lineno, line))

    circuit = Circuit(registers)
    parsed: dict[str, tuple] = {}
    for lineno, line in gate_lines:
        gate = parsed.get(line)
        if gate is None:
            gate = parsed[line] = _parse_gate(lineno, line)
        try:
            circuit.append(*gate)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return circuit


def _parse_gate(lineno: int, line: str) -> tuple:
    """Map one gate line to ``(kind, *operands)`` for ``Circuit.append``."""
    kind_s, *rest = line.split()
    try:
        kind = GateKind(kind_s)
    except ValueError:
        raise ParseError(lineno, f"unknown gate kind {kind_s!r}") from None
    if len(rest) % 2 != 0:
        raise ParseError(lineno, "operands must be <register> <offset> pairs")
    operands = []
    for reg_name, offset_s in zip(rest[::2], rest[1::2]):
        try:
            offset = int(offset_s)
        except ValueError:
            raise ParseError(lineno, f"bad qubit offset {offset_s!r}") from None
        operands.append(QubitRef(reg_name, offset))
    return (kind, *operands)


def _make_register(lineno: int, name: str, size: int, role: Role) -> RegisterSpec:
    try:
        return RegisterSpec(name, size, role)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
