"""Line-based text format for circuits.

Header lines declare registers, then one gate per line, targets last::

    REGISTER addr_q 4 address_q
    REGISTER output 8 output
    TOFFOLI work 0 dirty 3 output 5

``#`` starts a comment (full line or trailing); lines are LF-terminated.
Register sizes and qubit offsets are ASCII decimal numbers: no sign other
than a leading ``-`` (reported as out of range), no ``_`` separators and no
non-ASCII digits. ``parse_circuit(serialize_circuit(c))`` reproduces the
register list and gate list exactly. A lookup circuit repeats few distinct
gates many times, so each distinct gate is formatted once, and the parser
maps the raw text of each gate line it has accepted to the circuit's interned
gate: a repeated line costs one dict hit, and only a new line is stripped,
tokenized and validated.
"""
from __future__ import annotations

import re

from .circuit import Circuit, Gate, GateKind, QubitRef, RegisterSpec, Role

__all__ = ["ParseError", "serialize_circuit", "parse_circuit"]

#: A decimal number as the text formats spell it; the table format shares it.
DECIMAL = re.compile(r"-?[0-9]+")
_KINDS = {kind.value: kind for kind in GateKind}


class ParseError(ValueError):
    """Malformed gate-list or table text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize_circuit(circuit: Circuit) -> str:
    # Each line carries its own LF, so the text is made by one join and never
    # copied again; an empty circuit is the single empty line "\n".
    lines = [
        f"REGISTER {reg.name} {reg.size} {reg.role.value}\n" for reg in circuit.registers
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
            line = formatted[id(gate)] = " ".join(parts) + "\n"
        lines.append(line)
    return "".join(lines) or "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse a gate file in one pass: registers up to the first gate line,
    then each gate as it is read.

    A gate line seen before costs one dict hit: each parse maps the raw text
    of every gate line it accepted, and its text with comment and spaces
    stripped, to the circuit's interned gate. REGISTER, blank, comment and
    failed lines never enter that map, so they always take the full path.
    After a gate error the remaining lines are still scanned, so a misplaced
    REGISTER line is reported before any gate error on an earlier line.
    """
    registers: list[RegisterSpec] = []
    seen_names: set[str] = set()
    circuit: Circuit | None = None
    known: dict[str, Gate] = {}
    error: ParseError | None = None
    for lineno, raw in enumerate(_lines(text), start=1):
        # ``known`` stays empty until the first gate line has made the
        # circuit and bound ``append``.
        gate = known.get(raw)
        if gate is not None:
            append(gate)
            continue
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        # startswith first: only REGISTER-like lines pay for a split here.
        if line.startswith("REGISTER") and line.split(None, 1)[0] == "REGISTER":
            if circuit is not None:
                raise ParseError(lineno, "REGISTER after first gate line")
            registers.append(_parse_register(lineno, line, seen_names))
            continue
        if circuit is None:
            circuit = Circuit(registers)
            append = circuit.gates.append
        if error is not None:
            continue
        gate = known.get(line)
        if gate is None:
            try:
                gate = circuit.intern(*_parse_gate(lineno, line))
            except ParseError as exc:
                error = exc
                continue
            except ValueError as exc:
                error = ParseError(lineno, str(exc))
                continue
            known[line] = gate
        known[raw] = gate
        append(gate)
    if error is not None:
        raise error
    return Circuit(registers) if circuit is None else circuit


def _lines(text: str, chunk: int = 1 << 20):
    """``text.splitlines()``, produced about ``chunk`` characters at a time.

    Chunks end just after a LF, which ends a line in every split, so the
    lines are exactly those of one ``splitlines`` call without holding them
    all at once."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _parse_register(lineno: int, line: str, seen_names: set[str]) -> RegisterSpec:
    tokens = line.split()
    if len(tokens) != 4:
        raise ParseError(lineno, "expected: REGISTER <name> <size> <role>")
    _, name, size_s, role_s = tokens
    size = _decimal(lineno, size_s, "bad register size")
    try:
        role = Role(role_s)
    except ValueError:
        raise ParseError(lineno, f"unknown register role {role_s!r}") from None
    if name in seen_names:
        raise ParseError(lineno, f"duplicate register name {name!r}")
    seen_names.add(name)
    try:
        return RegisterSpec(name, size, role)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _decimal(lineno: int, token: str, what: str) -> int:
    # int() alone would also take "+1", "1_0" and non-ASCII digits, and it
    # refuses strings past sys.get_int_max_str_digits().
    try:
        if DECIMAL.fullmatch(token):
            return int(token)
    except ValueError:
        pass
    raise ParseError(lineno, f"{what} {token!r}")


def _parse_gate(lineno: int, line: str) -> tuple:
    """Map one gate line to ``(kind, *operands)`` for ``Circuit.intern``."""
    kind_s, *rest = line.split()
    kind = _KINDS.get(kind_s)
    if kind is None:
        raise ParseError(lineno, f"unknown gate kind {kind_s!r}")
    if len(rest) % 2 != 0:
        raise ParseError(lineno, "operands must be <register> <offset> pairs")
    operands = []
    for reg_name, offset_s in zip(rest[::2], rest[1::2]):
        operands.append(QubitRef(reg_name, _decimal(lineno, offset_s, "bad qubit offset")))
    return (kind, *operands)
