"""Line-based text format for circuits.

Header lines declare registers, then one gate per line, targets last::

    REGISTER addr_q 4 address_q
    REGISTER output 8 output
    TOFFOLI work 0 dirty 3 output 5

``#`` starts a comment (full line or trailing). A line ends at every line
boundary of ``str.splitlines``: LF, CR, CRLF, and also U+000B, U+000C,
U+001C to U+001E, U+0085, U+2028 and U+2029, so a comment ends there too.
Register sizes and qubit offsets are ASCII decimal numbers: no sign other
than a leading ``-`` (reported as out of range), no ``_`` separators and no
non-ASCII digits. ``parse_circuit(serialize_circuit(c))`` reproduces the
register list and gate list exactly. A lookup circuit repeats few distinct
gates many times, interns each by its op (kind and operand rows) and stores
its gate list as indices into the ops, so the serializer formats each
distinct op's line once, from a ``"name offset"`` token per row, and joins
the lines by index; it makes no ``Gate``. The parser pays Python work per
distinct line: it reads gate lines a chunk at a time, maps each raw line not
seen before to the index of the circuit's gate, and extends the circuit's
index array by the whole chunk in one C-level pass. Each distinct
``(register, offset)`` token pair of a file is resolved once, to its
``QubitRef`` and its row in the file's own register layout, so the REGISTER
lines may come in any order; a line's rows go through ``Circuit._op``, which
raises the errors that name an operand, and then ``Circuit._intern``, which
gives two spellings of one gate one index and checks an op on its rows when
it is first stored.
Errors name the first bad line: past the header, a line's validity does not
depend on its place.
"""
from __future__ import annotations

import re

from .circuit import GATE_ARITY, Circuit, GateKind, QubitRef, RegisterSpec, Role, _Qubits

__all__ = ["ParseError", "serialize_circuit", "parse_circuit"]

#: A decimal number as the text formats spell it; the table format shares it.
DECIMAL = re.compile(r"-?[0-9]+")


class ParseError(ValueError):
    """Malformed gate-list or table text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``, for either format, with CR
    and CRLF line ends read as LF, as text-mode reading gives them, so that
    gate lines split into chunks at LFs. A byte that does not decode is a
    ``ParseError`` on the line that holds it."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The text before the bad byte decodes; with one more character its
        # last line is the bad byte's line.
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"invalid UTF-8 byte {data[exc.start]:#04x}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def serialize_circuit(circuit: Circuit) -> str:
    # Each line carries its own LF, so the text is made by one join; an empty
    # circuit is the single empty line "\n".
    header = [f"REGISTER {reg.name} {reg.size} {reg.role.value}\n" for reg in circuit.registers]
    lines = list(map(_Tokens(circuit).line, circuit._ops))
    return "".join([*header, *map(lines.__getitem__, circuit._index)]) or "\n"


class _Tokens(dict):
    """The ``"name offset"`` token of each row, made on first use."""

    def __init__(self, circuit: Circuit) -> None:
        super().__init__()
        self.qubits = _Qubits(circuit)

    def __missing__(self, row: int) -> str:
        token = self[row] = "{} {}".format(*self.qubits[row])
        return token

    def line(self, op: tuple) -> str:
        """The gate line of ``op``, with its LF."""
        kind = op[0]
        return " ".join([kind.value, *map(self.__getitem__, op[1:GATE_ARITY[kind] + 1])]) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse a gate file: registers line by line up to the first gate line,
    then the gate lines a chunk at a time.

    Python work is paid per distinct line, not per line. In each chunk of
    about a megabyte, only the raw lines not seen before are parsed, in order
    of first occurrence, each to its gate's index or to ``_SKIP`` for a blank
    or comment line; the chunk's indices are appended in one C-level pass,
    which drops ``_SKIP`` only if the chunk holds it. Each ``(register,
    offset)`` token pair is turned into a ``QubitRef`` and a row once. The
    first bad line is reported, and the parse stops in the chunk that holds
    it; its line number is worked out only then.
    """
    return _parse_circuit(text, _CHUNK)


#: Characters per chunk of gate lines, give or take one line.
_CHUNK = 1 << 20

_SKIP = -1  # The index of a blank or comment line: no gate's, as those are >= 0.


def _parse_circuit(text: str, chunk: int) -> Circuit:
    registers: list[RegisterSpec] = []
    seen_names: set[str] = set()
    circuit: Circuit | None = None
    # Raw text of every accepted line: its gate's index, or _SKIP.
    known: dict[str, int] = {}
    refs: dict[tuple[str, str], QubitRef] = {}
    end = 0  # body ends on line end, so body[k] is on line end - len(body) + k + 1
    for body in _line_chunks(text, chunk):
        end += len(body)
        if circuit is None:
            for at, raw in enumerate(body):
                line = raw.partition("#")[0].strip()
                if not line:
                    continue
                if not _is_register(line):
                    circuit = Circuit(registers)
                    body = body[at:]
                    break
                try:
                    registers.append(_parse_register(line, seen_names))
                except ValueError as exc:
                    raise ParseError(end - len(body) + at + 1, str(exc)) from None
            else:
                continue
        distinct = dict.fromkeys(body)
        for raw in distinct:
            if raw in known:
                continue
            line = raw.partition("#")[0].strip()
            try:
                if _is_register(line):
                    raise ValueError("REGISTER after first gate line")
                known[raw] = _parse_gate(circuit, line, refs) if line else _SKIP
            except ValueError as exc:
                raise ParseError(end - len(body) + body.index(raw) + 1, str(exc)) from None
        indices = map(known.__getitem__, body)
        if _SKIP in map(known.__getitem__, distinct):
            indices = filter(_SKIP.__ne__, indices)
        circuit._index.extend(indices)
    return Circuit(registers) if circuit is None else circuit


def _line_chunks(text: str, chunk: int):
    """``text.splitlines()`` as consecutive lists of lines, each from about
    ``chunk`` characters of text.

    Chunks end just after a LF, which ends a line in every split, so the
    lines are exactly those of one ``splitlines`` call without holding them
    all at once."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def _is_register(line: str) -> bool:
    # startswith first: only REGISTER-like lines pay for a split.
    return line.startswith("REGISTER") and line.split(None, 1)[0] == "REGISTER"


def _parse_register(line: str, seen_names: set[str]) -> RegisterSpec:
    tokens = line.split()
    if len(tokens) != 4:
        raise ValueError("expected: REGISTER <name> <size> <role>")
    _, name, size_s, role_s = tokens
    size = _decimal(size_s, "bad register size")
    try:
        role = Role(role_s)
    except ValueError:
        raise ValueError(f"unknown register role {role_s!r}") from None
    if name in seen_names:
        raise ValueError(f"duplicate register name {name!r}")
    seen_names.add(name)
    return RegisterSpec(name, size, role)


def _decimal(token: str, what: str) -> int:
    # int() alone would also take "+1", "1_0" and non-ASCII digits, and it
    # refuses strings past sys.get_int_max_str_digits().
    try:
        if DECIMAL.fullmatch(token):
            return int(token)
    except ValueError:
        pass
    raise ValueError(f"{what} {token!r}")


#: Each gate kind by its name. A miss falls back to ``GateKind``, which
#: raises the unknown-kind error.
_KINDS = {kind.value: kind for kind in GateKind}


def _parse_gate(circuit: Circuit, line: str, refs: dict) -> int:
    """The index of one gate line's gate; ``refs`` caches the ``QubitRef``
    and row (``Circuit._row``) of each ``(register, offset)`` token pair.
    The operands are ``QubitRef(str, int)`` with their rows resolved, so a
    line goes through ``Circuit._op``'s operand errors and then
    ``Circuit._intern``. Raises ``ValueError`` with the message of a
    ``ParseError``."""
    kind_s, *rest = line.split()
    kind = _KINDS.get(kind_s) or GateKind(kind_s)  # CircuitError, a ValueError
    if len(rest) % 2 != 0:
        raise ValueError("operands must be <register> <offset> pairs")
    operands, rows = [], []
    for pair in zip(rest[::2], rest[1::2]):
        resolved = refs.get(pair)
        if resolved is None:
            register, offset = pair[0], _decimal(pair[1], "bad qubit offset")
            resolved = refs[pair] = QubitRef(register, offset), circuit._row(register, offset)
        operands.append(resolved[0])
        rows.append(resolved[1])
    circuit._op(kind, operands, rows)
    return circuit._intern(kind, *rows)
