"""Property tests for the two text formats.

Whatever the input, the parsers either return a value or raise ParseError,
and a parsed circuit serializes to a fixed point of serialize -> parse.
Decorated gate files (comments, spaces, zero-padded offsets, blank and
repeated lines) parse like their plain form, and their errors match a
per-line reference parser at any chunk size of the per-distinct-line parse. The table parser's fast path and
its per-line path agree on every input.
"""
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from qromkit import (
    Circuit,
    Gate,
    GateKind,
    ParseError,
    QubitRef,
    RegisterSpec,
    Role,
    build_qrom,
    build_selectswap_dirty,
    format_table,
    parse_circuit,
    parse_table_text,
    plan_qrom,
    serialize_circuit,
)
from qromkit.circuit import GATE_ARITY
from qromkit.gatefile import _CHUNK, _line_chunks, _parse_circuit
from qromkit.tablefile import _parse_lines, _parse_plain
from helpers import circuit_with_gates, random_table

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


def token_lines(tokens):
    """Text built from format keywords and small numbers, so that examples
    reach past the first syntax check."""
    line = st.lists(st.sampled_from(tokens), max_size=7).map(" ".join)
    return st.lists(line, max_size=10).map("\n".join)


GATE_TOKENS = [
    "REGISTER", "X", "CNOT", "TOFFOLI", "CSWAP", "TEMP_AND", "TEMP_AND_UNCOMPUTE",
    "q", "w", "o", "0", "1", "2", "3", "-1", "+1", "0x1", "1_0", "\u0663", "address_q", "address_r",
    "output", "dirty", "work", "temp", "#", "a-b", "",
]
TABLE_TOKENS = ["0", "1", "2", "3", "8", "-1", "0x3", "0b11", "1_0", "x", "#", "1e3", ""]


@PROPERTY_SETTINGS
@given(st.one_of(st.text(), token_lines(GATE_TOKENS)))
def test_parse_circuit_raises_only_parse_error(text):
    try:
        circuit = parse_circuit(text)
    except ParseError:
        return
    canonical = serialize_circuit(circuit)
    assert serialize_circuit(parse_circuit(canonical)) == canonical


@PROPERTY_SETTINGS
@given(st.text(), st.integers(1, 16))
def test_chunked_gate_file_lines_equal_splitlines(text, chunk):
    assert sum(_line_chunks(text, chunk), []) == text.splitlines()


@PROPERTY_SETTINGS
@given(st.one_of(st.text(), token_lines(TABLE_TOKENS)))
def test_parse_table_text_raises_only_parse_error(text):
    try:
        table = parse_table_text(text)
    except ParseError:
        return
    assert all(0 <= v < 1 << table.bit_width for v in table.entries)


@st.composite
def circuits(draw):
    name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
    names = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    registers = [
        RegisterSpec(name, draw(st.integers(1, 4)), draw(st.sampled_from(list(Role))))
        for name in names
    ]
    circuit = Circuit(registers)
    qubits = list(circuit.qubits())
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= len(qubits)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        arity = GATE_ARITY[kind]
        operands = draw(
            st.lists(st.sampled_from(qubits), min_size=arity, max_size=arity, unique=True)
        )
        circuit.append(kind, *operands)
    return circuit


def line_per_gate(circuit):
    """Reference serializer: one formatted line per register and per gate."""
    lines = [f"REGISTER {reg.name} {reg.size} {reg.role.value}" for reg in circuit.registers]
    for gate in circuit.gates:
        lines.append(" ".join([gate.kind.value, *(f"{r} {o}" for r, o in gate.operands)]))
    return "\n".join(lines) + "\n"


@PROPERTY_SETTINGS
@given(circuits())
def test_serialize_parse_serialize_is_identity(circuit):
    text = serialize_circuit(circuit)
    assert text == line_per_gate(circuit)
    parsed = parse_circuit(text)
    assert parsed == circuit
    assert serialize_circuit(parsed) == text
    # A list assembled from the parsed gates: each gate at several
    # positions, and a gate that was not in the file.
    stray = Gate(GateKind.X, (next(parsed.qubits()),))
    gates = parsed.gates
    assembled = circuit_with_gates(
        parsed.registers, [*gates, stray, *reversed(gates), *gates[:1], stray])
    assert serialize_circuit(assembled) == line_per_gate(assembled)


BUILT_FILES = [
    serialize_circuit(build_qrom(random_table(8, 2, seed=1), plan_qrom(8, 2, 2, 1))),
    serialize_circuit(build_qrom(random_table(13, 3, seed=2), plan_qrom(13, 3, 4, 2))),
    serialize_circuit(build_selectswap_dirty(random_table(9, 2, seed=3), 4)),
]
COMMENT_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8)
SPACES = st.text(" \t", min_size=1, max_size=3)
#: Replacements for one gate line, each of which the parser must reject.
BREAKERS = [
    lambda tokens: ["NOT_A_GATE", *tokens[1:]],
    lambda tokens: tokens[:-1],
    lambda tokens: [*tokens, tokens[1], tokens[2]],
    lambda tokens: [*tokens[:-1], "99"],
    lambda tokens: [*tokens[:-1], "x"],
    lambda tokens: [*tokens[:-1], "+1"],
    lambda tokens: [*tokens[:-1], "-1"],
    lambda tokens: [tokens[0], "nope", *tokens[2:]],
    lambda tokens: ["REGISTER", "extra", "1", "work"],
]


def split_file(text):
    lines = text.splitlines()
    gates_from = next(i for i, line in enumerate(lines) if not line.startswith("REGISTER"))
    return lines[:gates_from], lines[gates_from:]


@st.composite
def decorated_gate_lines(draw, gate_lines):
    """(plain, decorated) line lists: every decoration (comment, leading,
    trailing or inner spaces, a zero-padded offset, blank line, repeat) keeps
    the parsed circuit, and a repeated line is repeated in both."""
    plain = [[line] for line in gate_lines]
    decorated = [[line] for line in gate_lines]
    edits = st.tuples(st.integers(0, len(gate_lines) - 1), st.sampled_from("ctlizbr"))
    for at, edit in draw(st.lists(edits, max_size=40)):
        last = decorated[at][-1]
        if edit == "c":
            gap = draw(st.sampled_from(["", " ", "\t"]))
            decorated[at][-1] = f"{last}{gap}#{draw(COMMENT_TEXT)}"
        elif edit == "t":
            decorated[at][-1] = last + draw(SPACES)
        elif edit == "l":
            decorated[at][-1] = draw(SPACES) + last
        elif edit == "i":
            decorated[at][-1] = last.replace(" ", draw(SPACES), 1)
        elif edit == "z":
            # Zero-pad the first qubit offset ("output 1" -> "output 01"): a
            # new line that spells an already stored gate.
            decorated[at][-1] = re.sub(r"(?<=\s)(?=[0-9]+(\s|#|$))", "0", last, count=1)
        elif edit == "b":
            decorated[at].insert(0, draw(st.sampled_from(["", " ", "\t", "# note", "  #"])))
        else:
            plain[at].append(plain[at][-1])
            decorated[at].append(draw(st.sampled_from(["", " "])) + plain[at][-1])
    return sum(plain, []), sum(decorated, [])


@PROPERTY_SETTINGS
@given(st.data())
def test_decorated_gate_file_parses_like_plain(data):
    header, gate_lines = split_file(data.draw(st.sampled_from(BUILT_FILES), label="file"))
    plain, decorated = data.draw(decorated_gate_lines(gate_lines), label="lines")
    expected = parse_circuit("\n".join(header + plain) + "\n")
    parsed = parse_circuit("\n".join(header + decorated) + "\n")
    assert parsed == expected
    assert len(set(map(id, parsed.gates))) == len(set(parsed.gates))


def reference_parse(text):
    """Every line parsed on its own, with no caching; raises at the first bad
    line."""
    registers, circuit = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "REGISTER":
            if circuit is not None:
                raise ParseError(lineno, "REGISTER after first gate line")
            registers.append(RegisterSpec(tokens[1], int(tokens[2]), Role(tokens[3])))
            continue
        if circuit is None:
            circuit = Circuit(registers)
        kind, *rest = tokens
        if kind not in {k.value for k in GateKind}:
            raise ParseError(lineno, f"unknown gate kind {kind!r}")
        if len(rest) % 2:
            raise ParseError(lineno, "operands must be <register> <offset> pairs")
        operands = []
        for name, offset in zip(rest[::2], rest[1::2]):
            if not re.fullmatch(r"-?[0-9]+", offset):
                raise ParseError(lineno, f"bad qubit offset {offset!r}")
            operands.append(QubitRef(name, int(offset)))
        try:
            circuit.append(GateKind(kind), *operands)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return circuit


@PROPERTY_SETTINGS
@given(st.data())
def test_decorated_gate_file_errors_match_reference(data):
    header, gate_lines = split_file(data.draw(st.sampled_from(BUILT_FILES), label="file"))
    # Past the first gate line, so that a REGISTER line is misplaced.
    at = data.draw(st.integers(1, len(gate_lines) - 1), label="at")
    breaker = data.draw(st.sampled_from(BREAKERS), label="breaker")
    gate_lines = list(gate_lines)
    gate_lines[at] = " ".join(breaker(gate_lines[at].split()))
    _, decorated = data.draw(decorated_gate_lines(gate_lines), label="lines")
    text = "\n".join(header + decorated) + "\n"
    try:
        reference_parse(text)
    except ParseError as exc:
        expected = (exc.line, str(exc))
    else:
        raise AssertionError("reference parser accepted a broken line")
    try:
        parse_circuit(text)
    except ParseError as exc:
        assert (exc.line, str(exc)) == expected
    else:
        raise AssertionError(f"parse_circuit accepted {expected}")


def outcome(parse, text):
    """What a parser makes of ``text``: its result, or its error."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("error", exc.line, str(exc))


@st.composite
def two_phase_files(draw):
    """A built file, decorated, with at most one broken line copied before
    and after its own place, and maybe a header line repeated past the first
    gate line."""
    header, gate_lines = split_file(draw(st.sampled_from(BUILT_FILES)))
    gate_lines = list(gate_lines)
    if draw(st.booleans()):
        # Past the first gate line, so that a broken REGISTER is misplaced.
        at = draw(st.integers(1, len(gate_lines) - 1))
        broken = " ".join(draw(st.sampled_from(BREAKERS))(gate_lines[at].split()))
        gate_lines[at] = broken
        copies = [draw(st.integers(1, at)), draw(st.integers(at + 1, len(gate_lines)))]
        copies += draw(st.lists(st.integers(1, len(gate_lines)), max_size=2))
        for place in sorted(copies, reverse=True):
            gate_lines.insert(place, broken)
    if draw(st.booleans()):
        place = draw(st.integers(1, len(gate_lines)))
        gate_lines.insert(place, draw(st.sampled_from(header)))
    _, decorated = draw(decorated_gate_lines(gate_lines))
    return "\n".join(header + decorated) + "\n"


@PROPERTY_SETTINGS
@given(two_phase_files())
def test_two_phase_parse_matches_reference_at_any_chunk_size(text):
    expected = outcome(reference_parse, text)
    for chunk in (1, 7, _CHUNK):
        assert outcome(lambda t: _parse_circuit(t, chunk), text) == expected


TABLE_EDITS = {
    "comment": lambda line, draw: line + draw(st.sampled_from([" # c", "#", "\t# x 1"])),
    "blank": lambda line, draw: draw(st.sampled_from(["", " ", "# note"])) + "\n" + line,
    "pad": lambda line, draw: draw(SPACES) + line + draw(st.sampled_from(["", " ", "\t"])),
    "hex": lambda line, draw: hex(int(line)) if line.isdecimal() else line,
    "zeros": lambda line, draw: "0" * draw(st.integers(1, 3)) + line,
    "non_ascii": lambda line, draw: line.replace(
        draw(st.sampled_from("0123456789")), draw(st.sampled_from(["\u0663", "\uff11"]))
    ),
    "long": lambda line, draw: draw(st.sampled_from(["0" * 4999 + "1", "1" * 5000])),
    "range": lambda line, draw: draw(st.sampled_from(["-1", "4096", "0x1000", str(1 << 64)])),
}


@st.composite
def table_texts(draw):
    """A table file as ``format_table`` writes it, with a few line edits and
    maybe a line too many or too few."""
    b = draw(st.integers(1, 12))
    entries = draw(st.lists(st.integers(0, (1 << b) - 1), min_size=1, max_size=6))
    lines = [f"{len(entries)} {b}", *map(str, entries)]
    edits = st.tuples(st.integers(0, len(entries)), st.sampled_from(sorted(TABLE_EDITS)))
    for at, edit in draw(st.lists(edits, max_size=3)):
        lines[at] = TABLE_EDITS[edit](lines[at], draw)
    count = draw(st.sampled_from([0, 0, 0, 1, -1]))
    if count > 0:
        lines.append("1")
    elif count < 0:
        lines.pop()
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@PROPERTY_SETTINGS
@given(table_texts())
def test_table_fast_path_agrees_with_per_line_path(text):
    lines = text.splitlines()
    expected = outcome(lambda _: _parse_lines(lines), text)
    assert outcome(parse_table_text, text) == expected
    fast = _parse_plain(text, lines)
    if fast is not None:
        assert fast == expected


def test_table_fast_path_takes_format_table_output():
    table = random_table(64, 12, seed=4)
    text = format_table(table)
    assert _parse_plain(text, text.splitlines()) == table
