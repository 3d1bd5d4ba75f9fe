"""Property tests for the two text formats.

Whatever the input, the parsers either return a value or raise ParseError,
and a parsed circuit serializes to a fixed point of serialize -> parse.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from qromkit import (
    Circuit,
    ParseError,
    RegisterSpec,
    Role,
    parse_circuit,
    parse_table_text,
    serialize_circuit,
)
from qromkit.circuit import GATE_ARITY
from qromkit.gatefile import _lines

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
    assert list(_lines(text, chunk)) == text.splitlines()


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


@PROPERTY_SETTINGS
@given(circuits())
def test_serialize_parse_serialize_is_identity(circuit):
    text = serialize_circuit(circuit)
    parsed = parse_circuit(text)
    assert parsed == circuit
    assert serialize_circuit(parsed) == text
