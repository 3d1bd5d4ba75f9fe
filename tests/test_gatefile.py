import pytest

from qromkit import (
    Circuit,
    GateKind,
    ParseError,
    QubitRef,
    RegisterSpec,
    Role,
    build_qrom,
    count_resources,
    parse_circuit,
    plan_qrom,
    serialize_circuit,
)
from helpers import random_table


def test_header_only():
    c = Circuit([RegisterSpec("q", 2, Role.ADDRESS_Q)])
    assert serialize_circuit(c) == "REGISTER q 2 address_q\n"


def test_gate_line_format():
    c = Circuit(
        [
            RegisterSpec("a", 1, Role.ADDRESS_Q),
            RegisterSpec("b", 2, Role.DIRTY),
            RegisterSpec("c", 3, Role.OUTPUT),
        ]
    )
    c.append(GateKind.TOFFOLI, QubitRef("a", 0), QubitRef("b", 1), QubitRef("c", 2))
    assert serialize_circuit(c).splitlines()[-1] == "TOFFOLI a 0 b 1 c 2"


def test_round_trip_simple():
    c = Circuit([RegisterSpec("a", 2, Role.ADDRESS_Q), RegisterSpec("o", 1, Role.OUTPUT)])
    c.append(GateKind.X, QubitRef("a", 0))
    c.append(GateKind.CNOT, QubitRef("a", 1), QubitRef("o", 0))
    assert parse_circuit(serialize_circuit(c)) == c


@pytest.mark.parametrize("n,b,lam,mu", [(64, 8, 4, 2), (100, 5, 4, 2), (8, 2, 2, 1)])
def test_round_trip_built_qrom(n, b, lam, mu):
    table = random_table(n, b, seed=n + b)
    circuit = build_qrom(table, plan_qrom(n, b, lam, mu))
    again = parse_circuit(serialize_circuit(circuit))
    assert again == circuit
    assert count_resources(again) == count_resources(circuit)


def test_comments_and_blank_lines():
    text = "# a lookup circuit\nREGISTER q 1 address_q  # one qubit\n\nX q 0\n"
    c = parse_circuit(text)
    assert c.num_qubits == 1
    assert len(c.gates) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("REGISTER a 2 address_q\nTOFFOLI a 0 a 0 a 1\n", "distinct"),
        ("REGISTER a 2 address_q\nFREDKIN2 a 0 a 1\n", "unknown gate kind"),
        ("REGISTER a 2 address_q\nCNOT a 0 b 1\n", "unknown register"),
        ("REGISTER a 2 bogus\n", "unknown register role"),
        ("REGISTER a two address_q\n", "bad register size"),
        ("REGISTER a 2 address_q\nCNOT a 0 a\n", "pairs"),
        ("REGISTER a 2 address_q\nX a zero\n", "bad qubit offset"),
        ("REGISTER a 2 address_q\nREGISTER a 1 work\n", "line 2: duplicate register"),
        ("REGISTER a 1 work\nX a 0\nREGISTER b 1 work\n", "REGISTER after first gate"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError, match=fragment) as err:
        parse_circuit(text)
    assert "line" in str(err.value)


def test_error_line_number_is_exact():
    text = "REGISTER a 2 address_q\nX a 0\nX a 5\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_circuit(text)


def test_repeated_invalid_line_reports_first_occurrence():
    text = "REGISTER a 2 address_q\nX a 0\nX a 5\nX a 1\nX a 5\n"
    with pytest.raises(ParseError, match="^line 3: qubit a\\[5\\] out of range"):
        parse_circuit(text)
    text = "REGISTER a 2 address_q\nX a 0\nCNOT a 0 a\nX a 0\nCNOT a 0 a\n"
    with pytest.raises(ParseError, match="^line 3: operands"):
        parse_circuit(text)


def test_misplaced_register_outranks_earlier_gate_error():
    text = "REGISTER a 1 work\nX a 7\nREGISTER b 1 work\n"
    with pytest.raises(ParseError, match="^line 3: REGISTER after first gate line"):
        parse_circuit(text)


def test_parsed_gates_are_shared_and_equal_to_built():
    table = random_table(256, 8, seed=9)
    circuit = build_qrom(table, plan_qrom(256, 8, 8, 2))
    text = serialize_circuit(circuit)
    again = parse_circuit(text)
    assert again == circuit
    distinct = len(set(again.gates))
    assert distinct < len(again.gates)
    assert len({id(gate) for gate in again.gates}) == distinct
    assert serialize_circuit(again) == text


def test_all_roles_round_trip():
    roles = ["address_q", "address_r", "output", "dirty", "work", "temp"]
    text = "".join(f"REGISTER r{i} 1 {role}\n" for i, role in enumerate(roles))
    c = parse_circuit(text)
    assert [reg.role.value for reg in c.registers] == roles
    assert serialize_circuit(c) == text
