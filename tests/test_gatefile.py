import random

import pytest

from qromkit import (
    Circuit,
    GateKind,
    ParseError,
    QubitRef,
    RegisterSpec,
    Role,
    SequentialSpec,
    build_plain_qrom,
    build_qrom,
    build_selectswap_dirty,
    build_sequential_qroms,
    check_temp_and_pairing,
    count_resources,
    parse_circuit,
    plan_qrom,
    serialize_circuit,
    verify_qrom,
)
from qromkit import gatefile
from qromkit.gatefile import _CHUNK, _line_chunks, _parse_circuit, _read_text
from helpers import circuit_with_gates, indexed_ops, random_table


def test_header_only():
    c = Circuit([RegisterSpec("q", 2, Role.ADDRESS_Q)])
    assert serialize_circuit(c) == "REGISTER q 2 address_q\n"


def test_empty_circuit_is_one_empty_line():
    assert serialize_circuit(Circuit([])) == "\n"
    assert parse_circuit("\n") == Circuit([])


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
    registers = [RegisterSpec("a", 2, Role.ADDRESS_Q), RegisterSpec("o", 1, Role.OUTPUT)]
    x, cnot = (GateKind.X, QubitRef("a", 0)), (GateKind.CNOT, QubitRef("a", 1), QubitRef("o", 0))
    c = Circuit(registers)
    c.append(*x)
    c.append(*cnot)
    assert parse_circuit(serialize_circuit(c)) == c
    # The same gate list over gates interned in the other order is equal;
    # the same gates at swapped positions are not.
    reordered, swapped = Circuit(registers), Circuit(registers)
    reordered._intern(GateKind.CNOT, 1, 2)  # "a" holds rows 0-1, "o" row 2
    reordered.append(*x)
    reordered.append(*cnot)
    assert reordered._distinct != c._distinct and reordered._index != c._index
    assert reordered == c and c == reordered
    swapped.append(*cnot)
    swapped.append(*x)
    assert swapped != c and c != swapped


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


@pytest.mark.parametrize("chunk", [1, 7, 40, _CHUNK])
def test_blank_and_comment_lines_drop_in_any_chunk(chunk):
    # The first gate has index 0; chunks with and without blank or comment
    # lines must keep it at every position.
    gates = ["X q 0", "X q 0", "CNOT q 0 q 1", "X q 0"] * 4
    lines = ["REGISTER q 2 work", *gates[:8], "", "# note", *gates[8:12], " ", *gates[12:]]
    c = _parse_circuit("\n".join(lines) + "\n", chunk)
    assert c._index.tolist()[:3] == [0, 0, 1]
    assert serialize_circuit(c) == "".join(line + "\n" for line in [lines[0], *gates])


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
        # Sizes and offsets are ASCII decimal: int() alone would take these.
        ("REGISTER a +1_0 output\n", "bad register size"),
        ("REGISTER a 1_0 output\n", "bad register size"),
        ("REGISTER a +2 output\n", "bad register size"),
        ("REGISTER a \u0661 output\n", "bad register size"),
        ("REGISTER a 2 output\nX a 0_1\n", "bad qubit offset"),
        ("REGISTER a 2 output\nX a +1\n", "bad qubit offset"),
        ("REGISTER a 2 output\nX a \u0660\n", "bad qubit offset"),
        ("REGISTER a 2 output\nX a \uff11\n", "bad qubit offset"),
        ("REGISTER a 2 output\nX a " + "9" * 5000 + "\n", "bad qubit offset"),
        ("REGISTER a 2 output\nX a -1\n", "out of range"),
        ("REGISTER a -1 output\n", "size >= 1"),
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


def _first_bad_line_cases():
    yield "REGISTER a 1 work\nX a 7\nREGISTER b 1 work\n", 2, "qubit a[7] out of range (size 1)"
    yield ("REGISTER a 1 work\nX a 0\nREGISTER b 1 work\nX a 7\n", 3,
           "REGISTER after first gate line")
    # A bad gate line in the first chunk, the first header line repeated last.
    circuit = build_qrom(random_table(256, 8, seed=4), plan_qrom(256, 8, 8, 2))
    lines = serialize_circuit(circuit).splitlines()
    at = next(i for i, line in enumerate(lines) if not line.startswith("REGISTER")) + 5
    lines[at] = "X nowhere 0"
    yield "\n".join(lines + lines[:1]) + "\n", at + 1, "unknown register 'nowhere'"


@pytest.mark.parametrize("chunk", [1, 7, _CHUNK])
def test_first_bad_line_wins(chunk, monkeypatch):
    read = []

    def counted_chunks(text, size):
        for lines in _line_chunks(text, size):
            read.append(len(lines))
            yield lines

    monkeypatch.setattr(gatefile, "_line_chunks", counted_chunks)
    for text, line, message in _first_bad_line_cases():
        read.clear()
        with pytest.raises(ParseError) as err:
            _parse_circuit(text, chunk)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")
        # Reading stops in the chunk that holds the bad line.
        assert sum(read[:-1]) < line <= sum(read)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 20])
def test_chunked_lines_equal_splitlines(chunk):
    text = "REGISTER a 2 work\r\nX a 0\n\nX a 1\rX a 0\x0cX a 1\u2028\n# end\r\n\n"
    assert sum(_line_chunks(text, chunk), []) == text.splitlines()
    assert list(_line_chunks("", chunk)) == []


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_text_ends_lines_with_lf(tmp_path, end):
    # As in text mode, so that a gate file of CR lines still reads in chunks.
    text = serialize_circuit(build_qrom(random_table(16, 3, seed=4), plan_qrom(16, 3, 4, 2)))
    path = tmp_path / "c.gates"
    path.write_bytes(text.replace("\n", end).encode())
    assert _read_text(str(path)) == text
    assert len(list(_line_chunks(_read_text(str(path)), 64))) > 1


def test_parsed_gates_are_shared_and_equal_to_built():
    table = random_table(256, 8, seed=9)
    circuit = build_qrom(table, plan_qrom(256, 8, 8, 2))
    text = serialize_circuit(circuit)
    again = parse_circuit(text)
    # Built and parsed, the distinct gates are interned in different orders.
    assert again._distinct != circuit._distinct and again._index != circuit._index
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


def row_route_builds():
    """(label, circuit, tables) for the four builders over a small grid, the
    tables in the circuit's output-register order."""
    for n, b in [(5, 2), (16, 3), (37, 4)]:
        tables = (random_table(n, b, seed=n), random_table(n, b, seed=n + 1))
        for lam in (2, 4):
            for mu in sorted({1, b}):
                plan = plan_qrom(n, b, lam, mu)
                yield f"qrom-{n}-{b}-{lam}-{mu}", build_qrom(tables[0], plan), tables[:1]
            yield f"selectswap-{n}-{b}-{lam}", build_selectswap_dirty(tables[0], lam), tables[:1]
            sequential = build_sequential_qroms(SequentialSpec(tables, lam))
            yield f"sequential-{n}-{b}-{lam}", sequential, tables
        yield f"plain-{n}-{b}", build_plain_qrom(tables[0]), tables[:1]


ROW_ROUTE_BUILDS = [pytest.param(*case, id=label) for label, *case in row_route_builds()]


@pytest.mark.parametrize("chunk", [7, _CHUNK])
@pytest.mark.parametrize("circuit,tables", ROW_ROUTE_BUILDS)
def test_parser_rows_store_what_validate_stores(circuit, tables, chunk):
    """The parser resolves each token pair's row itself and stores ops
    through ``Circuit._op`` and ``_intern``; ``append`` resolves rows in
    ``_validate``. Both
    store gates in order of first position, so the stores are equal, and
    the op at every position is the built circuit's."""
    parsed = _parse_circuit(serialize_circuit(circuit), chunk)
    appended = circuit_with_gates(circuit.registers, circuit.gates)
    assert parsed._distinct == appended._distinct
    assert parsed._ops == appended._ops and parsed._index == appended._index
    assert [parsed._ops[i] for i in parsed._index] == [circuit._ops[i] for i in circuit._index]


@pytest.mark.parametrize("shuffle", [False, True], ids=["reversed", "shuffled"])
@pytest.mark.parametrize("circuit,tables", ROW_ROUTE_BUILDS)
def test_permuted_register_lines_parse_pair_and_verify(circuit, tables, shuffle):
    """A gate file whose REGISTER lines come in an order the builders never
    write parses to the built gate list over that register order, with
    rows from the file's own layout, and passes the pairing check and the
    verifier."""
    text = serialize_circuit(circuit)
    lines = text.splitlines(keepends=True)
    order = list(reversed(range(len(circuit.registers))))
    if shuffle:
        random.Random(len(text)).shuffle(order)
    permuted = "".join([*(lines[k] for k in order), *lines[len(order):]])
    parsed = parse_circuit(permuted)
    registers = [circuit.registers[k] for k in order]
    assert parsed == circuit_with_gates(registers, circuit.gates)
    assert [parsed._ops[i] for i in parsed._index] == indexed_ops(parsed)
    check_temp_and_pairing(parsed)
    by_name = {reg.name: t for reg, t in zip(circuit.registers_with_role(Role.OUTPUT), tables)}
    permuted_tables = [by_name[reg.name] for reg in parsed.registers_with_role(Role.OUTPUT)]
    report = verify_qrom(parsed, permuted_tables, dirty_trials=3, seed=1)
    assert report.passed and report.cases_run == 3 * tables[0].n_entries
