import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromkit import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    QubitRef,
    RegisterSpec,
    ResourceEstimate,
    Role,
    check_temp_and_pairing,
    build_qrom,
    count_resources,
    plan_qrom,
    batch_simulate,
    serialize_circuit,
    verify_qrom,
)
from qromkit.circuit import CLEAN_ROLES, GATE_ARITY, TOFFOLI_COST
from helpers import random_table


def two_reg_circuit():
    return Circuit(
        [
            RegisterSpec("a", 3, Role.ADDRESS_Q),
            RegisterSpec("out", 2, Role.OUTPUT),
        ]
    )


class TestNewCircuit:
    def test_empty(self):
        c = Circuit([RegisterSpec("q", 2, Role.ADDRESS_Q)])
        assert c.num_qubits == 2
        assert c.gates == []

    def test_duplicate_name(self):
        with pytest.raises(CircuitError, match="duplicate"):
            Circuit([RegisterSpec("q", 1, Role.WORK), RegisterSpec("q", 2, Role.WORK)])

    def test_zero_size(self):
        with pytest.raises(CircuitError, match="size"):
            RegisterSpec("q", 0, Role.WORK)

    @pytest.mark.parametrize("name", ["", "a-b", "a b"])
    def test_name_not_identifier(self, name):
        with pytest.raises(CircuitError, match="is not an identifier"):
            RegisterSpec(name, 1, Role.WORK)

    @pytest.mark.parametrize("offset", [-1, 3])
    def test_offset_out_of_range(self, offset):
        with pytest.raises(CircuitError, match=f"offset {offset} out of range for register 'a'"):
            RegisterSpec("a", 3, Role.ADDRESS_Q)[offset]

    def test_register_lookup(self):
        c = two_reg_circuit()
        assert c.register("a").size == 3
        with pytest.raises(CircuitError, match="unknown register"):
            c.register("nope")


class TestAppend:
    def test_append_x(self):
        c = two_reg_circuit()
        c.append(GateKind.X, QubitRef("out", 0))
        assert len(c.gates) == 1

    def test_bad_arity(self):
        c = two_reg_circuit()
        with pytest.raises(CircuitError, match="operands"):
            c.append(GateKind.CNOT, QubitRef("a", 0))

    def test_repeated_operand(self):
        c = two_reg_circuit()
        with pytest.raises(CircuitError, match="distinct"):
            c.append(GateKind.TOFFOLI, QubitRef("a", 0), QubitRef("a", 0), QubitRef("out", 0))

    def test_unresolved_ref(self):
        c = two_reg_circuit()
        with pytest.raises(CircuitError, match="unknown register"):
            c.append(GateKind.X, QubitRef("ghost", 0))
        with pytest.raises(CircuitError, match="out of range"):
            c.append(GateKind.X, QubitRef("a", 3))

    @pytest.mark.parametrize("operand", [None, ("a", 0), "a0"], ids=["none", "tuple", "str"])
    def test_malformed_operand_named(self, operand):
        c = two_reg_circuit()
        for emit in (c.append, c.intern):
            with pytest.raises(CircuitError, match="is not a QubitRef") as err:
                emit(GateKind.CNOT, operand, QubitRef("out", 0))
            assert repr(operand) in str(err.value)
        assert c.gates == []

    @pytest.mark.parametrize(
        "operand,fragment",
        [
            (["a", 0], "is not a QubitRef"),
            (QubitRef("a", "0"), "int offset"),
            (QubitRef("a", 1.0), "int offset"),
            (QubitRef("a", True), "int offset"),
        ],
        ids=["list", "str-offset", "float-offset", "bool-offset"],
    )
    def test_ill_typed_operand_raises_circuit_error(self, operand, fragment):
        c = two_reg_circuit()
        for emit in (c.append, c.intern):
            with pytest.raises(CircuitError, match=fragment) as err:
                emit(GateKind.CNOT, operand, QubitRef("out", 0))
            assert repr(operand) in str(err.value)
        assert c.gates == [] and c._interned == {}

    def test_unknown_kind_raises_circuit_error(self):
        c = two_reg_circuit()
        for emit in (c.append, c.intern):
            with pytest.raises(CircuitError, match="unknown gate kind 'FOO'"):
                emit("FOO", QubitRef("a", 0))
        assert c.gates == [] and c._interned == {}

    def test_equal_spelling_of_a_stored_operand_finds_its_gate(self):
        # Lookup is by equality, and 1.0 == True == 1; the gate found holds
        # the int offset it was stored with.
        c = two_reg_circuit()
        gate = c.append(GateKind.X, QubitRef("a", 1))
        for offset in (1.0, True):
            assert c.append(GateKind.X, QubitRef("a", offset)) is gate
        assert [type(ref.offset) for g in c.gates for ref in g.operands] == [int] * 3

    def test_temp_and_pair_validates(self):
        c = Circuit([RegisterSpec("a", 2, Role.ADDRESS_Q), RegisterSpec("w", 1, Role.WORK)])
        c.append(GateKind.TEMP_AND, QubitRef("a", 0), QubitRef("a", 1), QubitRef("w", 0))
        c.append(GateKind.TEMP_AND_UNCOMPUTE, QubitRef("a", 0), QubitRef("a", 1), QubitRef("w", 0))
        check_temp_and_pairing(c)

    def test_unbalanced_temp_and_rejected(self):
        c = Circuit([RegisterSpec("a", 2, Role.ADDRESS_Q), RegisterSpec("w", 1, Role.WORK)])
        c.append(GateKind.TEMP_AND, QubitRef("a", 0), QubitRef("a", 1), QubitRef("w", 0))
        with pytest.raises(CircuitError, match="unreleased"):
            check_temp_and_pairing(c)


class TestInterning:
    def test_equal_appends_share_one_gate(self):
        c = two_reg_circuit()
        first = c.append(GateKind.CNOT, QubitRef("a", 0), QubitRef("out", 1))
        again = c.append(GateKind.CNOT, QubitRef("a", 0), QubitRef("out", 1))
        assert first is again
        assert c.gates[0] is c.gates[1]
        other = c.append(GateKind.CNOT, QubitRef("a", 1), QubitRef("out", 1))
        assert other is not first

    def test_str_kind_shares_enum_gate(self):
        c = two_reg_circuit()
        spelled = c.append("CNOT", QubitRef("a", 0), QubitRef("out", 0))
        assert spelled.kind is GateKind.CNOT
        assert c.append(GateKind.CNOT, QubitRef("a", 0), QubitRef("out", 0)) is spelled
        x = c.append(GateKind.X, QubitRef("out", 1))
        assert c.append("X", QubitRef("out", 1)) is x

    @pytest.mark.parametrize(
        "kind,operands,fragment",
        [
            (GateKind.X, (QubitRef("a", 3),), "out of range"),
            (GateKind.TOFFOLI, (QubitRef("a", 0), QubitRef("a", 0), QubitRef("out", 0)), "distinct"),
        ],
    )
    def test_failed_append_is_never_stored(self, kind, operands, fragment):
        c = two_reg_circuit()
        kept = c.append(GateKind.X, QubitRef("out", 0))
        messages = []
        for _ in range(2):
            with pytest.raises(CircuitError, match=fragment) as err:
                c.append(kind, *operands)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert c.gates == [kept] and c.gates[0] is kept

    def test_built_lookup_holds_one_object_per_distinct_gate(self):
        table = random_table(1024, 16, seed=5)
        circuit = build_qrom(table, plan_qrom(1024, 16, 16, 4))
        distinct = len(set(circuit.gates))
        assert len({id(gate) for gate in circuit.gates}) == distinct
        assert distinct < len(circuit.gates) // 10

    def test_per_gate_maps_every_gate_once_per_object(self):
        # Interned gates, a fresh object equal to one of them, and a gate
        # never interned that sits at two positions, as fault injection
        # leaves them.
        c = two_reg_circuit()
        cnot = c.append(GateKind.CNOT, QubitRef("a", 0), QubitRef("out", 1))
        x = c.append(GateKind.X, QubitRef("out", 0))
        unused = c.intern(GateKind.X, QubitRef("a", 2))
        fresh = Gate(GateKind.CNOT, (QubitRef("a", 0), QubitRef("out", 1)))
        stray = Gate(GateKind.X, (QubitRef("a", 1),))
        c.gates = [cnot, stray, x, fresh, cnot, stray, x]
        calls = []

        def fn(gate):
            calls.append(gate)
            return gate

        mapped = c.per_gate(fn)
        assert [id(g) for g in calls] == [id(cnot), id(x), id(unused)]
        assert [id(g) for g in mapped] == [id(g) for g in c.gates]
        assert sorted(map(id, calls)) == sorted({id(g) for g in [*c.gates, unused]})
        assert list(two_reg_circuit().per_gate(fn)) == []

    @pytest.mark.parametrize(
        "gate,message",
        [
            (Gate(GateKind.X, (QubitRef("nowhere", 0),)), "unknown register 'nowhere'"),
            (Gate(GateKind.X, (QubitRef("output", 99),)), r"qubit output\[99\] out of range"),
            (Gate(GateKind.CNOT, (QubitRef("output", 0),)), "CNOT takes 2 operands, got 1"),
        ],
        ids=["unknown_register", "offset_out_of_range", "wrong_arity"],
    )
    def test_gate_put_in_by_hand_is_validated(self, gate, message):
        # The circuit would refuse these through append; a gate list edited
        # by hand must not reach the simulator or the gate-file writer.
        table = random_table(8, 3, seed=2)
        circuit = build_qrom(table, plan_qrom(8, 3, 2, 1))
        circuit.gates.append(gate)
        matrix = np.zeros((circuit.num_qubits, 2), dtype=np.uint8)
        for run in (
            lambda: verify_qrom(circuit, table),
            lambda: batch_simulate(circuit, matrix),
            lambda: serialize_circuit(circuit),
        ):
            with pytest.raises(CircuitError, match=message):
                run()

    @pytest.mark.parametrize(
        "run",
        [
            count_resources,
            check_temp_and_pairing,
            lambda circuit: verify_qrom(circuit, random_table(8, 3, seed=2)),
            lambda circuit: batch_simulate(
                circuit, np.zeros((circuit.num_qubits, 2), dtype=np.uint8)
            ),
            serialize_circuit,
        ],
        ids=["count_resources", "check_temp_and_pairing", "verify_qrom", "batch_simulate",
             "serialize_circuit"],
    )
    def test_entry_that_is_not_a_gate_is_a_circuit_error(self, run):
        circuit = build_qrom(random_table(8, 3, seed=2), plan_qrom(8, 3, 2, 1))
        entry = (GateKind.X, (QubitRef("output", 0),))
        circuit.gates.insert(5, entry)
        circuit.gates.append(("second", "entry"))
        with pytest.raises(CircuitError) as err:
            run(circuit)
        assert str(err.value) == f"gate list entry {entry!r} is not a Gate"


class TestCountResources:
    def test_empty(self):
        est = count_resources(two_reg_circuit())
        assert (est.toffoli, est.temp_and, est.cnot, est.x) == (0, 0, 0, 0)
        assert est.total_qubits == 5
        assert est.clean_qubits == 2
        assert est.dirty_qubits == 0

    def test_costing_convention(self):
        # Compute side of a temp-AND costs one Toffoli, the uncompute side
        # nothing; CSWAP counts as one.
        c = Circuit(
            [RegisterSpec("a", 3, Role.ADDRESS_Q), RegisterSpec("w", 1, Role.WORK)]
        )
        a0, a1, a2, w = QubitRef("a", 0), QubitRef("a", 1), QubitRef("a", 2), QubitRef("w", 0)
        c.append(GateKind.TOFFOLI, a0, a1, a2)
        c.append(GateKind.TEMP_AND, a0, a1, w)
        c.append(GateKind.TEMP_AND_UNCOMPUTE, a0, a1, w)
        est = count_resources(c)
        assert est.toffoli == 2
        assert est.temp_and == 1

    def test_cswap_counts_one_toffoli(self):
        c = Circuit([RegisterSpec("a", 3, Role.ADDRESS_Q)])
        c.append(GateKind.CSWAP, QubitRef("a", 0), QubitRef("a", 1), QubitRef("a", 2))
        assert count_resources(c).toffoli == 1


def test_string_kind_and_role_coerced():
    reg = RegisterSpec("a", 2, "dirty")
    assert reg.role is Role.DIRTY
    gate = Gate("CNOT", (QubitRef("a", 0), QubitRef("a", 1)))
    assert gate.kind is GateKind.CNOT
    with pytest.raises(ValueError):
        RegisterSpec("a", 2, "mystery")
    with pytest.raises(ValueError):
        Gate("FREDKIN2", (QubitRef("a", 0),))


def naive_count_resources(circuit):
    """Reference: one visit per gate position."""
    toffoli = temp_and = cnot = x = 0
    for gate in circuit.gates:
        toffoli += TOFFOLI_COST[gate.kind]
        if gate.kind is GateKind.TEMP_AND:
            temp_and += 1
        elif gate.kind is GateKind.CNOT:
            cnot += 1
        elif gate.kind is GateKind.X:
            x += 1
    return ResourceEstimate(
        toffoli=toffoli,
        temp_and=temp_and,
        cnot=cnot,
        x=x,
        clean_qubits=sum(r.size for r in circuit.registers if r.role in CLEAN_ROLES),
        dirty_qubits=sum(r.size for r in circuit.registers if r.role is Role.DIRTY),
        total_qubits=circuit.num_qubits,
    )


def naive_pairing_error(circuit):
    """Reference: walk every position; return the error text or None."""
    held = {}
    for i, gate in enumerate(circuit.gates):
        target = gate.operands[-1]
        if gate.kind is GateKind.TEMP_AND:
            if target in held:
                return f"gate {i}: TEMP_AND on already-held target {target.register}[{target.offset}]"
            held[target] = frozenset(gate.operands[:2])
        elif gate.kind is GateKind.TEMP_AND_UNCOMPUTE:
            if held.get(target) != frozenset(gate.operands[:2]):
                return (
                    f"gate {i}: TEMP_AND_UNCOMPUTE on {target.register}[{target.offset}] does "
                    "not match a pending TEMP_AND with the same controls"
                )
            del held[target]
    if held:
        return "unreleased TEMP_AND targets at circuit end: " + ", ".join(
            f"{t.register}[{t.offset}]" for t in held
        )
    return None


POOL_QUBITS = [QubitRef("a", 0), QubitRef("a", 1), QubitRef("out", 0), QubitRef("out", 1)]
POOL_GATES = [
    (kind, operands)
    for kind, arity in GATE_ARITY.items()
    for operands in itertools.permutations(POOL_QUBITS, arity)
]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    st.lists(
        st.tuples(st.integers(0, len(POOL_GATES) - 1), st.booleans()),
        max_size=40,
    )
)
def test_whole_circuit_passes_match_per_position_reference(picks):
    # Gate lists assigned straight to ``gates`` may hold equal gates that are
    # separate objects; ``fresh`` picks a new object, otherwise a shared one.
    circuit = two_reg_circuit()
    shared = {}
    gates = []
    for index, fresh in picks:
        gate = Gate(*POOL_GATES[index])
        gates.append(gate if fresh else shared.setdefault(index, gate))
    circuit.gates = gates
    assert count_resources(circuit) == naive_count_resources(circuit)
    expected = naive_pairing_error(circuit)
    if expected is None:
        check_temp_and_pairing(circuit)
    else:
        with pytest.raises(CircuitError) as info:
            check_temp_and_pairing(circuit)
        assert str(info.value) == expected
