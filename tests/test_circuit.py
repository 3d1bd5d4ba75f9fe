import copy
import itertools
import pickle
import random
import sys
import threading
from collections import Counter
from operator import delitem, setitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromkit import (
    BitState,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    QubitRef,
    RegisterSpec,
    ResourceEstimate,
    Role,
    SequentialSpec,
    check_temp_and_pairing,
    build_plain_qrom,
    build_qrom,
    build_selectswap_dirty,
    build_sequential_qroms,
    count_resources,
    parse_circuit,
    plan_qrom,
    batch_simulate,
    serialize_circuit,
    simulate,
    verify_qrom,
)
from qromkit.circuit import CLEAN_ROLES, GATE_ARITY, TOFFOLI_COST
from qromkit.qrom import compute_xor_schedule, emit_copy, emit_select, registers_for_plan
from qromkit.simulate import qubit_indexer
from helpers import circuit_with_gates, indexed_op, indexed_ops, random_table


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
        assert c.gates == ()

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
        with pytest.raises(CircuitError, match="is not a QubitRef") as err:
            c.append(GateKind.CNOT, operand, QubitRef("out", 0))
        assert repr(operand) in str(err.value)
        assert c.gates == ()

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
        with pytest.raises(CircuitError, match=fragment) as err:
            c.append(GateKind.CNOT, operand, QubitRef("out", 0))
        assert repr(operand) in str(err.value)
        assert c.gates == () and c._interned == {}

    def test_unknown_kind_raises_circuit_error(self):
        c = two_reg_circuit()
        with pytest.raises(CircuitError, match="unknown gate kind 'FOO'"):
            c.append("FOO", QubitRef("a", 0))
        assert c.gates == () and c._interned == {}

    def test_equal_spelling_of_a_stored_operand_raises(self):
        # Each spelling equals QubitRef("a", 1), yet raises the same error
        # whether or not the gate on QubitRef("a", 1) is stored.
        fresh, holding = two_reg_circuit(), two_reg_circuit()
        gate = holding.append(GateKind.X, QubitRef("a", 1))
        for operand in (QubitRef("a", 1.0), QubitRef("a", True), ("a", 1)):
            messages = set()
            for emit in (fresh.append, holding.append):
                with pytest.raises(CircuitError) as err:
                    emit(GateKind.X, operand)
                messages.add(str(err.value))
            assert len(messages) == 1 and repr(operand) in messages.pop()
        assert fresh.gates == () and fresh._interned == {}
        assert holding.gates == (gate,) and holding._distinct == [gate]
        # "a" holds rows 0-2, so a[1] is row 1.
        assert holding._interned == {(GateKind.X, 1, None, None): 0}
        assert holding._ops == [(GateKind.X, 1, None, None)]

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
        assert c.gates == (kept,) and c.gates[0] is kept

    def test_built_lookup_holds_one_object_per_distinct_gate(self):
        table = random_table(1024, 16, seed=5)
        circuit = build_qrom(table, plan_qrom(1024, 16, 16, 4))
        distinct = len(set(circuit.gates))
        assert len({id(gate) for gate in circuit.gates}) == distinct
        assert distinct < len(circuit.gates) // 10

    @pytest.mark.parametrize(
        "clone", [lambda c: c, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["itself", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("source", ["built", "parsed", "appended"])
    def test_each_stored_gate_is_its_own_key(self, source, clone):
        # Each stored gate is held as its op, a (kind, a, b, t) tuple over
        # rows, so the stored op itself keys the circuit's index of gates,
        # plain tuples find it, and the gate at its index is the op's view
        # over the qubit rows, which equals and hashes as its plain
        # (kind, operands) tuple.
        built = build_qrom(random_table(16, 3, seed=4), plan_qrom(16, 3, 2, 1))
        make = {
            "built": lambda: built,
            "parsed": lambda: parse_circuit(serialize_circuit(built)),
            "appended": lambda: circuit_with_gates(built.registers, built.gates),
        }
        circuit = clone(make[source]())
        assert circuit == built
        assert len(circuit._interned) == len(circuit._ops) == len(circuit._distinct) > 1
        rows = qubit_indexer(circuit)
        for key, index in circuit._interned.items():
            op, gate = circuit._ops[index], circuit._distinct[index]
            assert key is op and type(op) is tuple and type(op[0]) is GateKind
            assert type(gate) is Gate and type(gate.kind) is GateKind
            kind_g, operands = gate
            assert gate == (kind_g, operands) and hash(gate) == hash((kind_g, operands))
            assert op == indexed_op(rows, gate)
            kind, a, b, t = op
            assert circuit._interned[kind, a, b, t] == index
            assert circuit._intern(kind, a, b, t) == index
        assert len(circuit._ops) == len(circuit._interned)

    def test_positions_index_the_gates_in_first_intern_order(self):
        # Interned gates at several positions, and one interned gate that no
        # position holds: each is stored once, with its op, and every
        # position holds its index.
        c = two_reg_circuit()
        cnot = c.append(GateKind.CNOT, QubitRef("a", 0), QubitRef("out", 1))
        x = c.append(GateKind.X, QubitRef("out", 0))
        toffoli = (GateKind.TOFFOLI, QubitRef("a", 2), QubitRef("a", 0), QubitRef("out", 0))
        # "a" holds rows 0-2 and "out" rows 3-4.
        stored = c._intern(GateKind.TOFFOLI, 2, 0, 3)
        unused = c._distinct[stored]
        assert unused == Gate(toffoli[0], toffoli[1:])
        c.append(GateKind.X, QubitRef("out", 0))
        c.append(GateKind.CNOT, QubitRef("a", 0), QubitRef("out", 1))
        assert c._distinct == [cnot, x, unused] and type(unused) is Gate
        assert unused.kind is GateKind.TOFFOLI
        # Each op is headed by its gate's own GateKind.
        assert c._ops == [
            (GateKind.CNOT, 0, 4, None), (GateKind.X, 3, None, None), (GateKind.TOFFOLI, 2, 0, 3)]
        assert all(op[0] is gate.kind for op, gate in zip(c._ops, c._distinct))
        assert c._index.typecode == "I" and c._index.tolist() == [0, 1, 1, 0]
        assert [id(g) for g in c.gates] == [id(g) for g in (cnot, x, x, cnot)]
        empty = two_reg_circuit()
        assert (empty._distinct, empty._ops, empty._index.tolist()) == ([], [], [])


def assert_passes_match_per_position(circuit):
    kinds = Counter(gate.kind for gate in circuit.gates)
    est = count_resources(circuit)
    assert est == naive_count_resources(circuit)
    assert (est.temp_and, est.cnot, est.x) == (
        kinds[GateKind.TEMP_AND], kinds[GateKind.CNOT], kinds[GateKind.X])
    assert est.toffoli == sum(TOFFOLI_COST[kind] * n for kind, n in kinds.items())
    assert naive_pairing_error(circuit) is None
    check_temp_and_pairing(circuit)


LOOKUP_TABLE = random_table(8, 3, seed=2)


def pass_results(circuit):
    """The result of every pass that reads a circuit's gate or register
    list, on a lookup built over ``LOOKUP_TABLE``."""
    final = batch_simulate(circuit, np.zeros((circuit.num_qubits, 2), dtype=np.uint8))
    return [
        count_resources(circuit),
        check_temp_and_pairing(circuit),
        verify_qrom(circuit, LOOKUP_TABLE),
        final.tolist(),
        serialize_circuit(circuit),
        simulate(circuit, BitState.for_circuit(circuit)),
    ]


def augment(circuit, name, value):
    if name == "gates":
        circuit.gates += (value,)
    else:
        circuit.registers += (value,)


# Every way to write ``value`` into a circuit's list ``name`` from outside.
OUTSIDE_WRITES = {
    "assign": lambda c, name, value: setattr(c, name, [*getattr(c, name), value]),
    "delete": lambda c, name, value: delattr(c, name),
    "append": lambda c, name, value: getattr(c, name).append(value),
    "insert": lambda c, name, value: getattr(c, name).insert(0, value),
    "extend": lambda c, name, value: getattr(c, name).extend([value]),
    "set_item": lambda c, name, value: setitem(getattr(c, name), 0, value),
    "del_item": lambda c, name, value: delitem(getattr(c, name), 0),
    "augment": augment,
}


def test_a_circuit_equals_no_other_type_and_reprs_its_sizes():
    circuit = build_qrom(LOOKUP_TABLE, plan_qrom(8, 3, 2, 1))
    assert (circuit == 3) is False
    assert (circuit != object()) is True
    assert repr(circuit) == f"Circuit(5 registers, {len(circuit.gates)} gates)"


class TestSealedLists:
    """Only the circuit writes its gate and register lists: every write from
    outside raises and leaves the circuit as it was. A valid gate on the
    output or a new register would otherwise change what the passes see."""

    @pytest.mark.parametrize("write", OUTSIDE_WRITES.values(), ids=OUTSIDE_WRITES.keys())
    @pytest.mark.parametrize(
        "name,value",
        [("gates", Gate(GateKind.X, (QubitRef("output", 0),))),
         ("registers", RegisterSpec("extra", 2, Role.WORK))],
        ids=["gates", "registers"],
    )
    def test_outside_write_raises_and_changes_nothing(self, name, value, write):
        circuit = build_qrom(LOOKUP_TABLE, plan_qrom(8, 3, 2, 1))
        gates, registers, results = circuit.gates, circuit.registers, pass_results(circuit)
        with pytest.raises((AttributeError, TypeError)):
            write(circuit, name, value)
        assert circuit.gates == gates and all(a is b for a, b in zip(circuit.gates, gates))
        assert circuit.registers == registers and not circuit.has_register("extra")
        assert circuit == build_qrom(LOOKUP_TABLE, plan_qrom(8, 3, 2, 1))
        assert pass_results(circuit) == results


class TestKindStamps:
    """Copies of a circuit's stored gates, and the passes that read them."""

    def built(self, seed=2):
        return build_qrom(random_table(8, 3, seed=seed), plan_qrom(8, 3, 2, 1))

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["deepcopy", "pickle"],
    )
    def test_copied_circuit(self, clone):
        original = self.built()
        circuit = clone(original)
        assert circuit == original
        assert_passes_match_per_position(circuit)
        assert count_resources(circuit) == count_resources(original)
        assert_stored_ops_match_indexer(circuit)
        assert (circuit._distinct, circuit._ops, circuit._index) == (
            original._distinct, original._ops, original._index)
        assert not {id(g) for g in circuit.gates} & {id(g) for g in original.gates}

    def test_pairing_accepts_swapped_controls(self):
        c = Circuit([RegisterSpec("a", 2, Role.ADDRESS_Q), RegisterSpec("w", 1, Role.WORK)])
        a, b, t = QubitRef("a", 0), QubitRef("a", 1), QubitRef("w", 0)
        c.append(GateKind.TEMP_AND, a, b, t)
        c.append(GateKind.TEMP_AND_UNCOMPUTE, b, a, t)
        check_temp_and_pairing(c)

    def test_pairing_rejects_other_controls(self):
        c = Circuit([RegisterSpec("a", 3, Role.ADDRESS_Q), RegisterSpec("w", 1, Role.WORK)])
        a, b, d, t = QubitRef("a", 0), QubitRef("a", 1), QubitRef("a", 2), QubitRef("w", 0)
        c.append(GateKind.TEMP_AND, a, b, t)
        c.append(GateKind.TEMP_AND_UNCOMPUTE, d, a, t)
        with pytest.raises(CircuitError) as err:
            check_temp_and_pairing(c)
        assert str(err.value) == (
            "gate 1: TEMP_AND_UNCOMPUTE on w[0] does not match a pending TEMP_AND "
            "with the same controls"
        )


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

    @pytest.mark.parametrize(
        "clone", [lambda c: c, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["itself", "deepcopy", "pickle"],
    )
    def test_kind_codes_follow_the_ops_between_calls(self, clone):
        # The circuit keeps one kind code per op and a count codes only the
        # ops interned since the last one: appends, lookup passes and an op
        # that no position holds come in between counts, on the circuit or
        # on a copy of it taken after each count.
        plan = plan_qrom(16, 3, 4, 1)
        schedule = compute_xor_schedule(random_table(16, 3, seed=6), plan)
        out = [QubitRef("output", k) for k in range(3)]
        steps = [
            lambda c: None,
            lambda c: c.append(GateKind.X, out[0]),
            lambda c: emit_select(c, plan, schedule, 0, out[:1]),
            lambda c: c.append(GateKind.X, out[0]),
            lambda c: c._intern(GateKind.TOFFOLI, 0, 1, 2),
            lambda c: emit_copy(c, plan, out[:1]),
            lambda c: c.append(GateKind.CSWAP, out[0], out[1], out[2]),
            lambda c: emit_select(c, plan, schedule, 1, out[1:2]),
            lambda c: None,
        ]
        circuit, codes = Circuit(registers_for_plan(plan)), list(GateKind)
        for step in steps:
            step(circuit)
            assert count_resources(circuit) == naive_count_resources(circuit)
            assert list(circuit._codes) == [codes.index(op[0]) for op in circuit._ops]
            circuit = clone(circuit)
        assert len(circuit._ops) > 10 and count_resources(circuit).toffoli > 0


def test_string_role_coerced():
    reg = RegisterSpec("a", 2, "dirty")
    assert reg.role is Role.DIRTY
    with pytest.raises(ValueError):
        RegisterSpec("a", 2, "mystery")


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
@given(st.lists(st.integers(0, len(POOL_GATES) - 1), max_size=40))
def test_whole_circuit_passes_match_per_position_reference(picks):
    circuit = circuit_with_gates(two_reg_circuit().registers,
                                 [Gate(*POOL_GATES[index]) for index in picks])
    assert count_resources(circuit) == naive_count_resources(circuit)
    expected = naive_pairing_error(circuit)
    if expected is None:
        check_temp_and_pairing(circuit)
    else:
        with pytest.raises(CircuitError) as info:
            check_temp_and_pairing(circuit)
        assert str(info.value) == expected


def pairing_matches_reference(circuit):
    """Assert the check accepts where the reference does, or raises its text;
    return the reference's text."""
    expected = naive_pairing_error(circuit)
    if expected is None:
        check_temp_and_pairing(circuit)
    else:
        with pytest.raises(CircuitError) as info:
            check_temp_and_pairing(circuit)
        assert str(info.value) == expected
    return expected


# Built lookups, each with hundreds of temp-AND gates.
PAIRING_BUILDS = {
    "qrom_37_3_8_2": lambda: build_qrom(random_table(37, 3, seed=4), plan_qrom(37, 3, 8, 2)),
    "qrom_64_5_4_1": lambda: build_qrom(random_table(64, 5, seed=5), plan_qrom(64, 5, 4, 1)),
    "sequential_20_3_4": lambda: build_sequential_qroms(
        SequentialSpec((random_table(20, 3, seed=6), random_table(20, 3, seed=7)), 4)),
    "plain_29_2": lambda: build_plain_qrom(random_table(29, 2, seed=8)),
    "plain_64_3": lambda: build_plain_qrom(random_table(64, 3, seed=9)),
    "selectswap_37_3_8": lambda: build_selectswap_dirty(random_table(37, 3, seed=10), 8),
    "selectswap_64_4_4": lambda: build_selectswap_dirty(random_table(64, 4, seed=11), 4),
}


@pytest.mark.parametrize("build", PAIRING_BUILDS.values(), ids=PAIRING_BUILDS.keys())
def test_pairing_on_built_circuits_with_planted_faults_matches_reference(build):
    """At a seeded sample of uncomputes, swap the two controls (accepted),
    replace one by a qubit of the circuit outside the gate, or delete the
    uncompute (both refused): the check and the per-position reference
    agree, with the same text."""
    circuit = build()
    gates, qubits = list(circuit.gates), list(circuit.qubits())
    uncomputes = [i for i, g in enumerate(gates) if g.kind is GateKind.TEMP_AND_UNCOMPUTE]
    assert len(uncomputes) >= 8
    rng = random.Random(len(gates))
    for i in rng.sample(uncomputes, 8):
        kind, (c0, c1, target) = gates[i]
        outside = rng.choice([q for q in qubits if q not in gates[i].operands])
        replaced = rng.choice([(outside, c1), (c0, outside)])
        planted = [
            [*gates[:i], Gate(kind, (c1, c0, target)), *gates[i + 1:]],
            [*gates[:i], Gate(kind, (*replaced, target)), *gates[i + 1:]],
            gates[:i] + gates[i + 1:],
        ]
        results = [pairing_matches_reference(circuit_with_gates(circuit.registers, edited))
                   for edited in planted]
        assert results[0] is None and None not in results[1:]


# Register names as the gate-file format allows them, digits and "_" included.
REGISTER_NAMES = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=6)


@st.composite
def layouts_with_gates(draw):
    """A circuit over random registers (names, sizes 1 to 40, order) and
    random valid gates of every kind, each stored through ``append`` or as
    the builders store it: ``_intern`` on the operands' rows followed by an
    append of the op's index to the private index array."""
    names = draw(st.lists(REGISTER_NAMES, min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 40), min_size=len(names), max_size=len(names)))
    roles = draw(st.lists(st.sampled_from(list(Role)), min_size=len(names), max_size=len(names)))
    circuit = Circuit(map(RegisterSpec, names, sizes, roles))
    qubits = [QubitRef(name, offset) for name, size in zip(names, sizes) for offset in range(size)]
    kinds = [kind for kind in GateKind if GATE_ARITY[kind] <= len(qubits)]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        arity = GATE_ARITY[kind]
        operands = draw(st.lists(st.sampled_from(qubits), min_size=arity, max_size=arity,
                                 unique=True))
        if draw(st.booleans()):
            circuit.append(kind, *operands)
        else:
            # ``qubits`` lists the qubits in row order.
            circuit._index.append(circuit._intern(kind, *map(qubits.index, operands)))
    return circuit


def assert_stored_ops_match_indexer(circuit):
    """Each distinct op is stored once, as its own key at the index
    ``_interned`` gives it, its gate is the op resolved back through
    ``qubit_indexer``, and every position indexes one of them; the op at
    every position is the op resolved through ``qubit_indexer``."""
    distinct = circuit._distinct
    assert all(type(gate) is Gate for gate in distinct)
    assert circuit._interned == {op: i for i, op in enumerate(circuit._ops)}
    assert all(key is op for key, op in zip(circuit._interned, circuit._ops))
    assert len(circuit._interned) == len(distinct) == len(circuit._ops)
    index = qubit_indexer(circuit)
    assert circuit._ops == [indexed_op(index, gate) for gate in distinct]
    assert circuit._index.typecode == "I" and all(i < len(distinct) for i in circuit._index)
    assert [circuit._ops[i] for i in circuit._index] == indexed_ops(circuit)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(layouts_with_gates())
def test_stored_op_rows_follow_the_declared_layout(circuit):
    assert_stored_ops_match_indexer(circuit)
    index = qubit_indexer(circuit)  # interned gates that no position holds, too
    assert circuit._ops == [indexed_op(index, gate) for gate in circuit._distinct]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_qrom(random_table(33, 5, seed=1), plan_qrom(33, 5, 4, 3)),
        lambda: build_qrom(random_table(64, 8, seed=2), plan_qrom(64, 8, 8, 8)),
        lambda: build_sequential_qroms(
            SequentialSpec(tuple(random_table(16, 3, seed=s) for s in range(3)), 4)),
        lambda: build_plain_qrom(random_table(16, 4, seed=3)),
        lambda: build_plain_qrom(random_table(1, 4, seed=3)),
        lambda: build_selectswap_dirty(random_table(16, 3, seed=4), 4),
        lambda: parse_circuit(serialize_circuit(
            build_qrom(random_table(20, 5, seed=5), plan_qrom(20, 5, 4, 2)))),
        lambda: copy.deepcopy(build_selectswap_dirty(random_table(16, 3, seed=4), 4)),
        lambda: pickle.loads(pickle.dumps(
            build_sequential_qroms(SequentialSpec((random_table(9, 2, seed=6),) * 2, 2)))),
    ],
    ids=["build_qrom", "build_qrom_full_mu", "sequential", "plain", "plain_n1", "selectswap",
         "parsed_gate_file", "deepcopy", "pickle"],
)
def test_built_and_parsed_gates_store_indexer_rows(build):
    assert_stored_ops_match_indexer(build())


def one_way_in_builds():
    """(label, build) for the four builders with N <= 64: every lam, and mu
    in {1, ceil(b/2), b} where the builder takes mu."""
    for n, b in [(5, 3), (16, 2), (37, 5), (64, 4)]:
        tables = (random_table(n, b, seed=n), random_table(n, b, seed=n + 1))
        yield f"plain-{n}-{b}", lambda t=tables[0]: build_plain_qrom(t)
        lam = 2
        while lam < n:
            for mu in sorted({1, -(-b // 2), b}):
                yield (f"qrom-{n}-{b}-{lam}-{mu}",
                       lambda t=tables[0], p=plan_qrom(n, b, lam, mu): build_qrom(t, p))
            yield (f"selectswap-{n}-{b}-{lam}",
                   lambda t=tables[0], lam=lam: build_selectswap_dirty(t, lam))
            yield (f"sequential-{n}-{b}-{lam}",
                   lambda lam=lam: build_sequential_qroms(SequentialSpec(tables, lam)))
            lam *= 2


ONE_WAY_IN_BUILDS = [pytest.param(build, id=label) for label, build in one_way_in_builds()]


class TestOneWayIn:
    """Builders, ``append`` and the parser all store gates through
    ``Circuit._intern``, keyed by op over rows."""

    @pytest.mark.parametrize("build", ONE_WAY_IN_BUILDS)
    def test_reappended_gates_hold_the_built_ops(self, build):
        built = build()
        fresh = Circuit(built.registers)
        returned = [fresh.append(gate.kind, *gate.operands) for gate in built.gates]
        assert [fresh._ops[i] for i in fresh._index] == [built._ops[i] for i in built._index]
        assert fresh.gates == built.gates and fresh == built
        assert len(returned) == len(fresh.gates)
        assert all(mine is held for mine, held in zip(returned, fresh.gates))

    @pytest.mark.parametrize(
        "rows,fragment",
        [
            ((GateKind.X, 5), r"qubit row 5 out of range \(5 qubits\)"),
            ((GateKind.CNOT, 0, -1), r"qubit row -1 out of range \(5 qubits\)"),
            ((GateKind.TOFFOLI, 0, 1, 7), r"qubit row 7 out of range \(5 qubits\)"),
            ((GateKind.CNOT, 3, 3), "CNOT operands must be pairwise distinct"),
            ((GateKind.TEMP_AND, 0, 4, 0), "TEMP_AND operands must be pairwise distinct"),
            ((GateKind.X, 0, 1), "X takes 1 operands, got 2"),
            ((GateKind.CNOT, 0), "CNOT takes 2 operands, got 1"),
            ((GateKind.CSWAP, 0, None, 2), "CSWAP takes 3 operands, got 2"),
            ((GateKind.TOFFOLI, 0, 1), "TOFFOLI takes 3 operands, got 2"),
            ((GateKind.CNOT, 0, 1, 2), "CNOT takes 2 operands, got 3"),
            ((GateKind.X, None), "X takes 1 operands, got 0"),
        ],
        ids=["x-past-end", "negative", "toffoli-past-end", "cnot-equal", "temp-and-equal", "x-two",
             "cnot-one", "cswap-gap", "toffoli-two", "cnot-three", "x-none"],
    )
    def test_row_entry_refuses_and_stores_nothing(self, rows, fragment):
        c = two_reg_circuit()
        kept = c.append(GateKind.X, QubitRef("out", 0))
        for _ in range(2):
            with pytest.raises(CircuitError, match=fragment):
                c._intern(*rows)
        assert c._ops == [(GateKind.X, 3, None, None)] and len(c._interned) == 1
        assert c.gates == (kept,) and c.gates[0] is kept

    def test_builds_and_passes_make_no_gate(self):
        table = random_table(37, 5, seed=3)
        circuit = build_qrom(table, plan_qrom(37, 5, 4, 2))
        count_resources(circuit)
        check_temp_and_pairing(circuit)
        text = serialize_circuit(circuit)
        parsed = parse_circuit(text)
        check_temp_and_pairing(parsed)
        assert verify_qrom(parsed, table, dirty_trials=2).passed
        assert verify_qrom(circuit, table, dirty_trials=2).passed
        assert circuit._view == [] and parsed._view == []
        assert len(circuit._distinct) == len(circuit._ops)
        assert serialize_circuit(circuit) == text


class TestLazyView:
    """``gates`` is a view of the ops, made on first read."""

    @staticmethod
    def assert_one_gate_per_op(circuit, gates):
        assert len({id(gate) for gate in gates}) == len(set(gates)) == len(circuit._ops)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("viewed", [False, True], ids=["unviewed", "viewed"])
    def test_copied_circuit_views_equal_gates(self, clone, viewed):
        original = build_selectswap_dirty(random_table(20, 3, seed=8), 4)
        if viewed:
            original.gates
        circuit = clone(original)
        gates = circuit.gates
        assert gates == original.gates and circuit == original
        self.assert_one_gate_per_op(circuit, gates)
        assert circuit.gates == gates and all(a is b for a, b in zip(circuit.gates, gates))

    @pytest.mark.parametrize("readers", [2, 6])
    def test_threads_read_equal_gates(self, readers):
        # Readers race to make the view of a circuit no one has read yet,
        # switching threads every microsecond: each reads one whole list,
        # and the view ends with exactly one Gate per op.
        build = lambda: build_qrom(random_table(64, 5, seed=9), plan_qrom(64, 5, 4, 2))
        expected = circuit_with_gates(build().registers, build().gates).gates
        circuit = build()
        start, results = threading.Barrier(readers), [None] * readers

        def read(k):
            start.wait()
            results[k] = circuit.gates

        threads = [threading.Thread(target=read, args=(k,)) for k in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for gates in results:
            assert gates == expected
            self.assert_one_gate_per_op(circuit, gates)
        assert len(circuit._view) == len(circuit._ops)
        self.assert_one_gate_per_op(circuit, circuit.gates)

    def test_equal_op_streams_over_other_registers_differ(self):
        def over(registers):
            c = Circuit(registers)
            c._index.extend([c._intern(GateKind.CNOT, 0, 3), c._intern(GateKind.X, 1)])
            return c

        base = over(two_reg_circuit().registers)
        renamed = over([RegisterSpec("b", 3, Role.ADDRESS_Q), RegisterSpec("out", 2, Role.OUTPUT)])
        recast = over([RegisterSpec("a", 3, Role.DIRTY), RegisterSpec("out", 2, Role.OUTPUT)])
        resized = over([RegisterSpec("a", 2, Role.ADDRESS_Q), RegisterSpec("out", 3, Role.OUTPUT)])
        for other in (renamed, recast, resized):
            assert [other._ops[i] for i in other._index] == [base._ops[i] for i in base._index]
            assert other != base and base != other
        assert base == over(two_reg_circuit().registers)

    def test_huge_register_rows_view_and_serialize(self):
        # Rows map to qubits by bisecting the registers' first rows, so a
        # register of 10**12 qubits costs nothing to view or name.
        spare = 10**12
        text = f"REGISTER spare {spare} dirty\nREGISTER w 1 work\nREGISTER a 2 address_q\n"
        text += "X spare 999999999999\nTEMP_AND a 0 a 1 w 0\nTEMP_AND_UNCOMPUTE a 1 a 0 w 0\n"
        circuit = parse_circuit(text)
        assert circuit._ops[1] == (GateKind.TEMP_AND, spare + 1, spare + 2, spare)
        assert circuit.gates[0] == Gate(GateKind.X, (QubitRef("spare", spare - 1),))
        assert circuit.gates[2].operands == (QubitRef("a", 1), QubitRef("a", 0), QubitRef("w", 0))
        assert serialize_circuit(circuit) == text
        check_temp_and_pairing(circuit)
        unpaired = parse_circuit(text.replace("a 1 a 0 w 0", "a 1 spare 5 w 0"))
        with pytest.raises(CircuitError, match=r"gate 2: TEMP_AND_UNCOMPUTE on w\[0\] does not"):
            check_temp_and_pairing(unpaired)
