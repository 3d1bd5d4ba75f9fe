import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qromkit import (
    Circuit,
    BitState,
    GateKind,
    LookupTable,
    QubitRef,
    RegisterSpec,
    Role,
    SimulationError,
    batch_simulate,
    build_qrom,
    plan_qrom,
    simulate,
    verify_qrom,
)
from qromkit.circuit import GATE_ARITY
from qromkit.simulate import _address_rows, _case_rows, _dirty_draw, _dirty_rows, qubit_indexer
from helpers import (
    address_rows_reference,
    dirty_rows_reference,
    indexed_op,
    indexed_ops,
    inverse_circuit,
    random_table,
)


def single_register(size=4):
    return Circuit([RegisterSpec("r", size, Role.DIRTY)])


def test_empty_circuit_identity():
    c = single_register()
    state = BitState.for_circuit(c, {"r": 0b1010})
    assert simulate(c, state).register_value("r") == 0b1010


@pytest.mark.parametrize(
    "values,message",
    [({"r": 16}, "value 16 does not fit register 'r'"), ({"r": -1}, "value -1 does not fit"),
     ({"s": 1}, r"unknown registers: \['s'\]")],
    ids=["too_wide", "negative", "unknown_register"],
)
def test_state_rejects_values_outside_the_circuit(values, message):
    with pytest.raises(ValueError, match=message):
        BitState.for_circuit(single_register(), values)


def test_x_involution():
    c = single_register(1)
    c.append(GateKind.X, QubitRef("r", 0))
    c.append(GateKind.X, QubitRef("r", 0))
    state = BitState.for_circuit(c, {"r": 0})
    assert simulate(c, state).register_value("r") == 0


@pytest.mark.parametrize("controls,expect_flip", [(0b11, True), (0b01, False), (0b10, False), (0b00, False)])
def test_toffoli_truth_table(controls, expect_flip):
    c = single_register(3)
    c.append(GateKind.TOFFOLI, QubitRef("r", 0), QubitRef("r", 1), QubitRef("r", 2))
    state = BitState.for_circuit(c, {"r": controls})
    out = simulate(c, state).register_value("r")
    assert (out >> 2) & 1 == (1 if expect_flip else 0)


@pytest.mark.parametrize("control,swapped", [(1, True), (0, False)])
def test_cswap(control, swapped):
    c = single_register(3)
    c.append(GateKind.CSWAP, QubitRef("r", 0), QubitRef("r", 1), QubitRef("r", 2))
    state = BitState.for_circuit(c, {"r": control | 0b010})
    out = simulate(c, state).register_value("r")
    expected = (control | 0b100) if swapped else (control | 0b010)
    assert out == expected


def test_cnot():
    c = single_register(2)
    c.append(GateKind.CNOT, QubitRef("r", 0), QubitRef("r", 1))
    assert simulate(c, BitState.for_circuit(c, {"r": 0b01})).register_value("r") == 0b11
    assert simulate(c, BitState.for_circuit(c, {"r": 0b00})).register_value("r") == 0b00


def test_temp_and_requires_zero_target():
    c = single_register(3)
    c.append(GateKind.TEMP_AND, QubitRef("r", 0), QubitRef("r", 1), QubitRef("r", 2))
    with pytest.raises(SimulationError, match="not 0"):
        simulate(c, BitState.for_circuit(c, {"r": 0b100}))


def test_temp_and_uncompute_must_clear():
    c = single_register(3)
    c.append(GateKind.TEMP_AND_UNCOMPUTE, QubitRef("r", 0), QubitRef("r", 1), QubitRef("r", 2))
    with pytest.raises(SimulationError, match="left target"):
        simulate(c, BitState.for_circuit(c, {"r": 0b100}))


def test_batch_matches_scalar():
    table = random_table(16, 3, seed=5)
    plan = plan_qrom(16, 3, 4, 2)
    circuit = build_qrom(table, plan)
    index = qubit_indexer(circuit)
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(20):
        x = int(rng.integers(0, 16))
        phi = int(rng.integers(0, 1 << plan.dirty_qubits))
        cases.append((x, phi))
    matrix = np.zeros((circuit.num_qubits, len(cases)), dtype=np.uint8)
    for j, (x, phi) in enumerate(cases):
        for off in range(plan.q_bits):
            matrix[index[QubitRef("addr_q", off)], j] = (x >> (plan.r_bits + off)) & 1
        for off in range(plan.r_bits):
            matrix[index[QubitRef("addr_r", off)], j] = (x >> off) & 1
        for off in range(plan.dirty_qubits):
            matrix[index[QubitRef("dirty", off)], j] = (phi >> off) & 1
    final = batch_simulate(circuit, matrix)
    for j, (x, phi) in enumerate(cases):
        state = BitState.for_circuit(
            circuit,
            {"addr_q": x >> plan.r_bits, "addr_r": x & (plan.lam - 1), "dirty": phi},
        )
        scalar = simulate(circuit, state)
        for ref, row in index.items():
            assert scalar.bits[ref] == final[row, j], (ref, j)


@pytest.mark.parametrize(
    "matrix,message",
    [
        (np.zeros(4, dtype=np.uint8), "shape"),
        (np.zeros((4, 2, 1), dtype=np.uint8), "shape"),
        (np.zeros((3, 2), dtype=np.uint8), "shape"),
        (np.array([[2], [0], [0], [0]], dtype=np.uint8), "0 or 1"),
        (np.array([[-1], [0], [0], [0]], dtype=np.int8), "0 or 1"),
        (np.zeros((4, 2)), "integers or bools"),
    ],
    ids=["1d", "3d", "wrong_rows", "entry_2", "negative", "float"],
)
def test_batch_rejects_malformed_matrix(matrix, message):
    c = single_register()
    c.append(GateKind.X, QubitRef("r", 0))
    with pytest.raises(ValueError, match=message):
        batch_simulate(c, matrix)


def test_batch_accepts_bool_matrix_and_returns_fresh_uint8():
    c = single_register(2)
    c.append(GateKind.CNOT, QubitRef("r", 0), QubitRef("r", 1))
    matrix = np.array([[True, False, True], [False, False, True]])
    final = batch_simulate(c, matrix)
    assert final.dtype == np.uint8
    assert final.tolist() == [[1, 0, 1], [1, 0, 0]]
    assert matrix.tolist() == [[True, False, True], [False, False, True]]


# Case counts on both sides of the packing's byte and 64-bit word edges.
EDGE_CASE_COUNTS = [1, 7, 8, 9, 63, 64, 65, 203]
UNCHECKED_KINDS = [GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.CSWAP]
DIFFERENTIAL_REGISTERS = [
    RegisterSpec("a", 3, Role.DIRTY),
    RegisterSpec("t", 2, Role.TEMP),
    RegisterSpec("o", 2, Role.OUTPUT),
]


@st.composite
def differential_runs(draw):
    """A random circuit over every gate kind plus a random 0/1 input matrix."""
    circuit = Circuit(DIFFERENTIAL_REGISTERS)
    qubits = [QubitRef(reg.name, off) for reg in DIFFERENTIAL_REGISTERS for off in range(reg.size)]
    # Half the draws leave out the two checked temp-AND kinds, so that the
    # full-state comparison runs often on wide inputs too.
    kinds = draw(st.sampled_from([list(GateKind), UNCHECKED_KINDS]))
    # The engine resolves operands once per interned gate, so some gates
    # repeat at several positions (a later repeat of a temp-AND can fail
    # where an earlier one held).
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.booleans()) and circuit.gates:
            gate = draw(st.sampled_from(circuit.gates))
            circuit.append(gate.kind, *gate.operands)
            continue
        kind = draw(st.sampled_from(kinds))
        arity = GATE_ARITY[kind]
        circuit.append(kind, *draw(st.permutations(qubits))[:arity])
    cases = draw(st.sampled_from(EDGE_CASE_COUNTS))
    # Temp qubits start at 0 in half the draws, so that some temp-ANDs hold.
    density = draw(st.sampled_from([0.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, 2, size=(circuit.num_qubits, cases), dtype=np.uint8)
    index = qubit_indexer(circuit)
    temp_rows = [index[QubitRef("t", off)] for off in range(2)]
    matrix[temp_rows] &= rng.random((2, cases)) < density
    return circuit, matrix


@settings(derandomize=True, deadline=None, max_examples=300)
@given(differential_runs())
def test_batch_matches_scalar_property(run):
    circuit, matrix = run
    index = qubit_indexer(circuit)
    scalar_finals, first_error = [], None
    for j in range(matrix.shape[1]):
        state = BitState.for_circuit(circuit)
        for ref, row in index.items():
            state.bits[ref] = int(matrix[row, j])
        try:
            scalar_finals.append(simulate(circuit, state))
        except SimulationError as exc:
            gate = int(str(exc).split(":")[0].removeprefix("gate "))
            first_error = gate if first_error is None else min(first_error, gate)
    if first_error is not None:
        with pytest.raises(SimulationError, match=f"^gate {first_error}: "):
            batch_simulate(circuit, matrix)
        return
    final = batch_simulate(circuit, matrix)
    for j, scalar in enumerate(scalar_finals):
        for ref, row in index.items():
            assert final[row, j] == scalar.bits[ref], (ref, j)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reversibility(seed):
    # Forward then reversed-inverse is the identity on any valid input.
    table = random_table(33, 5, seed=seed)
    plan = plan_qrom(33, 5, 4, 3)
    circuit = build_qrom(table, plan)
    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, 33))
    phi = int(rng.integers(0, 1 << plan.dirty_qubits))
    state = BitState.for_circuit(
        circuit,
        {"addr_q": x >> plan.r_bits, "addr_r": x & (plan.lam - 1), "dirty": phi},
    )
    forward = simulate(circuit, state)
    back = simulate(inverse_circuit(circuit), forward)
    assert back.bits == state.bits


def test_reversibility_swap_network():
    from qromkit import build_selectswap_dirty

    table = random_table(16, 3, seed=6)
    circuit = build_selectswap_dirty(table, 4)
    state = BitState.for_circuit(
        circuit, {"addr_q": 2, "addr_r": 3, "dirty": 0b101101011}
    )
    forward = simulate(circuit, state)
    back = simulate(inverse_circuit(circuit), forward)
    assert back.bits == state.bits


def test_batch_matches_scalar_with_cswaps():
    from qromkit import build_selectswap_dirty

    table = random_table(8, 2, seed=8)
    circuit = build_selectswap_dirty(table, 2)
    index = qubit_indexer(circuit)
    matrix = np.zeros((circuit.num_qubits, 8), dtype=np.uint8)
    states = []
    for j in range(8):
        x = j % 8
        values = {"addr_q": x >> 1, "addr_r": x & 1, "dirty": (x * 3) % 4}
        states.append(BitState.for_circuit(circuit, values))
        for ref, row in index.items():
            matrix[row, j] = states[-1].bits[ref]
    final = batch_simulate(circuit, matrix)
    for j, state in enumerate(states):
        scalar = simulate(circuit, state)
        for ref, row in index.items():
            assert scalar.bits[ref] == final[row, j]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    n=st.integers(1, 300),
    trials=st.integers(1, 9),
    extra_width=st.integers(0, 3),
    dirty=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, trials=1, extra_width=0, dirty=0, seed=0)
@example(n=256, trials=8, extra_width=3, dirty=40, seed=1)
@example(n=300, trials=9, extra_width=3, dirty=40, seed=2)
def test_doubled_input_rows_match_packed_reference(n, trials, extra_width, dirty, seed):
    # Address widths from ceil(log2 n) up to 3 more; the upper rows of a
    # wide address register are all 0.
    width = (n - 1).bit_length() + extra_width
    patterns = np.random.default_rng(seed).integers(0, 2, size=(trials, dirty), dtype=np.uint8)
    cases = n * trials
    assert _address_rows(width, trials, cases) == address_rows_reference(n, width, trials)
    columns = _dirty_draw(seed, trials, dirty)[1]
    assert _dirty_rows(columns, trials, cases) == dirty_rows_reference(patterns, n)


@pytest.mark.parametrize("extra_width", [0, 2])
@pytest.mark.parametrize("trials", [1, 4])
@pytest.mark.parametrize("b", [1, 8, 63, 64, 65, 130])
def test_case_rows_match_a_per_bit_reference(b, trials, extra_width):
    # Rows up to 64 wide come from uint64 bytes, wider ones from a join of
    # each value's bytes; rows above b are all 0. The zero and all-ones
    # entries pin the lowest and highest bits.
    rng = random.Random(b * 10 + trials)
    values = (0, (1 << b) - 1, *(rng.getrandbits(b) for _ in range(35)))
    width, cases = b + extra_width, len(values) * trials
    expected = [
        sum((values[j // trials] >> i & 1) << j for j in range(cases)) for i in range(width)
    ]
    assert _case_rows(values, width, trials) == expected


class TestVerifyQrom:
    def test_spec_case(self):
        table = LookupTable((0, 1, 2, 3, 0, 1, 2, 3), 2)
        plan = plan_qrom(8, 2, 4, 1)
        circuit = build_qrom(table, plan)
        # x = 5 with all-ones dirty pattern: output 0b01, dirty unchanged.
        state = BitState.for_circuit(
            circuit, {"addr_q": 1, "addr_r": 1, "dirty": (1 << plan.dirty_qubits) - 1}
        )
        final = simulate(circuit, state)
        assert final.register_value("output") == 0b01
        assert final.register_value("dirty") == (1 << plan.dirty_qubits) - 1
        report = verify_qrom(circuit, table, plan, dirty_trials=10, seed=3)
        assert report.passed and report.cases_run == 80

    def test_constant_table(self):
        table = LookupTable((0b101,) * 16, 3)
        plan = plan_qrom(16, 3, 4, 2)
        report = verify_qrom(build_qrom(table, plan), table, plan, dirty_trials=4, seed=1)
        assert report.passed

    def test_non_power_table_exhaustive(self):
        table = random_table(100, 5, seed=17)
        plan = plan_qrom(100, 5, 4, 2)
        report = verify_qrom(build_qrom(table, plan), table, plan, dirty_trials=10, seed=2)
        assert report.passed
        assert report.cases_run == 1000

    def test_fault_injection_reported(self):
        table = random_table(16, 2, seed=4)
        plan = plan_qrom(16, 2, 4, 1)
        circuit = build_qrom(table, plan)
        circuit.append(GateKind.X, QubitRef("output", 0))
        report = verify_qrom(circuit, table, plan, dirty_trials=2, seed=0)
        assert not report.passed
        assert "output" in report.failures[0].diagnostics

    def test_plan_table_mismatch(self):
        table = random_table(16, 2, seed=4)
        plan = plan_qrom(8, 2, 4, 1)
        circuit = build_qrom(random_table(8, 2, seed=4), plan)
        with pytest.raises(ValueError, match="dimensions"):
            verify_qrom(circuit, table, plan)

    def test_seeded_reports_reproduce(self):
        table = random_table(16, 3, seed=5)
        plan = plan_qrom(16, 3, 4, 2)
        circuit = build_qrom(table, plan)
        circuit.append(GateKind.X, QubitRef("output", 1))
        first = verify_qrom(circuit, table, plan, dirty_trials=5, seed=9)
        second = verify_qrom(circuit, table, plan, dirty_trials=5, seed=9)
        assert [f.dirty_pattern for f in first.failures] == [
            f.dirty_pattern for f in second.failures
        ]
        assert first.cases_run == second.cases_run


OP_STREAM_TABLE = random_table(8, 3, seed=2)


def op_stream_lookup():
    return build_qrom(OP_STREAM_TABLE, plan_qrom(8, 3, 2, 1))


def assert_simulates_like_scalar_and_reference_ops(circuit):
    """The ops the gate loop reads equal the ``qubit_indexer`` reference, at
    every position and for every distinct gate, and batch simulation of
    valid lookup inputs (random address, dirty and output rows; work rows 0)
    equals scalar ``simulate`` case by case. The lookup also still
    verifies."""
    index = qubit_indexer(circuit)
    assert circuit._ops == [indexed_op(index, gate) for gate in circuit._distinct]
    assert [circuit._ops[i] for i in circuit._index] == indexed_ops(circuit)
    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 2, size=(circuit.num_qubits, 24), dtype=np.uint8)
    matrix[[index[QubitRef("work", k)] for k in range(circuit.register("work").size)]] = 0
    final = batch_simulate(circuit, matrix)
    for j in range(matrix.shape[1]):
        state = BitState.for_circuit(circuit)
        for ref, row in index.items():
            state.bits[ref] = int(matrix[row, j])
        scalar = simulate(circuit, state)
        assert [scalar.bits[ref] for ref in index] == final[:, j].tolist(), j
    assert verify_qrom(circuit, OP_STREAM_TABLE, dirty_trials=3).passed


class TestOpStream:
    def test_own_gates_stream_stored_ops(self):
        circuit = op_stream_lookup()
        assert_simulates_like_scalar_and_reference_ops(circuit)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["deepcopy", "pickle"],
    )
    def test_copied_circuit_streams_its_copied_ops(self, clone):
        original = op_stream_lookup()
        circuit = clone(original)
        assert (circuit._distinct, circuit._ops, circuit._index) == (
            original._distinct, original._ops, original._index)
        assert not {id(g) for g in circuit._distinct} & {id(g) for g in original._distinct}
        assert_simulates_like_scalar_and_reference_ops(circuit)
