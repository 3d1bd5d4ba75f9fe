import pytest

from qromkit import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    QubitRef,
    RegisterSpec,
    Role,
    check_temp_and_pairing,
    count_resources,
)


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
