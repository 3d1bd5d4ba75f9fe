"""The lookup verifier: pinned fault reports, the input contract, a scalar
differential, multi-output faults and a build -> verify round trip.

``FAULT_REPORT_DIGEST`` pins every field of every failure that ``verify_qrom``
reports on a fixed set of fault-injected circuits (an X on an output, dirty,
work or address qubit, a dropped gate, and random X insertions), for the
packeted builder and both baselines. A rewrite of the verifier must reproduce
the reports exactly. Recompute it only for a deliberate change of the
verifier's output.
"""
import hashlib
import importlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromkit import (
    BitState,
    Circuit,
    Gate,
    GateKind,
    QubitRef,
    RegisterSpec,
    Role,
    SequentialSpec,
    SimulationError,
    build_plain_qrom,
    build_qrom,
    build_selectswap_dirty,
    build_sequential_qroms,
    plan_qrom,
    simulate,
    verify_qrom,
)
from helpers import random_table

# The package exports a function named ``simulate``, so fetch the module.
simulate_module = importlib.import_module("qromkit.simulate")

FAULT_REPORT_DIGEST = "f86cbe2fa6b4c16bea20009bf4a20a68442a5b83d060e33f2d14241f4683bbed"


def faulty_variants(circuit, rng):
    """Yield (label, circuit) pairs, each with one injected fault."""
    def with_gates(gates):
        variant = Circuit(circuit.registers)
        variant.gates = gates
        return variant

    qubits = list(circuit.qubits())
    for reg in circuit.registers:
        end_x = Gate(GateKind.X, (QubitRef(reg.name, 0),))
        yield f"x-end-{reg.name}", with_gates(circuit.gates + [end_x])
    for _ in range(3):
        at = rng.randrange(len(circuit.gates) + 1)
        qubit = rng.choice(qubits)
        gates = circuit.gates[:at] + [Gate(GateKind.X, (qubit,))] + circuit.gates[at:]
        yield f"x-{at}-{qubit.register}[{qubit.offset}]", with_gates(gates)
    drop = rng.randrange(len(circuit.gates))
    yield f"drop-{drop}", with_gates(circuit.gates[:drop] + circuit.gates[drop + 1:])


def fault_corpus():
    """(label, circuit, table, plan) for every pinned fault-injected circuit."""
    rng = random.Random(2024)
    shapes = [(8, 2, 2, 1), (12, 1, 2, 1), (16, 3, 4, 2), (33, 5, 4, 3), (64, 8, 8, 2), (100, 4, 4, 4)]
    bases = []
    for n, b, lam, mu in shapes:
        table = random_table(n, b, seed=n + b + lam + mu)
        plan = plan_qrom(n, b, lam, mu)
        bases.append((f"qrom-{n}-{b}-{lam}-{mu}", build_qrom(table, plan), table, plan))
    for n, b, lam in [(16, 3, 4), (33, 2, 8)]:
        table = random_table(n, b, seed=7 * n + b)
        bases.append((f"swap-{n}-{b}-{lam}", build_selectswap_dirty(table, lam), table, None))
    for n, b in [(8, 3), (20, 4)]:
        table = random_table(n, b, seed=11 * n + b)
        bases.append((f"plain-{n}-{b}", build_plain_qrom(table), table, None))
    for name, circuit, table, plan in bases:
        for label, variant in faulty_variants(circuit, rng):
            yield f"{name}/{label}", variant, table, plan


def report_lines():
    for k, (label, circuit, table, plan) in enumerate(fault_corpus()):
        try:
            report = verify_qrom(circuit, table, plan, dirty_trials=3, seed=k)
        except SimulationError as exc:
            yield f"{label} error {exc}"
            continue
        failures = [
            (f.x, f.dirty_pattern, f.observed_output, f.observed_dirty, f.diagnostics)
            for f in report.failures
        ]
        yield f"{label} {report.cases_run} {failures!r}"


def test_fault_reports_unchanged():
    digest = hashlib.sha256()
    for line in report_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FAULT_REPORT_DIGEST


class TestContract:
    def setup_method(self):
        self.table = random_table(16, 3, seed=4)
        self.plan = plan_qrom(16, 3, 4, 2)
        self.circuit = build_qrom(self.table, self.plan)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="dirty_trials must be >= 1"):
            verify_qrom(self.circuit, self.table, self.plan, dirty_trials=trials)

    def test_table_count_must_match_outputs(self):
        with pytest.raises(ValueError, match="2 tables for 1 output registers"):
            verify_qrom(self.circuit, [self.table, self.table])
        tables = (random_table(16, 3, seed=1), random_table(16, 3, seed=2))
        circuit = build_sequential_qroms(SequentialSpec(tables, 4))
        with pytest.raises(ValueError, match="1 tables for 2 output registers"):
            verify_qrom(circuit, tables[0])

    def test_tables_must_share_n(self):
        circuit = build_sequential_qroms(
            SequentialSpec((random_table(16, 3, seed=1), random_table(16, 3, seed=2)), 4)
        )
        with pytest.raises(ValueError, match="differ in their number of entries"):
            verify_qrom(circuit, [random_table(16, 3, seed=1), random_table(15, 3, seed=2)])

    def test_second_address_r_rejected(self):
        circuit = Circuit(self.circuit.registers + [RegisterSpec("addr_r2", 1, Role.ADDRESS_R)])
        with pytest.raises(ValueError, match="at most one address_q and one address_r"):
            verify_qrom(circuit, self.table)

    def test_state_cap_checked_before_indexing(self, monkeypatch):
        def indexer_must_not_run(circuit):
            raise AssertionError("qubit_indexer reached")

        monkeypatch.setattr(simulate_module, "qubit_indexer", indexer_must_not_run)
        huge = RegisterSpec("w", simulate_module.MAX_STATE_CELLS // 16 + 1, Role.WORK)
        circuit = Circuit(self.circuit.registers + [huge])
        with pytest.raises(ValueError, match="exceeds 1073741824 cells"):
            verify_qrom(circuit, self.table, dirty_trials=1)


def scalar_failures(circuit, table, trials, seed):
    """The verifier's contract checked case by case with scalar ``simulate``,
    on the verifier's documented draw of dirty patterns."""
    dirty = circuit.register("dirty").size
    r_bits = circuit.register("addr_r").size
    patterns = np.random.default_rng(seed).integers(0, 2, size=(trials, dirty), dtype=np.uint8)
    for x in range(table.n_entries):
        for bits in patterns:
            phi = sum(int(bit) << i for i, bit in enumerate(bits))
            address = {"addr_q": x >> r_bits, "addr_r": x & ((1 << r_bits) - 1)}
            final = simulate(circuit, BitState.for_circuit(circuit, {**address, "dirty": phi}))
            out, left = final.register_value("output"), final.register_value("dirty")
            ok = (
                out == table.entries[x]
                and left == phi
                and all(final.register_value(name) == value for name, value in address.items())
                and final.register_value("work") == 0
            )
            if not ok:
                yield x, phi, out, left


def test_failures_match_scalar_simulation():
    # Each fault hits only some cases: the CNOT the addresses with q bit 1
    # set, the Toffoli odd addresses whose dirty bit 1 is set.
    table = random_table(33, 5, seed=3)
    plan = plan_qrom(33, 5, 4, 3)
    circuit = build_qrom(table, plan)
    circuit.append(GateKind.CNOT, QubitRef("addr_q", 1), QubitRef("output", 0))
    circuit.append(
        GateKind.TOFFOLI, QubitRef("addr_r", 0), QubitRef("dirty", 1), QubitRef("dirty", 4)
    )
    report = verify_qrom(circuit, table, plan, dirty_trials=3, seed=11)
    observed = [(f.x, f.dirty_pattern, f.observed_output, f.observed_dirty) for f in report.failures]
    assert observed == list(scalar_failures(circuit, table, trials=3, seed=11))
    assert 0 < len(observed) < report.cases_run


def test_multi_output_fault_names_register():
    tables = tuple(random_table(16, 3, seed=20 + i) for i in range(3))
    circuit = build_sequential_qroms(SequentialSpec(tables, 4))
    assert verify_qrom(circuit, tables, dirty_trials=2, seed=0).passed
    circuit.append(GateKind.X, QubitRef("output_2", 1))
    report = verify_qrom(circuit, tables, dirty_trials=2, seed=0)
    assert len(report.failures) == report.cases_run == 32
    for failure in report.failures:
        got = (failure.observed_output >> 3) & 0b111
        assert got == tables[1].entries[failure.x] ^ 0b010
        assert failure.diagnostics == f"output_2 {got:#x} != f(x) {tables[1].entries[failure.x]:#x}"
        assert failure.observed_output & 0b111 == tables[0].entries[failure.x]
        assert failure.observed_output >> 6 == tables[2].entries[failure.x]


ROLE_DIAGNOSTICS = {
    Role.OUTPUT: "output 0x",
    Role.DIRTY: "dirty register not restored",
    Role.ADDRESS_Q: "address register changed",
    Role.ADDRESS_R: "address register changed",
    Role.WORK: "work/temp qubit left nonzero",
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_build_verify_round_trip(data):
    n = data.draw(st.integers(3, 40), label="n")
    b = data.draw(st.integers(1, 6), label="b")
    lam = data.draw(st.sampled_from([lam for lam in (2, 4, 8, 16, 32) if lam < n]), label="lam")
    mu = data.draw(st.integers(1, b), label="mu")
    table = random_table(n, b, seed=data.draw(st.integers(0, 2**16), label="seed"))
    plan = plan_qrom(n, b, lam, mu)
    circuit = build_qrom(table, plan)
    assert verify_qrom(circuit, table, plan, dirty_trials=2, seed=n).passed
    for reg in circuit.registers:
        faulty = Circuit(circuit.registers)
        faulty.gates = list(circuit.gates)
        faulty.append(GateKind.X, QubitRef(reg.name, data.draw(st.integers(0, reg.size - 1))))
        report = verify_qrom(faulty, table, plan, dirty_trials=2, seed=n)
        assert len(report.failures) == report.cases_run
        assert all(f.diagnostics.startswith(ROLE_DIAGNOSTICS[reg.role]) for f in report.failures)
        assert all(";" not in f.diagnostics for f in report.failures)
