"""The lookup verifier: pinned fault reports, the memo of dirty-pattern
draws, the input contract, a scalar differential, multi-output faults, a build -> verify round trip, and reports
equal to a matrix-based reference at case counts around byte edges, also for
one fault gate at two positions, and output bits above b that must end at 0.

``FAULT_REPORT_DIGEST`` pins every field of every failure that ``verify_qrom``
reports on a fixed set of fault-injected circuits (an X on an output, dirty,
work or address qubit, a dropped gate, and random X insertions), for the
packeted builder and both baselines. A rewrite of the verifier must reproduce
the reports exactly. Recompute it only for a deliberate change of the
verifier's output.
"""
import hashlib
import importlib
import os
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromkit import (
    BitState,
    Circuit,
    Gate,
    GateKind,
    LookupTable,
    QubitRef,
    RegisterSpec,
    Role,
    SequentialSpec,
    SimulationError,
    VerificationFailure,
    VerificationReport,
    batch_simulate,
    build_plain_qrom,
    build_qrom,
    build_selectswap_dirty,
    build_sequential_qroms,
    parse_circuit,
    plan_qrom,
    qubit_indexer,
    serialize_circuit,
    simulate,
    verify_qrom,
)
from helpers import circuit_with_gates, random_table

# The package exports a function named ``simulate``, so fetch the module.
simulate_module = importlib.import_module("qromkit.simulate")

FAULT_REPORT_DIGEST = "f86cbe2fa6b4c16bea20009bf4a20a68442a5b83d060e33f2d14241f4683bbed"


def faulty_variants(circuit, rng):
    """Yield (label, circuit) pairs, each with one injected fault."""
    def with_gates(gates):
        return circuit_with_gates(circuit.registers, gates)

    qubits, gates = list(circuit.qubits()), circuit.gates
    for reg in circuit.registers:
        end_x = Gate(GateKind.X, (QubitRef(reg.name, 0),))
        yield f"x-end-{reg.name}", with_gates([*gates, end_x])
    for _ in range(3):
        at = rng.randrange(len(gates) + 1)
        qubit = rng.choice(qubits)
        yield (f"x-{at}-{qubit.register}[{qubit.offset}]",
               with_gates([*gates[:at], Gate(GateKind.X, (qubit,)), *gates[at:]]))
    drop = rng.randrange(len(gates))
    yield f"drop-{drop}", with_gates(gates[:drop] + gates[drop + 1:])


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
            yield f"{name}/{label}", variant, table, plan, circuit


def report_lines(before=lambda k, clean, table, plan: None):
    """One line per pinned report; ``before`` runs ahead of each verify,
    given the case number, which is its seed, and the clean circuit the
    fault was injected into."""
    for k, (label, circuit, table, plan, clean) in enumerate(fault_corpus()):
        before(k, clean, table, plan)
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


def report_digest(before=lambda k, clean, table, plan: None):
    digest = hashlib.sha256()
    for line in report_lines(before):
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_fault_reports_unchanged():
    assert report_digest() == FAULT_REPORT_DIGEST


class TestDrawMemo:
    """The memo of seeded dirty-pattern draws: each draw equals the
    documented one, is read-only and shared, big draws are not kept, and no
    report depends on what the memo holds."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 9), dirty=st.integers(0, 40))
    def test_draw_is_the_documented_draw(self, seed, trials, dirty):
        expected = np.random.default_rng(seed).integers(0, 2, size=(trials, dirty), dtype=np.uint8)
        for _ in range(2):  # made, then found in the memo
            patterns, columns = simulate_module._dirty_draw(seed, trials, dirty)
            assert patterns.dtype == np.uint8 and np.array_equal(patterns, expected)
            assert columns == tuple(
                sum(int(bit) << k for k, bit in enumerate(expected[:, i])) for i in range(dirty)
            )
            with pytest.raises(ValueError, match="read-only"):
                patterns[...] = 0
            assert np.array_equal(patterns, expected)
        assert simulate_module._dirty_draw(seed, trials, dirty)[0] is patterns

    def test_draw_above_the_size_bound_is_not_kept(self):
        memo = simulate_module._memo_draw
        memo.cache_clear()
        cells = simulate_module.DRAW_MEMO_CELLS
        kept = simulate_module._dirty_draw(5, 4, cells // 4)
        assert memo.cache_info().currsize == 1
        assert simulate_module._dirty_draw(5, 4, cells // 4) is kept
        big = simulate_module._dirty_draw(5, 4, cells // 4 + 1)
        again = simulate_module._dirty_draw(5, 4, cells // 4 + 1)
        assert memo.cache_info().currsize == 1 and big is not again
        assert np.array_equal(big[0], again[0]) and big[1] == again[1]
        assert not big[0].flags.writeable
        expected = np.random.default_rng(5).integers(0, 2, size=(4, cells // 4 + 1), dtype=np.uint8)
        assert np.array_equal(big[0], expected)

    def test_a_seed_numpy_refuses_does_not_find_an_equal_ints_draw(self):
        simulate_module._dirty_draw(1, 2, 3)
        with pytest.raises(TypeError):
            simulate_module._dirty_draw(1.0, 2, 3)

    def test_memo_holds_a_bounded_number_of_draws(self):
        memo = simulate_module._memo_draw
        memo.cache_clear()
        for seed in range(simulate_module.DRAW_MEMO_ENTRIES + 5):
            simulate_module._dirty_draw(seed, 2, 3)
        assert memo.cache_info().currsize == simulate_module.DRAW_MEMO_ENTRIES

    def test_faults_after_clean_circuits_with_the_same_key(self):
        # Each faulty circuit is verified right after its clean circuit with
        # the same seed, trials and dirty count, so its draw comes from the
        # memo; with the memo cleared each time, it is drawn afresh.
        def clean_first(k, clean, table, plan):
            assert verify_qrom(clean, table, plan, dirty_trials=3, seed=k).passed

        def cleared(k, clean, table, plan):
            simulate_module._memo_draw.cache_clear()

        assert report_digest(clean_first) == FAULT_REPORT_DIGEST
        assert report_digest(cleared) == FAULT_REPORT_DIGEST

    def test_threads_report_as_a_sequential_run(self):
        # More threads than cores verify different circuits, switching every
        # microsecond; seeds repeat across them, so they race on the same
        # draws, made and found in the memo.
        jobs = [
            (circuit, table, plan, k % 3)
            for k, (_, circuit, table, plan, _) in enumerate(fault_corpus())
        ]
        workers = min((os.cpu_count() or 1) + 1, len(jobs))

        def outcome(circuit, table, plan, seed):
            try:
                return verify_qrom(circuit, table, plan, dirty_trials=3, seed=seed)
            except SimulationError as exc:
                return str(exc)

        simulate_module._memo_draw.cache_clear()
        expected = [outcome(*job) for job in jobs]
        simulate_module._memo_draw.cache_clear()
        results = [None] * len(jobs)
        start = threading.Barrier(workers)

        def run(first):
            start.wait()
            for k in range(first, len(jobs), workers):
                results[k] = outcome(*jobs[k])

        threads = [threading.Thread(target=run, args=(first,)) for first in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert sum(isinstance(r, VerificationReport) and not r.passed for r in expected) > 20


class TestContract:
    def setup_method(self):
        self.table = random_table(16, 3, seed=4)
        self.plan = plan_qrom(16, 3, 4, 2)
        self.circuit = build_qrom(self.table, self.plan)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="dirty_trials must be >= 1"):
            verify_qrom(self.circuit, self.table, self.plan, dirty_trials=trials)

    def trip_row_listing(self, monkeypatch):
        """Make the verifier's one row-listing seam raise, and check that a
        valid call under the state cap reaches it: a check made with the
        seam tripped then fails if the verifier ever lists rows elsewhere."""
        def rows_must_not_be_listed(circuit):
            raise AssertionError("register rows listed")

        monkeypatch.setattr(simulate_module, "_role_rows", rows_must_not_be_listed)
        with pytest.raises(AssertionError, match="register rows listed"):
            verify_qrom(self.circuit, self.table, self.plan, dirty_trials=1)

    def test_negative_seed_rejected_before_indexing(self, monkeypatch):
        self.trip_row_listing(monkeypatch)
        for seed in (-1, -(2**70)):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                verify_qrom(self.circuit, self.table, self.plan, seed=seed)

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
        circuit = Circuit([*self.circuit.registers, RegisterSpec("addr_r2", 1, Role.ADDRESS_R)])
        with pytest.raises(ValueError, match="at most one address_q and one address_r"):
            verify_qrom(circuit, self.table)

    def test_state_cap_checked_before_indexing(self, monkeypatch):
        self.trip_row_listing(monkeypatch)
        huge = RegisterSpec("w", simulate_module.MAX_STATE_CELLS // 16 + 1, Role.WORK)
        circuit = Circuit([*self.circuit.registers, huge])
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
    report = verify_qrom(circuit, table, plan, dirty_trials=2, seed=n)
    assert report.passed
    # The gate-file leg: the written and re-read circuit is the same circuit
    # and gets the same report.
    parsed = parse_circuit(serialize_circuit(circuit))
    assert parsed == circuit
    assert verify_qrom(parsed, table, plan, dirty_trials=2, seed=n) == report
    for reg in circuit.registers:
        faulty = circuit_with_gates(circuit.registers, circuit.gates)
        faulty.append(GateKind.X, QubitRef(reg.name, data.draw(st.integers(0, reg.size - 1))))
        report = verify_qrom(faulty, table, plan, dirty_trials=2, seed=n)
        assert len(report.failures) == report.cases_run
        assert all(f.diagnostics.startswith(ROLE_DIAGNOSTICS[reg.role]) for f in report.failures)
        assert all(";" not in f.diagnostics for f in report.failures)


def reference_failures(circuit, tables, trials, seed):
    """The lookup contract checked on a 0/1 matrix: every address times the
    verifier's seeded dirty patterns through ``batch_simulate``, then
    whole-array numpy checks per case. ``verify_qrom`` runs on packed rows
    and must report exactly these failures."""
    index = qubit_indexer(circuit)

    def rows(regs):
        return [index[QubitRef(reg.name, off)] for reg in regs for off in range(reg.size)]

    out_regs = circuit.registers_with_role(Role.OUTPUT)
    addr_rows = rows(
        circuit.registers_with_role(Role.ADDRESS_R) + circuit.registers_with_role(Role.ADDRESS_Q)
    )
    dirty_rows = rows(circuit.registers_with_role(Role.DIRTY))
    clean_rows = rows(reg for reg in circuit.registers if reg.role in (Role.WORK, Role.TEMP))
    out_rows = [rows([reg]) for reg in out_regs]
    n = tables[0].n_entries
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2, size=(trials, len(dirty_rows)), dtype=np.uint8)
    xs = np.repeat(np.arange(n), trials)
    matrix = np.zeros((circuit.num_qubits, n * trials), dtype=np.uint8)
    for shift, row in enumerate(addr_rows):
        matrix[row] = (xs >> shift) & 1
    matrix[dirty_rows] = np.tile(patterns.T, n)
    final = batch_simulate(circuit, matrix)

    def pack(column, reg_rows):
        return sum(int(column[row]) << j for j, row in enumerate(reg_rows))

    # Each entry zero-extended to its whole output register: output qubits
    # start clean, so the bits above b must end at 0.
    expected = [
        np.array([[(v >> j) & 1 for v in t.entries] for j in range(len(r))])
        for r, t in zip(out_rows, tables)
    ]
    out_bad = [
        (final[r] != np.repeat(e, trials, axis=1)).any(axis=0)
        for r, e in zip(out_rows, expected)
    ]
    dirty_bad = (final[dirty_rows] != matrix[dirty_rows]).any(axis=0)
    addr_bad = (final[addr_rows] != matrix[addr_rows]).any(axis=0)
    clean_bad = final[clean_rows].any(axis=0)
    labels = ["output"] if len(out_regs) == 1 else [reg.name for reg in out_regs]
    failures = []
    for j in np.flatnonzero(np.logical_or.reduce([*out_bad, dirty_bad, addr_bad, clean_bad])):
        x, column = int(j) // trials, final[:, j]
        problems = [
            f"{label} {pack(column, r):#x} != f(x) {t.entries[x]:#x}"
            for label, r, t, bad in zip(labels, out_rows, tables, out_bad)
            if bad[j]
        ]
        problems += [
            text
            for text, bad in [
                ("dirty register not restored", dirty_bad),
                ("address register changed", addr_bad),
                ("work/temp qubit left nonzero", clean_bad),
            ]
            if bad[j]
        ]
        failures.append(
            VerificationFailure(
                x=x,
                dirty_pattern=pack(matrix[:, j], dirty_rows),
                observed_output=pack(column, sum(out_rows, [])),
                observed_dirty=pack(column, dirty_rows),
                diagnostics="; ".join(problems),
            )
        )
    return failures


def byte_edge_circuits():
    """(label, circuit, tables, trials) with n * trials on both sides of a
    byte and a 64-bit word: 1, 7, 8, 9, 63, 64 and 65 cases. Outputs are
    b = 3 bits wide, except in the last two shapes, where b > 8 makes each
    output field of a case span two bytes, and the second's 30 dirty qubits
    four."""
    shapes = [
        ("plain", 1, 1), ("qrom", 7, 1), ("qrom", 8, 1), ("plain", 2, 4), ("qrom", 9, 1),
        ("qrom", 3, 3), ("qrom", 63, 1), ("qrom", 21, 3), ("swap", 9, 7), ("plain", 7, 9),
        ("qrom", 64, 1), ("seq", 16, 4), ("swap", 8, 8), ("qrom", 65, 1), ("seq", 13, 5),
        ("plain", 5, 13),
    ]
    shapes = [(*shape, 3) for shape in shapes] + [("qrom", 9, 7, 11), ("seq", 7, 9, 10)]
    for kind, n, trials, b in shapes:
        tables = (random_table(n, b, seed=n), random_table(n, b, seed=n + 100))
        if kind == "plain":
            circuit, tables = build_plain_qrom(tables[0]), tables[:1]
        elif kind == "swap":
            circuit, tables = build_selectswap_dirty(tables[0], 4), tables[:1]
        elif kind == "seq":
            circuit = build_sequential_qroms(SequentialSpec(tables, 4))
        else:
            circuit, tables = build_qrom(tables[0], plan_qrom(n, b, 2, 2)), tables[:1]
        yield f"{kind}-{n}x{trials}", circuit, tables, trials


@pytest.mark.parametrize(
    "circuit,tables,trials",
    [pytest.param(*case, id=label) for label, *case in byte_edge_circuits()],
)
def test_packed_report_matches_matrix_reference(circuit, tables, trials):
    # The X goes last, so every variant simulates through and reports.
    n = tables[0].n_entries
    qubit = list(circuit.qubits())[n % circuit.num_qubits]
    faulty = circuit_with_gates(circuit.registers, [*circuit.gates, Gate(GateKind.X, (qubit,))])
    # One interned X at two positions: it flips address bit 0 (the output at
    # N=1) before and after the lookup, which then reads entry x ^ 1. The
    # engine resolves the gate once and must apply it at both positions.
    roles = (Role.ADDRESS_R, Role.ADDRESS_Q, Role.OUTPUT)
    low = next(reg for role in roles for reg in circuit.registers_with_role(role))
    flip = Gate(GateKind.X, (QubitRef(low.name, 0),))
    twice = circuit_with_gates(circuit.registers, [flip, *circuit.gates, flip])
    assert twice.gates[0] is twice.gates[-1]
    wrong = [
        LookupTable(tuple(v ^ (x % 2) for x, v in enumerate(t.entries)), t.bit_width)
        for t in tables
    ]
    for variant in (circuit, faulty, twice):
        for table_set in (tables, wrong):
            report = verify_qrom(variant, table_set, dirty_trials=trials, seed=n)
            assert report.cases_run == n * trials
            assert report.failures == reference_failures(variant, table_set, trials, n)
    assert verify_qrom(circuit, tables, dirty_trials=trials, seed=n).passed
    assert not verify_qrom(faulty, tables, dirty_trials=trials, seed=n).passed


def test_output_bits_above_b_must_end_at_zero():
    # A gate file may declare an output register wider than b. Its qubits
    # start clean, so bits above b left at 1 fail every case.
    table = random_table(8, 3, seed=2)
    text = serialize_circuit(build_qrom(table, plan_qrom(8, 3, 2, 1)))
    assert text.count("REGISTER output 3 output\n") == 1
    wide = text.replace("REGISTER output 3 output\n", "REGISTER output 5 output\n")
    assert verify_qrom(parse_circuit(wide), table, dirty_trials=2).passed
    circuit = parse_circuit(wide + "X output 4\nX output 3\n")
    report = verify_qrom(circuit, table, dirty_trials=2)
    assert len(report.failures) == report.cases_run == 16
    for failure in report.failures:
        entry = table.entries[failure.x]
        assert failure.observed_output == entry | 0b11000
        assert failure.diagnostics == f"output {entry | 0b11000:#x} != f(x) {entry:#x}"
    assert report.failures == reference_failures(circuit, [table], 2, 0)
