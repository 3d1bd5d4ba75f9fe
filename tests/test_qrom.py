import collections
import dataclasses
import functools
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qromkit import (
    Circuit,
    CircuitError,
    GateKind,
    LookupTable,
    QubitRef,
    RegisterSpec,
    Role,
    SequentialSpec,
    build_qrom,
    build_sequential_qroms,
    compute_xor_schedule,
    cost_bit_packet,
    count_resources,
    emit_copy,
    emit_restore,
    emit_select,
    plan_qrom,
    registers_for_plan,
    verify_qrom,
)
from qromkit import qrom
from qromkit.baselines import build_plain_qrom, build_selectswap_dirty
from qromkit.qrom import MAX_BUILD_WIDTH, ceil_div, padded_entries
from helpers import random_table


def packet_widths(plan):
    """Width of every packet, read from ``packet_span``."""
    return [end - start for start, end in map(plan.packet_span, range(plan.num_packets))]


class TestPlan:
    def test_example_64(self):
        plan = plan_qrom(64, 8, 4, 2)
        assert plan.num_packets == 4
        assert packet_widths(plan) == [2, 2, 2, 2]
        assert plan.dirty_qubits == 6
        assert plan.work_qubits == 4
        assert plan.q_range == 16
        assert (plan.q_bits, plan.r_bits) == (4, 2)

    def test_example_100(self):
        plan = plan_qrom(100, 5, 4, 2)
        assert plan.num_packets == 3
        assert packet_widths(plan) == [2, 2, 1]
        assert plan.dirty_qubits == 6
        assert plan.q_range == 25
        assert plan.work_qubits == 5

    @pytest.mark.parametrize(
        "args,fragment",
        [
            ((64, 8, 3, 2), "power of 2"),
            ((64, 8, 1, 2), "1 < lam < N"),
            ((64, 8, 64, 2), "1 < lam < N"),
            ((64, 8, 128, 2), "1 < lam < N"),
            ((64, 8, 4, 0), "1 <= mu <= b"),
            ((64, 8, 4, 9), "1 <= mu <= b"),
            ((0, 8, 4, 2), "table dimensions must be positive"),
            ((64, 0, 4, 1), "table dimensions must be positive"),
        ],
    )
    def test_rejects_bad_parameters(self, args, fragment):
        with pytest.raises(ValueError, match=fragment):
            plan_qrom(*args)

    @pytest.mark.parametrize("b", [1, 2, 7, 8, 9, 64, 10**12])
    def test_packets_tile_the_output(self, b):
        # Packets are mu wide except the last, which takes the rest of b;
        # a huge b is planned without listing its packets.
        for mu in sorted({1, 2, 3, 8, b}):
            if mu > b:
                continue
            plan = plan_qrom(64, b, 4, mu)
            assert plan.num_packets == ceil_div(b, mu)
            last = plan.num_packets - 1
            assert plan.packet_span(0) == (0, min(mu, b))
            assert plan.packet_span(last) == (last * mu, b)
            if b < 100:
                spans = list(map(plan.packet_span, range(plan.num_packets)))
                assert [end for _, end in spans[:-1]] == [start for start, _ in spans[1:]]
                assert set(packet_widths(plan)[:-1]) <= {mu}
            for packet in (-1, plan.num_packets):
                with pytest.raises(ValueError, match=f"packet {packet} out of range"):
                    plan.packet_span(packet)

    def test_padded_entries_fill_last_block(self):
        table = LookupTable((3, 1, 2, 0, 1), 2)
        assert padded_entries(table, plan_qrom(5, 2, 2, 1)) == [3, 1, 2, 0, 1, 0]
        assert padded_entries(table, plan_qrom(5, 2, 4, 1)) == [3, 1, 2, 0, 1, 0, 0, 0]

    def test_register_sizes_sum(self):
        plan = plan_qrom(64, 8, 4, 2)
        circuit = Circuit(registers_for_plan(plan))
        # 6 address + 8 output + 6 dirty + 4 work
        assert circuit.num_qubits == 24


def block_masks(plan, packed):
    """Unpack a schedule mask into its lam-1 mu-bit blocks, block 1 first."""
    width = (1 << plan.mu) - 1
    assert packed >> plan.dirty_qubits == 0
    return [(packed >> ((block - 1) * plan.mu)) & width for block in range(1, plan.lam)]


class TestXorSchedule:
    def test_constant_table_all_deltas_zero(self):
        table = LookupTable((0b11,) * 8, 2)
        plan = plan_qrom(8, 2, 4, 2)
        schedule = compute_xor_schedule(table, plan)
        for q in range(plan.q_range):
            assert schedule.direct[0][q] == 0b11
            assert schedule.delta[0][q] == 0
            assert schedule.unload[q] == 0

    def test_hand_example(self):
        table = LookupTable((0, 1, 2, 3, 0, 1, 2, 3), 2)
        plan = plan_qrom(8, 2, 4, 2)
        schedule = compute_xor_schedule(table, plan)
        assert schedule.direct[0][0] == 0b00
        # Blocks 1, 2, 3 hold 1, 2, 3 at bits 0, 2 and 4 of the packed mask.
        assert schedule.delta[0][0] == 0b11_10_01
        assert block_masks(plan, schedule.delta[0][0]) == [1, 2, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_deltas_telescope_to_unload(self, seed):
        rng = random.Random(seed)
        n = rng.choice([8, 12, 33, 64, 100])
        b = rng.choice([1, 3, 5, 8])
        lam = rng.choice([2, 4, 8])
        if lam >= n:
            lam = 2
        mu = rng.randrange(1, b + 1)
        table = random_table(n, b, seed=seed + 100)
        plan = plan_qrom(n, b, lam, mu)
        schedule = compute_xor_schedule(table, plan)
        for q in range(plan.q_range):
            acc = 0
            for p in range(plan.num_packets):
                acc ^= schedule.delta[p][q]
            assert acc == schedule.unload[q]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_bit_reference(self, seed):
        # Bit-by-bit definition: delta bit j of packet p is c(q, l) bit
        # p*mu + j xor c(q, l) bit (p-1)*mu + j, each read only inside its
        # own packet.
        rng = random.Random(seed)
        n, b = rng.choice([12, 33, 64]), rng.choice([3, 5, 8])
        lam, mu = rng.choice([2, 4, 8]), rng.randrange(1, b + 1)
        table = random_table(n, b, seed=seed + 200)
        plan = plan_qrom(n, b, lam, mu)
        schedule = compute_xor_schedule(table, plan)

        def padded(x):
            return table.entries[x] if x < n else 0

        def c_bit(q, block, p, j):
            if p < 0 or j >= packet_widths(plan)[p]:
                return 0
            diff = padded(q * lam + block) ^ padded(q * lam)
            return (diff >> (p * mu + j)) & 1

        last = plan.num_packets - 1
        for q in range(plan.q_range):
            for p in range(plan.num_packets):
                width = packet_widths(plan)[p]
                want = (padded(q * lam) >> (p * mu)) & ((1 << width) - 1)
                assert schedule.direct[p][q] == want
            deltas = [block_masks(plan, schedule.delta[p][q]) for p in range(plan.num_packets)]
            unload = block_masks(plan, schedule.unload[q])
            for block in range(1, lam):
                for p in range(plan.num_packets):
                    want = sum(
                        (c_bit(q, block, p, j) ^ c_bit(q, block, p - 1, j)) << j for j in range(mu)
                    )
                    assert deltas[p][block - 1] == want
                want = sum(c_bit(q, block, last, j) << j for j in range(mu))
                assert unload[block - 1] == want

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            compute_xor_schedule(random_table(8, 2, 0), plan_qrom(16, 2, 4, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda t: build_qrom(t, plan_qrom(t.n_entries, t.bit_width, 2, 1)),
        lambda t: build_sequential_qroms(SequentialSpec((t, t), 2)),
        build_plain_qrom,
        lambda t: build_selectswap_dirty(t, 2),
    ],
    ids=["build_qrom", "sequential", "plain", "selectswap"],
)
def test_builders_refuse_outputs_past_the_widest_build(build):
    wide = LookupTable((1, 2, 3, 0), MAX_BUILD_WIDTH + 1)
    with pytest.raises(ValueError) as err:
        build(wide)
    assert str(err.value) == f"b = {MAX_BUILD_WIDTH + 1} exceeds the widest build, b = 65536"


def test_plain_lookup_builds_at_the_widest_build():
    table = LookupTable((1 << (MAX_BUILD_WIDTH - 1), 5), MAX_BUILD_WIDTH)
    circuit = build_plain_qrom(table)
    assert circuit.register("output").size == MAX_BUILD_WIDTH
    assert verify_qrom(circuit, table, dirty_trials=1).passed


# A table decides only which CNOTs a lookup holds. Each builder takes two
# tables of one shape (only the sequential builder reads the second) and a
# shape (N, b, lam, mu); the grid is N <= 64, b <= 5, every valid lam and mu
# in {1, ceil(b/2), b}, where the builder reads them.
TABLE_BUILDERS = {
    "build_qrom": lambda tables, n, b, lam, mu: build_qrom(tables[0], plan_qrom(n, b, lam, mu)),
    "sequential": lambda tables, n, b, lam, mu: build_sequential_qroms(SequentialSpec(tables, lam)),
    "plain": lambda tables, n, b, lam, mu: build_plain_qrom(tables[0]),
    "selectswap": lambda tables, n, b, lam, mu: build_selectswap_dirty(tables[0], lam),
}
TABLE_GRID_NS, TABLE_GRID_BS = (3, 5, 8, 13, 64), range(1, 6)


def table_grid(name):
    """The shapes ``name`` is built at, each once: lam and mu are None where
    the builder does not read them, and mu = b where it takes none."""
    shapes = []
    for n, b in itertools.product(TABLE_GRID_NS, TABLE_GRID_BS):
        if name == "plain":
            shapes.append((n, b, None, None))
            continue
        mus = sorted({1, ceil_div(b, 2), b}) if name == "build_qrom" else [b]
        lams = [1 << k for k in range(1, (n - 1).bit_length())]
        shapes += [(n, b, lam, mu) for lam in lams for mu in mus]
    return shapes


@functools.cache
def zero_table_build(name, shape):
    n, b = shape[:2]
    zero = LookupTable((0,) * n, b)
    return TABLE_BUILDERS[name]((zero, zero), *shape)


def assert_only_cnots_added(zero, other):
    """``other`` is ``zero`` with CNOTs added: the two gate lists agree on
    every other gate, and a greedy in-order match of ``zero``'s gates in
    ``other`` skips nothing but CNOTs."""
    assert other.registers == zero.registers
    not_cnot = [g for g in zero.gates if g.kind is not GateKind.CNOT]
    assert [g for g in other.gates if g.kind is not GateKind.CNOT] == not_cnot
    rest = iter(other.gates)
    for gate in zero.gates:
        for candidate in rest:
            if candidate == gate:
                break
            assert candidate.kind is GateKind.CNOT, (gate, candidate)
        else:
            pytest.fail(f"{gate} has no match in order")
    assert all(g.kind is GateKind.CNOT for g in rest)


WORDS = st.lists(st.integers(0, 31), min_size=64, max_size=64)


@pytest.mark.parametrize("name", TABLE_BUILDERS)
@settings(derandomize=True, deadline=None, max_examples=3)
@example(first=[31] * 64, second=[31] * 64)
@given(first=WORDS, second=WORDS)
def test_table_decides_only_which_cnots_a_lookup_holds(name, first, second):
    """At every shape of the grid, the all-zero table's circuit is the
    all-ones table's (the explicit example) or a random table's circuit with
    only CNOTs removed; the sequential builder gets two tables. Each table is
    the first N words cut to b bits."""
    for shape in table_grid(name):
        n, b = shape[:2]
        tables = tuple(LookupTable(tuple(w % (1 << b) for w in words[:n]), b)
                       for words in (first, second))
        assert_only_cnots_added(zero_table_build(name, shape), TABLE_BUILDERS[name](tables, *shape))


def fresh_plan_circuit(plan):
    return Circuit(registers_for_plan(plan))


def packet_slice(plan, packet):
    return [QubitRef("output", k) for k in range(*plan.packet_span(packet))]


def all_packets(plan):
    return [packet_slice(plan, p) for p in range(plan.num_packets)]


class TestEmitters:
    def test_select_zero_table_scaffolding_only(self):
        table = LookupTable((0,) * 64, 8)
        plan = plan_qrom(64, 8, 4, 2)
        circuit = fresh_plan_circuit(plan)
        emit_select(circuit, plan, compute_xor_schedule(table, plan), 0, packet_slice(plan, 0))
        assert count_resources(circuit).toffoli == 15
        data_cnots = [
            g
            for g in circuit.gates
            if g.kind is GateKind.CNOT and g.operands[1].register != "work"
        ]
        assert data_cnots == []

    def test_select_data_cnot_totals(self):
        table = random_table(64, 8, seed=2)
        plan = plan_qrom(64, 8, 4, 2)
        schedule = compute_xor_schedule(table, plan)
        circuit = fresh_plan_circuit(plan)
        emit_select(circuit, plan, schedule, 1, packet_slice(plan, 1))
        to_output = sum(
            1 for g in circuit.gates if g.kind is GateKind.CNOT and g.operands[1].register == "output"
        )
        to_dirty = sum(
            1 for g in circuit.gates if g.kind is GateKind.CNOT and g.operands[1].register == "dirty"
        )
        assert to_output == sum(bin(value).count("1") for value in schedule.direct[1])
        assert to_dirty == sum(bin(mask).count("1") for mask in schedule.delta[1])

    def test_select_window_targets_match_deltas(self):
        table = LookupTable((0, 1, 2, 3, 0, 1, 2, 3), 2)
        plan = plan_qrom(8, 2, 4, 2)
        circuit = fresh_plan_circuit(plan)
        emit_select(circuit, plan, compute_xor_schedule(table, plan), 0, packet_slice(plan, 0))
        # deltas for q = 0 are 1, 2, 3: one set bit in blocks 1 and 2, two in 3.
        dirty_targets = sorted(
            g.operands[1].offset
            for g in circuit.gates
            if g.kind is GateKind.CNOT and g.operands[1].register == "dirty"
        )
        # block 1 bit 0 -> offset 0; block 2 bit 1 -> offset 3; block 3 bits 0,1 -> 4,5
        # (q = 1 block deltas are identical for this table)
        assert dirty_targets == [0, 0, 3, 3, 4, 4, 5, 5]

    @pytest.mark.parametrize(
        "lam,mu,b,packet,expected",
        [
            (2, 3, 3, 0, 3),   # degenerate copy: no scaffold, (lam-1)*mu
            (4, 2, 8, 0, 8),   # 2 scaffold + 3*2
            (4, 2, 5, 2, 5),   # last packet of b=5: 2 + 3*1
        ],
    )
    def test_copy_costs(self, lam, mu, b, packet, expected):
        n = 64
        plan = plan_qrom(n, b, lam, mu)
        circuit = fresh_plan_circuit(plan)
        emit_copy(circuit, plan, packet_slice(plan, packet))
        assert count_resources(circuit).toffoli == expected

    def test_copy_emits_no_data_cnots(self):
        plan = plan_qrom(64, 8, 4, 2)
        circuit = fresh_plan_circuit(plan)
        emit_copy(circuit, plan, packet_slice(plan, 0))
        for gate in circuit.gates:
            if gate.kind is GateKind.CNOT:
                assert gate.operands[1].register == "work"

    def test_copy_lambda2_controls_on_r_qubit(self):
        plan = plan_qrom(64, 3, 2, 3)
        circuit = fresh_plan_circuit(plan)
        emit_copy(circuit, plan, packet_slice(plan, 0))
        toffolis = [g for g in circuit.gates if g.kind is GateKind.TOFFOLI]
        assert len(toffolis) == 3
        assert all(g.operands[0] == QubitRef("addr_r", 0) for g in toffolis)

    def test_lambda2_wide_addr_r_controls_on_low_bit(self):
        # An addr_r wider than log2(lam) must still give the lam = 2 Copy and
        # restore a real wire: addr_r[0], which under the promise r < 2 is 1
        # exactly in window 1.
        table = random_table(8, 4, seed=6)
        plan = plan_qrom(8, 4, 2, 2)
        registers = registers_for_plan(plan)
        registers[1] = RegisterSpec("addr_r", 2, Role.ADDRESS_R)
        schedule = compute_xor_schedule(table, plan)
        # The Copy is 2 Toffolis, the restore's fix-up 2 temp-AND pairs.
        for emit, reads in (
            (lambda c: emit_copy(c, plan, packet_slice(plan, 0)), 2),
            (lambda c: emit_restore(c, plan, schedule, all_packets(plan)), 4),
        ):
            circuit = Circuit(registers)
            emit(circuit)
            dirty_reads = [
                g for g in circuit.gates
                if g.kind in (GateKind.TOFFOLI, GateKind.TEMP_AND, GateKind.TEMP_AND_UNCOMPUTE)
                and g.operands[1].register == "dirty"
            ]
            assert len(dirty_reads) == reads
            assert all(g.operands[0] == QubitRef("addr_r", 0) for g in dirty_reads)

    def test_restore_cost(self):
        table = random_table(64, 8, seed=3)
        plan = plan_qrom(64, 8, 4, 2)
        circuit = fresh_plan_circuit(plan)
        emit_restore(circuit, plan, compute_xor_schedule(table, plan), all_packets(plan))
        # unloading select: 15, fix-up scaffold: 2, temp-ANDs: 3*2
        assert count_resources(circuit).toffoli == 15 + 2 + 6

    def test_restore_constant_table_unloads_nothing(self):
        # All entries equal: the masks are zero everywhere, so the unloading
        # select is pure scaffold and the dirty blocks are clean before it.
        table = LookupTable((0b110,) * 64, 3)
        plan = plan_qrom(64, 3, 4, 2)
        circuit = fresh_plan_circuit(plan)
        emit_restore(circuit, plan, compute_xor_schedule(table, plan), all_packets(plan))
        dirty_writes = [
            g
            for g in circuit.gates
            if g.kind in (GateKind.CNOT, GateKind.X) and g.operands[-1].register == "dirty"
        ]
        assert dirty_writes == []

    def test_restore_fanout_pattern(self):
        # b = 5, mu = 2: dirty bit j corrects output bits {j, j+2, j+4}.
        table = random_table(16, 5, seed=4)
        plan = plan_qrom(16, 5, 4, 2)
        circuit = fresh_plan_circuit(plan)
        emit_restore(circuit, plan, compute_xor_schedule(table, plan), all_packets(plan))
        fanouts = {}
        current = None
        for gate in circuit.gates:
            if gate.kind is GateKind.TEMP_AND and gate.operands[1].register == "dirty":
                current = gate.operands[1].offset % plan.mu
                fanouts.setdefault(current, set())
            elif gate.kind is GateKind.TEMP_AND_UNCOMPUTE:
                current = None
            elif current is not None and gate.kind is GateKind.CNOT:
                if gate.operands[1].register == "output":
                    fanouts[current].add(gate.operands[1].offset)
        assert fanouts == {0: {0, 2, 4}, 1: {1, 3}}

    def test_stage_out_of_range(self):
        table = random_table(16, 4, seed=5)
        plan = plan_qrom(16, 4, 4, 2)
        schedule = compute_xor_schedule(table, plan)
        circuit = fresh_plan_circuit(plan)
        for stage in (-1, 2):
            with pytest.raises(ValueError, match="stage"):
                emit_select(circuit, plan, schedule, stage, packet_slice(plan, 0))
        assert circuit.gates == ()

    def test_copy_rejects_slice_wider_than_mu(self):
        plan = plan_qrom(16, 4, 4, 2)
        circuit = fresh_plan_circuit(plan)
        with pytest.raises(ValueError, match="exceeds mu"):
            emit_copy(circuit, plan, [QubitRef("output", k) for k in range(3)])
        assert circuit.gates == ()

    @pytest.mark.parametrize("before", [0, 1], ids=["alone", "after_a_slice"])
    def test_restore_refuses_a_slice_wider_than_mu_as_copy_does(self, before):
        # A 4-qubit slice at mu = 2 once made the restore append 41 gates and
        # leave bits 2 and 3 masked. Both emitters refuse it with one text,
        # before appending anything to a circuit that already holds a Select.
        plan = plan_qrom(16, 4, 4, 2)
        schedule = compute_xor_schedule(random_table(16, 4, seed=3), plan)
        circuit = fresh_plan_circuit(plan)
        emit_select(circuit, plan, schedule, 0, packet_slice(plan, 0))
        wide = [QubitRef("output", k) for k in range(4)]
        slices = [packet_slice(plan, 0)] * before + [wide]
        kept = (circuit.gates, list(circuit._ops), dict(circuit._scaffolds))
        messages = []
        for emit in (lambda: emit_copy(circuit, plan, wide),
                     lambda: emit_restore(circuit, plan, schedule, slices)):
            with pytest.raises(ValueError) as err:
                emit()
            messages.append(str(err.value))
            assert (circuit.gates, circuit._ops, circuit._scaffolds) == kept
        assert messages == ["output slice of 4 qubits exceeds mu = 2"] * 2

    def test_select_checks_an_output_only_when_a_word_sets_its_bit(self):
        # Bit 1 of every entry is 0, so no window of stage 0 writes the
        # slice's second qubit, and it may name no qubit at all.
        plan = plan_qrom(16, 4, 4, 2)
        unset = compute_xor_schedule(LookupTable((0, 1, 4, 5, 9, 13) * 2 + (1,) * 4, 4), plan)
        reached = compute_xor_schedule(random_table(16, 4, seed=3), plan)
        far = [QubitRef("output", 0), QubitRef("output", 99)]
        built, expected = fresh_plan_circuit(plan), fresh_plan_circuit(plan)
        emit_select(built, plan, unset, 0, far)
        emit_select(expected, plan, unset, 0, packet_slice(plan, 0))
        assert built.gates == expected.gates
        with pytest.raises(CircuitError, match=r"^qubit output\[99\] out of range \(size 4\)$"):
            emit_select(fresh_plan_circuit(plan), plan, reached, 0, far)

    def test_emitters_name_the_first_missing_qubit_they_use(self):
        plan = plan_qrom(16, 4, 4, 2)
        registers = registers_for_plan(plan)
        # The dirty register lacks the last block's second qubit, which a
        # one-qubit slice never reads.
        registers[3] = RegisterSpec("dirty", plan.dirty_qubits - 1, Role.DIRTY)
        short = Circuit(registers)
        emit_copy(short, plan, [QubitRef("output", 0)])
        full = fresh_plan_circuit(plan)
        emit_copy(full, plan, [QubitRef("output", 0)])
        assert short.gates == full.gates
        registers[3] = RegisterSpec("dirty", plan.dirty_qubits - 2, Role.DIRTY)
        with pytest.raises(CircuitError, match=r"^qubit dirty\[4\] out of range \(size 4\)$"):
            emit_copy(Circuit(registers), plan, [QubitRef("output", 0)])
        # The restore's temp-AND target is the plan's last work qubit.
        wide = dataclasses.replace(plan, work_qubits=plan.work_qubits + 2)
        schedule = compute_xor_schedule(random_table(16, 4, seed=3), plan)
        with pytest.raises(CircuitError, match=r"^qubit work\[3\] out of range \(size 2\)$"):
            emit_restore(fresh_plan_circuit(plan), wide, schedule, all_packets(plan))

    @pytest.mark.parametrize("emitter", ["select", "copy", "restore"])
    def test_emitters_check_operands_as_append_does(self, emitter):
        # As with append, a mistyped operand raises even when a gate on the
        # qubit it spells is already stored.
        plan = plan_qrom(16, 4, 4, 2)
        schedule = compute_xor_schedule(random_table(16, 4, seed=3), plan)
        emit = {
            "select": lambda c, outputs: emit_select(c, plan, schedule, 0, outputs),
            "copy": lambda c, outputs: emit_copy(c, plan, outputs),
            "restore": lambda c, outputs: emit_restore(c, plan, schedule, [outputs]),
        }[emitter]
        circuit = fresh_plan_circuit(plan)
        emit(circuit, packet_slice(plan, 0))
        kind = "TOFFOLI" if emitter == "copy" else "CNOT"
        for bad, message in [
            (QubitRef("output", 0.0), "needs a str register and an int offset"),
            (("output", 0), "is not a QubitRef"),
        ]:
            with pytest.raises(CircuitError, match=f"^{kind} operand .* {message}$"):
                emit(circuit, [bad, QubitRef("output", 1)])

    @pytest.mark.parametrize(
        "slice_index,bad,extra_work,message,gates",
        [
            (2, QubitRef("output", 99), 0, "qubit output[99] out of range (size 5)", 26),
            (2, QubitRef("output", 99), 1, "qubit work[2] out of range (size 2)", 25),
            (1, QubitRef("output", 2.0), 0,
             "CNOT operand QubitRef(register='output', offset=2.0) needs a str register "
             "and an int offset", 26),
        ],
        ids=["third_slice_out_of_range", "missing_temp_first", "second_slice_mistyped"],
    )
    def test_restore_checks_outputs_lazily_across_slices(
        self, slice_index, bad, extra_work, message, gates
    ):
        # Slices of 2, 2 and 1 qubits. The first fix-up window holds dirty
        # bit 0 in the temp-AND, then fans it out to bit 0 of every slice, so
        # a bad output raises right after that temp-AND and before any of the
        # bit's CNOTs. A plan with one more work qubit than the circuit puts
        # the temp-AND on a missing qubit, which raises first.
        plan = plan_qrom(16, 5, 4, 2)
        schedule = compute_xor_schedule(random_table(16, 5, seed=4), plan)
        slices = all_packets(plan)
        assert [len(refs) for refs in slices] == [2, 2, 1]
        slices[slice_index][0] = bad
        wide = dataclasses.replace(plan, work_qubits=plan.work_qubits + extra_work)
        circuit = fresh_plan_circuit(plan)
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            emit_restore(circuit, wide, schedule, slices)
        assert len(circuit.gates) == gates
        held = [g.operands[1] for g in circuit.gates if g.kind is GateKind.TEMP_AND
                and g.operands[1].register == "dirty"]
        assert held == ([] if extra_work else [QubitRef("dirty", 0)])

    def test_every_stage_engine_gate_comes_from_one_stage_emitter(self, monkeypatch):
        # Per-stage gate counts wrap the three emitters on the module and
        # charge each the gates added while it runs. The charges add up to
        # the circuit only if no emitter calls another and the engine appends
        # nothing between them.
        calls, added = collections.Counter(), collections.Counter()

        def traced(name, emit):
            def wrapper(circuit, *args):
                before = len(circuit.gates)
                result = emit(circuit, *args)
                calls[name] += 1
                added[name] += len(circuit.gates) - before
                return result
            return wrapper

        for name in ("emit_select", "emit_copy", "emit_restore"):
            monkeypatch.setattr(qrom, name, traced(name, getattr(qrom, name)))
        for n, b in ((5, 2), (16, 5), (33, 3)):
            tables = tuple(random_table(n, b, seed=seed) for seed in range(3))
            for lam in (lam for lam in (2, 4, 8) if lam < n):
                builds = [
                    (functools.partial(build_qrom, tables[0], plan_qrom(n, b, lam, mu)),
                     ceil_div(b, mu))
                    for mu in range(1, b + 1)
                ] + [
                    (functools.partial(build_sequential_qroms, SequentialSpec(tables[:m], lam)), m)
                    for m in (1, 3)
                ]
                for build, stages in builds:
                    calls.clear()
                    added.clear()
                    circuit = build()
                    assert calls == {"emit_select": stages, "emit_copy": stages, "emit_restore": 1}
                    assert sum(added.values()) == len(circuit.gates)


class TestBuildQrom:
    @pytest.mark.parametrize(
        "n,b,lam,mu,expected",
        [(64, 8, 4, 8, 82), (64, 8, 4, 2, 115), (100, 5, 4, 2, 125)],
    )
    def test_headline_counts(self, n, b, lam, mu, expected):
        table = random_table(n, b, seed=n)
        circuit = build_qrom(table, plan_qrom(n, b, lam, mu))
        assert count_resources(circuit).toffoli == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_count_matches_formula_random(self, seed):
        rng = random.Random(seed)
        n = rng.choice([8, 12, 33, 64, 100, 256])
        b = rng.choice([1, 3, 5, 8])
        lam = rng.choice([lam for lam in (2, 4, 8) if lam < n])
        mu = rng.randrange(1, b + 1)
        table = random_table(n, b, seed=seed + 50)
        circuit = build_qrom(table, plan_qrom(n, b, lam, mu))
        assert count_resources(circuit).toffoli == cost_bit_packet(n, b, lam, mu).toffoli_total

    def test_functional_small(self):
        table = LookupTable((0, 1, 2, 3, 0, 1, 2, 3), 2)
        plan = plan_qrom(8, 2, 4, 1)
        report = verify_qrom(build_qrom(table, plan), table, plan, dirty_trials=8, seed=1)
        assert report.passed

    def test_dirty_block_layout(self):
        plan = plan_qrom(64, 8, 4, 2)
        assert plan.dirty_qubits == 6
        table = random_table(64, 8, seed=9)
        circuit = build_qrom(table, plan)
        assert circuit.register("dirty").size == 6

    def test_small_n_lambda2_corner(self):
        # N in {3, 4} with lam = 2 widens the work register to host the
        # scaffold alignment pair; the count still matches the formula.
        for n in (3, 4):
            table = random_table(n, 2, seed=n)
            plan = plan_qrom(n, 2, 2, 1)
            circuit = build_qrom(table, plan)
            assert circuit.register("work").size == 2
            assert count_resources(circuit).toffoli == cost_bit_packet(n, 2, 2, 1).toffoli_total
            assert verify_qrom(circuit, table, plan, dirty_trials=4, seed=0).passed


class TestSequential:
    def test_counts_example(self):
        tables = tuple(random_table(64, 4, seed=i) for i in range(2))
        circuit = build_sequential_qroms(SequentialSpec(tables, 4))
        assert count_resources(circuit).toffoli == 87

    def test_m1_matches_full_width_single(self):
        table = random_table(64, 4, seed=7)
        seq = build_sequential_qroms(SequentialSpec((table,), 4))
        single = build_qrom(table, plan_qrom(64, 4, 4, 4))
        assert count_resources(seq).toffoli == count_resources(single).toffoli

    def test_equal_tables_drop_middle_deltas(self):
        table = random_table(64, 4, seed=8)
        circuit = build_sequential_qroms(SequentialSpec((table, table), 4))
        plan = plan_qrom(64, 4, 4, 4)
        schedule = compute_xor_schedule(table, plan)
        to_dirty = sum(
            1 for g in circuit.gates if g.kind is GateKind.CNOT and g.operands[1].register == "dirty"
        )
        per_select = sum(bin(mask).count("1") for mask in schedule.unload)
        # Only the first load and the final unload touch the dirty blocks.
        assert to_dirty == 2 * per_select

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lam", [2, 4])
    def test_count_formula(self, m, lam):
        n, b = 16, 2
        tables = tuple(random_table(n, b, seed=10 * m + i) for i in range(m))
        circuit = build_sequential_qroms(SequentialSpec(tables, lam))
        expected = (m + 1) * (ceil_div(n, lam) + b * (lam - 1) + lam - 3)
        assert count_resources(circuit).toffoli == expected

    def test_bit_packet_count_equals_sliced_sequential(self):
        # A mu-bit packeted lookup costs the same as the run of b/mu
        # single-packet lookups over the bit-sliced tables.
        n, b, lam = 64, 8, 4
        table = random_table(n, b, seed=12)
        for mu in (1, 2, 4, 8):
            packeted = build_qrom(table, plan_qrom(n, b, lam, mu))
            slices = []
            for p in range(b // mu):
                mask = (1 << mu) - 1
                slices.append(
                    LookupTable(tuple((v >> (p * mu)) & mask for v in table.entries), mu)
                )
            seq = build_sequential_qroms(SequentialSpec(tuple(slices), lam))
            assert count_resources(packeted).toffoli == count_resources(seq).toffoli

    def test_nonuniform_tables_rejected(self):
        with pytest.raises(ValueError, match="share"):
            SequentialSpec((random_table(8, 2, 0), random_table(8, 3, 0)), 2)
        with pytest.raises(ValueError, match="share"):
            SequentialSpec((random_table(8, 2, 0), random_table(16, 2, 0)), 2)

    def test_no_tables_rejected(self):
        with pytest.raises(ValueError, match="need at least one table"):
            SequentialSpec((), 2)

    @pytest.mark.parametrize(
        "make", [lambda ts: (t for t in ts), lambda ts: map(dataclasses.replace, ts), list],
        ids=["generator", "map", "list"],
    )
    def test_tables_from_any_iterable(self, make):
        tables = tuple(random_table(8, 2, seed) for seed in range(3))
        spec = SequentialSpec(make(tables), 2)
        assert type(spec.tables) is tuple
        assert spec == SequentialSpec(tables, 2)

    def test_no_tables_from_an_empty_generator_rejected(self):
        with pytest.raises(ValueError, match="^need at least one table$"):
            SequentialSpec((t for t in ()), 2)

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError, match="power of 2"):
            SequentialSpec((random_table(8, 2, 0),), 3)
        with pytest.raises(ValueError, match="1 < lam < N"):
            SequentialSpec((random_table(8, 2, 0),), 8)


class TestLookupTable:
    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match="does not fit"):
            LookupTable((0, 4), 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            LookupTable((), 2)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="bit_width must be >= 1"):
            LookupTable((0,), 0)

    @pytest.mark.parametrize(
        "make", [lambda xs: (x for x in xs), lambda xs: map(int, xs), list],
        ids=["generator", "map", "list"],
    )
    def test_entries_from_any_iterable(self, make):
        # A generator or a map has no len(): the entries are made a tuple
        # before they are counted.
        table = LookupTable(make((3, 0, 2)), 2)
        assert type(table.entries) is tuple
        assert table == LookupTable((3, 0, 2), 2)

    def test_empty_generator_rejected_as_an_empty_tuple(self):
        with pytest.raises(ValueError, match="^table must have at least one entry$"):
            LookupTable((x for x in ()), 2)
        # The width is still checked first.
        with pytest.raises(ValueError, match="^bit_width must be >= 1$"):
            LookupTable((x for x in ()), 0)

    @pytest.mark.parametrize(
        "entry,message",
        [
            (1.5, "entry 1 = 1.5 is not an int"),
            ("3", "entry 1 = '3' is not an int"),
            (None, "entry 1 = None is not an int"),
            (True, "entry 1 = True is not an int"),
            (np.int64(3), f"entry 1 = {np.int64(3)!r} is not an int"),
        ],
        ids=["float", "str", "none", "bool", "numpy_int"],
    )
    def test_non_int_entry_rejected(self, entry, message):
        # Each used to be accepted, or to escape as a TypeError from min or
        # from the first build's shift.
        with pytest.raises(ValueError, match=re.escape(message)):
            LookupTable((2, entry, 0, 3.0, 1), 2)
