import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromkit import (
    Circuit,
    CircuitError,
    GateKind,
    IterationSpec,
    IterationWindow,
    QubitRef,
    RegisterSpec,
    Role,
    SequentialSpec,
    count_resources,
    emit_unary_iteration,
)
from qromkit import baselines, iteration, qrom
from qromkit.gatefile import serialize_circuit
from qromkit.iteration import SCAFFOLD_MEMO_ENTRIES, SCAFFOLD_MEMO_WINDOWS, emit_loads
from qromkit.simulate import batch_simulate, qubit_indexer
from helpers import random_table, reference_record_scaffold


def iteration_circuit(index_bits, work_bits, probe_bits=0):
    regs = [
        RegisterSpec("idx", index_bits, Role.ADDRESS_Q),
        RegisterSpec("work", work_bits, Role.WORK),
    ]
    if probe_bits:
        regs.append(RegisterSpec("probe", probe_bits, Role.OUTPUT))
    return Circuit(regs)


def run_iteration(lo, hi, index_bits=None, work_bits=None):
    index_bits = index_bits or max(1, (hi - 1).bit_length())
    work_bits = work_bits if work_bits is not None else max(2, index_bits)
    c = iteration_circuit(index_bits, work_bits)
    seen = []
    emit_unary_iteration(c, IterationSpec("idx", lo, hi), lambda w: seen.append(w.index_value))
    return c, seen


@pytest.mark.parametrize("size", list(range(2, 65)))
def test_scaffold_cost_is_size_minus_one(size):
    c, seen = run_iteration(0, size)
    assert count_resources(c).toffoli == size - 1
    assert seen == list(range(size))


@pytest.mark.parametrize("lam", [2, 4, 8, 16, 32, 64])
def test_copy_style_range_costs_lam_minus_two(lam):
    bits = lam.bit_length() - 1
    c, seen = run_iteration(1, lam, index_bits=bits, work_bits=max(1, bits))
    assert count_resources(c).toffoli == lam - 2
    assert seen == list(range(1, lam))


def test_zero_one_range_rejected():
    # [0, 1) leaves the tree walk no index bit to branch on.
    c = iteration_circuit(2, 2)
    with pytest.raises(ValueError, match="no index bit"):
        emit_unary_iteration(c, IterationSpec("idx", 0, 1), lambda w: None)
    assert c.gates == ()


def test_single_value_range_off_the_tree_rejected():
    # [5, 6) on 3 bits needs temp-ANDs to discriminate 5 from 4 and 7, so it
    # cannot cost the 0 Toffolis a single window is charged.
    c = iteration_circuit(3, 2)
    with pytest.raises(ValueError, match="cannot be scaffolded"):
        emit_unary_iteration(c, IterationSpec("idx", 5, 6), lambda w: None)


def test_two_value_range_uses_index_bit_as_wire():
    # lam = 2 copy degenerate: the single window over value 1 rides the
    # index qubit itself.
    c = iteration_circuit(1, 1)
    windows = []
    emit_unary_iteration(c, IterationSpec("idx", 1, 2), windows.append)
    assert count_resources(c).toffoli == 0
    assert windows[0].select_wire == QubitRef("idx", 0)
    assert c.gates == ()


def emit_probe(circuit, lo, hi):
    """Iterate [lo, hi) with window v flipping probe v - lo; returns the
    windows in the order they opened."""
    windows = []

    def emitter(win: IterationWindow):
        windows.append(win)
        circuit.append(GateKind.CNOT, win.select_wire, QubitRef("probe", win.index_value - lo))

    emit_unary_iteration(circuit, IterationSpec("idx", lo, hi), emitter)
    return windows


def check_probes(lo, hi, index_bits, work_bits):
    """Exhaustive over every register value y below ``hi``: probe v - lo is
    flipped iff y == v, every window has a wire and opens once, the scaffold
    costs hi - lo - 1 Toffolis, all work qubits return to 0 and the register
    is preserved."""
    c = iteration_circuit(index_bits, work_bits, probe_bits=hi - lo)
    windows = emit_probe(c, lo, hi)
    assert [w.index_value for w in windows] == list(range(lo, hi))
    assert all(isinstance(w.select_wire, QubitRef) for w in windows)
    assert count_resources(c).toffoli == hi - lo - 1
    index = qubit_indexer(c)
    matrix = np.zeros((c.num_qubits, hi), dtype=np.uint8)
    for y in range(hi):
        for off in range(index_bits):
            matrix[index[QubitRef("idx", off)], y] = (y >> off) & 1
    initial = matrix.copy()
    final = batch_simulate(c, matrix)
    for y in range(hi):
        for v in range(lo, hi):
            assert final[index[QubitRef("probe", v - lo)], y] == (1 if y == v else 0)
    for off in range(c.register("work").size):
        assert not final[index[QubitRef("work", off)]].any()
    for off in range(index_bits):
        assert (final[index[QubitRef("idx", off)]] == initial[index[QubitRef("idx", off)]]).all()


@pytest.mark.parametrize("index_bits", [1, 2, 3, 4, 5, 6])
def test_windows_fire_exactly_once_per_index(index_bits):
    for hi in range(2, (1 << index_bits) + 1):
        check_probes(0, hi, index_bits, max(2, index_bits))


@pytest.mark.parametrize("lam", [2, 4, 8, 16, 32, 64])
def test_copy_style_windows_stay_closed_at_zero(lam):
    # The r = 0 input must open no window: the whole register domain is
    # discriminated for ranges starting at 1.
    bits = lam.bit_length() - 1
    check_probes(1, lam, bits, max(1, bits))


@pytest.mark.parametrize("extra", [1, 2])
@pytest.mark.parametrize("lam", [2, 4, 8, 16, 32])
def test_copy_style_windows_on_wider_registers(lam, extra):
    # An r register may be wider than the range needs; under the promise
    # that it holds a value below lam, no window may depend on the extra
    # bits. (Ranges [0, K) on wider registers are covered above: each width
    # there runs every K up to its full range.)
    bits = lam.bit_length() - 1 + extra
    check_probes(1, lam, bits, bits)


def test_emitter_order_strictly_ascending():
    _, seen = run_iteration(0, 25, index_bits=5, work_bits=5)
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_empty_range_rejected():
    c = iteration_circuit(2, 2)
    with pytest.raises(ValueError, match="empty"):
        emit_unary_iteration(c, IterationSpec("idx", 2, 2), lambda w: None)


def test_range_must_fit_register():
    c = iteration_circuit(2, 2)
    with pytest.raises(ValueError, match="does not fit"):
        emit_unary_iteration(c, IterationSpec("idx", 0, 8), lambda w: None)


def test_insufficient_work_rejected():
    c = iteration_circuit(4, 1)
    with pytest.raises(ValueError, match="insufficient work"):
        emit_unary_iteration(c, IterationSpec("idx", 0, 16), lambda w: None)


def test_unsupported_range_start_rejected():
    # Starts other than 0 and 1 cannot hit the exact scaffold cost; the
    # emitter refuses rather than emitting an off-cost circuit.
    c = iteration_circuit(3, 3)
    with pytest.raises(ValueError, match="cannot be scaffolded"):
        emit_unary_iteration(c, IterationSpec("idx", 3, 8), lambda w: None)


def test_second_emission_replays_the_first():
    # The scaffold is recorded once per circuit; a second emission of the
    # same spec sees equal windows in the same order and appends the very
    # same (interned) scaffold gate objects.
    c = iteration_circuit(5, 5)
    spec = IterationSpec("idx", 0, 25)
    first, second = [], []
    emit_unary_iteration(c, spec, first.append)
    gates_first = c.gates
    emit_unary_iteration(c, spec, second.append)
    assert second == first
    assert [w.index_value for w in first] == list(range(25))
    gates_second = c.gates[len(gates_first):]
    assert len(gates_second) == len(gates_first)
    assert all(a is b for a, b in zip(gates_first, gates_second))
    fresh = iteration_circuit(5, 5)
    emit_unary_iteration(fresh, spec, lambda w: None)
    assert fresh.gates == gates_first


def test_replay_interleaves_emitter_gates_like_a_fresh_walk():
    c = iteration_circuit(3, 3, probe_bits=6)
    emit_probe(c, 0, 6)
    once = c.gates
    emit_probe(c, 0, 6)
    assert c.gates == once + once


def test_failed_validation_records_nothing():
    c = iteration_circuit(4, 1)
    spec = IterationSpec("idx", 0, 16)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="insufficient work") as info:
            emit_unary_iteration(c, spec, lambda w: None)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert c.gates == ()


SMALL_SCAFFOLD_DIGEST = "addad597bb3d8797dd3d6c1138ffa5815e97f8b7d77f17b2278f56c787ed2d53"


def scaffold_outcome(lo, hi, index_bits, work_bits):
    """The gate file of [lo, hi) iterated with a probe CNOT from each
    window's wire, on a work register of ``work_bits`` qubits (none at 0),
    or the text of the ValueError that refuses it."""
    regs = [RegisterSpec("idx", index_bits, Role.ADDRESS_Q), RegisterSpec("probe", 1, Role.OUTPUT)]
    if work_bits:
        regs.append(RegisterSpec("work", work_bits, Role.WORK))
    c = Circuit(regs)

    def probe(win):
        c.append(GateKind.CNOT, win.select_wire, QubitRef("probe", 0))

    try:
        emit_unary_iteration(c, IterationSpec("idx", lo, hi), probe)
    except ValueError as err:
        return f"refused: {err}\n"
    return serialize_circuit(c)


def test_every_small_scaffold_is_pinned():
    # Every range 0 <= lo < hi <= 33 on the narrowest index register and on
    # one qubit more. The work register grows from none until the range is
    # accepted, so each accepted range is pinned at the size it needs and
    # refused one qubit smaller; a range refused for another reason is
    # pinned by its message at every size. Each case runs cold, from an
    # empty template memo, then warm, and both runs write the same text.
    digest = hashlib.sha256()
    for hi in range(1, 34):
        narrowest = max(1, (hi - 1).bit_length())
        for lo in range(hi):
            for index_bits in (narrowest, narrowest + 1):
                for work_bits in range(index_bits + 2):
                    iteration._memo_template.cache_clear()
                    text = scaffold_outcome(lo, hi, index_bits, work_bits)
                    assert scaffold_outcome(lo, hi, index_bits, work_bits) == text
                    digest.update(f"[{lo}, {hi}) idx {index_bits} work {work_bits}\n{text}".encode())
                    if not text.startswith("refused"):
                        break
    assert digest.hexdigest() == SMALL_SCAFFOLD_DIGEST


class Stop(Exception):
    pass


@pytest.mark.parametrize("emission", [0, 1])
@pytest.mark.parametrize("stop_at", [0, 1, 5, 12])
def test_emitter_raising_leaves_the_walk_prefix(emission, stop_at):
    # Reference: one full run that notes the gate count when each window
    # opens. An emitter raising at window k must leave exactly the gates
    # before that point, on the first emission and on a replay alike.
    lo, hi = 0, 13
    full = iteration_circuit(4, 4, probe_bits=hi)
    opened = []

    def noting(win):
        opened.append(len(full.gates))
        full.append(GateKind.CNOT, win.select_wire, QubitRef("probe", win.index_value))

    emit_unary_iteration(full, IterationSpec("idx", lo, hi), noting)

    c = iteration_circuit(4, 4, probe_bits=hi)
    spec = IterationSpec("idx", lo, hi)
    for _ in range(emission):
        emit_unary_iteration(c, spec, lambda w: None)
    start = len(c.gates)

    def stopping(win):
        if win.index_value == stop_at:
            raise Stop
        c.append(GateKind.CNOT, win.select_wire, QubitRef("probe", win.index_value))

    with pytest.raises(Stop):
        emit_unary_iteration(c, spec, stopping)
    assert c.gates[start:] == full.gates[: opened[stop_at]]


def loads_circuit(index_bits, width):
    return Circuit(
        [
            RegisterSpec("idx", index_bits, Role.ADDRESS_Q),
            RegisterSpec("work", index_bits, Role.WORK),
            RegisterSpec("out", width, Role.OUTPUT),
        ]
    )


def reference_loads(circuit, spec, targets, words):
    """Reference: one append per set bit, in ascending bit order."""

    def window(win):
        word = words[win.index_value]
        for k in range(word.bit_length()):
            if word >> k & 1:
                circuit.append(GateKind.CNOT, win.select_wire, targets[k])

    emit_unary_iteration(circuit, spec, window)


@st.composite
def load_case(draw):
    width = draw(st.sampled_from([1, 3, 8, 64, 65, 90]))
    size = draw(st.integers(2, 20))
    word = st.one_of(
        st.just(0),
        st.just((1 << width) - 1),
        st.integers(0, width - 1).map(lambda k: 1 << k),
        st.integers(0, (1 << width) - 1),
    )
    words = draw(st.lists(word, min_size=size, max_size=size))
    # A target list may repeat a qubit and need not be in register order.
    targets = draw(st.lists(st.integers(0, width - 1), min_size=width, max_size=width))
    return width, words, [QubitRef("out", k) for k in targets], draw(st.integers(1, 2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(load_case())
def test_emit_loads_matches_a_per_bit_loop(case):
    # Ranges of 3 or more values reuse work slots as select wires, so rows
    # are shared between windows; a second emission reuses them again.
    width, words, targets, emissions = case
    index_bits = max(2, (len(words) - 1).bit_length())
    spec = IterationSpec("idx", 0, len(words))
    walked, expected = loads_circuit(index_bits, width), loads_circuit(index_bits, width)
    for _ in range(emissions):
        emit_loads(walked, spec, targets, words)
        reference_loads(expected, spec, targets, words)
    assert walked.gates == expected.gates
    assert len({id(g) for g in walked.gates}) == len(set(walked.gates))


def test_emit_loads_resolves_a_target_only_when_a_word_sets_its_bit():
    targets = [QubitRef("out", 0), QubitRef("out", 99), QubitRef("out", 1)]
    spec = IterationSpec("idx", 0, 4)
    c = loads_circuit(2, 2)
    emit_loads(c, spec, targets, [1, 4, 0, 5])
    assert sum(g.kind is GateKind.CNOT and g.operands[1] == QubitRef("out", 1)
               for g in c.gates) == 2
    c = loads_circuit(2, 2)
    with pytest.raises(CircuitError, match=r"qubit out\[99\] out of range"):
        emit_loads(c, spec, targets, [1, 4, 2, 5])


@pytest.mark.parametrize(
    "words,message",
    [
        ([1, 4, 0, 0], "word 1 has 3 bits, more than the 2 targets"),
        ([1, -1, 0, 0], "word 1 is negative: -1"),
        ([0, 0, 3, -5], "word 3 is negative: -5"),
        ([2**70, 0, 1, 0], "word 0 has 71 bits, more than the 2 targets"),
    ],
)
def test_emit_loads_rejects_words_before_appending(words, message):
    c = loads_circuit(2, 2)
    with pytest.raises(ValueError, match=message):
        emit_loads(c, IterationSpec("idx", 0, 4), [QubitRef("out", 0), QubitRef("out", 1)], words)
    assert c.gates == ()


@pytest.mark.parametrize("words", [[], [1, 2], [1, 2, 3]])
def test_emit_loads_rejects_words_short_of_the_range(words):
    # Without the check, [1, 2] appended 11 gates and then ended in an
    # IndexError at window 2.
    c = loads_circuit(2, 2)
    kept = c.append(GateKind.X, QubitRef("out", 0))
    with pytest.raises(ValueError) as err:
        emit_loads(c, IterationSpec("idx", 0, 4), [QubitRef("out", 0), QubitRef("out", 1)], words)
    assert str(err.value) == (
        f"{len(words)} words do not cover the iteration range, which ends at 4"
    )
    assert c.gates == (kept,) and c.gates[0] is kept
    assert c._scaffolds == {}


class TestTemplateMemo:
    """Each (spec, index register size) is walked once per process into a
    template over template rows, which every circuit moves onto its own
    register rows; ``reference_record_scaffold`` walks the circuit's rows."""

    @staticmethod
    def relaid(registers, work_first=False, spares=False, wider=False):
        """``registers`` with the work register declared first, a spare
        register before each other one, or each address register one qubit
        wider, so that the index and work rows move."""
        regs = [
            dataclasses.replace(reg, size=reg.size + 1)
            if wider and reg.role in (Role.ADDRESS_Q, Role.ADDRESS_R) else reg
            for reg in registers
        ]
        if work_first:
            regs.sort(key=lambda reg: reg.name != "work")
        if spares:
            regs = [r for k, reg in enumerate(regs)
                    for r in (RegisterSpec(f"spare{k}", k + 1, Role.DIRTY), reg)]
        return regs

    LAYOUTS = {
        "work_first": dict(work_first=True),
        "spares": dict(spares=True),
        "wider": dict(wider=True),
        "all": dict(work_first=True, spares=True, wider=True),
    }

    BUILDERS = {
        "plain": lambda: baselines.build_plain_qrom(random_table(13, 3, seed=1)),
        "qrom": lambda: qrom.build_qrom(random_table(27, 5, seed=2), qrom.plan_qrom(27, 5, 4, 2)),
        "qrom_lam2": lambda: qrom.build_qrom(random_table(6, 2, seed=3), qrom.plan_qrom(6, 2, 2, 1)),
        "selectswap": lambda: baselines.build_selectswap_dirty(random_table(20, 3, seed=4), 4),
        "sequential": lambda: qrom.build_sequential_qroms(
            SequentialSpec(tuple(random_table(12, 2, seed=s) for s in (5, 6, 7)), 2)),
    }

    def build(self, monkeypatch, builder, layout):
        """``builder``'s circuit with its registers relaid as ``layout``."""
        def make(registers):
            return Circuit(self.relaid(registers, **layout))

        monkeypatch.setattr(qrom, "Circuit", make)
        monkeypatch.setattr(baselines, "Circuit", make)
        return self.BUILDERS[builder]()

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_builders_match_a_walk_over_their_own_rows(self, monkeypatch, builder, layout, memo):
        flags = self.LAYOUTS[layout]
        with monkeypatch.context() as patch:
            patch.setattr(iteration, "_record_scaffold", reference_record_scaffold)
            expected = self.build(patch, builder, flags)
        iteration._memo_template.cache_clear()
        if memo == "warm":
            # Same index register sizes, other rows: every template is kept.
            other = dict(wider=flags.get("wider", False),
                         work_first=not flags.get("work_first"), spares=not flags.get("spares"))
            self.build(monkeypatch, builder, other)
        misses = iteration._memo_template.cache_info().misses
        circuit = self.build(monkeypatch, builder, flags)
        walked = iteration._memo_template.cache_info().misses - misses
        assert walked == 0 if memo == "warm" else walked > 0
        assert circuit._ops == expected._ops
        assert circuit._index == expected._index
        assert serialize_circuit(circuit) == serialize_circuit(expected)

    @pytest.mark.parametrize(
        "lo,hi,index_bits,work_bits,message",
        [
            (2, 2, 2, 2, "empty or negative range [2, 2)"),
            (3, 2, 2, 2, "empty or negative range [3, 2)"),
            (0, 1, 2, 2, "range [0, 1) has no index bit to branch on"),
            (0, 8, 2, 2, "range [0, 8) does not fit in 2-qubit register 'idx'"),
            (5, 6, 3, 2, "range [5, 6) cannot be scaffolded in exactly 0 Toffolis"),
            (3, 8, 3, 3, "range [3, 8) cannot be scaffolded in exactly 4 Toffolis"),
            (0, 16, 4, 1, "insufficient work qubits: need 4, register 'work' has 1"),
        ],
    )
    def test_refusals_repeat_and_record_nothing(self, lo, hi, index_bits, work_bits, message):
        # A range or cost refusal keeps no template. A work refusal keeps the
        # template, which holds no circuit's rows, and records nothing on
        # the circuit: a circuit with enough work qubits then replays it.
        iteration._memo_template.cache_clear()
        c = iteration_circuit(index_bits, work_bits)
        spec = IterationSpec("idx", lo, hi)
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                emit_unary_iteration(c, spec, lambda w: None)
            assert str(info.value) == message
            assert (c.gates, c._ops, c._scaffolds) == ((), [], {})
        work = message.startswith("insufficient")
        assert iteration._memo_template.cache_info().currsize == work
        if work:
            fresh = iteration_circuit(index_bits, index_bits)
            emit_unary_iteration(fresh, spec, lambda w: None)
            assert iteration._memo_template.cache_info().hits == 2

    def test_entry_cap_holds(self):
        iteration._memo_template.cache_clear()
        for hi in range(2, SCAFFOLD_MEMO_ENTRIES + 12):
            run_iteration(0, hi, index_bits=7, work_bits=7)
        assert iteration._memo_template.cache_info().currsize == SCAFFOLD_MEMO_ENTRIES

    @staticmethod
    def record(lo, hi, bits):
        """The recording of ``[lo, hi)`` on a fresh circuit, whose gate
        indices are the template's op positions."""
        return iteration._record_scaffold(iteration_circuit(bits, bits), IterationSpec("idx", lo, hi))

    def test_window_cap_holds(self):
        # The widest range kept is walked once, and its template serves every
        # fresh circuit; one value more is walked afresh for each circuit and
        # not kept, and records the same gates.
        iteration._memo_template.cache_clear()
        bits, widest = SCAFFOLD_MEMO_WINDOWS.bit_length(), SCAFFOLD_MEMO_WINDOWS
        assert self.record(0, widest, bits)[0] is self.record(0, widest, bits)[0]
        assert iteration._memo_template.cache_info().currsize == 1
        first, second = self.record(0, widest + 1, bits), self.record(0, widest + 1, bits)
        assert first == second and first[0] is not second[0]
        assert first[0][0][1] is not second[0][0][1]  # the windows, too
        assert iteration._memo_template.cache_info().currsize == 1
        c, seen = run_iteration(0, widest + 1, bits, bits)
        assert seen == list(range(widest + 1))
        assert count_resources(c).toffoli == widest
        assert iteration._memo_template.cache_info().currsize == 1

    def test_ints_only_share_a_template(self):
        # A bool or float bound equals an int but is walked on its own.
        iteration._memo_template.cache_clear()
        assert self.record(1, 4, 2)[0] is self.record(1, 4, 2)[0]
        with pytest.raises(AttributeError):
            self.record(1, 4.0, 2)
        assert self.record(True, 4, 2)[0] is not self.record(True, 4, 2)[0]
        assert self.record(True, 4, 2) == self.record(1, 4, 2)
        assert iteration._memo_template.cache_info().currsize == 1

    @pytest.mark.parametrize("threads", [2, 5])
    def test_threads_on_other_layouts_write_the_sequential_files(self, threads):
        # Threads race to walk, keep and read the same templates, switching
        # every microsecond; each writes the gate file a sequential run does.
        plan = qrom.plan_qrom(40, 3, 4, 1)
        schedule = qrom.compute_xor_schedule(random_table(40, 3, seed=9), plan)
        slices = [[QubitRef("output", k)] for k in range(3)]
        layouts = [{}, *self.LAYOUTS.values()][:threads]

        def build(layout):
            circuit = Circuit(self.relaid(qrom.registers_for_plan(plan), **layout))
            return serialize_circuit(qrom._run_stages(circuit, plan, schedule, slices))

        expected = [build(layout) for layout in layouts]
        iteration._memo_template.cache_clear()
        start, results = threading.Barrier(threads), [None] * threads

        def run(k):
            start.wait()
            results[k] = [build(layouts[k]) for _ in range(3)]

        workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [[text] * 3 for text in expected]
