import hashlib

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
    count_resources,
    emit_unary_iteration,
)
from qromkit.gatefile import serialize_circuit
from qromkit.iteration import emit_loads
from qromkit.simulate import batch_simulate, qubit_indexer


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
    # pinned by its message at every size.
    digest = hashlib.sha256()
    for hi in range(1, 34):
        narrowest = max(1, (hi - 1).bit_length())
        for lo in range(hi):
            for index_bits in (narrowest, narrowest + 1):
                for work_bits in range(index_bits + 2):
                    text = scaffold_outcome(lo, hi, index_bits, work_bits)
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
