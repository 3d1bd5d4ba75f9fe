"""Sawtooth unary iteration over a contiguous index range.

The emitter is invoked once per index value, in ascending order, with a select
wire that is 1 exactly when the index register holds that value. Windows are
realized by a depth-first walk of the bit-prefix tree: the first child of a
node is computed with a temp-AND, its sibling is reached with a single CNOT,
and the temp-AND is released for free on the way back up. The root's index
bit itself is its children's wire (X-conjugated for the 0 branch), so the
root spends no temp-AND. Every range therefore needs at least one index bit
to branch on, so ``[0, 1)`` is rejected, and every window has a wire.

Costing convention: scaffolding spends exactly ``range_size - 1`` Toffolis.
The bare tree needs one less than that for ranges starting at 0, so the
emitter appends one temp-AND compute/uncompute alignment pair (net one
Toffoli, identity action) to match the standard controlled-iteration account
that all cost formulas in this package assume. The tree branches on
L = ceil(log2(range_hi)) index bits; its wires take work slots 0 to L - 2
and the alignment target slot L - 1. So a range needs L - 1 work qubits, or
L with alignment pairs, except that ``[0, 2)`` on a 1-qubit index register
needs 2: its pair's second control is work slot 1.

Callers promise that the index register holds a value below ``range_hi``;
select wires for values pruned above ``range_hi`` are not discriminated from
unreachable larger values. Values below ``range_lo`` are always discriminated
correctly, which is what the copy stage relies on for index 0.

A lookup runs the same iteration many times per circuit (one q-iteration
per Select, one r-iteration per Copy), and a sweep builds many circuits of
few shapes. So a process walks each spec once per index register size into
a template, over rows in which index bit i is row i and work slot s is row
size + s. It keeps, per window, the positions of the distinct ops before
it, plus those after the last window, and counts the temp-ANDs it spends,
which fixes the alignment pairs and the work qubits. A circuit records a
spec once: it checks its work register, interns the template's ops, moved
onto its register rows, in first-walk order, and maps the positions to the
indices of its gates. Every emission, the first included, replays that
recording, extending the circuit's index array segment by segment and
calling the emitter between segments, so the gate order is exactly that of
a fresh walk. A window's
``select_wire`` stays a ``QubitRef``; an emitter that interns ops reads the
wire's row from the circuit.

``emit_loads`` is the Select that every lookup builder runs on top of the
iteration: window v XOR-loads the bits of one classical word onto a fixed
target list. Its data CNOTs are most of a lookup's gates, so a window finds
the word's set bits in C, from the binary digits of ``bin``, maps them
through a per-wire cache of gate indices and extends the index array once.
No ``Gate`` object is made: gates are interned by op (see
``qromkit.circuit``).

Emission is pure appending into the caller's circuit. Circuits share only
the memo of templates: the last ``SCAFFOLD_MEMO_ENTRIES`` used, of at most
``SCAFFOLD_MEMO_WINDOWS`` windows each (a longer range is walked afresh).
Templates are immutable, so concurrent emission into distinct circuits is
safe.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress, count
from typing import Callable, Sequence

from .circuit import Circuit, GateKind, QubitRef

__all__ = ["IterationSpec", "IterationWindow", "emit_unary_iteration", "emit_loads"]

SCAFFOLD_MEMO_ENTRIES = 64  # scaffold templates kept between circuits
SCAFFOLD_MEMO_WINDOWS = 1 << 8  # windows of the largest template kept


@dataclass(frozen=True, slots=True)
class IterationWindow:
    """One activation window: ``select_wire`` is 1 iff the register holds
    ``index_value``."""

    index_value: int
    select_wire: QubitRef


@dataclass(frozen=True, slots=True)
class IterationSpec:
    """Iterate ``index_register`` over ``[range_lo, range_hi)``."""

    index_register: str
    range_lo: int
    range_hi: int


def emit_unary_iteration(
    circuit: Circuit,
    spec: IterationSpec,
    emitter: Callable[[IterationWindow], None],
) -> Circuit:
    """Emit the iteration scaffold, invoking ``emitter`` once per index value.

    The emitter appends its own gates to the circuit; gates controlled on the
    window's select wire fire only for the window's index value. After the
    full iteration every qubit of the circuit's ``work`` register is back to
    0 and the index register is unchanged. Scaffolding contributes exactly
    ``range_hi - range_lo - 1`` Toffolis.

    The first call for a spec on a circuit validates the range and records
    the scaffold from the spec's template; every call, the first included,
    replays that recording. A failed validation records nothing on the
    circuit.

    Raises ValueError on an empty or out-of-bounds range, on ``[0, 1)``
    (no index bit to branch on), on insufficient work qubits, and on ranges
    whose start makes the exact scaffold cost unattainable (the builders here
    only use starts 0 and 1).
    """
    recording = circuit._scaffolds.get(spec)
    if recording is None:
        recording = circuit._scaffolds[spec] = _record_scaffold(circuit, spec)
    steps, tail = recording
    for segment, window in steps:
        circuit._index.extend(segment)
        emitter(window)
    circuit._index.extend(tail)
    return circuit


def emit_loads(
    circuit: Circuit, spec: IterationSpec, targets: list[QubitRef], words: Sequence[int]
) -> Circuit:
    """Iterate ``spec`` and, in the window of index value v, XOR bit k of
    ``words[v]`` onto ``targets[k]`` with a CNOT from the select wire.

    Set bits are walked in ascending k, and each ``(wire, k)`` gate is
    interned on first use and reused from then on, so a target that names no
    qubit raises ``append``'s error only when some word sets its bit.

    Raises ValueError, before appending anything, when ``words`` ends before
    ``spec.range_hi`` or a word is negative or wider than ``targets``.
    """
    return _load_rows(circuit, spec, circuit._rows(targets), words, targets.__getitem__)


def _load_rows(
    circuit: Circuit,
    spec: IterationSpec,
    targets: Sequence[int | None],
    words: Sequence[int],
    ref: Callable[[int], QubitRef] | None = None,
) -> Circuit:
    """``emit_loads`` onto the target rows ``targets``, which the builders
    read from the register spans. A None target k names no qubit: the first
    gate onto it raises ``append``'s error for ``ref(k)`` (see ``_Row``)."""
    if len(words) < spec.range_hi:
        raise ValueError(
            f"{len(words)} words do not cover the iteration range, which ends at "
            f"{spec.range_hi}"
        )
    if words:
        low, high = min(words), max(words)
        if low < 0:
            raise ValueError(f"word {words.index(low)} is negative: {low}")
        if high.bit_length() > len(targets):
            raise ValueError(
                f"word {words.index(high)} has {high.bit_length()} bits, "
                f"more than the {len(targets)} targets"
            )
    wires: dict[QubitRef, _Row] = {}

    def window(win: IterationWindow) -> None:
        wire = win.select_wire
        row = wires.get(wire)
        if row is None:
            row = wires[wire] = _Row(circuit, wire, targets, ref)
        # One byte per bit of the word, lowest first: 1 where it is set.
        selectors = bin(words[win.index_value])[:1:-1].encode().translate(_SELECTORS)
        circuit._index.extend(map(row.__getitem__, compress(count(), selectors)))

    return emit_unary_iteration(circuit, spec, window)


_SELECTORS = bytes.maketrans(b"01", b"\0\1")


class _Row(dict):
    """The indices of the CNOTs from ``wire`` onto the rows ``targets``,
    keyed by target index and interned on first lookup; a None target k
    names no qubit and raises ``append``'s error for ``ref(k)``. The Select
    keeps one per select wire, the restore one per slice from its temp-AND."""

    # Slots, and no dict.__init__ call: a restore makes one per output slice.
    __slots__ = ("circuit", "wire", "row", "targets", "ref")

    def __init__(self, circuit: Circuit, wire: QubitRef, targets: list, ref) -> None:
        self.circuit, self.wire, self.row = circuit, wire, circuit._row(*wire)
        self.targets, self.ref = targets, ref

    def __missing__(self, k: int) -> int:
        target = self.targets[k]
        if target is None:
            self.circuit._validate(GateKind.CNOT, (self.wire, self.ref(k)))  # raises
        index = self[k] = self.circuit._intern(GateKind.CNOT, self.row, target)
        return index


def _record_scaffold(circuit: Circuit, spec: IterationSpec) -> tuple:
    """The circuit's ``(steps, tail)`` for ``spec``: its template's, each op
    position mapped to the index of the circuit's gate. On a circuit that
    holds no op yet, the positions are the indices, and the template serves.
    """
    reg = circuit.register(spec.index_register)
    lo, hi = spec.range_lo, spec.range_hi
    kept = type(lo) is type(hi) is int and hi - lo <= SCAFFOLD_MEMO_WINDOWS
    ops, steps, tail, needed = (_memo_template if kept else _template)(spec, reg.size)
    work = circuit.register("work")
    if work.size < needed:
        raise ValueError(
            f"insufficient work qubits: need {needed}, register {work.name!r} has {work.size}"
        )
    rows = [*circuit._span(reg.name, reg.size), *circuit._span("work", needed)]
    indices = [circuit._intern(op[0], *map(rows.__getitem__, op[1:])) for op in ops]
    if indices == list(range(len(ops))):
        return steps, tail
    at = indices.__getitem__
    return tuple((tuple(map(at, segment)), win) for segment, win in steps), tuple(map(at, tail))


def _template(spec: IterationSpec, size: int) -> tuple:
    """Walk the iteration tree of ``spec`` on a ``size``-qubit index register,
    over rows in which index bit i is row i and work slot s is row size + s.

    Returns ``(ops, steps, tail, needed)``: the distinct ops ``(kind, *rows)``
    in first-walk order; per index value in ascending order, the positions
    in ``ops`` of the ops before its window, with the window; the positions
    of the ops after the last window; and the work qubits needed.

    At the root the top index bit is the children's wire, X-negated around a
    0 branch that meets the range; the 1 branch always holds ``range_hi - 1``.
    An inner node ANDs its wire with its bit into its work slot, runs a 0
    branch that meets the range under the X-negated bit, then CNOTs across
    to the 1 branch. A 1 branch wholly above the range is pruned, and the 0
    branch reuses the node's wire.
    """
    lo, hi = spec.range_lo, spec.range_hi
    if not 0 <= lo < hi:
        raise ValueError(f"empty or negative range [{lo}, {hi})")
    if hi == 1:
        raise ValueError("range [0, 1) has no index bit to branch on")
    if hi > 1 << size:
        raise ValueError(
            f"range [{lo}, {hi}) does not fit in {size}-qubit register {spec.index_register!r}"
        )
    steps: list[tuple[tuple[tuple, ...], IterationWindow]] = []
    pending: list[tuple] = []

    levels = (hi - 1).bit_length()
    ands = 0
    bits, slots = range(size), range(size, size + max(levels, 2))

    def walk(height: int, base: int, wire: QubitRef, row: int) -> None:
        # Every node visited meets [lo, hi), so its 0 branch meets it when
        # lo < mid and its 1 branch when mid < hi. ``row`` is ``wire``'s.
        nonlocal ands
        if height == 0:
            steps.append((tuple(pending), IterationWindow(base, wire)))
            pending.clear()
            return
        mid = base + (1 << (height - 1))
        if mid >= hi:
            # The 1 branch holds only values >= hi: reuse the wire below.
            walk(height - 1, base, wire, row)
            return
        # A 0 branch below lo is skipped, but its values are reachable, so the
        # bit stays in the AND. A height-h node's children use work slot
        # levels-1-h: slots grow toward the leaves, so no path reuses one.
        slot = levels - 1 - height
        bit, child, child_wire = bits[height - 1], slots[slot], QubitRef("work", slot)
        if lo < mid:
            pending.append((GateKind.X, bit))
        pending.append((GateKind.TEMP_AND, row, bit, child))
        ands += 1
        if lo < mid:
            walk(height - 1, base, child_wire, child)
            pending.append((GateKind.X, bit))
            # Sibling transition: flips the conditioned bit inside the AND.
            pending.append((GateKind.CNOT, row, child))
        walk(height - 1, mid, child_wire, child)
        pending.append((GateKind.TEMP_AND_UNCOMPUTE, row, bit, child))

    top, row, mid = QubitRef(spec.index_register, levels - 1), bits[levels - 1], 1 << (levels - 1)
    if lo < mid:
        pending.append((GateKind.X, row))
        walk(levels - 1, 0, top, row)
        pending.append((GateKind.X, row))
    walk(levels - 1, mid, top, row)

    cost = hi - lo - 1
    deficit = cost - ands
    if deficit < 0:
        raise ValueError(f"range [{lo}, {hi}) cannot be scaffolded in exactly {cost} Toffolis")
    needed = levels - 1
    if deficit:
        # Each alignment pair targets the slot above the tree's. Its controls
        # are the top two index bits, or a 1-qubit register's bit and work
        # slot 1.
        if size > 1:
            needed, controls = levels, (bits[-1], bits[-2])
        else:
            needed, controls = 2, (bits[0], slots[1])
        pair = (*controls, slots[levels - 1])
        pending += [(GateKind.TEMP_AND, *pair), (GateKind.TEMP_AND_UNCOMPUTE, *pair)] * deficit

    ops = tuple(dict.fromkeys([*(op for segment, _ in steps for op in segment), *pending]))
    at = {op: k for k, op in enumerate(ops)}.__getitem__
    steps = tuple((tuple(map(at, segment)), win) for segment, win in steps)
    return ops, steps, tuple(map(at, pending)), needed


# Every circuit of a shape walks the same tree, so a process keeps the last
# SCAFFOLD_MEMO_ENTRIES templates used. ``typed``: a bool register size must
# not share an int's template.
_memo_template = functools.lru_cache(maxsize=SCAFFOLD_MEMO_ENTRIES, typed=True)(_template)
