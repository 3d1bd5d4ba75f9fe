"""Select-and-copy table lookup, built as a run of stages.

The address x splits as x = q*lam + r, with r the low log2(lam) address bits.
A stage is one output slice of at most mu qubits together with the values
f(q*lam + l) restricted to that slice. Each stage is one Select and one Copy:
the Select iterates over q, writing the block-base value f(q*lam) straight
into the slice and XOR-masked differences into lam-1 borrowed (dirty) mu-bit
blocks; the Copy then iterates r over 1..lam-1 and Toffoli-copies the
addressed block onto the slice. Because consecutive Selects load the XOR of
consecutive stages' differences, one final unloading Select plus one
temp-AND-assisted Copy restores every borrowed qubit and completes every
slice.

``compute_xor_schedule`` unpacks the table once into a bit matrix and takes
every stage's loads from a fixed number of array passes over it.
``build_qrom`` cuts one table's output into mu-bit packets, one stage each;
``build_sequential_qroms`` is ``build_qrom`` of m tables' concatenated words
at mu = b, with one output register per table, its schedule taken from the
tables' bit matrices stacked, one per stage. ``_bit_matrix`` and
``_row_ints`` are the one codec between ints and 0/1 bit matrices, bit j
in column j, that the builders and the verifier share.

Builders are pure functions of (table, plan): no shared mutable state, safe
to run across a parameter grid in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, repeat
from operator import countOf

import numpy as np

from .circuit import Circuit, GateKind, QubitRef, RegisterSpec, Role, check_temp_and_pairing
from .iteration import IterationSpec, IterationWindow, _load_rows, _Row, emit_unary_iteration

__all__ = [
    "LookupTable",
    "QromPlan",
    "XorSchedule",
    "SequentialSpec",
    "plan_qrom",
    "compute_xor_schedule",
    "registers_for_plan",
    "emit_select",
    "emit_copy",
    "emit_restore",
    "build_qrom",
    "build_sequential_qroms",
]


# Widest output a builder lays out. A build lists every output qubit and runs
# one Select and one Copy per packet, so a declared width such as 10**12,
# which ``plan_qrom`` and the cost formulas take in O(1), must be refused
# before that work starts. 2**16 is 1,024 times the widest lookup the paper
# costs (b = 64) and builds in seconds at mu = 1.
MAX_BUILD_WIDTH = 1 << 16


def check_build_width(bit_width: int) -> None:
    """Raise ``ValueError`` for an output wider than ``MAX_BUILD_WIDTH``."""
    if bit_width > MAX_BUILD_WIDTH:
        raise ValueError(f"b = {bit_width} exceeds the widest build, b = {MAX_BUILD_WIDTH}")


def _check_int(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an ``int``. A
    bool is refused, as a width of True would be written out as "True", and
    so is a numpy integer, as ``LookupTable`` refuses one as an entry."""
    if type(value) is not int:
        raise ValueError(f"{name} = {value!r} is not an int")


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


def work_size(q_range: int, lam: int) -> int:
    """Clean work qubits: max(ceil(log2(N/lam rounded up)), log2(lam)).

    With a one-bit q register the select's alignment pair needs a second
    work qubit for its control, so the degenerate q_range == 2 corner is
    padded to two. The plain lookup is the lam == 1 case, q_range == N.
    """
    w = max(ceil_log2(q_range), lam.bit_length() - 1)
    if q_range == 2:
        w = max(w, 2)
    return w


@dataclass(frozen=True, slots=True)
class LookupTable:
    """Classical data f: [0, N) -> [0, 2^b); bit j of an entry is the jth
    output bit, least significant first."""

    entries: tuple[int, ...]
    bit_width: int

    def __post_init__(self) -> None:
        if type(self.bit_width) is not int:  # guarded: an int width costs no call
            _check_int("bit_width", self.bit_width)
        if self.bit_width < 1:
            raise ValueError("bit_width must be >= 1")
        entries = self.entries
        if type(entries) is not tuple:
            entries = tuple(entries)
            object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("table must have at least one entry")
        # C-level type, min and max passes check every entry; the entries are
        # walked only to name the first bad one. A bool is refused, as
        # ``format_table`` would write True. bit_length, not 1 << bit_width:
        # a huge declared width must not allocate a huge integer.
        if (countOf(map(type, entries), int) < len(entries) or min(entries) < 0
                or max(entries).bit_length() > self.bit_width):
            for x, value in enumerate(entries):
                if type(value) is not int:
                    raise ValueError(f"entry {x} = {value!r} is not an int")
                if value < 0 or value.bit_length() > self.bit_width:
                    raise ValueError(f"entry {x} = {value} does not fit in {self.bit_width} bits")

    @property
    def n_entries(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True)
class QromPlan:
    """Validated synthesis parameters plus all derived register sizes."""

    n_entries: int
    bit_width: int
    lam: int
    mu: int
    q_range: int
    q_bits: int
    r_bits: int
    dirty_qubits: int
    work_qubits: int

    @property
    def num_packets(self) -> int:
        return ceil_div(self.bit_width, self.mu)

    def packet_span(self, packet: int) -> tuple[int, int]:
        """Output bit range [start, end) covered by a packet: mu bits, or
        the rest of b for the last packet."""
        if not 0 <= packet < self.num_packets:
            raise ValueError(f"packet {packet} out of range 0..{self.num_packets - 1}")
        start = packet * self.mu
        return start, min(start + self.mu, self.bit_width)


def plan_qrom(n_entries: int, bit_width: int, lam: int, mu: int) -> QromPlan:
    """Validate parameters and derive the packet layout and register sizes,
    in time independent of N and b.

    Requires lam a power of two with 1 < lam < N and 1 <= mu <= b. The dirty
    block depth is mu*(lam-1); work qubits follow ``work_size``. Every
    builder and every lam-indexed cost row takes its layout from here.
    """
    for name, value in (("n_entries", n_entries), ("bit_width", bit_width), ("lam", lam), ("mu", mu)):
        _check_int(name, value)
    if n_entries < 1 or bit_width < 1:
        raise ValueError("table dimensions must be positive")
    if not is_power_of_two(lam):
        raise ValueError(f"lam = {lam} is not a power of 2")
    if not 1 < lam < n_entries:
        raise ValueError(f"lam = {lam} violates 1 < lam < N = {n_entries}")
    if not 1 <= mu <= bit_width:
        raise ValueError(f"mu = {mu} violates 1 <= mu <= b = {bit_width}")

    q_range = ceil_div(n_entries, lam)
    r_bits = lam.bit_length() - 1
    return QromPlan(
        n_entries=n_entries,
        bit_width=bit_width,
        lam=lam,
        mu=mu,
        q_range=q_range,
        q_bits=max(ceil_log2(n_entries), 1) - r_bits,
        r_bits=r_bits,
        dirty_qubits=mu * (lam - 1),
        work_qubits=work_size(q_range, lam),
    )


@dataclass(frozen=True, slots=True)
class XorSchedule:
    """Per-window classical bit masks of a run of stages.

    Stage s sees the values v_s(q, l) = f(q*lam + l) restricted to its output
    slice, entries beyond the table reading as 0. ``direct[s][q]`` is
    v_s(q, 0), which Select s writes straight to the slice. For borrowed
    block l in 1..lam-1 let c_s(q, l) = v_s(q, l) XOR v_s(q, 0). Masks are
    one int per window in the dirty register's layout, block l at bits
    (l-1)*mu: Select s xors ``delta[s][q]``, packing c_s(q, l) XOR
    c_{s-1}(q, l) with c_{-1} = 0, into the blocks, and the restore Select
    xors ``unload[q]``, packing the last stage's c, to return every block to
    its initial state. The masks telescope: XOR of all ``delta[s][q]`` equals
    ``unload[q]``. Every mask is a Python ``int``, so one wider than 64 bits
    shifts into a Select's word without wrapping. ``compute_xor_schedule``
    builds them with array passes over one bit matrix of the table.
    """

    direct: tuple[tuple[int, ...], ...]
    delta: tuple[tuple[int, ...], ...]
    unload: tuple[int, ...]


def compute_xor_schedule(table: LookupTable, plan: QromPlan) -> XorSchedule:
    """Schedule of a run of stages, stage p being packet p of the table.

    The table is unpacked once into a bit matrix, zero-padded to
    q_range*lam rows and num_packets*mu columns, and every stage's heads,
    deltas and the unload come from a fixed number of array passes over it,
    with no Python loop over windows or packets. The passes hold a few
    bytes per padded table bit at once, all freed before the build emits a
    gate: 3.9 at N = 2^20, b = 8, lam = 32, and up to about 23 at b = 1,
    lam = 2, where the lists of per-window masks dominate.
    """
    if table.n_entries != plan.n_entries or table.bit_width != plan.bit_width:
        raise ValueError("table dimensions do not match plan")
    rows, packets, mu = plan.q_range * plan.lam, plan.num_packets, plan.mu
    bits = _bit_matrix(table.entries, rows, packets * mu)
    return _schedule(bits.reshape(rows, packets, mu).transpose(1, 0, 2), plan)


def _schedule(slices: np.ndarray, plan: QromPlan) -> XorSchedule:
    """``XorSchedule`` of a (num_packets, q_range*lam, mu) bit array whose
    ``slices[p, x]`` holds stage p's slice of f(x), rows past N reading 0."""
    packets, q_range, lam, mu = plan.num_packets, plan.q_range, plan.lam, plan.mu
    # Axes (packet, q, l, bit): block l of window q in stage p's slice.
    v = slices.reshape(packets, q_range, lam, mu)
    # One row of masks per window: every stage's head, then every stage's
    # c_p (block l at bits (l-1)*mu), then the last c_p again as the unload.
    masks = np.zeros((2 * packets + 1, q_range, plan.dirty_qubits), np.uint8)
    masks[:packets, :, :mu] = v[:, :, 0]
    c = masks[packets:2 * packets]
    np.bitwise_xor(v[:, :, 1:], v[:, :, :1], out=c.reshape(packets, q_range, lam - 1, mu))
    masks[-1] = c[-1]
    c[1:] ^= c[:-1]  # c_p ^ c_{p-1}; numpy reads the overlapping operands first
    ints = _row_ints(masks)
    return XorSchedule(tuple(map(tuple, ints[:packets])), tuple(map(tuple, ints[packets:-1])),
                       tuple(ints[-1]))


def _bit_matrix(values, rows: int, width: int) -> np.ndarray:
    """The (rows, width) ``uint8`` matrix whose row x holds bit j of the xth
    of ``values`` in column j, rows past the values reading 0. Each value
    must fit in ``width`` bits. Values are unpacked from the bytes of one
    little-endian word each, the narrowest of 1, 2, 4 or 8 bytes that holds
    ``width`` bits, and past 64 bits from a join of each value's bytes."""
    values = chain(values, repeat(0))
    if width <= 64:
        size = 1 << ceil_log2(ceil_div(width, 8))
        raw = np.fromiter(values, f"<u{size}", rows).view(np.uint8)
    else:
        size = ceil_div(width, 8)
        raw = np.frombuffer(
            b"".join(map(int.to_bytes, islice(values, rows), repeat(size), repeat("little"))),
            np.uint8)
    # Unpacked whole, as numpy unpacks a one-byte column along its axis
    # at half the speed; the slice is a view.
    return np.unpackbits(raw, bitorder="little").reshape(rows, 8 * size)[:, :width]


def _row_ints(bits: np.ndarray) -> list:
    """Python ints of the bit rows along the last axis of ``bits``, bit j
    from column j, as nested lists over the other axes. Rows of up to 64
    bits are read as one little-endian word each; wider rows are read from
    their bytes, and nested only past one leading axis."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    shape, size = packed.shape[:-1], packed.shape[-1]
    if size <= 8:
        words = np.zeros((*shape, 8), np.uint8)
        words[..., :size] = packed
        return words.view("<u8")[..., 0].tolist()
    data = packed.tobytes()
    rows = map(data.__getitem__, map(slice, range(0, len(data), size),
                                     range(size, len(data) + 1, size)))
    ints = list(map(int.from_bytes, rows, repeat("little")))
    return ints if len(shape) == 1 else np.array(ints, dtype=object).reshape(shape).tolist()


def registers_for_plan(plan: QromPlan) -> list[RegisterSpec]:
    """Register layout: q/r address split, b output bits, mu*(lam-1) dirty
    qubits in lam-1 contiguous mu-bit blocks, and the work register."""
    return [
        RegisterSpec("addr_q", plan.q_bits, Role.ADDRESS_Q),
        RegisterSpec("addr_r", plan.r_bits, Role.ADDRESS_R),
        RegisterSpec("output", plan.bit_width, Role.OUTPUT),
        RegisterSpec("dirty", plan.dirty_qubits, Role.DIRTY),
        RegisterSpec("work", plan.work_qubits, Role.WORK),
    ]


def emit_select(
    circuit: Circuit, plan: QromPlan, schedule: XorSchedule, stage: int, outputs: list[QubitRef]
) -> Circuit:
    """One Select pass for a stage: iterate q over all blocks, CNOT-loading
    direct bits into the stage's output slice and delta bits into the dirty
    blocks. Adds no Toffolis beyond the q-iteration scaffold.

    The circuit must carry the plan's address, dirty and work registers (as
    must the other emitters); ``build_qrom`` wires this up for the common
    case.
    """
    if not 0 <= stage < len(schedule.direct):
        raise ValueError(f"stage {stage} out of range 0..{len(schedule.direct) - 1}")
    # The targets are the slice, then the dirty register, so window q loads
    # one word: the direct bits low, then the delta mask.
    direct, delta, width = schedule.direct[stage], schedule.delta[stage], len(outputs)
    words = [head | mask << width for head, mask in zip(direct, delta)]
    targets = circuit._rows(outputs) + [*circuit._span("dirty", plan.dirty_qubits)]

    def ref(k: int) -> QubitRef:
        return outputs[k] if k < width else QubitRef("dirty", k - width)

    return _load_rows(circuit, IterationSpec("addr_q", 0, plan.q_range), targets, words, ref)


def _check_slice(plan: QromPlan, outputs: list[QubitRef]) -> None:
    """Raise ``ValueError`` for an output slice wider than ``plan.mu``."""
    if len(outputs) > plan.mu:
        raise ValueError(f"output slice of {len(outputs)} qubits exceeds mu = {plan.mu}")


def emit_copy(circuit: Circuit, plan: QromPlan, outputs: list[QubitRef]) -> Circuit:
    """One multiplexed Copy: iterate r over 1..lam-1 and, per window, Toffoli
    bit j of the addressed dirty block onto ``outputs[j]``. (lam-1) * slice
    width Toffolis plus the lam-2 scaffold; no data CNOTs."""
    _check_slice(plan, outputs)

    append, intern, row = circuit._index.append, circuit._intern, circuit._row
    dirty = circuit._span("dirty", plan.dirty_qubits)
    targets = circuit._rows(outputs)

    def window(win: IterationWindow) -> None:
        wire, start = row(*win.select_wire), (win.index_value - 1) * plan.mu
        for j, (source, target) in enumerate(zip(dirty[start:], targets)):
            if source is None or target is None:
                # An operand that names no qubit: raise append's error.
                refs = (win.select_wire, QubitRef("dirty", start + j), outputs[j])
                circuit._validate(GateKind.TOFFOLI, refs)
            append(intern(GateKind.TOFFOLI, wire, source, target))

    return emit_unary_iteration(circuit, IterationSpec("addr_r", 1, plan.lam), window)


def emit_restore(
    circuit: Circuit, plan: QromPlan, schedule: XorSchedule, slices: list[list[QubitRef]]
) -> Circuit:
    """Unload the last stage's masks from the dirty blocks, then fix every
    output slice.

    The unloading Select mirrors the loading ones. The final Copy iterates r
    and, for each of the mu dirty bits of the addressed block, holds the bit
    in a temp-AND and CNOTs it onto bit j of every slice, clearing the
    borrowed-state mask the earlier copies left behind. The temp-AND target
    reuses the highest work qubit, which the r-iteration never touches.
    Each slice's fan-out comes from an ``iteration._Row``, as the Select's
    loads do, so an output is checked only when first written. A slice
    wider than mu is refused, as ``emit_copy`` refuses it, before anything
    is appended.
    """
    for outputs in slices:
        _check_slice(plan, outputs)
    dirty = circuit._span("dirty", plan.dirty_qubits)
    unload = IterationSpec("addr_q", 0, plan.q_range)
    _load_rows(circuit, unload, dirty, schedule.unload, partial(QubitRef, "dirty"))
    append, intern, row = circuit._index.append, circuit._intern, circuit._row
    temp_ref = QubitRef("work", plan.work_qubits - 1)
    temp = row(*temp_ref)
    fans = [_Row(circuit, temp_ref, circuit._rows(refs), refs.__getitem__) for refs in slices]

    def fix_window(win: IterationWindow) -> None:
        wire, start = row(*win.select_wire), (win.index_value - 1) * plan.mu
        for j, source in enumerate(dirty[start:start + plan.mu]):
            if source is None or temp is None:
                # An operand that names no qubit: raise append's error.
                circuit._validate(
                    GateKind.TEMP_AND, (win.select_wire, QubitRef("dirty", start + j), temp_ref))
            append(intern(GateKind.TEMP_AND, wire, source, temp))
            # A list, so that a bad output raises before bit j's CNOTs go in.
            circuit._index.extend([fan[j] for fan in fans if j < len(fan.targets)])
            append(intern(GateKind.TEMP_AND_UNCOMPUTE, wire, source, temp))

    return emit_unary_iteration(circuit, IterationSpec("addr_r", 1, plan.lam), fix_window)


def _run_stages(
    circuit: Circuit, plan: QromPlan, schedule: XorSchedule, slices: list[list[QubitRef]]
) -> Circuit:
    """The engine both builders share: Select and Copy per stage, then one
    restore that fixes every slice."""
    for stage, outputs in enumerate(slices):
        emit_select(circuit, plan, schedule, stage, outputs)
        emit_copy(circuit, plan, outputs)
    emit_restore(circuit, plan, schedule, slices)
    check_temp_and_pairing(circuit)
    return circuit


def _build(schedule: XorSchedule, plan: QromPlan, outputs: list[RegisterSpec]) -> Circuit:
    """The staged builder: ``registers_for_plan(plan)`` with ``outputs`` in
    place of ``output``, their bits cut into the plan's packets, one stage
    each, then the restore pass."""
    registers = registers_for_plan(plan)
    registers[2:3] = outputs
    bits = [reg[j] for reg in outputs for j in range(reg.size)]
    slices = [bits[start:end] for start, end in map(plan.packet_span, range(plan.num_packets))]
    return _run_stages(Circuit(registers), plan, schedule, slices)


def build_qrom(table: LookupTable, plan: QromPlan) -> Circuit:
    """Full lookup circuit: one stage per mu-bit packet of ``output``, then
    the restore pass.

    The Toffoli count is exactly
    (ceil(b/mu)+1)(ceil(N/lam)+lam-3) + (lam-1)(b+mu), the ``cost_bit_packet``
    row, and the register sizes are exactly those of the plan.
    """
    check_build_width(plan.bit_width)
    schedule = compute_xor_schedule(table, plan)
    return _build(schedule, plan, [RegisterSpec("output", plan.bit_width, Role.OUTPUT)])


@dataclass(frozen=True, slots=True)
class SequentialSpec:
    """A run of lookups over tables of identical shape, sharing one address
    register and one set of dirty blocks, writing to fresh output registers.
    ``plan`` is the full-width plan (mu = b) of one table."""

    tables: tuple[LookupTable, ...]
    lam: int
    plan: QromPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        if not self.tables:
            raise ValueError("need at least one table")
        first = self.tables[0]
        for t in self.tables[1:]:
            if t.n_entries != first.n_entries or t.bit_width != first.bit_width:
                raise ValueError("all tables must share N and b")
        plan = plan_qrom(first.n_entries, first.bit_width, self.lam, first.bit_width)
        object.__setattr__(self, "plan", plan)


def build_sequential_qroms(spec: SequentialSpec) -> Circuit:
    """Back-to-back lookups with one shared unload: the lookup of the m*b-bit
    table whose word x holds table i's entry x at bits i*b, at mu = b, with
    registers ``output_1..output_m`` of b qubits in place of ``output``:
    exactly (m+1) * (ceil(N/lam) + b*(lam-1) + lam - 3) Toffolis. Stage i
    is table i, so the schedule is taken from the m tables' bit matrices
    stacked, one per stage, and no m*b-bit word is made. One table's b is
    checked against ``MAX_BUILD_WIDTH`` before all m*b output qubits are.
    """
    m, b = len(spec.tables), spec.plan.bit_width
    check_build_width(b)
    check_build_width(m * b)
    plan = plan_qrom(spec.plan.n_entries, m * b, spec.lam, b)
    rows = plan.q_range * plan.lam
    pad = (0,) * (rows - plan.n_entries)
    entries = chain.from_iterable(chain(t.entries, pad) for t in spec.tables)
    schedule = _schedule(_bit_matrix(entries, m * rows, b).reshape(m, rows, b), plan)
    outputs = [RegisterSpec(f"output_{i + 1}", b, Role.OUTPUT) for i in range(m)]
    return _build(schedule, plan, outputs)
