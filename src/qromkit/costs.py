"""Closed-form Toffoli and qubit costs, parameter optimization, and sweeps.

Formula evaluation is pure; sweeps over address-count grids are independent
per grid point. Divisions by the block depth are rounded up, which matches
the circuit builders exactly and reduces to the familiar expressions for
power-of-two sizes. Every row indexed by a block depth lam validates it and
reads its layout (block count, packets, borrowed and work qubits) from
``plan_qrom``, the plan the builders use. The circuit-backed rows of the
Select/Copy/restore engine share one stage count, ``_stage_toffolis``, which
the optimizer also scans.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from math import inf, isqrt

from .qrom import QromPlan, ceil_div, is_power_of_two, plan_qrom, work_size

__all__ = [
    "CostBreakdown",
    "OptimizationResult",
    "SweepRow",
    "cost_bit_packet",
    "cost_power2_packet",
    "cost_sequential_fresh",
    "cost_sequential_inplace",
    "cost_prior_art",
    "cost_uncompute",
    "optimize_parameters",
    "improvement_sweep",
    "sweep_rows_to_csv",
    "CSV_HEADER",
]

PRIOR_ART_KINDS = ("plain", "low_clean", "low_dirty", "berry")
UNCOMPUTE_KINDS = ("prior", "select_copy")

# Most points the optimizer may scan at one depth lam: one per packet count
# ceil(b/mu) with mu <= min(b, budget // (lam-1)), so at most that many and at
# most 2*isqrt(b) + 1 (isqrt(b) counts from mu <= isqrt(b), isqrt(b) + 1 from
# the rest). Depth 2 allows the most. The cap admits any b below 2**30, and
# any b at a budget of 2**16 or less.
MAX_SCAN_POINTS = 1 << 16


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Toffoli total split into iteration (select) and copy shares, plus the
    ancilla footprint of the construction."""

    formula_id: str
    toffoli_total: int
    select_toffoli: int
    copy_toffoli: int
    dirty_qubits: int
    clean_work_qubits: int
    output_qubits: int


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    lam: int | None
    mu: int | None
    cost: CostBreakdown
    feasible: bool


def _row(
    formula_id: str, select: int, copy: int, dirty: int, clean: int, output: int
) -> CostBreakdown:
    """The one place a cost row is made: the total is select + copy."""
    return CostBreakdown(
        formula_id=formula_id,
        toffoli_total=select + copy,
        select_toffoli=select,
        copy_toffoli=copy,
        dirty_qubits=dirty,
        clean_work_qubits=clean,
        output_qubits=output,
    )


def _stage_toffolis(n: int, lam: int, mu: int, stages: int, copied: int) -> tuple[int, int]:
    """Select and copy Toffolis of ``stages`` Select/Copy pairs plus one
    restore, the run ``qrom._run_stages`` emits.

    Each of the stages + 1 passes pays the ceil(N/lam) - 1 q-iteration and
    the lam - 2 r-iteration scaffold; the Copies move ``copied`` output bits
    and the restore's temp-ANDs mu bits, each lam - 1 times.
    """
    return (stages + 1) * (ceil_div(n, lam) + lam - 3), (lam - 1) * (copied + mu)


def _select_copy(formula_id: str, plan: QromPlan, stages: int, outputs: int) -> CostBreakdown:
    """Row of a stage run over ``plan`` that writes ``outputs`` bits, each
    copied once."""
    select, copy = _stage_toffolis(plan.n_entries, plan.lam, plan.mu, stages, outputs)
    return _row(formula_id, select, copy, plan.dirty_qubits, plan.work_qubits, outputs)


def cost_bit_packet(n: int, b: int, lam: int, mu: int) -> CostBreakdown:
    """Packeted select-and-copy lookup:
    (ceil(b/mu)+1)(ceil(N/lam)+lam-3) + (lam-1)(b+mu)."""
    plan = plan_qrom(n, b, lam, mu)
    return _select_copy("bit_packet", plan, plan.num_packets, b)


def cost_power2_packet(n: int, b: int, lam: int, alpha: int) -> CostBreakdown:
    """Power-of-two form (1+1/alpha)N/lam + (b+b/alpha)(alpha*lam-1)
    + (alpha+1)(alpha*lam-3); alpha rounds of b/alpha bits at depth
    alpha*lam. Exactly cost_bit_packet(n, b, alpha*lam, b/alpha), which is
    returned under its own label."""
    for name, value in (("N", n), ("b", b), ("alpha", alpha)):
        if not is_power_of_two(value):
            raise ValueError(f"{name} = {value} is not a power of 2")
    if alpha > b:
        raise ValueError(f"alpha = {alpha} exceeds b = {b}")
    return replace(cost_bit_packet(n, b, alpha * lam, b // alpha), formula_id="power2_packet")


def cost_sequential_fresh(n: int, b: int, lam: int, m: int) -> CostBreakdown:
    """m back-to-back lookups into fresh outputs:
    (m+1)(ceil(N/lam) + b(lam-1) + lam - 3), the ``cost_bit_packet`` row of
    the m*b-bit lookup at mu = b that ``build_sequential_qroms`` builds. m = 0
    is the degenerate single-load bound, not a physical circuit."""
    plan = plan_qrom(n, b, lam, b)
    if m < 0:
        raise ValueError("m must be >= 0")
    return _select_copy("sequential_fresh", plan, m, m * b)


def cost_sequential_inplace(n: int, b: int, lam: int, m: int) -> CostBreakdown:
    """m back-to-back lookups rewriting one output register, with a cached
    borrow mask: (m+1)ceil(N/lam) + (m+2)(b(lam-1) + lam - 3)."""
    plan = plan_qrom(n, b, lam, b)
    if m < 0:
        raise ValueError("m must be >= 0")
    select = (m + 1) * plan.q_range + (m + 2) * (lam - 3)
    copy = (m + 2) * b * (lam - 1)
    return _row("sequential_inplace", select, copy, plan.dirty_qubits, plan.work_qubits, b)


def cost_prior_art(kind: str, n: int, b: int, lam: int | None = None) -> CostBreakdown:
    """Published headline costs of earlier constructions.

    plain: N - 1, with the work register of ``build_plain_qrom``.
    low_clean: N/lam + b*lam with b(lam-1) clean. low_dirty: 2N/lam + 4b*lam
    with b*lam dirty. berry: 2N/lam + 4b(lam-1) with b(lam-1) dirty, the
    borrowed register of ``build_selectswap_dirty``. Divisions round up.
    """
    if kind == "plain":
        if n < 1 or b < 1:
            raise ValueError("table dimensions must be positive")
        return _row("plain", n - 1, 0, 0, work_size(n, 1), b)
    if kind not in PRIOR_ART_KINDS:
        raise ValueError(f"unknown prior-art kind {kind!r}")
    if lam is None:
        raise ValueError(f"kind {kind!r} requires lam")
    plan = plan_qrom(n, b, lam, b)
    blocks = plan.q_range
    if kind == "low_clean":
        select, copy = blocks, b * lam
        dirty, clean = 0, b * (lam - 1)
    elif kind == "low_dirty":
        select, copy = 2 * blocks, 4 * b * lam
        dirty, clean = b * lam, 0
    else:  # berry
        select, copy = 2 * blocks, 4 * b * (lam - 1)
        dirty, clean = plan.dirty_qubits, 0
    return _row(kind, select, copy, dirty, clean, b)


def cost_uncompute(kind: str, n: int, lam_prime: int) -> CostBreakdown:
    """Measurement-based uncomputation of a lookup.

    select_copy: 2*ceil(N/lam') + 2*lam' - 6; prior: 2*ceil(N/lam') + 4*lam'.
    Both borrow lam' - 1 qubits and are all select. Formula-level
    evaluation: any integer depth in (1, N) is accepted, with divisions
    rounding up.
    """
    if kind not in UNCOMPUTE_KINDS:
        raise ValueError(f"unknown uncompute kind {kind!r}")
    if not 1 < lam_prime < n:
        raise ValueError(f"lam' = {lam_prime} violates 1 < lam' < N = {n}")
    blocks = ceil_div(n, lam_prime)
    if kind == "select_copy":
        select = 2 * blocks + 2 * lam_prime - 6
    else:
        select = 2 * blocks + 4 * lam_prime
    return _row(f"uncompute_{kind}", select, 0, lam_prime - 1, 0, 0)


def _check_budget_point(n: int, b: int, dirty_budget: int) -> None:
    if n < 1 or b < 1:
        raise ValueError(f"N = {n} and b = {b} must both be >= 1")
    if dirty_budget < 0:
        raise ValueError(f"dirty budget = {dirty_budget} must be >= 0")
    _check_scan(b, dirty_budget)


def _check_scan(b: int, dirty_budget: int) -> None:
    """Raise ValueError when the scan may pass ``MAX_SCAN_POINTS`` at depth 2."""
    points = min(b, dirty_budget, 2 * isqrt(b) + 1)
    if points > MAX_SCAN_POINTS:
        raise ValueError(
            f"b = {b} at dirty budget {dirty_budget} may scan {points} points per depth, "
            f"more than the {MAX_SCAN_POINTS} the optimizer allows"
        )


def _feasible_points(n: int, b: int, dirty_budget: int) -> Iterator[tuple[int, int, int]]:
    """(toffoli, lam, mu) of the bit-packet points within the budget that
    can be optimal: power-of-two lam in (1, N) and, of the mu in [1, b] with
    mu*(lam-1) <= budget, the least of each packet count ceil(b/mu), since
    at one packet count each unit of mu costs lam - 1 more Toffolis. That is
    about 2*sqrt(b) points per lam (see ``MAX_SCAN_POINTS``), mu = 1 and
    mu = b among them; lam then mu ascend, so ``min`` breaks ties toward
    smaller lam, then smaller mu."""
    lam = 2
    while lam < n and lam - 1 <= dirty_budget:
        mu, top = 1, min(b, dirty_budget // (lam - 1))
        while mu <= top:
            packets = ceil_div(b, mu)
            select, copy = _stage_toffolis(n, lam, mu, packets, b)
            yield select + copy, lam, mu
            mu = ceil_div(b, packets - 1) if packets > 1 else b + 1  # next packet count
        lam *= 2


def optimize_parameters(n: int, b: int, dirty_budget: int) -> OptimizationResult:
    """Exactly minimize cost_bit_packet under a dirty-qubit budget.

    Covers every power-of-two lam in (1, N) and every mu in [1, b] with
    mu*(lam-1) <= dirty_budget, scanning only the points that can win (see
    ``_feasible_points``); ties break toward smaller lam, then smaller mu.
    With no feasible point the result falls back to the plain N - 1
    lookup and is flagged infeasible. Raises ValueError for N < 1, b < 1, a
    negative budget or a scan past ``MAX_SCAN_POINTS``; a budget of 0 is
    valid and infeasible.
    """
    _check_budget_point(n, b, dirty_budget)
    best = min(_feasible_points(n, b, dirty_budget), default=None)
    if best is None:
        return OptimizationResult(None, None, cost_prior_art("plain", n, b), feasible=False)
    _, lam, mu = best
    return OptimizationResult(lam, mu, cost_bit_packet(n, b, lam, mu), feasible=True)


@dataclass(frozen=True, slots=True)
class SweepRow:
    n: int
    berry: int
    alpha1: int
    alphab: int
    best: int
    lam: int
    mu: int
    improvement: float


CSV_HEADER = "N,berry,alpha1,alphab,best,lambda,mu,improvement"


def improvement_sweep(b: int, dirty_budget: int, n_values: list[int]) -> list[SweepRow]:
    """Compare the previous best dirty-ancilla cost against this package's
    optimum at equal budget, per address count.

    Columns: the prior headline optimum, the full-width (mu = b) and
    single-bit (mu = 1) optima, the overall optimum with its parameters, and
    the improvement ratio. Infeasible columns fall back to the plain N - 1
    count. Raises ValueError as ``optimize_parameters`` does, for any N.
    """
    _check_budget_point(min(n_values, default=1), b, dirty_budget)
    rows = []
    for n in n_values:
        # One pass over the points; ``min`` keeps the first of equal points,
        # so ties go to smaller lam, then smaller mu. The prior art borrows
        # b(lam-1) qubits, so it fits the budget at exactly the depths of the
        # mu = b points.
        best, berry, alpha1, alphab = (inf,), inf, inf, inf
        for point in _feasible_points(n, b, dirty_budget):
            toffoli, lam, mu = point
            best = min(best, point)
            if mu == 1:
                alphab = min(alphab, toffoli)
            if mu == b:
                alpha1 = min(alpha1, toffoli)
                berry = min(berry, cost_prior_art("berry", n, b, lam).toffoli_total)
        # Infeasible columns fall back to the plain N - 1 count.
        plain = cost_prior_art("plain", n, b).toffoli_total
        berry, alpha1, alphab = (plain if v == inf else v for v in (berry, alpha1, alphab))
        if best[0] == inf:
            best = (plain, 0, 0)
        rows.append(
            SweepRow(
                n=n,
                berry=berry,
                alpha1=alpha1,
                alphab=alphab,
                best=best[0],
                lam=best[1],
                mu=best[2],
                # A single-entry table costs nothing either way.
                improvement=berry / best[0] if best[0] else 1.0,
            )
        )
    return rows


def sweep_rows_to_csv(rows: list[SweepRow], header: bool = True) -> str:
    """CSV text of ``rows``, one line each, after the ``CSV_HEADER`` line
    unless ``header`` is false."""
    lines = [CSV_HEADER] if header else []
    for row in rows:
        lines.append(
            f"{row.n},{row.berry},{row.alpha1},{row.alphab},{row.best},"
            f"{row.lam},{row.mu},{row.improvement:.6f}"
        )
    return "".join(line + "\n" for line in lines)
