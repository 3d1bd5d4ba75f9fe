"""Closed-form Toffoli and qubit costs, parameter optimization, and sweeps.

Formula evaluation is pure; sweeps over address-count grids are independent
per grid point. Divisions by the block depth are rounded up, which matches
the circuit builders exactly and reduces to the familiar expressions for
power-of-two sizes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .qrom import ceil_div, ceil_log2, is_power_of_two, work_size

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


def _check_lam(n: int, lam: int) -> None:
    if not is_power_of_two(lam) or not 1 < lam < n:
        raise ValueError(f"lam = {lam} violates 1 < lam < N = {n} (power of 2)")


def cost_bit_packet(n: int, b: int, lam: int, mu: int) -> CostBreakdown:
    """Packeted select-and-copy lookup:
    (ceil(b/mu)+1)(ceil(N/lam)+lam-3) + (lam-1)(mu(b//mu + 1) + b mod mu)."""
    _check_lam(n, lam)
    if not 1 <= mu <= b:
        raise ValueError(f"mu = {mu} violates 1 <= mu <= b = {b}")
    rounds = ceil_div(b, mu) + 1
    select = rounds * (ceil_div(n, lam) + lam - 3)
    copy = (lam - 1) * (mu * (b // mu + 1) + b % mu)
    return CostBreakdown(
        formula_id="bit_packet",
        toffoli_total=select + copy,
        select_toffoli=select,
        copy_toffoli=copy,
        dirty_qubits=mu * (lam - 1),
        clean_work_qubits=work_size(ceil_div(n, lam), lam),
        output_qubits=b,
    )


def cost_power2_packet(n: int, b: int, lam: int, alpha: int) -> CostBreakdown:
    """Power-of-two form (1+1/alpha)N/lam + (b+b/alpha)(alpha*lam-1)
    + (alpha+1)(alpha*lam-3); alpha rounds of b/alpha bits at depth
    alpha*lam. Equals cost_bit_packet(n, b, alpha*lam, b/alpha) exactly."""
    for name, value in (("N", n), ("b", b), ("lam", lam), ("alpha", alpha)):
        if not is_power_of_two(value):
            raise ValueError(f"{name} = {value} is not a power of 2")
    if alpha > b:
        raise ValueError(f"alpha = {alpha} exceeds b = {b}")
    depth = alpha * lam
    if not 1 < depth < n:
        raise ValueError(f"alpha*lam = {depth} violates 1 < alpha*lam < N = {n}")
    select = (alpha + 1) * (n // depth) + (alpha + 1) * (depth - 3)
    copy = (b + b // alpha) * (depth - 1)
    return CostBreakdown(
        formula_id="power2_packet",
        toffoli_total=select + copy,
        select_toffoli=select,
        copy_toffoli=copy,
        dirty_qubits=(b // alpha) * (depth - 1),
        clean_work_qubits=work_size(ceil_div(n, depth), depth),
        output_qubits=b,
    )


def cost_sequential_fresh(n: int, b: int, lam: int, m: int) -> CostBreakdown:
    """m back-to-back lookups into fresh outputs:
    (m+1)(ceil(N/lam) + b(lam-1) + lam - 3). m = 0 is the degenerate
    single-load bound, not a physical circuit."""
    _check_lam(n, lam)
    if m < 0:
        raise ValueError("m must be >= 0")
    select = (m + 1) * (ceil_div(n, lam) + lam - 3)
    copy = (m + 1) * b * (lam - 1)
    return CostBreakdown(
        formula_id="sequential_fresh",
        toffoli_total=select + copy,
        select_toffoli=select,
        copy_toffoli=copy,
        dirty_qubits=b * (lam - 1),
        clean_work_qubits=work_size(ceil_div(n, lam), lam),
        output_qubits=m * b,
    )


def cost_sequential_inplace(n: int, b: int, lam: int, m: int) -> CostBreakdown:
    """m back-to-back lookups rewriting one output register, with a cached
    borrow mask: (m+1)ceil(N/lam) + (m+2)(b(lam-1) + lam - 3)."""
    _check_lam(n, lam)
    if m < 0:
        raise ValueError("m must be >= 0")
    select = (m + 1) * ceil_div(n, lam) + (m + 2) * (lam - 3)
    copy = (m + 2) * b * (lam - 1)
    return CostBreakdown(
        formula_id="sequential_inplace",
        toffoli_total=select + copy,
        select_toffoli=select,
        copy_toffoli=copy,
        dirty_qubits=b * (lam - 1),
        clean_work_qubits=work_size(ceil_div(n, lam), lam),
        output_qubits=b,
    )


def cost_prior_art(kind: str, n: int, b: int, lam: int | None = None) -> CostBreakdown:
    """Published headline costs of earlier constructions.

    plain: N - 1 (no ancilla). low_clean: N/lam + b*lam with b(lam-1) clean.
    low_dirty: 2N/lam + 4b*lam with b*lam dirty. berry: 2N/lam + 4b(lam-1)
    with b(lam-1) dirty. Divisions round up.
    """
    if kind == "plain":
        return CostBreakdown(
            formula_id="plain",
            toffoli_total=n - 1,
            select_toffoli=n - 1,
            copy_toffoli=0,
            dirty_qubits=0,
            clean_work_qubits=ceil_log2(n),
            output_qubits=b,
        )
    if kind not in PRIOR_ART_KINDS:
        raise ValueError(f"unknown prior-art kind {kind!r}")
    if lam is None:
        raise ValueError(f"kind {kind!r} requires lam")
    _check_lam(n, lam)
    blocks = ceil_div(n, lam)
    if kind == "low_clean":
        select, copy = blocks, b * lam
        dirty, clean = 0, b * (lam - 1)
    elif kind == "low_dirty":
        select, copy = 2 * blocks, 4 * b * lam
        dirty, clean = b * lam, 0
    else:  # berry
        select, copy = 2 * blocks, 4 * b * (lam - 1)
        dirty, clean = b * (lam - 1), 0
    return CostBreakdown(
        formula_id=kind,
        toffoli_total=select + copy,
        select_toffoli=select,
        copy_toffoli=copy,
        dirty_qubits=dirty,
        clean_work_qubits=clean,
        output_qubits=b,
    )


def cost_uncompute(kind: str, n: int, lam_prime: int) -> CostBreakdown:
    """Measurement-based uncomputation of a lookup.

    select_copy: 2*ceil(N/lam') + 2*lam' - 6; prior: 2*ceil(N/lam') + 4*lam'.
    Both borrow lam' - 1 qubits. Formula-level evaluation: any integer depth
    in (1, N) is accepted, with divisions rounding up.
    """
    if kind not in UNCOMPUTE_KINDS:
        raise ValueError(f"unknown uncompute kind {kind!r}")
    if not 1 < lam_prime < n:
        raise ValueError(f"lam' = {lam_prime} violates 1 < lam' < N = {n}")
    blocks = ceil_div(n, lam_prime)
    if kind == "select_copy":
        total = 2 * blocks + 2 * lam_prime - 6
        select = 2 * (blocks + lam_prime - 3)
    else:
        total = 2 * blocks + 4 * lam_prime
        select = total
    return CostBreakdown(
        formula_id=f"uncompute_{kind}",
        toffoli_total=total,
        select_toffoli=select,
        copy_toffoli=total - select,
        dirty_qubits=lam_prime - 1,
        clean_work_qubits=0,
        output_qubits=0,
    )


def _check_budget_point(n: int, b: int, dirty_budget: int) -> None:
    if n < 1 or b < 1:
        raise ValueError(f"N = {n} and b = {b} must both be >= 1")
    if dirty_budget < 0:
        raise ValueError(f"dirty budget = {dirty_budget} must be >= 0")


def _plain_fallback(n: int, b: int) -> CostBreakdown:
    return cost_prior_art("plain", n, b)


def optimize_parameters(n: int, b: int, dirty_budget: int) -> OptimizationResult:
    """Exhaustively minimize cost_bit_packet under a dirty-qubit budget.

    Searches every power-of-two lam in (1, N) and every mu in [1, b] with
    mu*(lam-1) <= dirty_budget; ties break toward smaller lam, then smaller
    mu. With no feasible point the result falls back to the plain N - 1
    lookup and is flagged infeasible. Raises ValueError for N < 1, b < 1 or
    a negative budget; a budget of 0 is valid and infeasible.
    """
    _check_budget_point(n, b, dirty_budget)
    best: tuple[int, int, CostBreakdown] | None = None
    lam = 2
    while lam < n:
        mu_cap = min(b, dirty_budget // (lam - 1)) if dirty_budget else 0
        for mu in range(1, mu_cap + 1):
            cost = cost_bit_packet(n, b, lam, mu)
            if best is None or cost.toffoli_total < best[2].toffoli_total:
                best = (lam, mu, cost)
        lam *= 2
    if best is None:
        return OptimizationResult(lam=None, mu=None, cost=_plain_fallback(n, b), feasible=False)
    return OptimizationResult(lam=best[0], mu=best[1], cost=best[2], feasible=True)


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


def _best_over_lam(n: int, budget_ok, cost_of) -> int | None:
    best = None
    lam = 2
    while lam < n:
        if budget_ok(lam):
            value = cost_of(lam)
            if best is None or value < best:
                best = value
        lam *= 2
    return best


def improvement_sweep(b: int, dirty_budget: int, n_values: list[int]) -> list[SweepRow]:
    """Compare the previous best dirty-ancilla cost against this package's
    optimum at equal budget, per address count.

    Columns: the prior headline optimum, the full-width (mu = b) and
    single-bit (mu = 1) optima, the overall optimum with its parameters, and
    the improvement ratio. Infeasible columns fall back to the plain N - 1
    count. Raises ValueError for any N < 1, b < 1 or a negative budget.
    """
    _check_budget_point(min(n_values, default=1), b, dirty_budget)
    rows = []
    for n in n_values:
        berry = _best_over_lam(
            n,
            lambda lam: b * (lam - 1) <= dirty_budget,
            lambda lam: cost_prior_art("berry", n, b, lam).toffoli_total,
        )
        alpha1 = _best_over_lam(
            n,
            lambda lam: b * (lam - 1) <= dirty_budget,
            lambda lam: cost_bit_packet(n, b, lam, b).toffoli_total,
        )
        alphab = _best_over_lam(
            n,
            lambda lam: (lam - 1) <= dirty_budget,
            lambda lam: cost_bit_packet(n, b, lam, 1).toffoli_total,
        )
        result = optimize_parameters(n, b, dirty_budget)
        fallback = n - 1
        berry_v = berry if berry is not None else fallback
        best_v = result.cost.toffoli_total
        rows.append(
            SweepRow(
                n=n,
                berry=berry_v,
                alpha1=alpha1 if alpha1 is not None else fallback,
                alphab=alphab if alphab is not None else fallback,
                best=best_v,
                lam=result.lam or 0,
                mu=result.mu or 0,
                # A single-entry table costs nothing either way.
                improvement=berry_v / best_v if best_v else 1.0,
            )
        )
    return rows


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.n},{row.berry},{row.alpha1},{row.alphab},{row.best},"
            f"{row.lam},{row.mu},{row.improvement:.6f}"
        )
    return "\n".join(lines) + "\n"
