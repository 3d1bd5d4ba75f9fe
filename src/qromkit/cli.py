"""Command-line front end.

Exit codes: 0 success / verified, 1 I/O or parse failure, 2 invalid
parameters, unpaired temp-ANDs in a gate file or a circuit outside the
verifier's input contract, 3 verification failure. All
randomness is seeded (default 0) and every command writes byte-identical
output on identical invocations.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from .baselines import build_plain_qrom, build_selectswap_dirty
from .circuit import Role, check_temp_and_pairing, count_resources
from .costs import (
    _check_scan,
    cost_bit_packet,
    cost_prior_art,
    cost_uncompute,
    improvement_sweep,
    optimize_parameters,
    sweep_rows_to_csv,
)
from .gatefile import ParseError, _read_text, parse_circuit, serialize_circuit
from .qrom import build_qrom, plan_qrom
from .simulate import SimulationError, verify_qrom
from .tablefile import load_table_file

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARAMS = 2
EXIT_VERIFY = 3
MAX_SWEEP_ROWS = 1 << 20  # every N up to the paper's headline 2**20
SWEEP_BATCH = 4096  # N values per batch of rows that sweep makes and writes


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main``
    call in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qromkit",
        description="Synthesize, verify, and cost table-lookup circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="synthesize a circuit from a table file")
    p_build.add_argument("--table", required=True)
    p_build.add_argument("--lambda", dest="lam", type=int, required=True)
    p_build.add_argument("--mu", type=int, required=True)
    p_build.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="simulate a circuit against its table")
    p_verify.add_argument("--table", required=True)
    p_verify.add_argument("--lambda", dest="lam", type=int)
    p_verify.add_argument("--mu", type=int)
    p_verify.add_argument("--trials", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--baseline", choices=["selectswap", "plain"])
    p_verify.add_argument("--circuit", help="verify this gate-list file instead of rebuilding")

    p_est = sub.add_parser("estimate", help="closed-form cost comparison")
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--b", type=int, required=True)
    p_est.add_argument("--lambda", dest="lam", type=int)
    p_est.add_argument("--mu", type=int)
    p_est.add_argument("--budget", type=int)

    p_sweep = sub.add_parser("sweep", help="improvement-factor sweep to CSV")
    p_sweep.add_argument("--b", type=int, required=True)
    p_sweep.add_argument("--budget", type=int, required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAMS if exc.code else EXIT_OK
    handler = {
        "build": cmd_build,
        "verify": cmd_verify,
        "estimate": cmd_estimate,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def cmd_build(args) -> int:
    table = load_table_file(args.table)
    plan = plan_qrom(table.n_entries, table.bit_width, args.lam, args.mu)
    circuit = build_qrom(table, plan)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_circuit(circuit))
    estimate = count_resources(circuit)
    by_role = {role: 0 for role in Role}
    for reg in circuit.registers:
        by_role[reg.role] += reg.size
    print(f"toffoli={estimate.toffoli}")
    print(f"temp_and={estimate.temp_and}")
    print(f"cnot={estimate.cnot}")
    print(f"x={estimate.x}")
    print(f"address_qubits={by_role[Role.ADDRESS_Q] + by_role[Role.ADDRESS_R]}")
    print(f"output_qubits={by_role[Role.OUTPUT]}")
    print(f"dirty_qubits={estimate.dirty_qubits}")
    print(f"work_qubits={by_role[Role.WORK] + by_role[Role.TEMP]}")
    print(f"clean_qubits={estimate.clean_qubits}")
    print(f"total_qubits={estimate.total_qubits}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # A flag the chosen circuit source would ignore is an error, not a no-op.
    flags = {"--lambda": args.lam, "--mu": args.mu, "--baseline": args.baseline}
    if args.circuit:
        source, unused = "--circuit", flags
    elif args.baseline:
        source = f"--baseline {args.baseline}"
        unused = ["--mu"] if args.baseline == "selectswap" else ["--lambda", "--mu"]
    else:
        source, unused = "", []
    ignored = [flag for flag in unused if flags[flag] is not None]
    if ignored:
        raise ValueError(f"{source} cannot be combined with {', '.join(ignored)}")
    table = load_table_file(args.table)
    plan = None
    if args.circuit:
        circuit = parse_circuit(_read_text(args.circuit))
        check_temp_and_pairing(circuit)
    elif args.baseline == "plain":
        circuit = build_plain_qrom(table)
    elif args.baseline == "selectswap":
        if args.lam is None:
            raise ValueError("--baseline selectswap requires --lambda")
        circuit = build_selectswap_dirty(table, args.lam)
    else:
        if args.lam is None or args.mu is None:
            raise ValueError("verify requires --lambda and --mu (or --baseline/--circuit)")
        plan = plan_qrom(table.n_entries, table.bit_width, args.lam, args.mu)
        circuit = build_qrom(table, plan)
    report = verify_qrom(circuit, table, plan, dirty_trials=args.trials, seed=args.seed)
    print(f"cases_run={report.cases_run}")
    print(f"failures={len(report.failures)}")
    if report.failures:
        first = report.failures[0]
        print(
            f"first_failure: x={first.x} dirty={first.dirty_pattern:#x} "
            f"output={first.observed_output:#x} diagnostics={first.diagnostics}"
        )
        return EXIT_VERIFY
    return EXIT_OK


def _format_cost_row(cost) -> str:
    return (
        f"{cost.formula_id:<22} {cost.toffoli_total:>12} {cost.select_toffoli:>12} "
        f"{cost.copy_toffoli:>12} {cost.dirty_qubits:>10} {cost.clean_work_qubits:>10}"
    )


def cmd_estimate(args) -> int:
    n, b = args.n, args.b
    if n < 1 or b < 1:
        raise ValueError("--n and --b must be >= 1")
    if args.budget is not None and args.budget < 0:
        raise ValueError("--budget must be >= 0")
    if args.lam is None and args.mu is not None:
        raise ValueError("--mu requires --lambda")
    if args.lam is None and args.budget is None:
        raise ValueError("estimate needs --lambda/--mu or --budget")

    # Every row is computed before anything is printed, so a rejected
    # parameter leaves stdout empty.
    rows = []
    if args.lam is not None:
        lam = args.lam
        if args.mu is not None:
            rows.append(cost_bit_packet(n, b, lam, args.mu))
        rows.append(dataclasses.replace(cost_bit_packet(n, b, lam, b), formula_id="select_copy"))
        rows.append(cost_prior_art("berry", n, b, lam))
        rows.append(cost_prior_art("low_dirty", n, b, lam))
        rows.append(cost_prior_art("low_clean", n, b, lam))
        rows.append(cost_uncompute("select_copy", n, lam))
        rows.append(cost_uncompute("prior", n, lam))
    rows.append(cost_prior_art("plain", n, b))
    lines = [
        f"{'method':<22} {'toffoli':>12} {'select':>12} {'copy':>12} "
        f"{'dirty':>10} {'clean_work':>10}"
    ]
    lines += [_format_cost_row(cost) for cost in rows]

    if args.budget is not None:
        result = optimize_parameters(n, b, args.budget)
        if result.feasible:
            lines.append(
                f"optimal: lambda={result.lam} mu={result.mu} "
                f"toffoli={result.cost.toffoli_total} dirty={result.cost.dirty_qubits}"
            )
        else:
            lines.append(
                f"optimal: infeasible budget={args.budget}; "
                f"plain fallback toffoli={result.cost.toffoli_total}"
            )
    print("\n".join(lines))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.b < 1:
        raise ValueError("--b must be >= 1")
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    _check_scan(args.b, args.budget)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if not 1 <= args.n_min <= args.n_max:
        raise ValueError("need 1 <= --n-min <= --n-max")
    # The grid is spaced in floating point. Below 2**42 every N is a float, the
    # last point is within n_max * 2**-52 < 1/2 of n_max, and _sweep_grid's dense
    # range reaches n_max unless points are sparser than N, so rows run from n_min
    # to n_max in time that follows them. The point count is a float below 2**1023.
    for flag, n, bits in (("--n-min", args.n_min, 42), ("--n-max", args.n_max, 42),
                          ("--points", args.points, 1023)):
        if n >= 2**bits:
            raise ValueError(f"{flag} must be < 2**{bits}")
    if args.points == 1:
        n_values = [args.n_min]
    else:
        n_values = sorted(_sweep_grid(args.n_min, args.n_max, args.points))
    # Rows are made and written a batch at a time, so memory stays flat.
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(sweep_rows_to_csv([]))
        for start in range(0, len(n_values), SWEEP_BATCH):
            rows = improvement_sweep(args.b, args.budget, n_values[start:start + SWEEP_BATCH])
            handle.write(sweep_rows_to_csv(rows, header=False))
    print(f"rows={len(n_values)}")
    return EXIT_OK


def _sweep_grid(n_min: int, n_max: int, points: int) -> set[int]:
    """The distinct N among ``points`` >= 2 log-spaced grid points from
    ``n_min`` to ``n_max``, each evaluated as if all were listed.

    Below ``dense``, exact points are under 1/2 apart and computed ones off
    by under 1/8, so consecutive points round at most 1 apart. The points
    before ``start`` are below ``dense`` and the first is exactly ``n_min``
    (< 2**46), so they round to every integer from ``n_min`` to some M. The
    tail stays in that regime up to M + 1 and ends within a few ulps of
    ``n_max``, so it takes every integer from its least N to M. The range
    and the tail are counted before either is built.
    """
    ratio, last = n_max / n_min, points - 1
    if ratio == 1:  # every point is the float n_min
        return {round(n_min * ratio)}
    # A computed point is off by a factor of at most 1 +- slack, which also
    # bounds the log below; scale is shrunk past its own rounding.
    slack = (16 + 4 * math.log(ratio)) * 2**-53
    scale = last / math.log(ratio) * (1 - 2**-50)
    dense = min(scale / 2, 0.125 / slack)
    start = 0
    if dense > n_min:  # else points are sparse or coarser than floats: list all
        # Two indices before the first whose exact point could reach dense.
        reach = scale * (math.log1p((dense - n_min) / n_min) - 2 * slack)
        if reach >= last:  # scale may be inf: compare before rounding
            start = last
        elif reach > 2:  # false for -inf or nan, from inf * (<= 0)
            start = math.ceil(reach) - 2
    rows = points - start + (round(n_min * ratio ** (start / last)) - n_min if start else 0)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"the grid holds up to {rows} N values; sweep writes at most "
                         f"{MAX_SWEEP_ROWS} rows")
    tail = {round(n_min * ratio ** (i / last)) for i in range(start, points)}
    if start:
        tail.update(range(n_min, min(tail)))
    return tail


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
