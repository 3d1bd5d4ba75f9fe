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
import sys

from .baselines import build_plain_qrom, build_selectswap_dirty
from .circuit import Role, check_temp_and_pairing, count_resources
from .costs import (
    cost_bit_packet,
    cost_prior_art,
    cost_uncompute,
    improvement_sweep,
    optimize_parameters,
    sweep_rows_to_csv,
)
from .gatefile import ParseError, parse_circuit, serialize_circuit
from .qrom import build_qrom, plan_qrom
from .simulate import SimulationError, verify_qrom
from .tablefile import load_table_file

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARAMS = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
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
    table = load_table_file(args.table)
    plan = None
    if args.circuit:
        with open(args.circuit, "r", encoding="utf-8") as handle:
            circuit = parse_circuit(handle.read())
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
    if (args.lam is None) != (args.mu is None) and args.lam is None:
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
                f"optimal: infeasible budget={args.budget}; plain fallback toffoli={n - 1}"
            )
    print("\n".join(lines))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if not 1 <= args.n_min <= args.n_max:
        raise ValueError("need 1 <= --n-min <= --n-max")
    if args.points == 1:
        n_values = [args.n_min]
    else:
        ratio = args.n_max / args.n_min
        raw = [
            round(args.n_min * ratio ** (i / (args.points - 1)))
            for i in range(args.points)
        ]
        n_values = sorted(set(raw))
    rows = improvement_sweep(args.b, args.budget, n_values)
    csv_text = sweep_rows_to_csv(rows)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(csv_text)
    print(f"rows={len(rows)}")
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
