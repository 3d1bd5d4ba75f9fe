"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them)."""
import random
import time

import pytest

from qromkit import (
    LookupTable,
    SequentialSpec,
    build_qrom,
    build_selectswap_dirty,
    build_sequential_qroms,
    check_temp_and_pairing,
    cost_bit_packet,
    cost_power2_packet,
    cost_prior_art,
    cost_uncompute,
    count_resources,
    format_table,
    improvement_sweep,
    optimize_parameters,
    parse_circuit,
    plan_qrom,
    serialize_circuit,
    verify_qrom,
)
from qromkit.cli import main as cli_main
from qromkit.qrom import ceil_div, ceil_log2
from helpers import random_table

N_VALUES = (8, 12, 16, 33, 64, 100, 256)
B_VALUES = (1, 2, 3, 5, 8, 16)
LAM_VALUES = (2, 4, 8)


def grid():
    for n in N_VALUES:
        for b in B_VALUES:
            for lam in LAM_VALUES:
                if lam >= n:
                    continue
                for mu in range(1, b + 1):
                    yield n, b, lam, mu


def report(number, description, ok):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_exact_toffoli_counts():
    start = time.perf_counter()
    mismatches = []
    for n, b, lam, mu in grid():
        table = random_table(n, b, seed=n * 1000 + b * 10 + lam + mu)
        circuit = build_qrom(table, plan_qrom(n, b, lam, mu))
        got = count_resources(circuit).toffoli
        want = cost_bit_packet(n, b, lam, mu).toffoli_total
        if got != want:
            mismatches.append((n, b, lam, mu, got, want))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60
    report(1, f"circuit Toffoli count equals closed form on all grid points ({elapsed:.1f}s)", ok)


def test_criterion_2_full_width_formula():
    bad = []
    for n in N_VALUES:
        for b in B_VALUES:
            for lam in LAM_VALUES:
                if lam >= n:
                    continue
                table = random_table(n, b, seed=n + b + lam)
                got = count_resources(build_qrom(table, plan_qrom(n, b, lam, b))).toffoli
                want = 2 * ceil_div(n, lam) + 2 * b * (lam - 1) + 2 * lam - 6
                if got != want:
                    bad.append((n, b, lam, got, want))
    spot = count_resources(
        build_qrom(random_table(64, 8, seed=0), plan_qrom(64, 8, 4, 8))
    ).toffoli
    ok = not bad and spot == 82
    report(2, "full-width counts match 2*ceil(N/lam) + 2b(lam-1) + 2lam - 6 (spot 82)", ok)


def test_criterion_3_power2_identity():
    bad = []
    for n_exp in range(3, 13):
        n = 1 << n_exp
        for b in (1, 2, 4, 8, 16, 32, 64):
            for lam in (1, 2, 4, 8, 16):
                for alpha in (1, 2, 4, 8, 16, 32, 64):
                    if alpha > b or not 1 < alpha * lam < n:
                        continue
                    # The paper's power-of-two expression, written out.
                    depth = alpha * lam
                    select = (alpha + 1) * (n // depth + depth - 3)
                    paper = (select, (b + b // alpha) * (depth - 1))
                    for row in (cost_power2_packet(n, b, lam, alpha),
                                cost_bit_packet(n, b, depth, b // alpha)):
                        if (row.select_toffoli, row.copy_toffoli) != paper:
                            bad.append((n, b, lam, alpha, row.formula_id))
    report(3, "power-of-two packet formula equals the general formula exactly", not bad)


def test_criterion_4_functional_correctness():
    start = time.perf_counter()
    failing = []
    for n, b, lam, mu in grid():
        seed = n * 1000 + b * 10 + lam + mu
        table = random_table(n, b, seed=seed)
        plan = plan_qrom(n, b, lam, mu)
        rep = verify_qrom(build_qrom(table, plan), table, plan, dirty_trials=10, seed=seed)
        if not rep.passed:
            failing.append((n, b, lam, mu, rep.failures[0]))
    elapsed = time.perf_counter() - start
    ok = not failing and elapsed < 300
    report(4, f"exhaustive lookup/restore simulation, 10 dirty trials per x ({elapsed:.1f}s)", ok)


def test_criterion_5_qubit_accounting():
    bad = []
    extra_temp = []
    for n, b, lam, mu in grid():
        plan = plan_qrom(n, b, lam, mu)
        table = random_table(n, b, seed=b * 100 + lam)
        circuit = build_qrom(table, plan)
        if circuit.register("dirty").size != mu * (lam - 1):
            bad.append(("dirty", n, b, lam, mu))
        want_work = max(ceil_log2(ceil_div(n, lam)), lam.bit_length() - 1)
        if circuit.register("work").size != want_work:
            bad.append(("work", n, b, lam, mu))
        if circuit.has_register("temp"):
            extra_temp.append((n, b, lam, mu))
    ok = not bad and not extra_temp
    report(
        5,
        "dirty = mu*(lam-1), work = max(ceil(log2(ceil(N/lam))), log2(lam)); "
        "restore temp-AND reused an idle work qubit in every case",
        ok,
    )


def test_criterion_6_sequential():
    bad = []
    for m in (1, 2, 3):
        for n in (16, 64):
            for b in (2, 4):
                for lam in (2, 4):
                    tables = tuple(random_table(n, b, seed=m * 100 + n + b + lam + i) for i in range(m))
                    circuit = build_sequential_qroms(SequentialSpec(tables, lam))
                    want = (m + 1) * (ceil_div(n, lam) + b * (lam - 1) + lam - 3)
                    if count_resources(circuit).toffoli != want:
                        bad.append(("count", m, n, b, lam))
                        continue
                    if not verify_qrom(circuit, tables, dirty_trials=4, seed=42).passed:
                        bad.append(("sim", m, n, b, lam))
    report(6, "sequential lookups: exact (m+1)-round count and simultaneous outputs", not bad)


def test_criterion_7_baseline_differential():
    bad = []
    for n in N_VALUES:
        for b in B_VALUES:
            for lam in LAM_VALUES:
                if lam >= n:
                    continue
                table = random_table(n, b, seed=3 * n + 7 * b + lam)
                swap = build_selectswap_dirty(table, lam)
                want = 2 * (ceil_div(n, lam) - 1) + 4 * b * (lam - 1)
                if count_resources(swap).toffoli != want:
                    bad.append(("count", n, b, lam))
                    continue
                rep = verify_qrom(swap, table, dirty_trials=3, seed=lam)
                if not rep.passed:
                    bad.append(("swap-sim", n, b, lam))
                    continue
                ours = build_qrom(table, plan_qrom(n, b, lam, b))
                rep2 = verify_qrom(ours, table, dirty_trials=3, seed=lam)
                if not rep2.passed:
                    bad.append(("qrom-sim", n, b, lam))
    report(
        7,
        "swap-network baseline: exact 2(ceil(N/lam)-1) + 4b(lam-1) count and "
        "identical lookup map to the packeted builder",
        not bad,
    )


def test_criterion_8_improvement_factors():
    start = time.perf_counter()
    row_a = improvement_sweep(8, 31, [2**20])[0]
    row_b = improvement_sweep(64, 255, [2**30])[0]
    elapsed = time.perf_counter() - start
    ok = (
        abs(row_a.improvement - 1.775) <= 0.005
        and abs(row_b.improvement - 1.969) <= 0.005
        and elapsed < 1.0
    )
    report(
        8,
        f"improvement factors {row_a.improvement:.4f} (target 1.775) and "
        f"{row_b.improvement:.4f} (target 1.969) in {elapsed * 1000:.0f} ms",
        ok,
    )


def _headline_circuit_round_trip(n, seed):
    # The paper's headline shape: b = 8 under 31 dirty qubits, built, written
    # to a gate file, read back and verified over every address.
    b = 8
    result = optimize_parameters(n, b, 31)
    assert (result.lam, result.mu) == (32, 1)
    table = random_table(n, b, seed=seed)
    plan = plan_qrom(n, b, result.lam, result.mu)
    circuit = build_qrom(table, plan)
    estimate = count_resources(circuit)
    assert estimate.toffoli == cost_bit_packet(n, b, 32, 1).toffoli_total
    assert estimate.dirty_qubits <= 31
    parsed = parse_circuit(serialize_circuit(circuit))
    assert parsed == circuit
    check_temp_and_pairing(parsed)
    rep = verify_qrom(parsed, table, plan, dirty_trials=1, seed=seed)
    assert rep.passed and rep.cases_run == n


def test_headline_point_circuit_verified():
    _headline_circuit_round_trip(1 << 16, seed=16)


@pytest.mark.slow
def test_headline_point_circuit_verified_n18():
    _headline_circuit_round_trip(1 << 18, seed=18)


@pytest.mark.slow
def test_headline_point_circuit_verified_n20():
    # The paper's headline point itself: 295,452 Toffolis.
    _headline_circuit_round_trip(1 << 20, seed=20)


def test_criterion_9_optimizer_matches_independent_search():
    def independent(n, b, budget):
        best = None
        lam = 2
        while lam < n:
            for mu in range(1, b + 1):
                if mu * (lam - 1) > budget:
                    continue
                alpha = -(-b // mu)
                cost = (alpha + 1) * (-(-n // lam) + lam - 3) + (lam - 1) * (
                    mu * (b // mu + 1) + b % mu
                )
                if best is None or cost < best[0]:
                    best = (cost, lam, mu)
            lam *= 2
        return best

    rng = random.Random(777)
    bad = []
    points = [
        (rng.randrange(4, 6000), rng.randrange(1, 24), rng.randrange(0, 256))
        for _ in range(200)
    ]
    for n, b, budget in points:
        first = optimize_parameters(n, b, budget)
        second = optimize_parameters(n, b, budget)
        if (first.lam, first.mu, first.cost) != (second.lam, second.mu, second.cost):
            bad.append(("nondeterministic", n, b, budget))
            continue
        want = independent(n, b, budget)
        if want is None:
            if first.feasible:
                bad.append(("feasibility", n, b, budget))
        elif (first.cost.toffoli_total, first.lam, first.mu) != want:
            bad.append((n, b, budget, want, (first.cost.toffoli_total, first.lam, first.mu)))
    report(9, "optimizer equals an independent exhaustive search on 200 random points", not bad)


def test_criterion_10_uncompute_formulas():
    bad = []
    for lam_prime in range(2, 257):
        n = 512
        ours = cost_uncompute("select_copy", n, lam_prime).toffoli_total
        prior = cost_uncompute("prior", n, lam_prime).toffoli_total
        if ours > prior:
            bad.append((n, lam_prime, ours, prior))
    spot_ok = (
        cost_uncompute("select_copy", 64, 8).toffoli_total == 26
        and cost_uncompute("prior", 64, 8).toffoli_total == 48
    )
    report(
        10,
        "uncompute cost never exceeds the prior formula for depths 2..256 (spot: 26 vs 48)",
        not bad and spot_ok,
    )


def test_criterion_11_cli_end_to_end(tmp_path):
    import contextlib
    import io

    samples = [
        (64, 8, 4, 2),
        (100, 5, 4, 2),
        (8, 1, 2, 1),
        (33, 3, 4, 3),
        (16, 16, 4, 16),
    ]

    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(args)
        return code, buf.getvalue()

    ok = True
    for i, (n, b, lam, mu) in enumerate(samples):
        table_path = tmp_path / f"t{i}.table"
        table_path.write_text(format_table(random_table(n, b, seed=90 + i)))
        circuit_path = tmp_path / f"c{i}.gates"
        args = ["build", "--table", str(table_path), "--lambda", str(lam), "--mu", str(mu),
                "--out", str(circuit_path)]
        code, out_first = run(args)
        ok = ok and code == 0
        first_bytes = circuit_path.read_bytes()
        code, out_second = run(args)
        ok = ok and code == 0 and out_first == out_second and circuit_path.read_bytes() == first_bytes
        code, _ = run(["verify", "--table", str(table_path), "--circuit", str(circuit_path),
                       "--trials", "4", "--seed", "0"])
        ok = ok and code == 0
    report(11, "build -> file -> verify pipeline on 5 tables, byte-identical reruns", ok)


def test_criterion_12_dirty_lookup_approaches_clean_qubit_cost():
    # Circuit vs published formula: the dirty side is optimize_parameters'
    # bit-packet row, whose circuits build_qrom builds and verifies; the
    # clean side is the published low_clean row, with no circuit here. With
    # B = 31 qubits either way and N >> B^2, the ratio falls toward
    # 1 + 1/b, the N/lam prefactor at packet width mu = 1.
    budget = 31
    expected = {
        4: (1.282, 1.252, 1.250),
        8: (1.156, 1.127, 1.125),
        16: (1.093, 1.064, 1.063),
    }
    lines, ok = [], True
    for b, targets in expected.items():
        limit = 1 + 1 / b
        ratios = []
        for n in (2**16, 2**20, 2**24):
            dirty = optimize_parameters(n, b, budget).cost.toffoli_total
            clean = min(
                cost_prior_art("low_clean", n, b, 2**k).toffoli_total
                for k in range(1, n.bit_length() - 1)
                if b * (2**k - 1) <= budget
            )
            ratios.append(dirty / clean)
        ok = ok and all(abs(r - t) <= 0.0005 for r, t in zip(ratios, targets))
        ok = ok and ratios[0] > ratios[1] > ratios[2] >= limit
        ok = ok and ratios[2] <= limit * 1.005
        lines.append(f"b={b}: " + " / ".join(f"{r:.3f}" for r in ratios) + f" -> {limit:.4f}")
    report(
        12,
        "circuit vs published formula: dirty bit-packet / clean low_clean Toffolis at "
        f"B={budget}, N=2^16/2^20/2^24 ({'; '.join(lines)})",
        ok,
    )


def test_criterion_13_per_mu_prefactor_approaches_one_plus_mu_over_b():
    # The abstract's N/lam prefactor: with D = mu(lam-1) dirty qubits and
    # lam = D/b, the bit-packet cost times D/(N b) falls toward 1 + mu/b,
    # from 1 + 1/b at mu = 1 to 2 at full-width packets (mu = b).
    b, lam = 8, 1024
    expected = {
        1: (3.3673, 1.2641, 1.1261),
        2: (4.9890, 1.4825, 1.2524),
        4: (8.9810, 1.9662, 1.5058),
        8: (19.9590, 3.1206, 2.0156),
    }
    sizes = (2**20, 2**24, 2**30)
    table, ok = {}, True
    for mu, targets in expected.items():
        dirty = mu * (lam - 1)
        table[mu] = [
            cost_bit_packet(n, b, lam, mu).toffoli_total * dirty / (n * b) for n in sizes
        ]
        limit = 1 + mu / b
        factors = table[mu]
        ok = ok and all(abs(f - t) <= 0.00005 for f, t in zip(factors, targets))
        ok = ok and factors[0] > factors[1] > factors[2] > limit * (1 - 1 / lam)
        ok = ok and abs(factors[2] - limit) <= 0.01 * limit
    for column in range(len(sizes)):
        ok = ok and all(table[mu][column] < table[2 * mu][column] for mu in (1, 2, 4))
    lines = [f"mu={mu}: " + " / ".join(f"{f:.4f}" for f in table[mu]) for mu in expected]
    report(
        13,
        f"per-mu N/lam prefactor at b={b}, lam={lam}, N=2^20/2^24/2^30 falls to 1 + mu/b "
        f"({'; '.join(lines)})",
        ok,
    )


@pytest.mark.slow
def test_criterion_13_prefactor_from_built_circuits():
    # Criterion 13 read off circuits: the all-zero table's lookup at
    # N=2^20 and N=2^22 for each mu. A table decides only which CNOTs a
    # lookup holds (test_table_decides_only_which_cnots_a_lookup_holds), so
    # this Toffoli count is every table's.
    b, lam = 8, 1024
    pinned_n20 = {1: 3.3673, 2: 4.9890, 4: 8.9810, 8: 19.9590}
    sizes = (2**20, 2**22)
    factors = {}
    for n in sizes:
        zeros = LookupTable((0,) * n, bit_width=b)
        for mu in pinned_n20:
            toffoli = count_resources(build_qrom(zeros, plan_qrom(n, b, lam, mu))).toffoli
            assert toffoli == cost_bit_packet(n, b, lam, mu).toffoli_total, (n, mu)
            factors[n, mu] = toffoli * mu * (lam - 1) / (n * b)
    rows = [[factors[n, mu] for mu in pinned_n20] for n in sizes]
    ok = all(abs(f - t) <= 0.00005 for f, t in zip(rows[0], pinned_n20.values()))
    ok = ok and all(row[i] < row[i + 1] for row in rows for i in range(len(row) - 1))
    ok = ok and all(small > large for small, large in zip(*rows))
    lines = [
        f"mu={mu}: " + " / ".join(f"{factors[n, mu]:.4f}" for n in sizes) for mu in pinned_n20
    ]
    report(
        13,
        f"per-mu N/lam prefactor of built all-zero-table circuits at b={b}, lam={lam}, "
        f"N=2^20/2^22 ({'; '.join(lines)})",
        ok,
    )
