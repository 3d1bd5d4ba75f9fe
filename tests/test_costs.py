import random
from collections import Counter
from math import isqrt

import pytest

from qromkit import (
    Role,
    SequentialSpec,
    build_plain_qrom,
    build_qrom,
    build_selectswap_dirty,
    build_sequential_qroms,
    cost_bit_packet,
    cost_power2_packet,
    cost_prior_art,
    cost_sequential_fresh,
    cost_sequential_inplace,
    cost_uncompute,
    improvement_sweep,
    count_resources,
    optimize_parameters,
    plan_qrom,
    sweep_rows_to_csv,
)
from qromkit.costs import MAX_SCAN_POINTS, _check_scan, _feasible_points
from qromkit.qrom import ceil_div
from helpers import random_table


class TestBitPacket:
    @pytest.mark.parametrize(
        "n,b,lam,mu,expected",
        [
            (64, 8, 4, 8, 82),
            (64, 8, 4, 2, 115),
            (100, 5, 4, 2, 125),
            (2**20, 8, 32, 1, 295452),
        ],
    )
    def test_values(self, n, b, lam, mu, expected):
        cost = cost_bit_packet(n, b, lam, mu)
        assert cost.toffoli_total == expected
        assert cost.toffoli_total == cost.select_toffoli + cost.copy_toffoli
        assert cost.dirty_qubits == mu * (lam - 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cost_bit_packet(64, 8, 3, 2)
        with pytest.raises(ValueError):
            cost_bit_packet(64, 8, 4, 0)


def select_copy_toffoli(n, b, lam):
    """Full-width (mu = b) closed form, independent of cost_bit_packet."""
    return 2 * ceil_div(n, lam) + 2 * b * (lam - 1) + 2 * lam - 6


class TestSelectCopy:
    @pytest.mark.parametrize(
        "n,b,lam,expected", [(64, 8, 4, 82), (2**20, 8, 4, 524338), (64, 4, 4, 58)]
    )
    def test_values(self, n, b, lam, expected):
        assert select_copy_toffoli(n, b, lam) == expected
        assert cost_bit_packet(n, b, lam, b).toffoli_total == expected

    @pytest.mark.parametrize("n", [8, 16, 33, 64, 100, 256, 1 << 14])
    @pytest.mark.parametrize("b", [1, 2, 5, 8, 64])
    @pytest.mark.parametrize("lam", [2, 4, 8])
    def test_equals_full_width_packet(self, n, b, lam):
        if lam >= n:
            pytest.skip("lam must stay below n")
        cost = cost_bit_packet(n, b, lam, b)
        assert cost.toffoli_total == select_copy_toffoli(n, b, lam)
        assert cost.select_toffoli == 2 * (ceil_div(n, lam) + lam - 3)
        assert cost.copy_toffoli == 2 * b * (lam - 1)
        assert cost.dirty_qubits == b * (lam - 1)


class TestPower2Packet:
    def test_alpha_one_recovers_select_copy(self):
        for n in (64, 1024, 1 << 16):
            for b in (2, 8, 32):
                for lam in (2, 4, 8):
                    want = select_copy_toffoli(n, b, lam)
                    assert cost_power2_packet(n, b, lam, 1).toffoli_total == want

    def test_alpha_b_closed_form(self):
        for n in (1 << 12, 1 << 16):
            for b in (2, 4, 8):
                for lam in (2, 4):
                    want = ((b + 1) * n) // (b * lam) + 2 * (b + 1) * (b * lam - 2)
                    assert cost_power2_packet(n, b, lam, b).toffoli_total == want

    def test_substitution_identity(self):
        assert (
            cost_power2_packet(4096, 8, 4, 2).toffoli_total
            == cost_bit_packet(4096, 8, 8, 4).toffoli_total
        )

    def test_identity_over_grid(self):
        for n_exp in range(4, 13):
            n = 1 << n_exp
            for b in (1, 2, 4, 8, 16, 64):
                for lam in (1, 2, 4, 8):
                    for alpha in (1, 2, 4, 8, 16, 64):
                        if alpha > b or not 1 < alpha * lam < n:
                            continue
                        # The paper's power-of-two expression, written out.
                        depth = alpha * lam
                        select = (alpha + 1) * (n // depth + depth - 3)
                        copy = (b + b // alpha) * (depth - 1)
                        for row in (cost_power2_packet(n, b, lam, alpha),
                                    cost_bit_packet(n, b, depth, b // alpha)):
                            assert (row.select_toffoli, row.copy_toffoli) == (select, copy), (
                                n, b, lam, alpha, row.formula_id)

    def test_rejects_non_powers(self):
        with pytest.raises(ValueError):
            cost_power2_packet(100, 8, 4, 2)
        with pytest.raises(ValueError):
            cost_power2_packet(128, 8, 4, 3)


class TestSequentialFormulas:
    def test_fresh_values(self):
        assert cost_sequential_fresh(64, 4, 4, 2).toffoli_total == 87
        assert cost_sequential_fresh(64, 4, 4, 1).toffoli_total == 58
        # m = 0 is the degenerate single-load bound, not a physical circuit.
        assert cost_sequential_fresh(64, 4, 4, 0).toffoli_total == 29

    def test_fresh_m1_equals_select_copy(self):
        assert cost_sequential_fresh(64, 4, 4, 1).toffoli_total == select_copy_toffoli(64, 4, 4)

    def test_inplace_values(self):
        assert cost_sequential_inplace(64, 4, 4, 2).toffoli_total == 100
        assert cost_sequential_inplace(64, 4, 4, 1).toffoli_total == 71

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("n,b,lam", [(64, 4, 4), (256, 8, 2), (100, 3, 8)])
    def test_inplace_never_cheaper(self, m, n, b, lam):
        assert (
            cost_sequential_inplace(n, b, lam, m).toffoli_total
            >= cost_sequential_fresh(n, b, lam, m).toffoli_total
        )


class TestPriorArt:
    def test_values(self):
        assert cost_prior_art("berry", 64, 8, 4).toffoli_total == 128
        assert cost_prior_art("low_dirty", 64, 8, 4).toffoli_total == 160
        assert cost_prior_art("low_clean", 64, 8, 4).toffoli_total == 48
        assert cost_prior_art("plain", 64, 8).toffoli_total == 63

    def test_qubit_footprints(self):
        assert cost_prior_art("berry", 64, 8, 4).dirty_qubits == 8 * 3
        assert cost_prior_art("low_dirty", 64, 8, 4).dirty_qubits == 8 * 4
        assert cost_prior_art("low_clean", 64, 8, 4).clean_work_qubits == 8 * 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cost_prior_art("bogus", 64, 8, 4)

    @pytest.mark.parametrize("n,b", [(0, 1), (-3, 0), (5, 0), (1, -1)])
    def test_plain_rejects_nonpositive_dimensions(self, n, b):
        with pytest.raises(ValueError, match="table dimensions must be positive"):
            cost_prior_art("plain", n, b)


class TestUncompute:
    def test_values(self):
        assert cost_uncompute("select_copy", 64, 8).toffoli_total == 26
        assert cost_uncompute("prior", 64, 8).toffoli_total == 48

    def test_dirty_count(self):
        assert cost_uncompute("select_copy", 64, 8).dirty_qubits == 7

    @pytest.mark.parametrize("lam_prime", [2, 3, 4, 7, 8, 16, 33, 64, 100, 128, 256])
    def test_never_worse_than_prior(self, lam_prime):
        n = 1 << 10
        ours = cost_uncompute("select_copy", n, lam_prime).toffoli_total
        prior = cost_uncompute("prior", n, lam_prime).toffoli_total
        assert ours <= prior

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            cost_uncompute("select_copy", 64, 1)
        with pytest.raises(ValueError):
            cost_uncompute("select_copy", 64, 64)


def exhaustive_best(n, b, budget):
    """Test-local exhaustive minimizer, written from the formula directly."""
    best = None
    lam = 2
    while lam < n:
        for mu in range(1, b + 1):
            if mu * (lam - 1) > budget:
                break  # so is every larger mu
            alpha = -(-b // mu)
            cost = (alpha + 1) * (-(-n // lam) + lam - 3) + (lam - 1) * (
                mu * (b // mu + 1) + b % mu
            )
            if best is None or cost < best[0]:
                best = (cost, lam, mu)
        lam *= 2
    return best


class TestOptimizer:
    def test_budget_31(self):
        result = optimize_parameters(2**20, 8, 31)
        assert (result.lam, result.mu) == (32, 1)
        assert result.cost.toffoli_total == 295452

    def test_budget_24_prefers_wide_packets(self):
        result = optimize_parameters(2**20, 8, 24)
        assert (result.lam, result.mu) == (4, 8)
        assert result.cost.toffoli_total == 524338
        assert cost_bit_packet(2**20, 8, 16, 1).toffoli_total == 590076

    def test_zero_budget_falls_back_to_plain(self):
        result = optimize_parameters(2**20, 8, 0)
        assert not result.feasible
        assert result.cost.toffoli_total == 2**20 - 1
        assert result.cost.formula_id == "plain"

    @pytest.mark.parametrize("n,b,budget", [(8, 0, 31), (8, 4, -3), (0, 8, 31), (-4, 8, 0)])
    def test_rejects_invalid_point(self, n, b, budget):
        with pytest.raises(ValueError, match="must"):
            optimize_parameters(n, b, budget)

    def test_matches_independent_search_on_random_grid(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randrange(4, 5000)
            b = rng.randrange(1, 20)
            budget = rng.randrange(0, 200)
            result = optimize_parameters(n, b, budget)
            expected = exhaustive_best(n, b, budget)
            if expected is None:
                assert not result.feasible
            else:
                assert result.feasible
                assert (result.cost.toffoli_total, result.lam, result.mu) == expected

    def test_deterministic_tie_break(self):
        for _ in range(3):
            a = optimize_parameters(512, 6, 48)
            b = optimize_parameters(512, 6, 48)
            assert (a.lam, a.mu, a.cost) == (b.lam, b.mu, b.cost)

    @pytest.mark.parametrize("n", [1 << 10, 1 << 14, 1 << 20])
    @pytest.mark.parametrize("b", [4, 8, 16])
    @pytest.mark.parametrize("budget_factor", [1, 2, 4, 16])
    def test_optimal_dominates_prior_at_equal_budget(self, n, b, budget_factor):
        budget = b * budget_factor
        berry_best = None
        lam = 2
        while lam < n:
            if b * (lam - 1) <= budget:
                value = cost_prior_art("berry", n, b, lam).toffoli_total
                berry_best = value if berry_best is None else min(berry_best, value)
            lam *= 2
        assert berry_best is not None
        assert optimize_parameters(n, b, budget).cost.toffoli_total <= berry_best


def exhaustive_sweep_row(n, b, budget):
    """Test-local brute force for one improvement_sweep row, written from
    the formulas directly: (N, berry, alpha1, alphab, best, lam, mu,
    improvement)."""
    berry, alpha1, alphab = [], [], []
    lam = 2
    while lam < n:
        blocks = -(-n // lam)
        if b * (lam - 1) <= budget:
            berry.append(2 * blocks + 4 * b * (lam - 1))
            alpha1.append(2 * blocks + 2 * b * (lam - 1) + 2 * lam - 6)
        if lam - 1 <= budget:
            alphab.append((b + 1) * (blocks + lam - 3) + (b + 1) * (lam - 1))
        lam *= 2
    plain = n - 1
    best, lam, mu = exhaustive_best(n, b, budget) or (plain, 0, 0)
    berry_v = min(berry, default=plain)
    return (
        n,
        berry_v,
        min(alpha1, default=plain),
        min(alphab, default=plain),
        best,
        lam,
        mu,
        berry_v / best if best else 1.0,
    )


class TestSweep:
    def test_matches_brute_force_on_random_grid(self):
        rng = random.Random(2026)
        cases = [(b, budget, [1, 2, 3, 4, 64]) for b in (1, 2, 8) for budget in (0, 1, 7, 31)]
        for _ in range(120):
            ns = [rng.randrange(1, 4)]
            ns += [rng.randrange(1, 1 << rng.randrange(2, 24)) for _ in range(3)]
            cases.append((rng.randrange(1, 20), rng.choice([0, rng.randrange(0, 300)]), ns))
        for b, budget, ns in cases:
            rows = improvement_sweep(b, budget, ns)
            got = [
                (r.n, r.berry, r.alpha1, r.alphab, r.best, r.lam, r.mu, r.improvement)
                for r in rows
            ]
            assert got == [exhaustive_sweep_row(n, b, budget) for n in ns], (b, budget, ns)

    def test_wide_words_match_brute_force(self):
        # The scan skips every mu but the least of each packet count; the
        # brute force tries every mu in [1, b].
        rng = random.Random(16)
        for _ in range(4000):
            n, b, budget = rng.randrange(1, 5001), rng.randrange(1, 301), rng.randrange(0, 2001)
            row = improvement_sweep(b, budget, [n])[0]
            got = (row.n, row.berry, row.alpha1, row.alphab, row.best, row.lam, row.mu,
                   row.improvement)
            assert got == exhaustive_sweep_row(n, b, budget), (n, b, budget)

    def test_huge_word_finishes(self):
        # A scan of every mu would take 10**8 steps per lam.
        result = optimize_parameters(10**6, 10**8, 10**8)
        assert (result.lam, result.mu, result.cost.toffoli_total) == (2, 7142858, 114642843)

    def test_scan_per_depth_within_documented_bound(self):
        # MAX_SCAN_POINTS caps min(b, budget // (lam-1), 2*isqrt(b) + 1),
        # which must bound the points scanned at every depth.
        for b in range(1, 400):
            for budget in (1, 7, 31, 100, b, 3 * b):
                per_depth = Counter(lam for _, lam, _ in _feasible_points(64, b, budget))
                for lam, points in per_depth.items():
                    assert points <= min(b, budget // (lam - 1), 2 * isqrt(b) + 1), (b, budget)

    def test_scan_bound_edges(self):
        # The largest b accepted at any budget is 2**30 - 1 (2*32767 + 1
        # points); every b is accepted at a budget of MAX_SCAN_POINTS.
        assert MAX_SCAN_POINTS == 1 << 16
        _check_scan(2**30 - 1, 2**30 - 1)
        _check_scan(2**62, MAX_SCAN_POINTS)
        for b, budget in ((2**30, 2**30), (2**62, MAX_SCAN_POINTS + 1), (2**62, 2**62)):
            with pytest.raises(ValueError, match=f"more than the {MAX_SCAN_POINTS}"):
                _check_scan(b, budget)

    @pytest.mark.parametrize("b,budget", [(2**30, 2**30), (2**62, 2**62), (10**12, 10**12)])
    def test_scan_above_bound_refused_before_scanning(self, b, budget):
        # Unbounded before: 28.4 s at b = 10**12 and a MemoryError from the
        # sweep's list of points at b = 2**62.
        with pytest.raises(ValueError, match="points per depth, more than the 65536"):
            optimize_parameters(2**20, b, budget)
        with pytest.raises(ValueError, match="points per depth, more than the 65536"):
            improvement_sweep(b, budget, [4, 2**20])

    def test_single_point_budget_31(self):
        rows = improvement_sweep(8, 31, [2**20])
        row = rows[0]
        assert row.berry == 524384
        assert row.best == 295452
        assert abs(row.improvement - 1.775) < 0.005

    def test_wide_word_point(self):
        rows = improvement_sweep(64, 255, [2**30])
        assert abs(rows[0].improvement - 1.969) < 0.005

    def test_asymptotic_window(self):
        rows = improvement_sweep(64, 255, [2**30])
        assert 1.9 <= rows[0].improvement <= 2.0

    def test_jagged_start_when_budget_underused(self):
        # For small N the optimal lam does not use the whole budget, so the
        # improvement is not monotone along the grid.
        ns = [2**k for k in range(4, 16)]
        rows = improvement_sweep(8, 255, ns)
        diffs = [rows[i + 1].improvement - rows[i].improvement for i in range(len(rows) - 1)]
        assert any(d < 0 for d in diffs) or any(d == 0 for d in diffs)

    def test_degenerate_small_n_rows(self):
        # Below the smallest usable depth everything falls back to the plain
        # count; N = 1 costs nothing and reports improvement 1.
        rows = improvement_sweep(4, 16, [1, 2, 3, 8])
        assert rows[0].improvement == 1.0
        assert rows[0].best == 0
        assert all(row.best >= 0 for row in rows)

    @pytest.mark.parametrize(
        "b,budget,ns", [(8, -5, [8]), (0, 31, [8]), (8, 31, [16, 0]), (8, -1, [])]
    )
    def test_rejects_invalid_point(self, b, budget, ns):
        with pytest.raises(ValueError, match="must"):
            improvement_sweep(b, budget, ns)

    def test_csv_schema(self):
        text = sweep_rows_to_csv(improvement_sweep(8, 31, [2**20]))
        lines = text.strip().splitlines()
        assert lines[0] == "N,berry,alpha1,alphab,best,lambda,mu,improvement"
        fields = lines[1].split(",")
        assert fields[0] == str(2**20)
        assert fields[5] == "32" and fields[6] == "1"
        assert fields[7] == "1.774853"


ACCEPTANCE_GRID = [
    (n, b, lam)
    for n in (8, 12, 16, 33, 64, 100, 256)
    for b in (1, 2, 3, 5, 8, 16)
    for lam in (2, 4, 8)
    if lam < n
]


def register_size(circuit, name):
    return circuit.register(name).size if circuit.has_register(name) else 0


class TestCostsMatchCircuits:
    """The qubit columns of a cost row are those of the circuit it names."""

    def test_bit_packet_registers(self):
        for n, b, lam in ACCEPTANCE_GRID:
            table = random_table(n, b, seed=n + b + lam)
            for mu in range(1, b + 1):
                cost = cost_bit_packet(n, b, lam, mu)
                circuit = build_qrom(table, plan_qrom(n, b, lam, mu))
                assert cost.dirty_qubits == register_size(circuit, "dirty"), (n, b, lam, mu)
                assert cost.clean_work_qubits == register_size(circuit, "work"), (n, b, lam, mu)

    @pytest.mark.parametrize("m", [1, 2])
    def test_sequential_fresh_registers(self, m):
        for n, b, lam in ACCEPTANCE_GRID:
            tables = tuple(random_table(n, b, seed=n + b + lam + i) for i in range(m))
            circuit = build_sequential_qroms(SequentialSpec(tables, lam))
            cost = cost_sequential_fresh(n, b, lam, m)
            assert cost.toffoli_total == count_resources(circuit).toffoli, (n, b, lam, m)
            assert cost.dirty_qubits == register_size(circuit, "dirty"), (n, b, lam, m)
            assert cost.clean_work_qubits == register_size(circuit, "work"), (n, b, lam, m)
            assert cost.output_qubits == sum(
                reg.size for reg in circuit.registers_with_role(Role.OUTPUT)
            )

    def test_berry_dirty_is_swap_network_dirty_register(self):
        for n, b, lam in ACCEPTANCE_GRID:
            circuit = build_selectswap_dirty(random_table(n, b, seed=n * b + lam), lam)
            cost = cost_prior_art("berry", n, b, lam)
            assert cost.dirty_qubits == register_size(circuit, "dirty"), (n, b, lam)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_plain_row_is_plain_circuit(self, n):
        circuit = build_plain_qrom(random_table(n, 3, seed=n))
        cost = cost_prior_art("plain", n, 3)
        counts = count_resources(circuit)
        assert cost.toffoli_total == counts.toffoli
        assert cost.dirty_qubits == counts.dirty_qubits == 0
        assert cost.clean_work_qubits == register_size(circuit, "work")
        assert cost.output_qubits == register_size(circuit, "output")
