"""Randomized cross-checks beyond the acceptance grid.

Every builder output is checked two ways: gate counts against the closed-form
costs, and behavior against the reversible simulator. Seeds are fixed, so
failures reproduce exactly.
"""
import math
import random

from qromkit import (
    LookupTable,
    SequentialSpec,
    build_qrom,
    build_selectswap_dirty,
    build_sequential_qroms,
    cost_bit_packet,
    count_resources,
    plan_qrom,
    verify_qrom,
)


def test_exhaustive_tiny_parameter_space():
    # Every valid (N, b, lam, mu) with N <= 14 and b <= 4: exact counts and
    # exhaustive simulation with random dirty states.
    rng = random.Random(101)
    case = 0
    for n in range(3, 15):
        for b in range(1, 5):
            lam = 2
            while lam < n:
                for mu in range(1, b + 1):
                    table = LookupTable(tuple(rng.randrange(1 << b) for _ in range(n)), b)
                    plan = plan_qrom(n, b, lam, mu)
                    circuit = build_qrom(table, plan)
                    assert (
                        count_resources(circuit).toffoli
                        == cost_bit_packet(n, b, lam, mu).toffoli_total
                    ), (n, b, lam, mu)
                    assert verify_qrom(circuit, table, plan, dirty_trials=4, seed=case).passed, (
                        n,
                        b,
                        lam,
                        mu,
                    )
                    case += 1
                lam *= 2


def test_random_wide_parameters():
    rng = random.Random(202)
    for trial in range(60):
        n = rng.randrange(3, 700)
        b = rng.randrange(1, 24)
        lam = rng.choice([l for l in (2, 4, 8, 16, 32, 64, 128, 256) if l < n])
        mu = rng.randrange(1, b + 1)
        table = LookupTable(tuple(rng.randrange(1 << b) for _ in range(n)), b)
        plan = plan_qrom(n, b, lam, mu)
        circuit = build_qrom(table, plan)
        assert (
            count_resources(circuit).toffoli == cost_bit_packet(n, b, lam, mu).toffoli_total
        ), (n, b, lam, mu)
        assert verify_qrom(circuit, table, plan, dirty_trials=2, seed=trial).passed, (n, b, lam, mu)


def test_random_sequential_counts():
    rng = random.Random(303)
    for trial in range(25):
        n = rng.randrange(4, 120)
        b = rng.randrange(1, 9)
        lam = rng.choice([l for l in (2, 4, 8, 16) if l < n])
        m = rng.randrange(1, 4)
        tables = tuple(
            LookupTable(tuple(rng.randrange(1 << b) for _ in range(n)), b) for _ in range(m)
        )
        circuit = build_sequential_qroms(SequentialSpec(tables, lam))
        expected = (m + 1) * (math.ceil(n / lam) + b * (lam - 1) + lam - 3)
        assert count_resources(circuit).toffoli == expected, (n, b, lam, m)
        assert verify_qrom(circuit, tables, dirty_trials=2, seed=trial).passed, (n, b, lam, m)


def test_random_swap_network_counts():
    rng = random.Random(404)
    for trial in range(30):
        n = rng.randrange(3, 300)
        b = rng.randrange(1, 12)
        lam = rng.choice([l for l in (2, 4, 8, 16, 32) if l < n])
        table = LookupTable(tuple(rng.randrange(1 << b) for _ in range(n)), b)
        circuit = build_selectswap_dirty(table, lam)
        expected = 2 * (math.ceil(n / lam) - 1) + 4 * b * (lam - 1)
        assert count_resources(circuit).toffoli == expected, (n, b, lam)
        assert verify_qrom(circuit, table, dirty_trials=2, seed=trial).passed, (n, b, lam)
