"""Golden gate files: the builders' exact output over the acceptance grid,
and the two baseline builders' output over a small grid. Golden cost rows:
every closed-form row, and the exception type of every invalid point, over a
parameter grid.

The digest pins every gate, operand and register of every circuit, so a
refactor of the builders must reproduce the gate files byte for byte.
Recompute it only for a deliberate change of the emitted circuits.
"""
import hashlib

from qromkit import (
    SequentialSpec,
    build_qrom,
    build_sequential_qroms,
    cost_bit_packet,
    cost_power2_packet,
    cost_prior_art,
    cost_sequential_fresh,
    cost_sequential_inplace,
    cost_uncompute,
    improvement_sweep,
    optimize_parameters,
    plan_qrom,
    serialize_circuit,
)
from qromkit.baselines import build_plain_qrom, build_selectswap_dirty
from helpers import random_table

N_VALUES = (8, 12, 16, 33, 64, 100, 256)
B_VALUES = (1, 2, 3, 5, 8, 16)
LAM_VALUES = (2, 4, 8)

BUILD_QROM_DIGEST = "10fab649144ca845c2908aa4103ac3cd6efa0ca2dc292eb1215fbd6284a3ab26"
SEQUENTIAL_DIGEST = "756b1d4ca54f3b31bd2b7aba745fea066a9a9b30bf40271485290e6d57cae576"
PLAIN_DIGEST = "d44c0a8744014531e2d8434e000ddadfa32ffd7166c04bda32d57ef65954804d"
SELECTSWAP_DIGEST = "e0d8e36060f8765525202b74cd57ee494e74e5b25bac29384f7c2a8a4b83ff8b"
COSTS_DIGEST = "9bac990514382e4da635066b9465f6d1c6df38ad1f648ba12947ab6f319f8bcf"


def test_build_qrom_gate_files_unchanged():
    digest = hashlib.sha256()
    for n in N_VALUES:
        for b in B_VALUES:
            for lam in LAM_VALUES:
                if lam >= n:
                    continue
                table = random_table(n, b, seed=n * 1000 + b * 10 + lam)
                for mu in range(1, b + 1):
                    circuit = build_qrom(table, plan_qrom(n, b, lam, mu))
                    digest.update(serialize_circuit(circuit).encode())
    assert digest.hexdigest() == BUILD_QROM_DIGEST


def test_sequential_gate_files_unchanged():
    digest = hashlib.sha256()
    for m in (1, 2, 3):
        for n in (16, 64):
            for b in (2, 4):
                for lam in (2, 4):
                    seed = m * 100 + n + b + lam
                    tables = tuple(random_table(n, b, seed=seed + i) for i in range(m))
                    circuit = build_sequential_qroms(SequentialSpec(tables, lam))
                    digest.update(serialize_circuit(circuit).encode())
    assert digest.hexdigest() == SEQUENTIAL_DIGEST


def test_plain_gate_files_unchanged():
    digest = hashlib.sha256()
    for n in (1, 2, 3) + N_VALUES:
        for b in B_VALUES:
            table = random_table(n, b, seed=n * 1000 + b)
            digest.update(serialize_circuit(build_plain_qrom(table)).encode())
    assert digest.hexdigest() == PLAIN_DIGEST


def test_selectswap_gate_files_unchanged():
    digest = hashlib.sha256()
    for n in N_VALUES:
        for b in B_VALUES:
            for lam in LAM_VALUES:
                if lam >= n:
                    continue
                table = random_table(n, b, seed=n * 1000 + b * 10 + lam)
                digest.update(serialize_circuit(build_selectswap_dirty(table, lam)).encode())
    assert digest.hexdigest() == SELECTSWAP_DIGEST


def cost_points():
    """Every cost function over a grid of valid and invalid points.

    N = 2 is left out: its plain row is pinned against ``build_plain_qrom``
    in test_costs.py instead.
    """
    for n in (1, 3, 4, 5, 8, 12, 33, 64, 100):
        for b in (1, 2, 3, 8):
            for lam in (0, 1, 2, 3, 4, 6, 8, 64):
                for mu in (0, 1, 2, 3, 9):
                    yield cost_bit_packet, (n, b, lam, mu)
                for alpha in (1, 2, 3, 4):
                    yield cost_power2_packet, (n, b, lam, alpha)
                for m in (-1, 0, 2):
                    yield cost_sequential_fresh, (n, b, lam, m)
                    yield cost_sequential_inplace, (n, b, lam, m)
                for kind in ("low_clean", "low_dirty", "berry", "bogus"):
                    yield cost_prior_art, (kind, n, b, lam)
                for kind in ("prior", "select_copy", "bogus"):
                    yield cost_uncompute, (kind, n, lam)
            yield cost_prior_art, ("plain", n, b)
            yield cost_prior_art, ("berry", n, b)
            for budget in (-1, 0, 3, 31):
                yield optimize_parameters, (n, b, budget)
    for b in (0, 1, 8):
        yield improvement_sweep, (b, 31, [1, 4, 16, 100])


def test_cost_rows_unchanged():
    digest = hashlib.sha256()
    for fn, args in cost_points():
        try:
            out = repr(fn(*args))
        except Exception as exc:  # the type is pinned, the message is not
            out = type(exc).__name__
        digest.update(f"{fn.__name__}{args!r}={out}\n".encode())
    assert digest.hexdigest() == COSTS_DIGEST
