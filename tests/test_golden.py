"""Golden gate files: the builders' exact output over the acceptance grid,
and the two baseline builders' output over a small grid.

The digest pins every gate, operand and register of every circuit, so a
refactor of the builders must reproduce the gate files byte for byte.
Recompute it only for a deliberate change of the emitted circuits.
"""
import hashlib

from qromkit import SequentialSpec, build_qrom, build_sequential_qroms, plan_qrom, serialize_circuit
from qromkit.baselines import build_plain_qrom, build_selectswap_dirty
from helpers import random_table

N_VALUES = (8, 12, 16, 33, 64, 100, 256)
B_VALUES = (1, 2, 3, 5, 8, 16)
LAM_VALUES = (2, 4, 8)

BUILD_QROM_DIGEST = "10fab649144ca845c2908aa4103ac3cd6efa0ca2dc292eb1215fbd6284a3ab26"
SEQUENTIAL_DIGEST = "756b1d4ca54f3b31bd2b7aba745fea066a9a9b30bf40271485290e6d57cae576"
PLAIN_DIGEST = "d44c0a8744014531e2d8434e000ddadfa32ffd7166c04bda32d57ef65954804d"
SELECTSWAP_DIGEST = "e0d8e36060f8765525202b74cd57ee494e74e5b25bac29384f7c2a8a4b83ff8b"


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
