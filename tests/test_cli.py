import contextlib
import importlib
import io
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qromkit import format_table, improvement_sweep, parse_circuit, sweep_rows_to_csv
from qromkit import cli
from qromkit.cli import MAX_SWEEP_ROWS, _sweep_grid, main
from helpers import random_table

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def table_64(tmp_path):
    path = tmp_path / "t64.table"
    path.write_text(format_table(random_table(64, 8, seed=1)))
    return str(path)


@pytest.mark.parametrize("args,code", [(["sweep"], 2), (["--help"], 0)], ids=["usage_error", "help"])
def test_argparse_exit_becomes_return_code(args, code):
    assert run_cli(args)[0] == code


class TestBuild:
    def test_build_writes_circuit_and_summary(self, table_64, tmp_path):
        out_path = tmp_path / "c.gates"
        code, out, _ = run_cli(
            ["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(out_path)]
        )
        assert code == 0
        assert "toffoli=115" in out
        assert "total_qubits=24" in out
        circuit = parse_circuit(out_path.read_text())
        assert circuit.num_qubits == 24

    def test_invalid_lambda_exits_2(self, table_64, tmp_path):
        code, _, err = run_cli(
            ["build", "--table", table_64, "--lambda", "3", "--mu", "2", "--out", str(tmp_path / "c")]
        )
        assert code == 2
        assert "power of 2" in err

    def test_missing_table_exits_1(self, tmp_path):
        code, _, _ = run_cli(
            ["build", "--table", str(tmp_path / "nope"), "--lambda", "4", "--mu", "2", "--out", str(tmp_path / "c")]
        )
        assert code == 1

    @pytest.mark.parametrize("verb", ["build", "verify"])
    def test_huge_width_exits_2_before_building(self, tmp_path, verb):
        # plan_qrom takes b = 10**12 in O(1); the builder refuses it before
        # any per-bit work, which would otherwise run over 10**12 packets.
        path = tmp_path / "wide.table"
        path.write_text("4 1000000000000\n1\n2\n3\n0\n")
        args = [verb, "--table", str(path), "--lambda", "2", "--mu", "1"]
        args += ["--out", str(tmp_path / "c")] if verb == "build" else []
        code, out, err = run_cli(args)
        assert (code, out) == (2, "")
        assert err == "error: b = 1000000000000 exceeds the widest build, b = 65536\n"
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("verb", ["build", "verify"])
    @pytest.mark.parametrize(
        "data,error",
        [
            (b"4 2\n1\n\xff\n3\n0\n", "line 3: invalid UTF-8 byte 0xff"),
            (b"4 2\r\n1\r2\r\n3\r\n0 # \xe9\r\n", "line 5: invalid UTF-8 byte 0xe9"),
        ],
        ids=["lf", "cr_crlf"],
    )
    def test_non_utf8_table_exits_1_with_line(self, tmp_path, verb, data, error):
        # A byte that does not decode is a parse failure on its line, not a
        # bad parameter.
        path = tmp_path / "bad.table"
        path.write_bytes(data)
        args = [verb, "--table", str(path), "--lambda", "2", "--mu", "1"]
        args += ["--out", str(tmp_path / "c")] if verb == "build" else []
        code, out, err = run_cli(args)
        assert (code, out) == (1, "")
        assert err == f"error: {error}\n"
        assert not (tmp_path / "c").exists()

    def test_bad_table_reports_line(self, tmp_path):
        bad = tmp_path / "bad.table"
        bad.write_text("2 3\n1\n9\n")
        code, _, err = run_cli(
            ["build", "--table", str(bad), "--lambda", "4", "--mu", "2", "--out", str(tmp_path / "c")]
        )
        assert code == 1
        assert "line 3" in err


class TestVerify:
    def test_rebuild_and_verify(self, table_64):
        code, out, _ = run_cli(
            ["verify", "--table", table_64, "--lambda", "4", "--mu", "2", "--trials", "4", "--seed", "0"]
        )
        assert code == 0
        assert "cases_run=256" in out
        assert "failures=0" in out

    def test_verify_written_circuit(self, table_64, tmp_path):
        out_path = tmp_path / "c.gates"
        run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(out_path)])
        code, out, _ = run_cli(
            ["verify", "--table", table_64, "--circuit", str(out_path), "--trials", "3", "--seed", "1"]
        )
        assert code == 0

    def test_fault_injected_circuit_exits_3(self, table_64, tmp_path):
        out_path = tmp_path / "c.gates"
        run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(out_path)])
        with open(out_path, "a") as handle:
            handle.write("X output 0\n")
        code, out, _ = run_cli(
            ["verify", "--table", table_64, "--circuit", str(out_path), "--trials", "2", "--seed", "1"]
        )
        assert code == 3
        assert "first_failure" in out

    def test_fault_report_stdout_pinned(self, table_64, tmp_path):
        out_path = tmp_path / "c.gates"
        run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(out_path)])
        with open(out_path, "a") as handle:
            handle.write("X output 2\nX dirty 1\nX addr_r 0\n")
        code, out, _ = run_cli(
            ["verify", "--table", table_64, "--circuit", str(out_path), "--trials", "3", "--seed", "5"]
        )
        assert code == 3
        assert out == (
            "cases_run=192\n"
            "failures=192\n"
            "first_failure: x=0 dirty=0x3f output=0x40 diagnostics=output 0x40 != f(x) 0x44; "
            "dirty register not restored; address register changed\n"
        )

    @pytest.mark.parametrize(
        "extra,message",
        [
            # Never released; its target stays 0, so simulation alone passes.
            ("TEMP_AND addr_q 0 work 1 work 0\n", "unreleased TEMP_AND targets at circuit end: work[0]"),
            # Releases a temp-AND that was never computed.
            ("TEMP_AND_UNCOMPUTE addr_q 0 work 1 work 0\n", "TEMP_AND_UNCOMPUTE on work[0] does not match"),
            ("X work 0\nTEMP_AND_UNCOMPUTE addr_q 0 work 0 work 1\n", "TEMP_AND_UNCOMPUTE on work[1] does not match"),
        ],
        ids=["unreleased", "orphan_uncompute", "uncompute_after_x"],
    )
    def test_unpaired_temp_and_exits_2(self, table_64, tmp_path, extra, message):
        out_path = tmp_path / "c.gates"
        run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(out_path)])
        with open(out_path, "a") as handle:
            handle.write(extra)
        code, out, err = run_cli(["verify", "--table", table_64, "--circuit", str(out_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_non_utf8_circuit_exits_1_with_line(self, table_64, tmp_path):
        out_path = tmp_path / "c.gates"
        run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(out_path)])
        lines = len(out_path.read_text().splitlines())
        with open(out_path, "ab") as handle:
            handle.write(b"X output 0 # \xe9\xff\n")
        code, out, err = run_cli(["verify", "--table", table_64, "--circuit", str(out_path)])
        assert (code, out) == (1, "")
        assert err == f"error: line {lines + 1}: invalid UTF-8 byte 0xe9\n"

    def test_temp_and_on_nonzero_target_exits_3(self, table_64, tmp_path):
        out_path = tmp_path / "c.gates"
        run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(out_path)])
        with open(out_path, "a") as handle:
            handle.write(
                "X work 0\nTEMP_AND addr_q 0 addr_r 0 work 0\n"
                "TEMP_AND_UNCOMPUTE addr_q 0 addr_r 0 work 0\nX work 0\n"
            )
        code, out, err = run_cli(["verify", "--table", table_64, "--circuit", str(out_path)])
        assert (code, out) == (3, "")
        assert err.startswith("error: gate ") and "TEMP_AND target is not 0" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_2(self, table_64, trials):
        code, out, err = run_cli(
            ["verify", "--table", table_64, "--lambda", "4", "--mu", "2", "--trials", trials]
        )
        assert (code, out) == (2, "")
        assert err == "error: dirty_trials must be >= 1\n"

    def test_negative_seed_exits_2(self, table_64):
        code, out, err = run_cli(
            ["verify", "--table", table_64, "--lambda", "4", "--mu", "2", "--seed", "-1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0\n"

    @pytest.mark.parametrize(
        "extra,named",
        [
            (["--lambda", "4", "--mu", "9"], "--lambda, --mu"),
            (["--mu", "2"], "--mu"),
            (["--baseline", "plain"], "--baseline"),
            (["--baseline", "selectswap", "--lambda", "4"], "--lambda, --baseline"),
        ],
    )
    def test_circuit_rejects_build_flags(self, table_64, tmp_path, extra, named):
        path = tmp_path / "c.gates"
        code, _, _ = run_cli(
            ["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(path)]
        )
        assert code == 0
        code, out, err = run_cli(["verify", "--table", table_64, "--circuit", str(path), *extra])
        assert (code, out) == (2, "")
        assert err == f"error: --circuit cannot be combined with {named}\n"

    @pytest.mark.parametrize(
        "registers,message",
        [
            ("addr_q 3 address_q\nREGISTER addr_hi 3 address_q", "at most one address_q"),
            ("addr_q 5 address_q", "5 address qubits cannot address 64 entries"),
            ("addr_q 6 address_q\nREGISTER output 7 output", "'output' is narrower than b=8"),
            ("addr_q 6 address_q\nREGISTER output 8 output\nREGISTER copy 8 output", "1 tables for 2"),
        ],
        ids=["two_address_q", "narrow_address", "narrow_output", "extra_output"],
    )
    def test_uncheckable_circuit_exits_2(self, table_64, tmp_path, registers, message):
        path = tmp_path / "c.gates"
        registers = registers if "output" in registers else registers + "\nREGISTER output 8 output"
        path.write_text(f"REGISTER {registers}\n")
        code, out, err = run_cli(["verify", "--table", table_64, "--circuit", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_huge_register_exits_2_before_allocating(self, table_64, tmp_path, monkeypatch):
        # The state-size cap must fire before rows are listed or allocated; a
        # failing guard trips the patched row lister instead of exhausting memory.
        def rows_must_not_be_listed(circuit):
            raise AssertionError("register rows listed")

        # The package exports a function named ``simulate``, so fetch the module.
        simulate_module = importlib.import_module("qromkit.simulate")
        monkeypatch.setattr(simulate_module, "_role_rows", rows_must_not_be_listed)
        path = tmp_path / "c.gates"
        registers = "REGISTER addr_q 6 address_q\nREGISTER output 8 output\nREGISTER w {} work\n"
        # Control: under the cap, the verifier lists rows through the patched
        # seam, so the refusal below cannot pass by bypassing it.
        path.write_text(registers.format(4))
        with pytest.raises(AssertionError, match="register rows listed"):
            run_cli(["verify", "--table", table_64, "--circuit", str(path)])
        path.write_text(registers.format(4000000000))
        code, out, err = run_cli(["verify", "--table", table_64, "--circuit", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: verifier state of 4000000014 qubits x 640 cases")

    @pytest.mark.parametrize("baseline", ["selectswap", "plain"])
    def test_baselines(self, table_64, baseline):
        args = ["verify", "--table", table_64, "--baseline", baseline, "--trials", "2", "--seed", "0"]
        if baseline == "selectswap":
            args += ["--lambda", "4"]
        code, out, _ = run_cli(args)
        assert code == 0
        assert "failures=0" in out

    @pytest.mark.parametrize("extra", [[], ["--lambda", "4"], ["--mu", "2"]], ids=["none", "lambda", "mu"])
    def test_rebuild_needs_lambda_and_mu(self, table_64, extra):
        code, out, err = run_cli(["verify", "--table", table_64, *extra])
        assert (code, out) == (2, "")
        assert err == "error: verify requires --lambda and --mu (or --baseline/--circuit)\n"

    def test_selectswap_needs_lambda(self, table_64):
        code, _, err = run_cli(["verify", "--table", table_64, "--baseline", "selectswap"])
        assert code == 2

    @pytest.mark.parametrize(
        "baseline,extra,named",
        [
            ("plain", ["--lambda", "3", "--mu", "99"], "--lambda, --mu"),
            ("plain", ["--lambda", "4"], "--lambda"),
            ("plain", ["--mu", "2"], "--mu"),
            ("selectswap", ["--lambda", "2", "--mu", "99"], "--mu"),
        ],
        ids=["plain_lambda_mu", "plain_lambda", "plain_mu", "selectswap_mu"],
    )
    def test_baseline_rejects_unused_flags(self, table_64, baseline, extra, named):
        code, out, err = run_cli(["verify", "--table", table_64, "--baseline", baseline, *extra])
        assert (code, out) == (2, "")
        assert err == f"error: --baseline {baseline} cannot be combined with {named}\n"


ESTIMATE_64_8_4_8 = """\
method                      toffoli       select         copy      dirty clean_work
bit_packet                       82           34           48         24          4
select_copy                      82           34           48         24          4
berry                           128           32           96         24          0
low_dirty                       160           32          128         32          0
low_clean                        48           16           32          0         24
uncompute_select_copy            34           34            0          3          0
uncompute_prior                  48           48            0          3          0
plain                            63           63            0          0          6
"""


class TestEstimate:
    def test_point_stdout_pinned(self):
        code, out, err = run_cli(["estimate", "--n", "64", "--b", "8", "--lambda", "4", "--mu", "8"])
        assert (code, out, err) == (0, ESTIMATE_64_8_4_8, "")

    def test_point_costs(self):
        code, out, _ = run_cli(["estimate", "--n", "64", "--b", "8", "--lambda", "4", "--mu", "8"])
        assert code == 0
        lines = {line.split()[0]: line.split() for line in out.splitlines()[1:] if line}
        assert lines["bit_packet"][1] == "82"
        assert lines["berry"][1] == "128"
        assert lines["low_dirty"][1] == "160"
        assert lines["low_clean"][1] == "48"
        assert lines["plain"][1] == "63"

    def test_budget_optimization(self):
        code, out, _ = run_cli(["estimate", "--n", "1048576", "--b", "8", "--budget", "31"])
        assert code == 0
        assert "lambda=32 mu=1 toffoli=295452" in out

    def test_zero_budget_reports_fallback(self):
        code, out, _ = run_cli(["estimate", "--n", "64", "--b", "8", "--budget", "0"])
        assert code == 0
        assert "infeasible" in out
        assert "toffoli=63" in out

    def test_requires_lambda_or_budget(self):
        code, _, err = run_cli(["estimate", "--n", "64", "--b", "8"])
        assert code == 2

    def test_mu_without_lambda_rejected(self):
        code, _, err = run_cli(["estimate", "--n", "64", "--b", "8", "--mu", "2"])
        assert code == 2
        assert "requires --lambda" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "0", "--b", "1", "--budget", "1"],
            ["--n", "64", "--b", "0", "--lambda", "4"],
            ["--n", "-5", "--b", "8", "--lambda", "4", "--mu", "2"],
            ["--n", "2", "--b", "1", "--lambda", "2"],
            ["--n", "64", "--b", "8", "--lambda", "4", "--mu", "9"],
            ["--n", "64", "--b", "8", "--budget", "-1"],
            ["--n", "1048576", "--b", "1073741824", "--budget", "1073741824"],
        ],
        ids=["zero_n", "zero_b", "negative_n", "lambda_not_below_n", "mu_above_b", "negative_budget",
             "scan_above_bound"],
    )
    def test_invalid_point_exits_2_with_empty_stdout(self, args):
        code, out, err = run_cli(["estimate", *args])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_huge_width_is_costed(self):
        code, out, err = run_cli(
            ["estimate", "--n", "64", "--b", "1000000000000", "--lambda", "4", "--mu", "1"])
        assert (code, err) == (0, "")
        assert "bit_packet             20000000000020" in out

    def test_point_and_budget_together(self):
        code, out, _ = run_cli(
            ["estimate", "--n", "1024", "--b", "8", "--lambda", "4", "--mu", "4", "--budget", "31"]
        )
        assert code == 0
        assert "bit_packet" in out and "optimal:" in out


class TestSweep:
    def test_single_point(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            ["sweep", "--b", "8", "--budget", "31", "--n-min", "1048576",
             "--n-max", "1048576", "--points", "1", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "N,berry,alpha1,alphab,best,lambda,mu,improvement"
        assert lines[1].startswith("1048576,524384,")
        assert lines[1].endswith("1.774853")

    def test_wide_word_point(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--b", "64", "--budget", "255", "--n-min", str(2**30),
             "--n-max", str(2**30), "--points", "1", "--out", str(out_path)]
        )
        assert code == 0
        improvement = float(out_path.read_text().strip().splitlines()[1].split(",")[-1])
        assert abs(improvement - 1.969) < 0.005

    @pytest.mark.parametrize("batch", [1, 3, 7, 64])
    def test_rows_written_in_batches_match_one_table(self, tmp_path, monkeypatch, batch):
        monkeypatch.setattr(cli, "SWEEP_BATCH", batch)
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            ["sweep", "--b", "8", "--budget", "31", "--n-min", "1", "--n-max", "20",
             "--points", "100", "--out", str(out_path)]
        )
        assert (code, out) == (0, "rows=20\n")
        expected = sweep_rows_to_csv(improvement_sweep(8, 31, list(range(1, 21))))
        assert out_path.read_text() == expected

    def test_csv_without_header_is_the_rows_alone(self):
        rows = improvement_sweep(8, 31, [5, 9])
        text = sweep_rows_to_csv(rows)
        assert text.startswith("N,berry,alpha1,alphab,best,lambda,mu,improvement\n")
        assert sweep_rows_to_csv(rows, header=False) == text.split("\n", 1)[1]
        assert sweep_rows_to_csv([], header=False) == ""

    def test_zero_points_usage_error(self, tmp_path):
        code, _, _ = run_cli(
            ["sweep", "--b", "8", "--budget", "31", "--n-min", "16", "--n-max", "64",
             "--points", "0", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2

    def test_inverted_bounds_usage_error(self, tmp_path):
        code, _, _ = run_cli(
            ["sweep", "--b", "8", "--budget", "31", "--n-min", "64", "--n-max", "16",
             "--points", "2", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "b,budget,message",
        [("8", "-5", "--budget must be >= 0"), ("0", "5", "--b must be >= 1"),
         ("1073741824", "1073741824", "b = 1073741824 at dirty budget 1073741824 may scan "
          "65537 points per depth, more than the 65536 the optimizer allows")],
        ids=["negative_budget", "zero_b", "scan_above_bound"],
    )
    def test_invalid_flag_exits_2_without_output(self, tmp_path, b, budget, message):
        out_path = tmp_path / "s.csv"
        code, out, err = run_cli(
            ["sweep", "--b", b, "--budget", budget, "--n-min", "4", "--n-max", "8",
             "--points", "2", "--out", str(out_path)]
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "n_min,n_max,points,message",
        [("1", "1" + "0" * 400, "2", "--n-max must be < 2**42"),
         ("1" + "0" * 400, "1" + "0" * 401, "2", "--n-min must be < 2**42"),
         ("3", str(2**42), "2", "--n-max must be < 2**42"),
         (str(2**42), str(2**42), "1", "--n-min must be < 2**42"),
         ("1", "64", str(2**1023), "--points must be < 2**1023")],
        ids=["huge_n_max", "huge_n_min", "n_max_at_limit", "n_min_at_limit", "points_at_limit"],
    )
    def test_n_beyond_float_grid_exits_2_without_output(self, tmp_path, n_min, n_max, points, message):
        out_path = tmp_path / "s.csv"
        code, out, err = run_cli(
            ["sweep", "--b", "8", "--budget", "31", "--n-min", n_min, "--n-max", n_max,
             "--points", points, "--out", str(out_path)]
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()

    def test_n_just_below_limit_sweeps(self, tmp_path):
        out_path = tmp_path / "s.csv"
        code, out, _ = run_cli(
            ["sweep", "--b", "8", "--budget", "31", "--n-min", "3",
             "--n-max", str(2**42 - 1), "--points", "3", "--out", str(out_path)]
        )
        assert (code, out) == (0, "rows=3\n")
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4 and lines[1].startswith("3,")
        assert lines[-1].startswith(f"{2**42 - 1},")

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_run_from_n_min_to_n_max(self, tmp_path, seed):
        # Below 2**42 the first grid point is n_min and the last rounds to
        # n_max, at any point count and however narrow the range. Each case
        # writes at most 100 rows: few points or a narrow range.
        rng = random.Random(seed)
        out_path = tmp_path / "s.csv"
        for _ in range(8):
            n_max = rng.randrange(1, 2 ** rng.randrange(1, 43))
            if rng.randrange(2):
                n_min, points = rng.randrange(1, n_max + 1), rng.randrange(2, 100)
            else:
                n_min, points = max(1, n_max - rng.randrange(100)), rng.randrange(2, 10**15)
            code, out, _ = run_cli(
                ["sweep", "--b", "8", "--budget", "31", "--n-min", str(n_min),
                 "--n-max", str(n_max), "--points", str(points), "--out", str(out_path)]
            )
            ns = [int(line.split(",")[0]) for line in out_path.read_text().splitlines()[1:]]
            assert (code, out) == (0, f"rows={len(ns)}\n")
            assert (ns[0], ns[-1]) == (n_min, n_max), (n_min, n_max, points)

    def test_memory_follows_distinct_rows_not_points(self, tmp_path):
        # 64 rows from 300,000 points: a list of every point would peak
        # near 2.7 MB.
        out_path = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                ["sweep", "--b", "8", "--budget", "31", "--n-min", "1", "--n-max", "64",
                 "--points", "300000", "--out", str(out_path)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "rows=64\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_matches_every_point_listed(self, tmp_path, seed):
        # Reference: list every grid point, then dedupe. Ranges near 2**50
        # have float points as coarse as their spacing; ranges near 2**1023
        # never fill up; dense grids (points >> range) are where most N come
        # from the range, and wide ones pair a dense prefix with a sparse tail.
        rng = random.Random(seed)
        cases = []
        for _ in range(60):
            pick = rng.randrange(4)
            if pick == 0:
                n_min = rng.randrange(1, 100)
                n_max = n_min + rng.randrange(300)
            elif pick == 1:
                n_min = 2 ** rng.choice([49, 50, 51, 53]) - rng.randrange(300)
                n_max = n_min + rng.randrange(300)
            elif pick == 2:
                n_max = 2**1023 - 1 - rng.randrange(2**1000)
                n_min = max(1, n_max - rng.randrange(2 ** rng.randrange(1, 1023)))
            else:
                n_min = rng.randrange(1, 2**rng.randrange(1, 1022))
                n_max = rng.randrange(n_min, 2**1023)
            cases.append((n_min, n_max, rng.choice([2, 3, rng.randrange(2, 2000)])))
        for _ in range(30):
            n_min = rng.choice([rng.randrange(1, 1000), 2 ** rng.randrange(20, 56)])
            cases.append((n_min, n_min + rng.randrange(40), rng.randrange(2, 6000)))
        for _ in range(4):
            n_min = rng.randrange(1, 1000)
            cases.append((n_min, n_min + rng.randrange(1, 3000), rng.randrange(2, 50_000)))
            n_min = rng.randrange(1, 100)
            n_max = rng.randrange(10**6, 2 ** rng.randrange(21, 1023))
            cases.append((n_min, n_max, rng.randrange(2, 50_000)))
            n_min = 2 ** rng.randrange(30, 50) + rng.randrange(-300, 300)
            cases.append((n_min, n_min + rng.randrange(1, 100), rng.randrange(2, 50_000)))

        def listed(n_min, n_max, points):
            ratio = n_max / n_min
            return sorted({round(n_min * ratio ** (i / (points - 1))) for i in range(points)})

        for n_min, n_max, points in cases:
            assert sorted(_sweep_grid(n_min, n_max, points)) == listed(n_min, n_max, points)
        # The CLI takes N below 2**42 only.
        n_min, n_max, points = next(case for case in cases if case[1] < 2**42)
        out_path = tmp_path / "s.csv"
        code, _, _ = run_cli(
            ["sweep", "--b", "8", "--budget", "31", "--n-min", str(n_min), "--n-max", str(n_max),
             "--points", str(points), "--out", str(out_path)]
        )
        assert code == 0
        expected = sweep_rows_to_csv(improvement_sweep(8, 31, listed(n_min, n_max, points)))
        assert out_path.read_text() == expected

    def test_grid_time_follows_distinct_n_not_points(self):
        # Listing 10**12 points would take hours; 2**1023 - 1 of them, forever.
        assert _sweep_grid(1, 64, 10**12) == set(range(1, 65))
        assert _sweep_grid(2**40, 2**40 + 50, 10**12) == set(range(2**40, 2**40 + 51))
        assert _sweep_grid(1, 64, 2**1023 - 1) == set(range(1, 65))

    @pytest.mark.parametrize(
        "n_min,n_max,points,rows",
        [(1, 2199023255552, 10**15, 2199023255552),
         (2199023255552, 4398046511103, 10**12, 10**12)],
        ids=["dense_range", "listed_points"],
    )
    def test_grid_over_row_cap_exits_2_before_allocating(self, tmp_path, n_min, n_max, points,
                                                         rows):
        # A child limited to 1.5 GB of address space: building either grid
        # would take gigabytes.
        out_path = tmp_path / "s.csv"
        limit = 1500 << 20
        # The child imports the checkout's package, installed or not.
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        child = subprocess.run(
            [sys.executable, "-m", "qromkit", "sweep", "--b", "8", "--budget", "31",
             "--n-min", str(n_min), "--n-max", str(n_max), "--points", str(points),
             "--out", str(out_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (child.returncode, child.stdout, child.stderr) == (
            2, "", f"error: the grid holds up to {rows} N values; sweep writes at most "
            f"{MAX_SWEEP_ROWS} rows\n"
        )
        assert not out_path.exists()

    def test_row_cap_counts_the_dense_range_and_the_listed_points(self):
        # Dense: every N from 1 to n_max. Listed: points sparser than N.
        assert len(_sweep_grid(1, MAX_SWEEP_ROWS, 10**15)) == MAX_SWEEP_ROWS
        assert len(_sweep_grid(2**41, 2**42 - 1, MAX_SWEEP_ROWS)) == MAX_SWEEP_ROWS
        for n_min, n_max, points in ((1, MAX_SWEEP_ROWS + 1, 10**15),
                                     (2**41, 2**42 - 1, MAX_SWEEP_ROWS + 1)):
            with pytest.raises(ValueError, match=f"holds up to {MAX_SWEEP_ROWS + 1} N values"):
                _sweep_grid(n_min, n_max, points)

    def test_rows_sorted_and_deterministic(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        args = ["sweep", "--b", "4", "--budget", "16", "--n-min", "64",
                "--n-max", "4096", "--points", "7", "--out", str(out_path)]
        run_cli(args)
        first = out_path.read_text()
        run_cli(args)
        assert out_path.read_text() == first
        ns = [int(line.split(",")[0]) for line in first.strip().splitlines()[1:]]
        assert ns == sorted(ns)


class TestDeterminism:
    def test_build_byte_identical(self, table_64, tmp_path):
        a, b = tmp_path / "a.gates", tmp_path / "b.gates"
        code_a, out_a, _ = run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(a)])
        code_b, out_b, _ = run_cli(["build", "--table", table_64, "--lambda", "4", "--mu", "2", "--out", str(b)])
        assert code_a == code_b == 0
        assert out_a == out_b
        assert a.read_bytes() == b.read_bytes()
