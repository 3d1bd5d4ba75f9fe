import contextlib
import importlib
import io

import pytest

from qromkit import format_table, parse_circuit
from qromkit.cli import main
from helpers import random_table


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
        # The state-size cap must fire before rows are indexed or allocated;
        # a failing guard trips the patched indexer instead of exhausting memory.
        def indexer_must_not_run(circuit):
            raise AssertionError("qubit_indexer reached")

        # The package exports a function named ``simulate``, so fetch the module.
        simulate_module = importlib.import_module("qromkit.simulate")
        monkeypatch.setattr(simulate_module, "qubit_indexer", indexer_must_not_run)
        path = tmp_path / "c.gates"
        path.write_text(
            "REGISTER addr_q 6 address_q\nREGISTER output 8 output\nREGISTER w 4000000000 work\n"
        )
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

    def test_selectswap_needs_lambda(self, table_64):
        code, _, err = run_cli(["verify", "--table", table_64, "--baseline", "selectswap"])
        assert code == 2


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
        ],
        ids=["zero_n", "zero_b", "negative_n", "lambda_not_below_n", "mu_above_b"],
    )
    def test_invalid_point_exits_2_with_empty_stdout(self, args):
        code, out, err = run_cli(["estimate", *args])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

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
