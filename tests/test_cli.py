import argparse
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import boxworld
from boxworld import audit, cli, protocol
from boxworld.audit import effective_box
from boxworld.boxes import MAX_CSV_BYTES, MAX_PAIR_ENTRIES, dumps_csv, pr_box
from boxworld.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_pr_box_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--box", "pr")
        assert code == 0
        assert "no-signaling: OK; CHSH = 4" in out

    def test_uniform_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--box", "uniform")
        assert code == 0
        assert "no-signaling: OK" in out

    def test_signaling_box_fails_verification(self, capsys, tmp_path):
        path = tmp_path / "box.csv"
        path.write_text(dumps_csv(effective_box(0.3)))
        code, out, _ = run(capsys, "verify", "--box", str(path))
        assert code == 2
        assert "VIOLATED" in out
        assert "worst: a_to_b" in out

    def test_csv_roundtrip_through_file(self, capsys, tmp_path):
        path = tmp_path / "pr.csv"
        path.write_text(dumps_csv(pr_box()))
        code, out, _ = run(capsys, "verify", "--box", str(path))
        assert code == 0
        assert "CHSH = 4" in out

    def test_malformed_csv_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,box\n1,2,3\n")
        code, _, err = run(capsys, "verify", "--box", str(path))
        assert code == 1
        assert "error" in err

    def test_unknown_box_name(self, capsys):
        code, _, err = run(capsys, "verify", "--box", "nope")
        assert code == 1
        assert "unknown box" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "verify", "--frobnicate")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "explode")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "signal")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0


class TestChshLocal:
    def test_chsh_pr(self, capsys):
        code, out, _ = run(capsys, "chsh", "--box", "pr")
        assert code == 0
        assert out.strip() == "4"

    def test_local_pr(self, capsys):
        code, out, _ = run(capsys, "local", "--box", "pr")
        assert code == 0
        assert "local: false" in out

    def test_local_uniform_lists_weights(self, capsys):
        code, out, _ = run(capsys, "local", "--box", "uniform")
        assert code == 0
        assert "local: true" in out
        weights_line = [l for l in out.splitlines() if l.startswith("weights:")][0]
        weights = [float(w) for w in weights_line.split(":", 1)[1].split(",")]
        assert len(weights) == 16
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)


class TestSignalScan:
    def test_signal_quarter(self, capsys):
        code, out, _ = run(capsys, "signal", "--theta", str(math.pi / 4))
        assert code == 0
        assert "a->b violation = 0.25" in out
        assert "witness[0]" in out

    def test_signal_degrees(self, capsys):
        _, rad_out, _ = run(capsys, "signal", "--theta", str(math.pi / 4))
        _, deg_out, _ = run(capsys, "signal", "--theta", "45", "--degrees")
        rad_v = [l for l in rad_out.splitlines() if l.startswith("a->b")]
        deg_v = [l for l in deg_out.splitlines() if l.startswith("a->b")]
        assert rad_v == deg_v

    def test_scan_sweep_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--theta-min", "0", "--theta-max", "1.5707963", "--steps", "65"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,ab_violation,ba_violation"
        assert len(lines) == 66
        for line in lines[1:]:
            theta, ab, ba = (float(x) for x in line.split(","))
            assert ab == pytest.approx(math.sin(2 * theta) / 4, abs=1e-10)
            assert abs(ba) <= 1e-10
        quarter_row = lines[33]
        assert float(quarter_row.split(",")[1]) == pytest.approx(0.25, abs=1e-7)

    def test_byte_identical_reruns(self, capsys):
        argv = ("scan", "--theta-min", "0", "--theta-max", "1.0", "--steps", "7")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("degrees", [False, True])
    def test_signal_prints_the_one_step_scan_figure(self, capsys, degrees):
        # signal and a one-angle scan read the same stack, so the figures agree byte for byte
        rng = np.random.default_rng(13 + degrees)
        flags = ["--degrees"] if degrees else []
        span = 400.0 if degrees else 7.0
        for theta in [0.0, 45.0 if degrees else math.pi / 4, *rng.uniform(-span, span, 40)]:
            text = repr(float(theta))
            _, out, _ = run(capsys, "signal", f"--theta={text}", *flags)
            line = next(l for l in out.splitlines() if l.startswith("a->b violation = "))
            _, grid, _ = run(
                capsys, "scan", f"--theta-min={text}", f"--theta-max={text}", "--steps", "1", *flags
            )
            assert line.removeprefix("a->b violation = ") == grid.splitlines()[1].split(",")[1]


class TestRepeatSimulate:
    def test_repeat(self, capsys):
        code, out, _ = run(capsys, "repeat", "--theta", "0.7853982", "--target", "0.65")
        assert code == 0
        assert out.strip() == "n = 2"

    def test_repeat_no_signal_angle(self, capsys):
        code, _, err = run(capsys, "repeat", "--theta", "0", "--target", "0.9")
        assert code == 2
        assert "no signaling" in err

    def test_simulate_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--theta", str(math.pi / 4), "--n", "1",
            "--shots", "20000", "--seed", "42",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,n,exact,empirical,shots,seed"
        theta, n, exact, empirical, shots, seed = lines[1].split(",")
        assert float(exact) == 0.625
        assert int(shots) == 20000 and int(seed) == 42
        assert abs(float(empirical) - 0.625) < 0.011  # 3 sigma for 20k shots

    def test_simulate_deterministic(self, capsys):
        argv = ("simulate", "--theta", "0.5", "--n", "3", "--shots", "5000", "--seed", "9")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXWORLD_SEED", "777")
        _, out, _ = run(capsys, "simulate", "--theta", "0.5", "--n", "2", "--shots", "100")
        assert out.strip().splitlines()[1].endswith(",777")

    def test_bad_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXWORLD_SEED", "not-a-number")
        code, _, err = run(capsys, "simulate", "--theta", "0.5", "--n", "2", "--shots", "10")
        assert code == 1
        assert "BOXWORLD_SEED" in err


class TestAudit:
    def test_single_angle(self, capsys):
        code, out, _ = run(capsys, "audit", "--theta", str(math.pi / 4))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,pos_ok,norm_ok,ab_violation,ba_violation"
        fields = lines[1].split(",")
        assert fields[1] == "true" and fields[2] == "true"
        assert float(fields[3]) == pytest.approx(0.25, abs=1e-10)

    def test_sweep(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--theta-min", "0", "--theta-max", "0.8", "--steps", "5"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_needs_theta_or_range(self, capsys):
        code, _, err = run(capsys, "audit")
        assert code == 1
        assert "audit needs" in err


class TestParse:
    def test_canonical_echo(self, capsys):
        code, out, _ = run(
            capsys, "parse", "--expr", "c(|00>(+)|11>) + s(|01>(+)|10>)", "--theta", "0.5"
        )
        assert code == 0
        assert "canonical: c(|00> (+) |11>) + s(|01> (+) |10>)" in out
        assert "branches (4):" in out

    def test_dump_rho(self, capsys):
        code, out, _ = run(
            capsys, "--digits", "5", "parse", "--expr", "1/2 (|00> (+) |11>)", "--dump-rho"
        )
        assert code == 0
        assert "rho:" in out
        rho_lines = out.split("rho:\n", 1)[1].strip().splitlines()
        assert len(rho_lines) == 4
        first = [float(x) for x in rho_lines[0].split(",")]
        assert first[0] == 0.5

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "|0> + |11>")
        assert code == 1
        assert "byte 6" in err

    def test_symbol_without_theta(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "c|0>")
        assert code == 1
        assert "needs an angle" in err

    @pytest.mark.parametrize(
        "expr", ["1/sqrt(0) |0>", "(" * 300 + "|0>" + ")" * 300, "(" * 1000 + "|0>" + ")" * 1000]
    )
    def test_rejected_with_one_error_line(self, capsys, expr):
        code, _, err = run(capsys, "parse", "--expr", expr)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


    @pytest.mark.parametrize(
        "argv",
        [
            ("--expr", "1/sqrt(0) |0>"),
            ("--expr", "c|0>"),
            ("--expr", "0 |0>", "--dump-rho"),
            ("--expr", "1" + "0" * 400 + " |0>"),
            ("--expr", "sqrt(1" + "0" * 400 + ") |0>"),
            ("--expr", "² |0>"),
            ("--expr", "٣ |0>"),
            ("--expr", f"1{'0' * 300}/0.{'0' * 300}1 |0>", "--dump-rho"),
        ],
    )
    def test_rejected_expression_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, "parse", *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "expr, rho",
        [
            (f"1{'0' * 200} |0> + 1{'0' * 200} |1>", ["0.5,0,0.5,0", "0.5,0,0.5,0"]),
            (f"1{'0' * 200} |0>", ["1,0,0,0", "0,0,0,0"]),
            (f"0.{'0' * 199}1 |0>", ["1,0,0,0", "0,0,0,0"]),
            (f"0.{'0' * 199}1 |0> (+) 0.{'0' * 199}1 |1>", ["0.5,0,0,0", "0,0,0.5,0"]),
            (f"1{'0' * 200} (1{'0' * 200} |0>)", ["1,0,0,0", "0,0,0,0"]),
            (f"1/1{'0' * 200} (1/1{'0' * 200} |0>)", ["1,0,0,0", "0,0,0,0"]),
            # 10^-320 is subnormal as a plain product; rho[0, 1] is 10^-160 all the same
            (
                f"0.{'0' * 159}1 (0.{'0' * 159}1 |0> + |1>)",
                [
                    "9.9998886718268301e-321,0,9.9999999999999999e-161,0",
                    "9.9999999999999999e-161,0,0.99999999999999989,0",
                ],
            ),
        ],
        ids=[
            "huge-sum", "huge", "tiny", "tiny-mixture", "nested-huge", "nested-tiny",
            "nested-subnormal",
        ],
    )
    def test_amplitude_scale_drops_out(self, capsys, expr, rho):
        code, out, err = run(capsys, "parse", "--expr", expr, "--dump-rho")
        assert code == 0 and err == ""
        assert out.split("rho:\n", 1)[1].splitlines() == rho


class TestOutputOptions:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        code, out, _ = run(capsys, "--output", str(path), "chsh", "--box", "pr")
        assert code == 0
        assert out == ""
        assert path.read_text().strip() == "4"

    def test_digits(self, capsys):
        _, out, _ = run(capsys, "--digits", "3", "signal", "--theta", "0.1")
        assert "a->b violation = 0.0497" in out

    @pytest.mark.parametrize("digits", ["-1", "0", "x"])
    def test_digits_must_be_positive(self, capsys, digits):
        code, out, err = run(capsys, "--digits", digits, "chsh")
        assert code == 1 and out == ""
        assert err.startswith("error: argument --digits: expected a positive integer")

    @pytest.mark.parametrize("digits", [str(cli.MAX_DIGITS + 1), "2147483648"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["chsh"],
            ["local"],
            ["signal", "--theta", "0.3"],
            ["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "2"],
            ["audit", "--theta", "0.3"],
            ["repeat", "--theta", "0.3", "--target", "0.9"],
            ["simulate", "--theta", "0.3", "--n", "5", "--shots", "10", "--seed", "1"],
            ["parse", "--expr", "|0> + |1>", "--dump-rho"],
        ],
    )
    def test_digits_past_a_float64_print_nothing(self, capsys, argv, digits):
        code, out, err = run(capsys, "--digits", digits, *argv)
        assert code == 1 and out == ""
        assert err == f"error: argument --digits: expected at most 17 digits, got {digits}\n"


class TestErrorExits:
    def test_lp_failure_is_one_error_line(self, capsys, monkeypatch):
        import scipy.optimize

        def failing(*args, **kwargs):
            return scipy.optimize.OptimizeResult(success=False, status=4, message="stalled", x=None)

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        code, out, err = run(capsys, "local", "--box", "uniform")
        assert code == 1 and out == ""
        assert err == "error: locality LP failed (status 4): stalled\n"

    def test_nonlocal_boxes_need_no_lp(self, capsys, monkeypatch, tmp_path):
        import scipy.optimize

        def failing(*args, **kwargs):
            return scipy.optimize.OptimizeResult(success=False, status=4, message="stalled", x=None)

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        path = tmp_path / "construction.csv"
        path.write_text(dumps_csv(effective_box(0.3)))
        for box in ("pr", str(path)):
            assert run(capsys, "local", "--box", box) == (0, "local: false\n", "")

    @pytest.mark.parametrize("command", ["verify", "chsh", "local"])
    def test_box_file_is_read_up_to_a_cap(self, capsys, tmp_path, command):
        # A valid box padded with blank lines to exactly the cap, then one byte more.
        text = dumps_csv(pr_box())
        lines, rest = divmod(MAX_CSV_BYTES - len(text), 1 << 16)
        path = tmp_path / "padded.csv"
        path.write_text(text + (" " * ((1 << 16) - 1) + "\n") * lines + " " * rest)
        assert path.stat().st_size == MAX_CSV_BYTES
        code, out, err = run(capsys, command, "--box", str(path))
        assert code == 0 and out and err == ""
        with path.open("a") as handle:
            handle.write(" ")
        sparse = tmp_path / "sparse.csv"
        with sparse.open("wb") as handle:
            handle.truncate(64 << 20)  # 64 MiB of zero bytes, mostly never read
        for big in (path, sparse):
            code, out, err = run(capsys, command, "--box", str(big))
            assert code == 1 and out == ""
            assert err == f"error: box file {str(big)!r} is longer than {MAX_CSV_BYTES} bytes\n"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc and /dev")
    def test_endless_box_file_is_read_only_up_to_the_cap(self):
        # The child may map only 256 MiB more than it has after importing, so
        # an unbounded read of /dev/zero ends in MemoryError instead of growing.
        proc = _fresh_python(
            "-c",
            "import re, resource, sys\n"
            "from boxworld import cli\n"
            "status = open('/proc/self/status').read()\n"
            "mapped = int(re.search(r'VmSize:\\s+(\\d+) kB', status)[1]) << 10\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "soft = mapped + (256 << 20)\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    soft = min(soft, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            "sys.exit(cli.main(['verify', '--box', '/dev/zero']))",
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: box file '/dev/zero' is longer than {MAX_CSV_BYTES} bytes\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_without_a_writer_reads_as_empty(self, tmp_path):
        # A blocking open would wait for a writer forever; the child's timeout bounds the test.
        fifo = tmp_path / "box.fifo"
        os.mkfifo(fifo)
        proc = _fresh_python("-m", "boxworld", "verify", "--box", str(fifo))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: expected header 'A,B,a,b,p'\n"

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_pipe_with_a_writer_is_read_to_its_end(self, capsys):
        # The writer stays open for a while after the data, so the read must wait for its end.
        proc = _fresh_python(
            "-c",
            "import os, sys, threading\n"
            "from boxworld import cli\n"
            "from boxworld.boxes import dumps_csv, pr_box\n"
            "r, w = os.pipe()\n"
            "os.write(w, dumps_csv(pr_box()).encode())\n"
            "threading.Timer(0.2, os.close, (w,)).start()\n"
            "sys.exit(cli.main(['verify', '--box', f'/dev/fd/{r}']))",
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(capsys, "verify", "--box", "pr")[1]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
    def test_wide_box_is_refused_before_its_signaling_check(self, tmp_path):
        # 60000 Alice inputs fit in the byte cap, but comparing every pair of them
        # takes 28.8 GB; the child may map only 256 MiB more than it has after importing.
        path = tmp_path / "wide.csv"
        path.write_text("A,B,a,b,p\n" + "".join(f"{A},0,0,0,1\n" for A in range(60000)))
        assert path.stat().st_size <= MAX_CSV_BYTES
        proc = _fresh_python(
            "-c",
            "import re, resource, sys\n"
            "from boxworld import cli\n"
            "status = open('/proc/self/status').read()\n"
            "mapped = int(re.search(r'VmSize:\\s+(\\d+) kB', status)[1]) << 10\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "soft = mapped + (256 << 20)\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    soft = min(soft, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            f"sys.exit(cli.main(['verify', '--box', {str(path)!r}]))",
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: table with 60000x1 inputs and 1x1 outputs is too large:"
            f" its no-signaling check compares more than {MAX_PAIR_ENTRIES} entries\n"
        )

    @pytest.mark.parametrize("command", ["verify", "chsh", "local"])
    def test_invalid_box_exits_two(self, capsys, tmp_path, command):
        # BoxValidationError is a ValueError, which alone would give exit 1.
        text = dumps_csv(pr_box()).replace("0,0,0,0,0.5\n", "0,0,0,0,0.75\n")
        path = tmp_path / "neg.csv"
        path.write_text(text.replace("0,0,0,1,0\n", "0,0,0,1,-0.25\n"))
        code, out, err = run(capsys, command, "--box", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: negative probability")

    def test_simulate_copy_cap(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("simulation started")

        monkeypatch.setattr(protocol, "_chunk_correct", no_work)
        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_miss", no_work)
        code, out, err = run(
            capsys, "simulate", "--theta", "0.3", "--n", str(10**10), "--shots", "10", "--seed", "1"
        )
        assert code == 1 and out == ""
        assert err == f"error: n = {10**10} exceeds the cap of {protocol.MIN_ROUNDS_MAX_COPIES} copies\n"

    def test_repeat_max_n_ceiling(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the curve was evaluated before --max-n was checked")

        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_miss", no_work)
        for max_n in (str(10**10), str(protocol.MIN_ROUNDS_MAX_COPIES + 1), "0"):
            code, out, err = run(
                capsys, "repeat", "--theta", "1e-6", "--target", "0.99", "--max-n", max_n
            )
            assert code == 1 and out == ""
            assert err == f"error: max_n must lie in [1, 1000000], got {max_n}\n"

    def test_simulate_shot_ceiling(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("simulation started")

        monkeypatch.setattr(protocol, "_chunk_correct", no_work)
        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_miss", no_work)
        shots = protocol.MAX_SHOTS + 1
        code, out, err = run(
            capsys, "simulate", "--theta", "0.3", "--n", "5", "--shots", str(shots), "--seed", "1"
        )
        assert code == 1 and out == ""
        assert err == f"error: shots = {shots} exceeds the cap of {protocol.MAX_SHOTS}\n"

    @pytest.mark.parametrize("command", ["scan", "audit"])
    def test_bad_steps_prints_nothing(self, capsys, command):
        code, out, err = run(capsys, command, "--theta-min", "0", "--theta-max", "1", "--steps", "0")
        assert code == 1 and out == ""
        assert err == "error: --steps must be at least 1\n"

    @pytest.mark.parametrize("command", ["scan", "audit"])
    @pytest.mark.parametrize("steps", [cli.MAX_STEPS + 1, 10**10])
    def test_steps_past_the_bound_print_nothing_and_do_no_work(
        self, capsys, monkeypatch, command, steps
    ):
        def no_work(*args):
            raise AssertionError("the sweep started before --steps was checked")

        monkeypatch.setattr(audit, "_densities", no_work)
        code, out, err = run(
            capsys, command, "--theta-min", "0", "--theta-max", "1", "--steps", str(steps)
        )
        assert code == 1 and out == ""
        assert err == f"error: --steps must be at most {cli.MAX_STEPS}\n"


def _one_error_line(err: str, start: str) -> bool:
    return err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")


class TestFlagValues:
    @pytest.mark.parametrize("command", ["verify", "chsh", "local"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "x"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, command, tol):
        code, out, err = run(capsys, command, "--box", "pr", f"--tol={tol}")
        assert code == 1 and out == ""
        assert _one_error_line(err, "error: argument --tol: ")

    def test_zero_tolerance_is_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--box", "pr", "--tol", "0")
        assert code == 0 and out.startswith("no-signaling: OK")

    ANGLE_ARGVS = [
        ["scan", "--theta-min", "0", "--theta-max", "inf", "--steps", "3"],
        ["scan", "--theta-min", "nan", "--theta-max", "1", "--steps", "3"],
        ["audit", "--theta", "nan"],
        ["audit", "--theta-min=-inf", "--theta-max", "0", "--steps", "3"],
        ["audit", "--theta", "1e400", "--degrees"],
        ["signal", "--theta", "inf"],
        ["repeat", "--theta", "nan", "--target", "0.9"],
        ["simulate", "--theta=-inf", "--n", "3", "--shots", "10"],
        ["parse", "--expr", "c|0>", "--theta", "nan"],
    ]

    @pytest.mark.parametrize("argv", ANGLE_ARGVS, ids=lambda a: " ".join(a))
    def test_non_finite_angles_rejected_while_parsing(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert _one_error_line(err, "error: argument --theta")

    @pytest.mark.parametrize("command", ["scan", "audit"])
    def test_overflowing_angle_span_rejected(self, capsys, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, command, "--theta-min=-1e308", "--theta-max=1e308", "--steps", "3"
            )
        assert code == 1 and out == ""
        assert err == "error: --theta-max minus --theta-min overflows a float\n"
        code, out, _ = run(capsys, command, "--theta-min=-1e308", "--theta-max=1e308", "--steps", "1")
        assert code == 0 and out.splitlines()[1].startswith("-1e+308,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--theta-min", "0", "--theta-max", "inf", "--steps", "3"],
            ["audit", "--theta-min=-1e308", "--theta-max=1e308", "--steps", "3"],
        ],
    )
    def test_fresh_interpreter_prints_one_line(self, argv):
        proc = _fresh_python(
            "-c", f"import sys\nfrom boxworld import cli\nsys.exit(cli.main({argv!r}))"
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert _one_error_line(proc.stderr, "error: ")

    def test_local_weights_print_no_negative_zero(self, capsys):
        code, out, _ = run(capsys, "local", "--box", "uniform")
        assert code == 0
        fields = out.splitlines()[1].removeprefix("weights: ").split(",")
        assert len(fields) == 16 and not any(f.startswith("-") for f in fields)


def _grid_args(lo, hi, steps, degrees=False):
    return argparse.Namespace(theta_min=lo, theta_max=hi, steps=steps, degrees=degrees)


class TestThetaGrid:
    def test_bit_identical_to_linspace(self):
        rng = np.random.default_rng(5)
        ranges = [(0.0, 1.5707963), (0.0, math.pi), (1.0, -2.0), (0.3, 0.3), (0.0, 5e-324)]
        ranges += [tuple(rng.uniform(-4.0, 4.0, size=2)) for _ in range(4)]
        for steps in range(1, 201):
            for lo, hi in ranges:
                got = cli._theta_grid(_grid_args(lo, hi, steps))
                assert got.tobytes() == np.linspace(lo, hi, steps).tobytes(), (lo, hi, steps)
            lo_deg, hi_deg = -170.25, 95.5
            got = cli._theta_grid(_grid_args(lo_deg, hi_deg, steps, True))
            want = np.linspace(math.radians(lo_deg), math.radians(hi_deg), steps)
            assert got.tobytes() == want.tobytes(), steps

    def test_grid_at_the_bound(self):
        # the largest grid is built whole (8 MB); its sweep is left out here
        grid = cli._theta_grid(_grid_args(0.0, 1.0, cli.MAX_STEPS))
        assert grid.shape == (cli.MAX_STEPS,)
        assert grid.tobytes() == np.linspace(0.0, 1.0, cli.MAX_STEPS).tobytes()


class TestParserReuse:
    ARGVS = [
        ["verify", "--frobnicate"],
        ["audit", "--theta", "0.3"],
        ["--digits", "5", "signal", "--theta", "0.1"],
        ["signal", "--theta", "0.1"],
        ["--output", "OUT", "chsh", "--box", "pr"],
        ["chsh", "--box", "uniform"],
        ["--digits", "-1", "chsh"],
        ["repeat", "--theta", "0", "--target", "0.9"],
        ["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "3", "--degrees"],
        ["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "3"],
        ["--help"],
        ["parse", "--expr", "c|0>", "--theta", "0.2"],
        ["parse", "--expr", "|0>"],
    ]

    def _calls(self, capsys, tmp_path, fresh):
        results = []
        for i, argv in enumerate(self.ARGVS):
            argv = [str(tmp_path / f"out{i}.txt") if a == "OUT" else a for a in argv]
            if fresh:
                cli.build_parser.cache_clear()
            code, out, err = run(capsys, *argv)
            written = [p.read_text() for p in sorted(tmp_path.iterdir())]
            results.append((code, out, err, written))
        return results

    def test_one_process_matches_fresh_parsers(self, capsys, tmp_path):
        (tmp_path / "fresh").mkdir()
        (tmp_path / "reused").mkdir()
        fresh = self._calls(capsys, tmp_path / "fresh", fresh=True)
        reused = self._calls(capsys, tmp_path / "reused", fresh=False)
        assert reused == fresh
        assert [r[0] for r in reused] == [1, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0]
        assert cli.build_parser() is cli.build_parser()


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(boxworld.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestColdImport:
    def test_package_and_cli_import_no_scipy(self):
        proc = _fresh_python(
            "-c",
            "import sys, boxworld, boxworld.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_scipy_users_work_in_a_fresh_interpreter(self, capsys):
        proc = _fresh_python(
            "-c",
            "import sys\n"
            "from boxworld import cli, protocol\n"
            "code = cli.main(['local', '--box', 'uniform'])\n"
            "print(repr(protocol.copy_distance(0.3, 500)))\n"
            "sys.exit(code)"
        )
        assert proc.returncode == 0, proc.stderr
        _, local_out, _ = run(capsys, "local", "--box", "uniform")
        assert proc.stdout == local_out + repr(protocol.copy_distance(0.3, 500)) + "\n"
        assert proc.stdout.startswith("local: true\nweights: ")

    def test_local_on_a_nonlocal_box_loads_no_scipy(self):
        # -X importtime lists every module the run imports on stderr
        proc = _fresh_python("-X", "importtime", "-m", "boxworld", "local", "--box", "pr")
        assert (proc.returncode, proc.stdout) == (0, "local: false\n")
        assert "import time:" in proc.stderr and "numpy" in proc.stderr
        assert "scipy" not in proc.stderr

    def test_repetition_at_large_n_loads_no_scipy(self, capsys):
        repeat = ["repeat", "--theta", "0.0081", "--target", "0.9"]
        simulate = ["simulate", "--theta", "0.0081", "--n", "100000", "--shots", "2000", "--seed", "3"]
        proc = _fresh_python(
            "-c",
            "import sys\n"
            "from boxworld import cli\n"
            f"codes = [cli.main({repeat!r}), cli.main({simulate!r})]\n"
            "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert proc.returncode == 0, proc.stderr
        _, repeat_out, _ = run(capsys, *repeat)
        _, simulate_out, _ = run(capsys, *simulate)
        assert proc.stdout == repeat_out + simulate_out + "[0, 0] []\n"
        assert 50_000 < int(repeat_out.removeprefix("n = ")) < 200_000


LAYERS = ("quantum", "boxes", "hybrid", "protocol", "dsl", "audit")

# The layers each README command runs; the others must stay unexecuted.
CHAINS = {
    "verify": {"boxes"},
    "chsh": {"boxes"},
    "local": {"boxes"},
    "signal": {"quantum", "hybrid"},
    "scan": {"quantum", "boxes", "hybrid", "audit"},
    "audit": {"quantum", "boxes", "hybrid", "audit"},
    "repeat": {"protocol"},
    "simulate": {"protocol"},
    "parse": {"quantum", "hybrid", "dsl"},
}

# Runs cli.main(argv) and prints its exit code and the layers whose code
# ran. A lazily registered module turns into a plain module when it runs,
# and reading its type does not run it.
_LAYER_PROBE = (
    "import contextlib, io, sys, types\n"
    "from boxworld import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    f"ran = [l for l in {LAYERS!r} if type(sys.modules['boxworld.' + l]) is types.ModuleType]\n"
    "print(code, ' '.join(ran))\n"
)


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("boxworld ")]


class TestReadmeCommands:
    def test_each_documented_line_runs_clean_with_warnings_as_errors(self):
        # pytest's warning filter sees only in-process calls; a fresh interpreter
        # under -W error also catches warnings at import and on the real CLI path
        lines = _readme_commands()
        assert len(lines) >= 9
        for line in lines:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "boxworld"
            proc = _fresh_python("-W", "error", "-m", "boxworld", *argv[1:])
            assert (proc.returncode, proc.stderr) == (0, ""), line
            assert proc.stdout, line


class TestLazyLayers:
    """Each command runs only the layers of its chain, in a fresh interpreter."""

    @pytest.mark.parametrize(
        "argv", [shlex.split(line, comments=True)[1:] for line in _readme_commands()], ids=" ".join
    )
    def test_readme_command_runs_only_its_chain(self, argv):
        proc = _fresh_python("-c", _LAYER_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        code, *ran = proc.stdout.split()
        assert code == "0"
        assert set(ran) == CHAINS[argv[0]]

    def test_package_import_loads_no_numpy(self):
        proc = _fresh_python(
            "-c",
            "import sys, boxworld\n"
            "print('numpy' in sys.modules)\n"
            "print(boxworld.pr_box().table.shape, 'numpy' in sys.modules)\n"
            "print(boxworld.audit.effective_box is boxworld.effective_box)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n(2, 2, 2, 2) True\nTrue\n"

    def test_every_layer_is_registered_once_the_cli_is_imported(self):
        # The benchmark's tracer reads sys.modules for each layer, then vars()
        # of each, which runs a layer that has not run yet.
        proc = _fresh_python(
            "-c",
            "import sys, boxworld.cli\n"
            f"modules = [sys.modules['boxworld.' + l] for l in ('cli', *{LAYERS!r})]\n"
            "print(all('__file__' in vars(m) for m in modules))\n"
            "print(sys.modules['boxworld.boxes'].DEFAULT_TOL)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n1e-09\n"

    @pytest.mark.parametrize(
        "prelude, argv, code, message",
        [
            ("", ["verify", "--box", "{negative}"], 2, "error: negative probability"),
            ("", ["repeat", "--theta", "0", "--target", "0.9"], 2, "error: no signaling at theta"),
            ("", ["parse", "--expr", "|0> + |11>"], 1, "error: ket width 2 differs from 1"),
            ("", ["verify", "--box", "nosuch"], 1, "error: unknown box 'nosuch'"),
            ("", ["repeat", "--theta", "0.5", "--target", "0.9", "--max-n", "0"], 1, "error: "),
            (
                "import scipy.optimize, types\n"
                "scipy.optimize.linprog = lambda *a, **k: types.SimpleNamespace("
                "success=False, status=4, message='patched')\n",
                ["local", "--box", "uniform"],
                1,
                "error: locality LP failed (status 4): patched",
            ),
        ],
        ids=["BoxValidationError", "ZeroSignalError", "ParseError", "usage", "ValueError", "LocalityLPError"],
    )
    def test_each_error_keeps_its_exit_code(self, tmp_path, prelude, argv, code, message):
        negative = tmp_path / "neg.csv"
        text = dumps_csv(pr_box()).replace("0,0,0,0,0.5\n", "0,0,0,0,0.75\n")
        negative.write_text(text.replace("0,0,0,1,0\n", "0,0,0,1,-0.25\n"))
        argv = [arg.format(negative=negative) for arg in argv]
        script = prelude + "import sys\nfrom boxworld import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = _fresh_python("-c", script, *argv)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(message)

    def test_a_defect_is_not_an_input_error(self, monkeypatch):
        def overflowing(args, out):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._COMMANDS, "chsh", overflowing)
        with pytest.raises(RecursionError):
            main(["chsh"])
