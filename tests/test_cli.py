import argparse
import contextlib
import hashlib
import io
import itertools
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxworld
from boxworld import audit, boxes, cli, hybrid, protocol
from boxworld.audit import effective_box
from boxworld.boxes import MAX_CSV_BYTES, MAX_PAIR_ENTRIES, pr_box
from boxworld.cli import main
from boxworld.protocol import CHUNK_SHOTS, MAX_SHOTS, MIN_ROUNDS_MAX_COPIES
from reference import dumps_csv, exact_sweep_row


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

    def test_output_naming_the_box_file_is_refused(self, capsys, tmp_path):
        # Opening --output once emptied the box file before the command read it.
        box = tmp_path / "box.csv"
        box.write_text(dumps_csv(pr_box()))
        (tmp_path / "link.csv").symlink_to(box)
        for output in (box, tmp_path / "link.csv"):
            code, out, err = run(capsys, "--output", str(output), "verify", "--box", str(box))
            assert (code, out) == (1, "")
            assert err == f"error: --output {str(output)!r} is the --box file; writing would empty it\n"
        assert box.read_text() == dumps_csv(pr_box())
        code, _, _ = run(capsys, "--output", str(tmp_path / "out.txt"), "verify", "--box", str(box))
        assert code == 0 and (tmp_path / "out.txt").read_text().startswith("no-signaling: OK")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_naming_the_box_pipe_is_refused(self, tmp_path):
        # Opening a named pipe for writing waits for a reader, which only the
        # command itself could become, after that open: it once waited forever.
        fifo = tmp_path / "box.fifo"
        os.mkfifo(fifo)
        argv = ["--output", str(fifo), "verify", "--box", str(fifo)]
        proc = subprocess.run(
            [sys.executable, "-m", "boxworld", *argv],
            env=_fresh_env(),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: --output {str(fifo)!r} is the --box named pipe;"
            " opening it would wait for a reader\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["parse", "--expr", "@"], "error: unexpected character '@' (byte 0)\n"),
            (
                ["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "0"],
                "error: --steps must be at least 1\n",
            ),
        ],
        ids=["parse", "scan"],
    )
    def test_a_failed_command_leaves_the_output_file(self, capsys, tmp_path, argv, message):
        # --output was once opened for writing before the command checked its
        # input, so a typo emptied the previous output.
        keep = tmp_path / "keep.txt"
        keep.write_bytes(KEPT)
        code, out, err = run(capsys, "--output", str(keep), *argv)
        assert (code, out, err) == (1, "", message)
        assert keep.read_bytes() == KEPT
        assert list(tmp_path.iterdir()) == [keep]  # no temporary file is left behind

    def test_output_holds_what_stdout_would(self, capsys, tmp_path):
        signaling = tmp_path / "signaling.csv"
        signaling.write_text(dumps_csv(effective_box(0.3)))
        for argv in (
            ["signal", "--theta", "0.3"],
            ["--digits", "5", "scan", "--theta-min", "0", "--theta-max", "1", "--steps", "9"],
            ["verify", "--box", str(signaling)],  # exit 2, a report all the same
            ["parse", "--expr", "|0> + |1>", "--dump-rho"],
        ):
            code, want, _ = run(capsys, *argv)
            path = tmp_path / "out.txt"
            path.write_bytes(KEPT)
            assert run(capsys, "--output", str(path), *argv) == (code, "", "")
            assert path.read_text() == want and code in (0, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "signaling.csv"]

    def test_output_keeps_its_mode_and_its_symlink(self, capsys, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_bytes(KEPT)
        target.chmod(0o640)
        link.symlink_to(target.name)
        argv = ["chsh", "--box", "pr"]
        assert run(capsys, "--output", str(link), *argv) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == "4\n" and stat.S_IMODE(target.stat().st_mode) == 0o640
        # A new file gets the bits open() gives one.
        (tmp_path / "plain.txt").open("w").close()
        assert run(capsys, "--output", str(tmp_path / "new.txt"), *argv) == (0, "", "")
        plain, new = (stat.S_IMODE((tmp_path / f).stat().st_mode) for f in ("plain.txt", "new.txt"))
        assert plain == new

    def test_missing_box_leaves_no_output_file(self, capsys, tmp_path):
        # --output was once opened before the box was read: that made an empty
        # file, reported as a box without a header when --box named it too.
        for box, output in (("nobox.csv", "nobox.csv"), ("missing.csv", "out.txt")):
            box, output = tmp_path / box, tmp_path / output
            code, out, err = run(capsys, "--output", str(output), "verify", "--box", str(box))
            assert (code, out) == (1, "")
            assert _one_error_line(err, f"error: unknown box {str(box)!r}")
            assert not box.exists() and not output.exists()

    @pytest.mark.skipif(not Path(os.devnull).exists(), reason=f"needs {os.devnull}")
    def test_output_on_the_device_the_box_reads_reports_the_box(self, capsys):
        # Writing to a device empties nothing, so the fault is the empty box file.
        code, out, err = run(capsys, "--output", os.devnull, "verify", "--box", os.devnull)
        assert (code, out, err) == (1, "", "error: expected header 'A,B,a,b,p'\n")

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
    def test_nonlocal_boxes_need_no_lp(self, capsys, monkeypatch, tmp_path):
        def failing(*args, **kwargs):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(boxes, "_simplex", failing)
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
        proc = _capped_cli(["verify", "--box", "/dev/zero"])
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
            "r, w = os.pipe()\n"
            f"os.write(w, {dumps_csv(pr_box()).encode()!r})\n"
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
        proc = _capped_cli(["verify", "--box", str(path)])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: table with 60000x1 inputs and 1x1 outputs is too large:"
            f" its no-signaling check compares more than {MAX_PAIR_ENTRIES} entries\n"
        )

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
    @pytest.mark.parametrize("width", [hybrid.MAX_WIDTH + 1, 40])
    def test_wide_ket_is_refused_before_its_amplitudes(self, capsys, width):
        # Its density has 4^width entries: 4^11 at MAX_WIDTH + 1, 2^80 at 40.
        proc = _capped_cli(["parse", "--expr", "|" + "0" * width + ">", "--dump-rho"])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: ket width {width} exceeds the largest, {hybrid.MAX_WIDTH}\n"
        code, out, err = run(capsys, "parse", "--expr", "|" + "1" * hybrid.MAX_WIDTH + ">")
        assert (code, err) == (0, "") and "branches (1):" in out

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
    def test_density_of_many_wide_branches_is_summed_within_the_cap(self):
        # 16 branches of width 10 once formed all their 16 MiB terms at once, and
        # the peak memory of --dump-rho grew with the branch count.
        expr = " (+) ".join(f"|{k:010b}>" for k in range(16))
        proc = _capped_cli(["parse", "--expr", expr, "--dump-rho"])
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = proc.stdout.split("rho:\n", 1)[1].splitlines()
        assert len(rows) == 1024
        assert rows[15].split(",")[30:33] == ["0.0625", "0", "0"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
    def test_density_of_the_widest_dense_state_is_summed_within_the_cap(self):
        # 16 branches of width 10, each nonzero on 1020 of its 1024
        # amplitudes: four 2-way mixtures added coherently to the other 1016
        # basis kets. It prints 26 MB, the bytes numpy's density printed.
        mixtures = [f"(|{k:010b}> (+) |{k + 1:010b}>)" for k in range(0, 8, 2)]
        expr = " + ".join(mixtures + [f"|{k:010b}>" for k in range(8, 1024)])
        proc = _capped_cli(["parse", "--expr", expr, "--dump-rho"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.split("rho:\n", 1)[1].splitlines()) == 1024
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "515811922ce01ff450047d67f4b2f05e6122e5e783d7afac50b5959a35e9462b"
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
        monkeypatch.setattr(protocol, "_channel", no_work)
        code, out, err = run(
            capsys, "simulate", "--theta", "0.3", "--n", str(10**10), "--shots", "10", "--seed", "1"
        )
        assert code == 1 and out == ""
        assert err == f"error: n must be an integer in [1, {protocol.MIN_ROUNDS_MAX_COPIES}], got {10**10}\n"

    def test_repeat_max_n_ceiling(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the curve was evaluated before --max-n was checked")

        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_channel", no_work)
        for max_n in (str(10**10), str(protocol.MIN_ROUNDS_MAX_COPIES + 1), "0"):
            code, out, err = run(
                capsys, "repeat", "--theta", "1e-6", "--target", "0.99", "--max-n", max_n
            )
            assert code == 1 and out == ""
            assert err == f"error: max_n must be an integer in [1, 1000000], got {max_n}\n"

    def test_simulate_shot_ceiling(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("simulation started")

        monkeypatch.setattr(protocol, "_chunk_correct", no_work)
        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_channel", no_work)
        shots = protocol.MAX_SHOTS + 1
        code, out, err = run(
            capsys, "simulate", "--theta", "0.3", "--n", "5", "--shots", str(shots), "--seed", "1"
        )
        assert code == 1 and out == ""
        assert err == f"error: shots must be an integer in [1, {protocol.MAX_SHOTS}], got {shots}\n"

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

        monkeypatch.setattr(audit, "_row", no_work)
        code, out, err = run(
            capsys, command, "--theta-min", "0", "--theta-max", "1", "--steps", str(steps)
        )
        assert code == 1 and out == ""
        assert err == f"error: --steps must be at most {cli.MAX_STEPS}\n"


def _capped_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """``cli.main(argv)`` in a child that may map only 256 MiB more than it
    has after importing, so an unbounded allocation fails instead of growing.
    The commands run here load no numpy, whose thread pools would map memory
    that no command's input asks for."""
    return _fresh_python(
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
        f"sys.exit(cli.main({argv!r}))",
    )


def _one_error_line(err: str, start: str) -> bool:
    return err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")


class TestFlagValues:
    @pytest.mark.parametrize("command", ["verify", "chsh", "local"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "x"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, command, tol):
        code, out, err = run(capsys, command, "--box", "pr", f"--tol={tol}")
        assert code == 1 and out == ""
        assert _one_error_line(err, "error: argument --tol: ")

    @pytest.mark.parametrize(
        "grid",
        [
            ["--theta-min", "0", "--theta-max", "1", "--steps", "99999999999"],
            ["--theta-min", "0", "--theta-max", "1", "--steps", "5"],
            ["--steps", "5"],
            ["--theta-max", "1"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_audit_theta_mixed_with_grid_flags_rejected(self, capsys, grid):
        code, out, err = run(capsys, "audit", "--theta", "0.3", *grid)
        assert code == 1 and out == ""
        assert _one_error_line(err, "error: audit needs --theta alone or all of ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["repeat", "--theta", "1e308", "--target", "0.9"],
            ["simulate", "--theta=-1e308", "--n", "3", "--shots", "10"],
        ],
        ids=lambda a: a[0],
    )
    def test_theta_whose_double_overflows_is_named(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert _one_error_line(err, "error: --theta ")
        assert "overflows a float" in err

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

    @pytest.mark.parametrize("command", ["scan", "audit"])
    def test_a_span_up_to_the_largest_float_warns_nothing(self, command):
        # numpy's linspace forms i * step for the last angle too, before it
        # puts theta_max there, and that product overflowed: a RuntimeWarning
        # on stderr, and a traceback under -W error.
        top = "1.7976931348623157e308"
        argv = [command, "--theta-min", "0", "--theta-max", top, "--steps", "4"]
        proc = _fresh_python("-W", "error", "-m", "boxworld", *argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        with np.errstate(over="ignore"):
            grid = np.linspace(0.0, 1.7976931348623157e308, 4)
        rows = proc.stdout.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [f"{t:.17g}" for t in grid]

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


# Grid ends: signed zeros, subnormals, normal floats around 1, and values
# near the largest float, whose spans reach past 1e308.
GRID_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0]),
    st.floats(-1e-300, 1e-300),
    st.floats(-10.0, 10.0),
    st.floats(8e307, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestThetaGrid:
    def test_bit_identical_to_linspace(self):
        rng = np.random.default_rng(5)
        ranges = [(0.0, 1.5707963), (0.0, math.pi), (1.0, -2.0), (0.3, 0.3), (0.0, 5e-324)]
        ranges += [tuple(rng.uniform(-4.0, 4.0, size=2)) for _ in range(4)]
        for steps in range(1, 201):
            for lo, hi in ranges:
                got = np.array(list(cli._theta_grid(_grid_args(lo, hi, steps))))
                assert got.tobytes() == np.linspace(lo, hi, steps).tobytes(), (lo, hi, steps)
            lo_deg, hi_deg = -170.25, 95.5
            got = np.array(list(cli._theta_grid(_grid_args(lo_deg, hi_deg, steps, True))))
            want = np.linspace(math.radians(lo_deg), math.radians(hi_deg), steps)
            assert got.tobytes() == want.tobytes(), steps

    @settings(max_examples=500, deadline=None)
    @given(lo=GRID_ENDS, hi=GRID_ENDS, steps=st.integers(1, 300), degrees=st.booleans())
    @example(lo=0.0, hi=5e-324, steps=3, degrees=False)  # (hi - lo)/2 underflows to 0
    @example(lo=-0.0, hi=1e-323, steps=7, degrees=False)
    @example(lo=-5e-324, hi=-0.0, steps=2, degrees=False)
    @example(lo=-8.98846567431158e307, hi=8.98846567431158e307, steps=3, degrees=False)
    @example(lo=1.7976931348623157e308, hi=-1e308, steps=300, degrees=True)
    def test_every_grid_is_linspace_bit_for_bit(self, lo, hi, steps, degrees):
        # numpy forms i * step + lo, or (i / div) * span + lo where the step
        # is 0, and puts theta_max last; one step is [theta_min].
        args = _grid_args(lo, hi, steps, degrees)
        lo, hi = (math.radians(lo), math.radians(hi)) if degrees else (lo, hi)
        if steps > 1 and not math.isfinite(hi - lo):
            with pytest.raises(cli._UsageError, match="overflows a float"):
                cli._theta_grid(args)
            return
        got = np.array(list(cli._theta_grid(args)), dtype=float)
        if steps == 1:
            want = np.array([lo])
        else:
            with np.errstate(over="ignore"):  # numpy forms the last angle, then replaces it
                want = np.linspace(lo, hi, steps)
        assert got.tobytes() == want.tobytes()

    def test_grid_at_the_bound(self):
        # The largest grid is formed one angle at a time: the grid object holds
        # no list of angles, and its first and last ones are linspace's.
        grid = cli._theta_grid(_grid_args(0.0, 1.0, cli.MAX_STEPS))
        assert iter(grid) is grid
        head = [next(grid) for _ in range(1000)]
        want = np.linspace(0.0, 1.0, cli.MAX_STEPS)
        assert np.array(head).tobytes() == want[:1000].tobytes()
        tail = list(itertools.islice(grid, cli.MAX_STEPS - 2000, None))
        assert np.array(tail).tobytes() == want[-1000:].tobytes()


class TestSweepWork:
    """A sweep's work is bounded by --steps: one evaluation of the figures
    per angle, each row written before the next angle is formed."""

    @pytest.mark.parametrize("command", ["scan", "audit"])
    @pytest.mark.parametrize("steps", [1, 2, 33, 1000])
    def test_one_evaluation_per_step(self, capsys, monkeypatch, command, steps):
        angles, row = [], audit._row

        def counting(theta):
            angles.append(theta)
            return row(theta)

        monkeypatch.setattr(audit, "_row", counting)
        grid = ["--theta-min=-1", "--theta-max", "2", "--steps", str(steps)]
        code, out, _ = run(capsys, command, *grid)
        assert code == 0 and len(angles) == steps == len(out.splitlines()) - 1

    @pytest.mark.parametrize("command", ["scan", "audit"])
    def test_each_row_is_written_before_the_next_angle_is_formed(self, monkeypatch, command):
        formed, seen, grid = [], [], cli._theta_grid

        def counting_grid(args):
            for theta in grid(args):
                formed.append(theta)
                yield theta

        class Out(io.StringIO):
            def write(self, text):
                seen.append(len(formed))  # the angles formed before this write
                return super().write(text)

        monkeypatch.setattr(cli, "_theta_grid", counting_grid)
        monkeypatch.setattr(sys, "stdout", Out())
        assert main([command, "--theta-min", "0", "--theta-max", "1", "--steps", "500"]) == 0
        assert seen == list(range(501))  # the header, then one row per angle formed

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
    def test_the_largest_grid_runs_in_the_capped_child(self):
        argv = ["--output", os.devnull, "scan", "--theta-min", "0", "--theta-max", "1"]
        proc = _capped_cli([*argv, "--steps", str(cli.MAX_STEPS)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


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


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("boxworld ")]


def _fresh_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this checkout's package."""
    src = str(Path(boxworld.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_fresh_env(), capture_output=True, text=True, timeout=120
    )


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
class TestWriteErrors:
    """Output that cannot be written is one error line; a reader that leaves ends the run quietly."""

    FULL = "error: cannot write output: [Errno 28] No space left on device\n"

    def test_output_file_on_a_full_device(self):
        proc = _fresh_python("-m", "boxworld", "--output", "/dev/full", "verify", "--box", "pr")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", self.FULL)

    def test_stdout_on_a_full_device(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "boxworld", "verify", "--box", "pr"],
                env=_fresh_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert (proc.returncode, proc.stderr) == (1, self.FULL)

    def test_closed_pipe_ends_quietly(self):
        # About 6 MB of rows: far more than a pipe holds, so a write meets the closed end.
        argv = ["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "100000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "boxworld", *argv],
            env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"theta,ab_violation,ba_violation\n"
            proc.stdout.close()
            assert (proc.stderr.read(), proc.wait(timeout=120)) == (b"", 1)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()


# The commands that work on one box table, in plain Python.
BOX_COMMANDS = ("verify", "chsh", "local")
# The commands that evaluate the sweep's closed form, in plain Python.
SWEEP_COMMANDS = ("signal", "scan", "audit")
# The commands that load numpy: its Philox stream and its float window.
NUMPY_COMMANDS = ("repeat", "simulate")

# Runs cli.main(argv) with stdout as it is, then prints the exit code and
# whether the run imported numpy.
_NUMPY_PROBE = (
    "import sys\n"
    "from boxworld import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)\n"
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
        assert "import time:" in proc.stderr and "numpy" not in proc.stderr
        assert "scipy" not in proc.stderr

    @pytest.mark.parametrize(
        "argv", [shlex.split(line, comments=True)[1:] for line in _readme_commands()], ids=" ".join
    )
    def test_readme_command_loads_no_scipy(self, argv):
        # -X importtime lists every module the run imports on stderr; all
        # but the protocol commands work in plain Python and load no numpy
        proc = _fresh_python("-X", "importtime", "-m", "boxworld", *argv)
        assert proc.returncode == 0 and proc.stdout
        assert "import time:" in proc.stderr
        assert ("numpy" in proc.stderr) == (argv[0] in NUMPY_COMMANDS)
        assert "scipy" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            argv
            for argv in (shlex.split(line, comments=True)[1:] for line in _readme_commands())
            if argv[0] in BOX_COMMANDS
        ]
        + [["verify", "--box", "{csv}"]],
        ids=" ".join,
    )
    def test_box_commands_load_no_numpy(self, capsys, tmp_path, argv):
        box = tmp_path / "box.csv"
        box.write_text(dumps_csv(effective_box(0.3)))  # a valid box that signals: exit 2
        argv = [arg.format(csv=box) for arg in argv]
        proc = _fresh_python("-c", _NUMPY_PROBE, *argv)
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == out + f"{code} False\n"

    def test_box_command_errors_load_no_numpy(self, tmp_path):
        # The exit code of an error was once read off every layer's error
        # classes, which ran protocol, and numpy with it.
        negative = tmp_path / "neg.csv"
        text = dumps_csv(pr_box()).replace("0,0,0,0,0.5\n", "0,0,0,0,0.75\n")
        negative.write_text(text.replace("0,0,0,1,0\n", "0,0,0,1,-0.25\n"))
        three = tmp_path / "three.csv"
        three.write_text(
            "A,B,a,b,p\n0,0,0,0,0.3\n0,0,0,1,0.3\n0,0,1,0,0.4\n0,0,1,1,0\n0,0,2,0,0\n0,0,2,1,0\n"
        )
        cases = [
            (["verify", "--box", str(tmp_path / "missing.csv")], 1),
            (["chsh", "--box", str(three)], 1),
            (["local", "--box", str(negative)], 2),
        ]
        for argv, code in cases:
            proc = _fresh_python("-c", _NUMPY_PROBE, *argv)
            assert proc.stdout == f"{code} False\n", argv
            assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["signal", "--theta", "0.7853981633974483"], 0),
            (["--digits", "5", "signal", "--theta", "90", "--degrees"], 0),
            (["scan", "--theta-min", "0", "--theta-max", "1.5707963", "--steps", "65"], 0),
            (["audit", "--theta", "0.3"], 0),
            (["audit", "--theta-min=-4", "--theta-max", "4", "--steps", "33", "--degrees"], 0),
            (["signal", "--theta", "inf"], 1),
            (["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "0"], 1),
            (["scan", "--theta-min=-1e308", "--theta-max", "1e308", "--steps", "3"], 1),
            (["audit", "--theta", "0.3", "--steps", "5"], 1),
            (["audit", "--theta-min", "0", "--theta-max", "1", "--steps", "1000001"], 1),
        ],
        ids=lambda a: " ".join(a) if isinstance(a, list) else str(a),
    )
    def test_sweep_commands_load_no_numpy(self, capsys, argv, code):
        proc = _fresh_python("-c", _NUMPY_PROBE, *argv)
        got, out, err = run(capsys, *argv)
        assert got == code and proc.stdout == out + f"{code} False\n"
        assert proc.stderr == err and (code == 0) == (err == "")

    @pytest.mark.parametrize(
        "argv, code",
        [
            *[
                (argv, 0)
                for argv in (shlex.split(line, comments=True)[1:] for line in _readme_commands())
                if argv[0] == "parse"
            ],
            (["parse", "--expr", "1/sqrt(2) (|00> + c |11>) (+) 0.3 |01>", "--theta", "-2"], 0),
            (["parse", "--expr", "|0> @ |1>", "--dump-rho"], 1),
            (["parse", "--expr", "|0> + |11>", "--dump-rho"], 1),
            (["parse", "--expr", " (+) ".join(["|0>"] * 17), "--dump-rho"], 1),
            (["parse", "--expr", "0 |0> (+) 0 |1>", "--dump-rho"], 1),
        ],
        ids=["readme", "no-dump-rho", "unexpected-character", "mixed-widths", "branch-cap", "no-mass"],
    )
    def test_parse_loads_no_numpy(self, capsys, argv, code):
        proc = _fresh_python("-c", _NUMPY_PROBE, *argv)
        got, out, err = run(capsys, *argv)
        assert got == code and proc.stdout == out + f"{code} False\n"
        assert proc.stderr == err and (code == 0) == (err == "")

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

# After importing the CLI, bench/tracer.py reads each layer from sys.modules,
# wraps every public function of it wherever the package holds one, and
# wraps the methods in its METHODS table; uninstall puts all of them back.
TRACER_ROUND_TRIP = """
import sys
sys.path.insert(0, {bench!r})
import boxworld.cli
from tracer import METHODS, Tracer

def hooks():
    found = {{}}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "boxworld":
            for attr, obj in vars(module).items():
                found[name, attr] = obj
                if isinstance(obj, dict):
                    found.update(((name, attr, key), value) for key, value in obj.items())
    for layer, cls, method in METHODS:
        found[layer, cls, method] = vars(getattr(sys.modules["boxworld." + layer], cls))[method]
    return found

hooks()  # runs every lazy layer, so both snapshots see the same modules
before = hooks()
tracer = Tracer()
tracer.install()
patched = len(tracer._patched)
tracer.uninstall()
after = hooks()
same = after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
print(patched > len(METHODS), same)
"""

# The layers each README command runs; the others must stay unexecuted.
CHAINS = {
    "verify": {"boxes"},
    "chsh": {"boxes"},
    "local": {"boxes"},
    "signal": {"audit"},
    "scan": {"audit"},
    "audit": {"audit"},
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
            "print(boxworld.boxes.pr_box().shape, 'numpy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n(2, 2, 2, 2) False\n"

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

    def test_the_benchmark_tracer_installs_and_restores_its_hooks(self):
        bench = Path(__file__).resolve().parents[1] / "bench"
        proc = _fresh_python("-c", TRACER_ROUND_TRIP.format(bench=str(bench)))
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True True\n")

    def test_sweeps_evaluate_each_angle_once(self):
        # Two sweeps and the one-angle sweep `signal` reads, none of whose own
        # angles is 0, send 44 angles through the chain, each once: there is
        # no theta = 0 row to form, and no numpy to load.
        proc = _fresh_python(
            "-W",
            "error",
            "-c",
            "import sys\n"
            "from boxworld import audit\n"
            "rows = []\n"
            "row = audit._row\n"
            "def counting(theta):\n"
            "    rows.append(theta)\n"
            "    return row(theta)\n"
            "audit._row = counting\n"
            "for grid in ([0.1, 0.2, 0.3], [0.5 + k / 16 for k in range(40)]):\n"
            "    for r in audit.audit_sweep(grid):\n"
            "        r.a_to_b_violation, r.positivity_ok\n"
            "next(audit.audit_sweep([0.7])).witness\n"
            "print(len(rows), len(set(rows)), rows.count(0.0), 'numpy' in sys.modules)\n",
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "44 44 0 False\n")

    @pytest.mark.parametrize(
        "prelude, argv, code, message",
        [
            ("", ["verify", "--box", "{negative}"], 2, "error: negative probability"),
            ("", ["repeat", "--theta", "0", "--target", "0.9"], 2, "error: no signaling at theta"),
            ("", ["parse", "--expr", "|0> + |11>"], 1, "error: ket width 2 differs from 1"),
            ("", ["verify", "--box", "nosuch"], 1, "error: unknown box 'nosuch'"),
            ("", ["repeat", "--theta", "0.5", "--target", "0.9", "--max-n", "0"], 1, "error: "),
            pytest.param(
                "",
                ["--output", "/dev/full", "verify"],
                1,
                "error: cannot write output: ",
                marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full"),
            ),
        ],
        ids=["BoxValidationError", "ZeroSignalError", "ParseError", "usage", "ValueError", "OSError"],
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


def _sweep_corpus() -> dict[str, list[list[str]]]:
    """Groups of ``scan``, ``audit`` and ``signal`` argv whose stdout is pinned."""
    pi, half = "3.141592653589793", "1.5707963267948966"
    ends = [
        ("0", pi),
        ("-0.0", half),
        (f"-{half}", "5e-324"),
        ("-5e-324", "1e-300"),
        (half, "-5e-324"),
        ("5e-324", f"-{half}"),
        ("1e-300", "0"),
        (pi, "-0.0"),
    ]
    singles = ["0", "-0.0", "0.3", half, f"-{half}", pi, "5e-324", "-5e-324", "1e-300"]
    groups = {}
    for command in ("scan", "audit"):
        for steps in (1, 13, 31, 32, 33, 65):
            groups[f"{command} steps={steps}"] = [
                [command, f"--theta-min={lo}", f"--theta-max={hi}", "--steps", str(steps)]
                for lo, hi in ends
            ]
        groups[f"{command} one step at 1e308"] = [
            [command, f"--theta-min={t}", f"--theta-max={t}", "--steps", "1"]
            for t in ("1e308", "-1e308")
        ]
        groups[f"{command} degrees"] = [
            [command, "--theta-min=-90", "--theta-max", "180", "--steps", "13", "--degrees"],
            [command, "--theta-min", "0", "--theta-max", "45", "--steps", "33", "--degrees"],
        ]
        groups[f"{command} digits"] = [
            ["--digits", digits, command, "--theta-min", "0", "--theta-max", pi, "--steps", "33"]
            for digits in ("1", "5", "17")
        ]
    for command in ("audit", "signal"):
        groups[f"{command} theta"] = [[command, f"--theta={t}"] for t in singles] + [
            [command, "--theta", "90", "--degrees"],
            ["--digits", "5", command, "--theta", "0.3"],
        ]
    # Both orders of the witness's eigenvalues (cs > 0 and cs < 0), a zero
    # shift, shifts that underflow, and angles whose reduction is inexact.
    witness = [
        "0", "-0.0", "5e-324", "-5e-324", "1e-310", "1e-300", "1e-160", "-1e-160", "3e-162",
        "1e-16", "1e-8", "0.3", "-0.3", "0.7853981633974483", "-0.7853981633974483", "1",
        half, f"-{half}", "2", "2.356194490192345", "2.5", "3", pi, f"-{pi}", "-2.9", "4",
        "-4", "5.5", "1e6", "-1e6", "123456.789", "1e308", "-1e308",
    ]
    for digits in ("1", "5", "17"):
        groups[f"signal witness digits={digits}"] = [
            ["--digits", digits, "signal", f"--theta={t}"] for t in witness
        ]
    return groups


# sha256 of each group's stdouts, concatenated in order, as _exact_stdout
# renders them from reference.exact_chain, every figure rounded once.
SWEEP_BYTES = {
    "scan steps=1": "c5de19d887b88aeefc0940caf47131a348638e551ec617d435cbf36ea99c5d09",
    "scan steps=13": "82ad9649714102f76dbf2c9a5cd96d563c6012baa1394392fc8e755ea3e71930",
    "scan steps=31": "95dfacda2f3fba7769a08f0fa4a0a92424f81fa2847b97e275d27a8403c71598",
    "scan steps=32": "cd4936aa30ca7d09bb38217ec3f3c66d5dee9d12693a2a5d3dddefae1b4d5d15",
    "scan steps=33": "2092a6cf370cfde365b3601322c9e870225e4d5e84620f9b09c97959d5b6c460",
    "scan steps=65": "f328be5cb248b66cee433c6592f75ab7a2733376b0027793cf750906c77b8fe5",
    "scan one step at 1e308": "fe88fe21f48637edd9fc2ba755238e7f438542197a6c33ff968ec200b2f082b8",
    "scan degrees": "cf80fea671cbb6434977398f9ed7234844c9967a2b1d4fbfe5959ec9d2c2d8d0",
    "scan digits": "14b8c6656400697ebf286e2d4df66b457934be0a0ced21c4f29d088d4c0591b1",
    "audit steps=1": "c969741b786d51eb3ff76b1ec95089d25aaac850f53d7cc230e40b422b87ce5f",
    "audit steps=13": "e36262fdd72f1878b1396487bb821401c6e6246e4f3bd805da5f699619903f4a",
    "audit steps=31": "a4629401eb7fbbb980c7a4a01d7ce0b07083c4a59ea97ab1e647ed9d55c5043a",
    "audit steps=32": "113c16c5ee27a5c758b3b0c2a1f5c0f6284501f8d34a43e82c149932a697ad83",
    "audit steps=33": "9b409ab36915fbd7da0dd497683163fe3515786da548b12e89f0a0266a4a4417",
    "audit steps=65": "3e3dcfb40be502d2ca4b551519dc01e82f2d2c8060d38faff0428958d3256a94",
    "audit one step at 1e308": "c9fa004e69831313029d6a429cad80e04faba78ed9fb5b8c4f205b03735c34e5",
    "audit degrees": "0f0502dae6d1e872072b3ca78014c4ba0adf814f551a5000c8d008fd05e08043",
    "audit digits": "a1a73809c9c9660f76fcc660689da73faac93068f27c16f5e918683707ab5a3b",
    "audit theta": "1dd039dee395aca42a265685c292bf66174cae3adacdb4df232e5792a09d1597",
    "signal theta": "bb0edfd9c728d545adf57cb04c0bf07cfcf13ec8c748fff64d92f1967afb67b5",
    "signal witness digits=1": "0def830edce6c80cfcc88369a15afb2b88c636956c4bac5db8b85bc85b0809fb",
    "signal witness digits=5": "3f865b4db70fed259947ec816a7687365058f1f39e3aeb45ff2bf3c29c116ca7",
    "signal witness digits=17": "1bdee7df3c30b102635c1ad87d2a0943dab660c291a92cbd4b0cbac04da508d1",
}


def _exact_stdout(argv: list[str]) -> str:
    """What ``argv`` of the sweep corpus prints, rendered from
    :func:`reference.exact_sweep_row` on the grid of ``np.linspace``."""
    args = cli.build_parser().parse_args(argv)
    fmt = f"{{:.{args.digits}g}}".format
    angle = math.radians if args.degrees else float
    if args.command == "signal":
        row = exact_sweep_row(angle(args.theta))
        lines = [f"theta = {fmt(row.theta)}", f"a->b violation = {fmt(row.a_to_b_violation)}"]
        for k, vector in enumerate(row.witness):
            lines.append(f"witness[{k}] = " + " ".join(f"{fmt(x)}+0j" for x in vector))
        return "\n".join(lines) + "\n"
    if getattr(args, "theta", None) is not None:
        grid = [angle(args.theta)]
    elif args.steps == 1:
        grid = [angle(args.theta_min)]
    else:
        grid = np.linspace(angle(args.theta_min), angle(args.theta_max), args.steps).tolist()
    verdict = {False: "false", True: "true"}
    if args.command == "scan":
        lines = ["theta,ab_violation,ba_violation"]
        lines += [
            f"{fmt(r.theta)},{fmt(r.a_to_b_violation)},{fmt(r.b_to_a_violation)}"
            for r in map(exact_sweep_row, grid)
        ]
    else:
        lines = ["theta,pos_ok,norm_ok,ab_violation,ba_violation"]
        lines += [
            f"{fmt(r.theta)},{verdict[r.positivity_ok]},{verdict[r.normalization_ok]},"
            f"{fmt(r.a_to_b_violation)},{fmt(r.b_to_a_violation)}"
            for r in map(exact_sweep_row, grid)
        ]
    return "\n".join(lines) + "\n"


class TestSweepBytes:
    """The sweep commands print the bytes the exact chain gives, rounded once."""

    def test_the_corpus_is_the_pinned_one(self):
        assert list(_sweep_corpus()) == list(SWEEP_BYTES)

    @pytest.mark.parametrize("group", SWEEP_BYTES)
    def test_the_pinned_bytes_are_the_exact_chains(self, group):
        digest = hashlib.sha256()
        for argv in _sweep_corpus()[group]:
            digest.update(_exact_stdout(argv).encode())
        assert digest.hexdigest() == SWEEP_BYTES[group]

    @pytest.mark.parametrize("group", SWEEP_BYTES)
    def test_stdout_is_unchanged(self, capsys, group):
        digest = hashlib.sha256()
        for argv in _sweep_corpus()[group]:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
        assert digest.hexdigest() == SWEEP_BYTES[group]


def _dump_rho_corpus() -> dict[str, list[list[str]]]:
    """``parse --dump-rho`` argv whose stdout is pinned: the README example and
    one mixed, superposed state of each width 1 to 6, per ``--digits``; then
    the edge cases, at 17 digits: negative c and s, whose zero components
    print -0 in branch lines, amplitudes far from unit scale (written
    positionally, as the grammar has no exponent), the same mixed state at
    widths 7 and 8, and expressions of 16 branches."""

    def mixed(w: int) -> str:
        zeros, ones, alt, tla = "0" * w, "1" * w, ("01" * w)[:w], ("10" * w)[:w]
        return (
            f"1/sqrt(3) (|{zeros}> + c |{alt}> + s |{ones}>) (+) 2/7 (|{ones}> + s |{tla}>)"
            f" (+) 0.3 |{alt}>"
        )

    readme = ["parse", "--expr", "c(|00> (+) |11>) + s(|01> (+) |10>)", "--theta", "0.4"]
    groups = {}
    for digits in ("17", "5", "1"):
        argvs = [["--digits", digits, *readme, "--dump-rho"]]
        for w in range(1, 7):
            argvs.append(["--digits", digits, "parse", "--expr", mixed(w), "--theta", "2.5", "--dump-rho"])
        groups[f"digits={digits}"] = argvs
    tiny, huge, far = "0." + "0" * 159 + "1", "1" + "0" * 300, str(2**600)
    sixteen = "(|000> (+) |001>) + (|010> (+) |011>) + c (|100> (+) |101>) + s (|110> (+) |111>)"
    cases = [
        ("c(|0> (+) |1>)", "2.5"),
        ("c |0> + s |1>", "-0.5"),
        ("c(|00> (+) |11>) + s(|01> (+) |10>)", "4"),
        ("s (|01> + c |10>) (+) c |11> (+) 0 |00>", "-2"),
        (f"{tiny} ({tiny} |0> + |1>)", None),
        (f"{huge} |0> + |1>", None),
        (f"{tiny} |0> + 0 (|0> + {huge} |0>)", None),
        (f"{far} ({far} |0> + |1>)", None),
        (f"1/{far} (1/{far} |0> + |1>)", None),
        (mixed(7), "2.5"),
        (mixed(8), "-0.7"),
        (sixteen, "0.4"),
        (sixteen, "2.5"),
    ]
    groups["edge cases"] = [
        ["parse", "--expr", expr, *(["--theta", theta] if theta else []), "--dump-rho"]
        for expr, theta in cases
    ]
    return groups


# sha256 of each group's stdouts, concatenated in order, as `parse --dump-rho`
# printed them when each entry of rho was formatted on its own; the edge
# cases as it printed them when states and densities were numpy arrays.
DUMP_RHO_BYTES = {
    "digits=17": "f4f1cb4056544d72444978003cfee0f7a7c2b44ca5aff20800f77e32c802d572",
    "digits=5": "87af130bb3a31f184f7f1fea041f303b3ae58a980538fb031e3109c8ecef4e62",
    "digits=1": "e4c55b6773b65a80de40982e4f95c1518d5f8f3022eaf45fc04e1fa8c182588f",
    "edge cases": "116a263a263b31b98cae7280f5a0aa86e9ea1659c5cc1e095257c3b4dd14ff77",
}


class TestDumpRhoBytes:
    """``parse --dump-rho`` prints the bytes it printed when these were recorded."""

    @pytest.mark.parametrize("group", DUMP_RHO_BYTES)
    def test_stdout_is_unchanged(self, capsys, group):
        digest = hashlib.sha256()
        for argv in _dump_rho_corpus()[group]:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
        assert digest.hexdigest() == DUMP_RHO_BYTES[group]


def _report_boxes(directory: Path) -> dict[str, str]:
    """Box files for the report corpus, written into ``directory``: the
    signaling effective box at theta = 0.3, a 3-output product box (no
    CHSH clause; a 1e-17 b->a residue) and a local mixture of three
    deterministic boxes with weights 0.3, 0.5 and 0.2."""
    vertices = boxes.deterministic_vertices()
    weights = {1: 0.3, 6: 0.5, 11: 0.2}
    flat = [sum(w * vertices[v][i] for v, w in weights.items()) for i in range(16)]
    q, r = ((0.2, 0.3, 0.5), (0.1, 0.6, 0.3)), ((0.7, 0.3), (0.4, 0.6))
    three = [
        [[[q[A][a] * r[B][b] for B in range(2)] for A in range(2)] for b in range(2)]
        for a in range(3)
    ]
    tables = {
        "signaling": effective_box(0.3),
        "three": boxes.ConditionalBox(three),
        "mixture": boxes.ConditionalBox(np.reshape(flat, (2, 2, 2, 2))),
    }
    paths = {}
    for name, box in tables.items():
        paths[name] = str(directory / f"{name}.csv")
        Path(paths[name]).write_text(dumps_csv(box))
    return paths


def _report_corpus() -> dict[str, list[list[str]]]:
    """Groups of ``verify``, ``chsh``, ``local``, ``repeat`` and ``simulate``
    argv whose stdout is pinned, each at --digits 1, 5 and 17; {signaling},
    {three} and {mixture} name the box files of :func:`_report_boxes`."""
    commands = {
        "verify": [["verify", "--box", box] for box in ("pr", "uniform", "{signaling}", "{three}")],
        "chsh": [["chsh", "--box", box] for box in ("pr", "uniform")],
        "local": [["local", "--box", box] for box in ("uniform", "pr", "{mixture}")],
        "repeat": [
            ["repeat", "--theta", "0.7853982", "--target", "0.65"],
            ["repeat", "--theta", "30", "--degrees", "--target", "0.99"],
        ],
        "simulate": [
            ["simulate", "--theta", "0.7853982", "--n", "1", "--shots", "100000", "--seed", "42"],
            ["simulate", "--theta", "0.3", "--n", "300", "--shots", "2000", "--seed", "7"],
            ["simulate", "--theta", "30", "--degrees", "--n", "3", "--shots", "500", "--seed", "5"],
        ],
    }
    return {
        command: [["--digits", digits, *argv] for digits in ("1", "5", "17") for argv in argvs]
        for command, argvs in commands.items()
    }


# sha256 of each group's stdouts, concatenated in order, as the commands
# printed them when each figure was formatted on its own.
REPORT_BYTES = {
    "verify": "bd8943736fc801717ab496e71366acdd10e13542c61ece2121cef59eb00a4714",
    "chsh": "5dcc5b04eaf8e3c3b3b267622cb57078616ddb4bd13d4616cd8603a88b8910c0",
    "local": "fea37419d50b8781d946e4ad1e22c8ce025e4f2b5c131393b578c9e464f8f356",
    "repeat": "43836c7829affacf29e237b3f7cbbc9eee4eeb79f35066165c646dd4a9078610",
    "simulate": "8a777a65c09a2caab5e2ce5f6f538e9a25eb39236686eb68d077be49194c77a3",
}


class TestReportBytes:
    """The report commands print the bytes they printed when these were recorded."""

    @pytest.mark.parametrize("group", REPORT_BYTES)
    def test_stdout_is_unchanged(self, capsys, tmp_path, group):
        paths = _report_boxes(tmp_path)
        digest = hashlib.sha256()
        for argv in _report_corpus()[group]:
            code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
            assert (code, err) == (2 if "{signaling}" in argv else 0, ""), argv
            digest.update(out.encode())
        assert digest.hexdigest() == REPORT_BYTES[group]

    def test_the_corpus_is_the_pinned_one(self):
        assert list(_report_corpus()) == list(REPORT_BYTES)


# Each parser's actions as build_parser() declares them, in order: option
# strings, dest, default, required, the name of the type and the action class.
_HELP = (["-h", "--help"], "help", "==SUPPRESS==", False, None, "_HelpAction")
_BOX = [
    _HELP,
    (["--box"], "box", "pr", False, None, "_StoreAction"),
    (["--tol"], "tol", 1e-09, False, "_tolerance", "_StoreAction"),
]
_THETA = (["--theta"], "theta", None, True, "_finite_float", "_StoreAction")
_DEGREES = (["--degrees"], "degrees", False, False, None, "_StoreTrueAction")
PARSER_TABLE = {
    "": [
        _HELP,
        (["--digits"], "digits", 17, False, "_digits", "_StoreAction"),
        (["--output"], "output", None, False, "Path", "_StoreAction"),
        ([], "command", None, True, None, "_SubParsersAction"),
    ],
    "verify": _BOX,
    "chsh": _BOX,
    "local": _BOX,
    "signal": [_HELP, _THETA, _DEGREES],
    "scan": [
        _HELP,
        (["--theta-min"], "theta_min", None, True, "_finite_float", "_StoreAction"),
        (["--theta-max"], "theta_max", None, True, "_finite_float", "_StoreAction"),
        (["--steps"], "steps", None, True, "int", "_StoreAction"),
        _DEGREES,
    ],
    "repeat": [
        _HELP,
        _THETA,
        _DEGREES,
        (["--target"], "target", None, True, "float", "_StoreAction"),
        (["--max-n"], "max_n", None, False, "int", "_StoreAction"),
    ],
    "simulate": [
        _HELP,
        _THETA,
        _DEGREES,
        (["--n"], "n", None, True, "int", "_StoreAction"),
        (["--shots"], "shots", None, True, "int", "_StoreAction"),
        (["--seed"], "seed", None, False, "int", "_StoreAction"),
    ],
    "audit": [
        _HELP,
        (["--theta"], "theta", None, False, "_finite_float", "_StoreAction"),
        (["--theta-min"], "theta_min", None, False, "_finite_float", "_StoreAction"),
        (["--theta-max"], "theta_max", None, False, "_finite_float", "_StoreAction"),
        (["--steps"], "steps", None, False, "int", "_StoreAction"),
        _DEGREES,
    ],
    "parse": [
        _HELP,
        (["--expr"], "expr", None, True, None, "_StoreAction"),
        (["--theta"], "theta", None, False, "_finite_float", "_StoreAction"),
        _DEGREES,
        (["--dump-rho"], "dump_rho", False, False, None, "_StoreTrueAction"),
    ],
}

# Each help string the parser gave when the table was recorded, by (command,
# option), "" naming the top-level parser, whose entry for a subcommand is
# that command's help line.
PARSER_HELP = {
    **{(command, "--help"): "show this help message and exit" for command in PARSER_TABLE},
    ("", "--digits"): "significant digits in output",
    ("", "--output"): "write output to a file",
    ("", "verify"): "box invariants and the marginal-independence check",
    ("", "chsh"): "CHSH functional of a binary box",
    ("", "local"): "local-polytope membership by LP",
    ("", "signal"): "marginal shift and witness basis at one angle",
    ("", "scan"): "sweep angles; CSV of signaling magnitudes",
    ("", "repeat"): "rounds needed to reach a target success",
    ("", "simulate"): "seeded Monte Carlo of the repetition protocol",
    ("", "audit"): "positivity/normalization/signaling of the effective box",
    ("", "parse"): "parse a state expression and evaluate it",
    ("verify", "--box"): "builtin name (pr, uniform) or CSV path",
    ("signal", "--theta"): "angle (radians)",
    ("signal", "--degrees"): "interpret angles as degrees",
    ("repeat", "--theta"): "angle (radians)",
    ("repeat", "--degrees"): "interpret angles as degrees",
    ("simulate", "--theta"): "angle (radians)",
    ("simulate", "--degrees"): "interpret angles as degrees",
    ("simulate", "--n"): "channel uses per shot",
    ("simulate", "--seed"): "default: $BOXWORLD_SEED or 0",
    ("parse", "--dump-rho"): "emit the density operator as CSV",
}


def _parser_table() -> tuple[dict, dict]:
    """What PARSER_TABLE and PARSER_HELP record, read off build_parser()."""
    parser = cli.build_parser()
    table, helps = {}, {}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps.update({("", a.dest): a.help for a in sub._choices_actions if a.help})
    for command, p in [("", parser), *parser.commands.items()]:
        table[command] = [
            (
                a.option_strings,
                a.dest,
                a.default,
                a.required,
                getattr(a.type, "__name__", a.type),
                type(a).__name__,
            )
            for a in p._actions
        ]
        helps.update(
            {(command, a.option_strings[-1]): a.help for a in p._actions if a.option_strings and a.help}
        )
    return table, helps


class TestParserTable:
    """The parser declares the options it declared when these were recorded;
    it may gain a help string, but loses and changes none."""

    def test_every_action_is_declared_as_pinned(self):
        assert _parser_table()[0] == PARSER_TABLE

    def test_no_help_string_is_lost(self):
        helps = _parser_table()[1]
        assert {key: helps.get(key) for key in PARSER_HELP} == PARSER_HELP


# Flag values at and around the bounds the sweep commands check. No accepted
# --steps exceeds 33, so no drawn grid is long.
FLAG_VALUES = [
    "0", "1", "2", "33", str(cli.MAX_STEPS + 1), str(2**31), "-1", "0.0", "-0.0",
    "5e-324", "1e308", "-1e308", "nan", "inf", "1e999",
]
# Values at and around the bounds the protocol commands check, and any int or
# float as text.
NUMBER_TEXTS = st.one_of(
    st.sampled_from(
        FLAG_VALUES
        + ["0.3", "0.5", "0.75", "0.99", "0.9999999999999999", "1e-9", "4096", "4097"]
        + [str(v + d) for v in (MIN_ROUNDS_MAX_COPIES, MAX_SHOTS, 2**64 - 1) for d in (0, 1)]
    ),
    st.integers().map(str),
    st.floats().map(repr),
)
# --box sources: the builtins, a box file, and files that are no box;
# {file}, {missing}, {directory} and {fifo} (a named pipe with no writer)
# are filled in by the test.
BOX_SOURCES = st.sampled_from(
    ["pr", "uniform", "{file}", "{missing}", "{directory}", "{fifo}", os.devnull]
)
# --output targets: none, a device, a path that does not exist yet, a file
# that holds KEPT, and whatever --box names.
OUTPUTS = st.sampled_from([None, os.devnull, "{fresh}", "{kept}", "{box}"])
KEPT = b"123456789"


def _subcommand_flags(command: str) -> list[argparse.Action]:
    """The optional actions of one subcommand of the CLI's parser, but --help."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


@st.composite
def argvs(draw, commands, values) -> list[str]:
    """argv of one of ``commands`` with flags drawn from the parser, each
    flag's value from the strategy ``values(option)``, and --digits, a
    global flag, where argparse takes it: before the subcommand."""
    command = draw(st.sampled_from(commands))
    actions = _subcommand_flags(command)
    required = [a for a in actions if a.required] if draw(st.booleans()) else []
    chosen = required + draw(st.lists(st.sampled_from(actions), max_size=len(actions)))
    flags = []
    for action in draw(st.permutations(chosen)):
        option = action.option_strings[0]
        if action.nargs == 0:  # --degrees
            flags.append([option])
        elif draw(st.booleans()):
            flags.append([f"{option}={draw(values(option))}"])
        else:
            flags.append([option, draw(values(option))])
    argv = [command, *(token for flag in flags for token in flag)]
    digits = draw(st.sampled_from([None, "0", "1", "17", "18"]))
    return argv if digits is None else ["--digits", digits, *argv]


def _last_value(argv: list[str], flag: str) -> str | None:
    """The value of ``flag`` argparse reads from ``argv``: the last one, whole or split."""
    value = None
    for token, following in zip(argv, [*argv[1:], None]):
        if token == flag:
            value = following
        elif token.startswith(f"{flag}="):
            value = token.removeprefix(f"{flag}=")
    return value


# Numbers for the fresh --output paths of generated argv.
_FRESH = itertools.count()


def _contract(argv: list[str], output: str | None = None) -> tuple[int, str]:
    """Run ``main(argv)`` and check the CLI's contract: exit code 0, 1 or 2;
    on 1 or 2 an empty stdout and exactly one ``error:`` line; on 0 some
    output and nothing on stderr. A defect raises here, with its traceback.
    ``output`` is the --output of ``argv``, where a success writes its
    output instead of to stdout. Returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _check_contract(argv, output, code, out.getvalue(), err.getvalue())


def _check_contract(
    argv: list[str], output: str | None, code: int, out: str, err: str
) -> tuple[int, str]:
    """The checks of :func:`_contract` on one run's exit code, stdout and stderr."""
    assert code in (0, 1, 2), argv
    if code:
        assert out == "" and _one_error_line(err, "error: "), (argv, err)
    elif output is None:
        assert err == "" and out, argv
    else:
        assert err == "" and out == "", argv
        assert output == os.devnull or Path(output).read_text(), argv
    return code, out


@st.composite
def expression_texts(draw) -> str:
    """A state expression from the grammar, of kets up to one wider than the
    CLI takes, with a bad piece spliced in half the time."""
    width = draw(st.one_of(st.integers(1, 3), st.integers(1, hybrid.MAX_WIDTH + 1)))
    kets = st.text("01", min_size=width, max_size=width).map(lambda label: f"|{label}>")
    scalars = st.sampled_from(
        ["2", "0.5", "7/8", "sqrt(2)", "1/sqrt(3)", "c", "s", "0", "1/0", "1" + "0" * 400]
    )
    text = draw(
        st.recursive(
            kets,
            lambda children: st.one_of(
                st.tuples(scalars, st.sampled_from(["", " ", " * "]), children).map(
                    lambda t: f"{t[0]}{t[1]}({t[2]})"
                ),
                st.lists(children, min_size=2, max_size=3).map(" + ".join),
                st.lists(children, min_size=2, max_size=3).map(
                    lambda c: "(" + " (+) ".join(c) + ")"
                ),
            ),
            max_leaves=6,
        )
    )
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        piece = draw(st.sampled_from(["", "@", "|", "(", ")", "2", "⊙", "\u00a0", "٣"]))
        text = text[:i] + piece + text[i + cut :]
    return text


class TestGeneratedSweepArgv:
    @settings(max_examples=300, deadline=None)
    @given(argvs(["scan", "audit", "signal"], lambda option: st.sampled_from(FLAG_VALUES)))
    def test_exit_code_and_one_error_line(self, argv):
        code, out = _contract(argv)
        assert code or len(out.splitlines()) <= 101 or "signal" in argv

    @settings(max_examples=300, deadline=None)
    @given(argvs(["repeat", "simulate"], lambda option: NUMBER_TEXTS))
    def test_protocol_commands(self, argv):
        # Work is bounded by the flags, not by wall time: simulate samples
        # its first chunk and only counts the shots of the others, and
        # repeat evaluates the channel a logarithmic number of times.
        chunks, channels, windows = [], [], []
        sample, channel, window = protocol._chunk_correct, protocol._channel, protocol._window

        def first_chunk(theta, n, seed, chunk, m):
            chunks.append(m)
            return sample(theta, n, seed, chunk, m) if chunk == 0 else 0

        def counted(a, n):
            channels.append(n)
            return channel(a, n)

        def sized(a, n):
            counts = window(a, n)
            windows.append((n, len(counts[0])))
            return counts

        with mock.patch.object(protocol, "_chunk_correct", first_chunk), mock.patch.object(
            protocol, "_channel", counted
        ), mock.patch.object(protocol, "_window", sized):
            code, out = _contract(argv)
        assert all(1 <= n <= MIN_ROUNDS_MAX_COPIES for n in channels)
        if windows:
            # 12 sqrt(n)/2 counts beyond both means, which lie n |cs|/2 apart
            theta = float(_last_value(argv, "--theta"))
            cs = 0.5 * math.sin(2.0 * (math.radians(theta) if "--degrees" in argv else theta))
            assert all(size <= 12 * math.sqrt(n) + n * abs(cs) / 2 + 2 for n, size in windows)
        if "simulate" in argv:
            assert len(channels) <= 1
            if code == 0:
                shots = int(out.splitlines()[1].split(",")[4])
                assert sum(chunks) == shots and max(chunks) <= CHUNK_SHOTS
        else:
            # max_n, n0, n1, then at most 20 doublings and 20 bisection steps
            assert len(channels) <= 43 and chunks == []

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
    @settings(max_examples=150, deadline=None)
    @given(argvs(["parse"], lambda o: expression_texts() if o == "--expr" else NUMBER_TEXTS))
    @example(["parse", "--expr", "|" + "0" * (hybrid.MAX_WIDTH + 1) + ">", "--dump-rho"])
    def test_parse_command(self, argv):
        # A density of the widest kets takes up to 40 MiB of Python complex
        # objects and one wider would take four times that, so those run in
        # a child whose address space is capped.
        expr = _last_value(argv, "--expr") or ""
        if "--dump-rho" in argv and re.search(f"[01]{{{hybrid.MAX_WIDTH}}}", expr):
            proc = _capped_cli(argv)
            _check_contract(argv, None, proc.returncode, proc.stdout, proc.stderr)
        else:
            _contract(argv)

    @settings(max_examples=300, deadline=None)
    @given(
        argvs(["verify", "chsh", "local"], lambda o: BOX_SOURCES if o == "--box" else NUMBER_TEXTS),
        OUTPUTS,
    )
    @example(["verify", "--box", "{fifo}"], "{box}")  # would wait for a reader
    @example(["chsh", "--box={file}"], "{box}")  # would empty the box
    @example(["local", "--box", "{fifo}"], None)
    @example(["local", "--box", "{file}"], "{fresh}")
    @example(["verify", "--box", "{missing}"], "{box}")
    @example(["chsh", "--box", "{directory}"], "{box}")
    @example(["verify", "--box", os.devnull], "{box}")
    def test_box_commands(self, tmp_path_factory, argv, output):
        directory = tmp_path_factory.getbasetemp() / "box-sources"
        if not directory.exists():
            directory.mkdir()
            (directory / "box.csv").write_text(dumps_csv(pr_box()))
            if hasattr(os, "mkfifo"):
                os.mkfifo(directory / "box.fifo")
        places = {
            "file": directory / "box.csv",
            "missing": directory / "missing.csv",
            "directory": directory,
            "fifo": directory / "box.fifo" if hasattr(os, "mkfifo") else os.devnull,
        }
        argv = [token.format(**places) for token in argv]
        kept = directory / f"kept-{next(_FRESH)}.txt"
        if output is not None:
            box = _last_value(argv, "--box")
            fresh = str(directory / f"out-{next(_FRESH)}.txt")
            if box in (None, *cli.BUILTIN_BOXES):
                box = fresh  # --output naming a builtin would write a file of that name
            output = output.format(fresh=fresh, box=box, kept=kept)
            argv = ["--output", output, *argv]
            if output == str(kept):
                kept.write_bytes(KEPT)
        try:
            code, _ = _contract(argv, output)
        finally:
            places["missing"].unlink(missing_ok=True)  # an --output of it creates it
        assert places["file"].read_text() == dumps_csv(pr_box())
        if output == str(kept):
            # the command's output, or on an error the bytes it held before
            assert (kept.read_bytes() == KEPT) == (code != 0), argv
            kept.unlink()


# Tokens that argparse reads in its own way, spliced into generated argv:
# help, the end of options, global flags after the subcommand, abbreviations,
# an empty option name, negative numbers and the subcommand names.
PARSE_TOKENS = st.sampled_from(
    [
        "-h", "--help", "--", "-", "--digits", "--digits=5", "--output", "--output=o.txt",
        "--d", "--o", "--th", "--theta-m", "--t=1", "--deg", "--st", "--b", "--tol=1e-3",
        "--=x", "-x", "--x=1", "-1", "-1e3", "-0.5", "0.3", "5", "pr", *cli._COMMANDS,
    ]
)


@st.composite
def parse_argvs(draw) -> list[str]:
    """argv of any subcommand with special tokens spliced in, or token soup."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(PARSE_TOKENS | NUMBER_TEXTS, max_size=8))
    argv = draw(argvs(list(cli._COMMANDS), lambda option: NUMBER_TEXTS | PARSE_TOKENS))
    if argv[0] == "--digits" and draw(st.booleans()):
        argv = argv[2:]
    for token in draw(st.lists(PARSE_TOKENS, max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _parse_outcome(parse, argv: list[str]) -> tuple:
    """What ``parse(argv)`` gives: the namespace, the exit of --help with
    what it printed, or the usage error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(argv)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    except cli._UsageError as exc:
        return "error", str(exc)
    return "namespace", repr(sorted(vars(args).items()))  # repr, as nan != nan


def _ambiguous_at_the_top(argv: list[str]) -> bool:
    """Whether argparse's top-level pass finds a token ``--=...`` after the
    subcommand, and before any ``--``: it matches every top-level option."""
    rest = argv[1 : argv.index("--")] if "--" in argv else argv[1:]
    return bool(argv) and argv[0] in cli._COMMANDS and any(t.startswith("--=") for t in rest)


class TestOneParsePass:
    """An argv that starts with a subcommand is read by that command's
    parser alone, with the result of the top-level parser's two passes."""

    @settings(max_examples=1500, deadline=None)
    @given(parse_argvs())
    @example(["scan", "--theta-min", "-1", "--theta-max", "1", "--steps", "2", "--digits", "5"])
    @example(["audit", "--", "--theta", "0.3"])
    @example(["repeat", "--th=0.3", "--target", "0.9"])
    @example(["scan", "--help", "--output", "o.txt"])
    @example(["parse", "--expr", "--=x", "--=y"])
    def test_both_parses_agree(self, argv):
        ours = _parse_outcome(cli._parse_args, argv)
        theirs = _parse_outcome(cli.build_parser().parse_args, argv)
        if _ambiguous_at_the_top(argv):
            assert ours[0] == theirs[0] == "error" and ours[1].startswith("ambiguous option: ")
        else:
            assert ours == theirs, argv

    def test_an_empty_option_name_is_ambiguous_among_the_commands_options(self, capsys):
        argv = ["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "2", "--=x"]
        assert _parse_outcome(cli.build_parser().parse_args, argv) == (
            "error",
            "ambiguous option: --=x could match --help, --digits, --output",
        )
        message = "ambiguous option: --=x could match --help, --theta-min, --theta-max, --steps, --degrees"
        assert _parse_outcome(cli._parse_args, argv) == ("error", message)
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_every_command_has_its_parser(self):
        assert list(cli.build_parser().commands) == list(cli._COMMANDS)
        assert len(cli._COMMANDS) == 9

    @pytest.mark.parametrize(
        "argv",
        [
            ["signal", "--theta", "0.1"],
            ["scan", "--theta-min", "0", "--theta-max", "1", "--steps", "3"],
            ["chsh", "--box", "pr"],
            ["verify", "--frobnicate"],
            ["repeat", "--theta", "0.3", "--target", "0.9"],
            ["audit", "--help"],
        ],
    )
    def test_one_pass_for_an_argv_that_starts_with_a_command(self, capsys, monkeypatch, argv):
        passes = self._passes(monkeypatch, argv)
        assert passes == [cli.build_parser().commands[argv[0]]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--digits", "5", "signal", "--theta", "0.1"],
            ["--output", os.devnull, "chsh", "--box", "pr"],
            ["--help"],
            [],
            ["frobnicate"],
        ],
    )
    def test_the_top_level_parser_reads_any_other_argv(self, capsys, monkeypatch, argv):
        parser = cli.build_parser()
        passes = self._passes(monkeypatch, argv)
        command = next((a for a in argv if a in parser.commands), None)
        assert passes == [parser] + ([parser.commands[command]] if command else [])

    @staticmethod
    def _passes(monkeypatch, argv: list[str]) -> list[argparse.ArgumentParser]:
        """The parsers whose parse_known_args ``main(argv)`` runs, in order."""
        passes = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, args=None, namespace=None):
            passes.append(self)
            return parse_known_args(self, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        main(argv)
        return passes
