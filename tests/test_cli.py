import math

import pytest

from boxworld.audit import effective_box
from boxworld.boxes import dumps_csv, pr_box
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
