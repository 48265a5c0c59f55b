"""Each oracle accepts the right answer and rejects a wrong one.

    python3 bench/test_oracles.py          (or: python3 -m pytest bench/test_oracles.py)

The right answers come from the package where it computes the same
quantity, so these tests also show that oracle and program agree.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from boxworld import audit, cli, hybrid, protocol  # noqa: E402


def cli_run(*argv: str) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return out.getvalue(), err.getvalue(), code


def rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.splitlines()[1:]]


def test_signal_curve_and_audit():
    grid = workloads._grid(-1.0, 2.0, 9)
    out, _, _ = cli_run("scan", "--theta-min=-1.0", "--theta-max=2.0", "--steps", "9")
    assert oracles.check_scan_rows(rows(out), grid) == []
    bad = [[t, repr(float(ab) + 1e-9), ba] for t, ab, ba in rows(out)]
    assert oracles.check_scan_rows(bad, grid)
    leak = [[t, ab, "1e-9"] for t, ab, _ in rows(out)]
    assert oracles.check_scan_rows(leak, grid)

    out, _, _ = cli_run("audit", "--theta-min=-1.0", "--theta-max=2.0", "--steps", "9")
    assert oracles.check_audit_rows(rows(out), grid) == []
    invalid = [[r[0], "false", *r[2:]] for r in rows(out)]
    assert oracles.check_audit_rows(invalid, grid)


def test_signal_free_angles_stay_within_tolerance():
    for theta in (0.0, math.pi / 2, math.pi):
        out, _, _ = cli_run("audit", f"--theta={theta!r}")
        assert oracles.check_audit_rows(rows(out), [theta]) == []


def test_bob_state_and_construction():
    for theta in (0.3, 1.1, -0.4):
        rho = oracles.bob_state(theta)
        assert np.max(np.abs(hybrid.bob_state(theta).matrix - rho)) < 1e-12
        assert np.max(np.abs(hybrid.bob_state(theta).matrix - oracles.bob_state(theta + 1e-3))) > 1e-6
        table = oracles.construction_table(theta)
        assert np.max(np.abs(audit.effective_box(theta).table - table)) < 1e-12
        assert np.max(np.abs(audit.effective_box(theta + 1e-3).table - table)) > 1e-6
    out, _, _ = cli_run("signal", "--theta", "0.7")
    check = workloads._check_signal(0.7)
    assert check(out, "", 0) == []
    swapped = out.splitlines()
    swapped[2], swapped[3] = swapped[3].replace("[1]", "[0]"), swapped[2].replace("[0]", "[1]")
    assert check("\n".join(swapped), "", 0)


def test_copy_distance_forms_agree_with_each_other_and_the_program():
    for cs in (0.3, 0.05, -0.2, 0.01):
        for n in (1, 2, 7, 40, 64):
            exact = oracles.copy_distance_exact(Fraction(cs), n)
            assert abs(float(exact) - oracles.copy_distance_tail(cs, n)) < 1e-10
            assert abs(protocol.copy_distance(cs, n) - float(exact)) < 1e-12
        for n in (171, 1000, 20000):
            assert abs(protocol.copy_distance(cs, n) - oracles.copy_distance_tail(cs, n)) < 1e-9
    assert oracles.copy_distance_exact(Fraction(1, 2), 2) == Fraction(5, 16)


def test_repeat_invariant():
    rng = random.Random(7)
    for n_goal in (20, 600, 6000):
        theta, target = workloads.channel(rng, n_goal)
        n = protocol.min_rounds(theta, target)
        assert n == n_goal
        assert oracles.check_repeat(theta, target, n) == []
        assert oracles.check_repeat(theta, target, n + 1)
        assert oracles.check_repeat(theta, target, n - 1)


def test_simulate_columns():
    theta, n, shots = 0.2, 300, 20000
    result = protocol.simulate(theta, n, shots, 5)
    assert oracles.check_simulate(theta, n, shots, result.exact_success, result.empirical_success) == []
    assert oracles.check_simulate(theta, n, shots, result.exact_success + 1e-8, result.empirical_success)
    p = result.exact_success
    six_sigma = 6 * math.sqrt(p * (1 - p) / shots)
    assert oracles.check_simulate(theta, n, shots, result.exact_success, p + six_sigma)


def test_fine_theorem_and_weights():
    rng = random.Random(3)
    for v, local in ((0.45, True), (0.55, False), (1.0, False)):
        table = workloads._noisy_pr(rng, v)
        assert oracles.is_local(table) is local
        path = HERE / "results" / "test-box.csv"
        path.parent.mkdir(exist_ok=True)
        path.write_text(oracles.box_csv(table))
        try:
            out, _, code = cli_run("local", "--box", str(path))
        finally:
            path.unlink()
        assert oracles.check_local(table, out, code) == []
        flipped = out.replace("true", "false") if local else out.replace("false", "true")
        assert oracles.check_local(table, flipped, code)
    uniform = np.full((2, 2, 2, 2), 0.25)
    assert oracles.check_weights(uniform, [1 / 16] * 16) == []
    assert oracles.check_weights(uniform, [1 / 8] * 8 + [0.0] * 8)
    assert not oracles.is_local(oracles.construction_table(0.5))


def test_verify_and_chsh():
    pr = workloads._pr_table()
    out, _, code = cli_run("verify", "--box", "pr")
    assert oracles.check_verify(pr, out, code) == []
    assert oracles.check_verify(pr, out.replace("CHSH = 4", "CHSH = 3.9"), code)
    assert oracles.check_verify(pr, out, 2)
    out, _, code = cli_run("chsh", "--box", "pr")
    assert oracles.check_chsh(pr, out, code) == []
    assert oracles.check_chsh(pr, "2\n", code)


def test_expression_density():
    rng = random.Random(11)
    for width, depth in workloads.EXPR_SHAPES:
        tree = workloads.expression(rng, width, depth)
        out, _, code = cli_run("parse", "--expr", workloads.render(tree), "--theta", "0.4", "--dump-rho")
        assert oracles.check_parse(tree, 0.4, out, code) == []
    wrong = ("coh", [("scaled", "s", workloads.README_TREE[1][0][2]), workloads.README_TREE[1][1]])
    out, _, code = cli_run("parse", "--expr", workloads.README_EXPR, "--theta", "0.4", "--dump-rho")
    assert oracles.check_parse(workloads.README_TREE, 0.4, out, code) == []
    assert oracles.check_parse(wrong, 0.4, out, code)


def test_rejected_input():
    _, err, code = cli_run("parse", "--expr", "(|0>")
    assert oracles.check_error(err, code, 1) == []
    assert oracles.check_error(err, code, 2)
    assert oracles.check_error("Traceback (most recent call last):\n  ...\nValueError: x\n", 1, 1)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok   {name}")
    print(f"{len(tests)} passed")
