"""The four workloads: seeded inputs, the CLI calls they make, their checks.

A workload is a list of rounds. Round r of a run with seed s is built from
``random.Random(f"{workload}:{s}:{r}")``, so one seed always gives the
same inputs. Every round holds the same kinds of operation in the same
numbers; only values that barely move the cost (angles, targets, ket
labels, box parameters) change from round to round, so two seeds cost the
same and a cache keyed on inputs gains nothing from repetition. An
operation is one call, or one dependent chain of calls, of the CLI.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

Call = Callable[[list[str]], tuple[str, str, int]]  # argv -> (stdout, stderr, exit code)
Result = list[tuple[list[str], str, str, int]]


@dataclass
class Op:
    """One timed operation: ``run`` makes the calls, ``check`` judges them."""

    kind: str
    run: Callable[[Call], Result]
    check: Callable[[Result], list[str]]
    files: dict[str, str] = field(default_factory=dict)  # path -> text, written before the op


def single(kind: str, argv: list[str], check: Callable[[str, str, int], list[str]], **kw) -> Op:
    def run(call: Call) -> Result:
        return [(argv, *call(argv))]

    return Op(kind, run, lambda res: check(*res[0][1:]), **kw)


def csv_rows(out: str, header: str) -> list[list[str]] | None:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- cli_cold


README_EXPR = "c(|00> (+) |11>) + s(|01> (+) |10>)"
README_TREE = (
    "coh",
    [
        ("scaled", "c", ("inc", [("ket", "00"), ("ket", "11")])),
        ("scaled", "s", ("inc", [("ket", "01"), ("ket", "10")])),
    ],
)


def _pr_table() -> np.ndarray:
    t = np.zeros((2, 2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    t[a, b, x, y] = 0.5 if a ^ b == x & y else 0.0
    return t


def _check_signal(theta: float):
    def check(out: str, err: str, code: int) -> list[str]:
        lines = out.splitlines()
        ab = float(lines[1].split("= ")[1])
        witness = [
            np.array([complex(tok.replace("+-", "-")) for tok in line.split("= ")[1].split()])
            for line in lines[2:4]
        ]
        return oracles.check_witness(theta, ab, witness)

    return check


def _check_grid(command: str, lo: float, hi: float, steps: int):
    thetas = _grid(lo, hi, steps)
    header = "theta,ab_violation,ba_violation" if command == "scan" else "theta,pos_ok,norm_ok,ab_violation,ba_violation"
    judge = oracles.check_scan_rows if command == "scan" else oracles.check_audit_rows

    def check(out: str, err: str, code: int) -> list[str]:
        rows = csv_rows(out, header)
        if code != 0 or rows is None:
            return [f"{command}: exit {code}, output {out[:80]!r}"]
        return judge(rows, thetas)

    return check


def _check_repeat_line(theta: float, target: float):
    def check(out: str, err: str, code: int) -> list[str]:
        if code != 0 or not out.startswith("n = "):
            return [f"repeat: exit {code}, output {out!r}"]
        return oracles.check_repeat(theta, target, int(out[4:]))

    return check


def _check_simulate_line(theta: float, n: int, shots: int):
    def check(out: str, err: str, code: int) -> list[str]:
        rows = csv_rows(out, "theta,n,exact,empirical,shots,seed")
        if code != 0 or not rows or len(rows[0]) != 6:
            return [f"simulate: exit {code}, output {out!r}"]
        row = rows[0]
        if float(row[0]) != theta or int(row[1]) != n or int(row[4]) != shots:
            return [f"simulate: row {row} does not echo theta={theta!r} n={n} shots={shots}"]
        return oracles.check_simulate(theta, n, shots, float(row[2]), float(row[3]))

    return check


def cli_cold_round(rng: random.Random, scratch: Path) -> list[Op]:
    """The README's nine ``boxworld`` lines, in a seeded order."""
    pr, uniform = _pr_table(), np.full((2, 2, 2, 2), 0.25)
    ops = [
        single("verify", ["verify", "--box", "pr"], lambda o, e, c: oracles.check_verify(pr, o, c)),
        single("chsh", ["chsh", "--box", "pr"], lambda o, e, c: oracles.check_chsh(pr, o, c)),
        single("local", ["local", "--box", "uniform"], lambda o, e, c: oracles.check_local(uniform, o, c)),
        single("signal", ["signal", "--theta", "0.7853981633974483"], _check_signal(0.7853981633974483)),
        single(
            "scan",
            ["scan", "--theta-min", "0", "--theta-max", "1.5707963", "--steps", "65"],
            _check_grid("scan", 0.0, 1.5707963, 65),
        ),
        single(
            "repeat",
            ["repeat", "--theta", "0.7853982", "--target", "0.65"],
            _check_repeat_line(0.7853982, 0.65),
        ),
        single(
            "simulate",
            ["simulate", "--theta", "0.7853982", "--n", "1", "--shots", "100000", "--seed", "42"],
            _check_simulate_line(0.7853982, 1, 100000),
        ),
        single("audit", ["audit", "--theta", "0.3"], _check_grid("audit", 0.3, 0.3, 1)),
        single(
            "parse",
            ["parse", "--expr", README_EXPR, "--theta", "0.4", "--dump-rho"],
            lambda o, e, c: oracles.check_parse(README_TREE, 0.4, o, c),
        ),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- angle_sweep

# Grid sizes of one round: every odd size up to 25. Sizes two angles apart
# make op cost nearly continuous, so when the machine slows part of a run
# the median and p90 move smoothly instead of jumping between size classes.
SWEEP_SIZES = tuple(range(1, 26, 2))
# Ranges whose 4m+1-point grids pass through 0, pi/2 and pi (or their images).
SIGNAL_FREE = ((0.0, math.pi), (-math.pi / 2, math.pi / 2), (math.pi / 2, 3 * math.pi / 2))


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]


def angle_sweep_round(rng: random.Random, scratch: Path) -> list[Op]:
    """``scan`` then ``audit`` over one seeded grid per op."""
    sizes = list(SWEEP_SIZES)
    free = set(rng.sample([k for k in sizes if k % 4 == 1 and k > 1], 2))
    in_degrees = rng.choice([k for k in sizes[1:] if k not in free])
    rng.shuffle(sizes)
    ops = []
    for k in sizes:
        flags = []
        if k in free:
            lo, hi = rng.choice(SIGNAL_FREE)
            lo_arg, hi_arg = repr(lo), repr(hi)
        elif k == in_degrees:
            lo_deg = round(rng.uniform(-180.0, 180.0), 3)
            hi_deg = round(lo_deg + rng.uniform(10.0, 120.0), 3)
            lo_arg, hi_arg = repr(lo_deg), repr(hi_deg)
            lo, hi = math.radians(lo_deg), math.radians(hi_deg)
            flags = ["--degrees"]
        else:
            lo = rng.uniform(-math.pi, math.pi)
            hi = lo + rng.uniform(0.2, 2.5)
            lo_arg, hi_arg = repr(lo), repr(hi)
        grid = [f"--theta-min={lo_arg}", f"--theta-max={hi_arg}", "--steps", str(k), *flags]
        scan_argv, audit_argv = ["scan", *grid], ["audit", *grid]
        check_scan = _check_grid("scan", lo, hi, k)
        check_audit = _check_grid("audit", lo, hi, k)

        def run(call: Call, scan_argv=scan_argv, audit_argv=audit_argv) -> Result:
            return [(scan_argv, *call(scan_argv)), (audit_argv, *call(audit_argv))]

        def check(res: Result, check_scan=check_scan, check_audit=check_audit) -> list[str]:
            return check_scan(*res[0][1:]) + check_audit(*res[1][1:])

        ops.append(Op(f"sweep{k}", run, check))
    return ops


# ---------------------------------------------------------------- repetition

# n* of the 25 channels in one round, 20 to 20 000 in steps of x1.33. Steps
# finer than the 1.3-1.4x by which a busy shared machine slows an op keep the
# median and p90 moving smoothly instead of jumping between channels.
CHANNEL_N_STAR = tuple(round(20 * 1000 ** (i / 24)) for i in range(25))
SHOTS = 20000


def channel(rng: random.Random, n_goal: int) -> tuple[float, float]:
    """A (theta, target) whose smallest sufficient n is ``n_goal``.

    The target sits halfway between success(n_goal - 1) and success(n_goal),
    so it is at least ``STEP_MARGIN`` from every step of the success curve.
    """
    while True:
        a = min(rng.uniform(0.8, 2.0) / math.sqrt(n_goal), 0.45)
        base = 0.5 * math.asin(2.0 * a)
        theta = rng.choice((base, math.pi / 2 - base, -base, base + math.pi))
        cs = oracles.coherence(theta)
        lo, hi = oracles.success(cs, n_goal - 1), oracles.success(cs, n_goal)
        if hi - lo > 4 * oracles.STEP_MARGIN and hi < 1.0 - 1e-6:
            return theta, 0.5 * (lo + hi)


def repetition_round(rng: random.Random, scratch: Path) -> list[Op]:
    """``repeat`` for a seeded (theta, target), then ``simulate`` at its n*."""
    goals = list(CHANNEL_N_STAR)
    rng.shuffle(goals)
    ops = []
    for n_goal in goals:
        theta, target = channel(rng, n_goal)
        seed = rng.randrange(2**32)
        repeat_argv = ["repeat", f"--theta={theta!r}", f"--target={target!r}"]

        def run(call: Call, theta=theta, repeat_argv=repeat_argv, seed=seed) -> Result:
            out, err, code = call(repeat_argv)
            res = [(repeat_argv, out, err, code)]
            if code == 0 and out.startswith("n = "):
                sim_argv = ["simulate", f"--theta={theta!r}", "--n", out[4:].strip(),
                            "--shots", str(SHOTS), "--seed", str(seed)]
                res.append((sim_argv, *call(sim_argv)))
            return res

        def check(res: Result, theta=theta, target=target) -> list[str]:
            problems = _check_repeat_line(theta, target)(*res[0][1:])
            if len(res) < 2:
                return problems or ["repeat: simulate was not run"]
            n = int(res[1][0][3])
            return problems + _check_simulate_line(theta, n, SHOTS)(*res[1][1:])

        ops.append(Op(f"channel{n_goal}", run, check))
    return ops


# ---------------------------------------------------------------- user_inputs

# (ket width, nesting depth) of the nine expressions in one round.
EXPR_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (2, 4))
SCALARS = ("2", "3", "0.5", "1.5", "1/2", "3/4", "sqrt(2)", "sqrt(3)", "1/sqrt(2)", "1/sqrt(3)", "c", "s")
BRANCH_CAP = 16  # the CLI's default cap; generated expressions stay within it
# Fixed inputs, independent of the seed: parse recursion exceeds Python's
# stack at these depths, which escapes the CLI as RecursionError today.
DEEP_NESTING = tuple("(" * d + "|0>" + ")" * d for d in (300, 1000))


def _tree(rng: random.Random, width: int, depth: int):
    if depth == 0:
        node = ("ket", "".join(rng.choice("01") for _ in range(width)))
    else:
        n = rng.choice((2, 2, 3))
        deepest = rng.randrange(n)
        children = [_tree(rng, width, depth - 1 if i == deepest else rng.randrange(depth)) for i in range(n)]
        node = (rng.choice(("coh", "inc")), children)
    if rng.random() < 0.4:
        node = ("scaled", rng.choice(SCALARS), node)
    return node


def render(tree) -> str:
    kind = tree[0]
    if kind == "ket":
        return f"|{tree[1]}>"
    if kind == "scaled":
        child = tree[2]
        inner = render(child) if child[0] == "ket" else f"({render(child)})"
        sep = "" if tree[1] in ("c", "s") else " * " if len(tree[1]) > 3 else " "
        return f"{tree[1]}{sep}{inner}"
    if kind == "coh":
        return " + ".join(render(ch) if ch[0] in ("ket", "scaled") else f"({render(ch)})" for ch in tree[1])
    return " (+) ".join(render(ch) if ch[0] != "inc" else f"({render(ch)})" for ch in tree[1])


def expression(rng: random.Random, width: int, depth: int):
    while True:
        tree = _tree(rng, width, depth)
        if len(oracles.branches(tree, 0.0)[1]) <= BRANCH_CAP:
            return tree


def _noisy_pr(rng: random.Random, v: float) -> np.ndarray:
    alpha, beta, gamma = (rng.randrange(2) for _ in range(3))
    t = np.zeros((2, 2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    t[a, b, x, y] = 0.5 if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma else 0.0
    return v * t + (1.0 - v) * 0.25


def _local_mixture(rng: random.Random) -> np.ndarray:
    w = np.array([rng.random() ** 3 for _ in range(16)])
    return np.einsum("v,vabxy->abxy", w / w.sum(), oracles.deterministic_vertices())


def _bad_box_texts() -> list[tuple[str, str, dict[str, int]]]:
    """(name, CSV text, {command: exit code}) for boxes the CLI must reject."""
    good = oracles.box_csv(np.full((2, 2, 2, 2), 0.25)).splitlines()
    neg = np.full((2, 2, 2, 2), 0.25)
    neg[0, 0, 1, 0], neg[0, 1, 1, 0] = -0.25, 0.75
    over = np.full((2, 2, 2, 2), 0.25)
    over[1, 1, 0, 1] = 0.5
    three = "A,B,a,b,p\n0,0,0,0,0.3\n0,0,0,1,0.3\n0,0,1,0,0.4\n0,0,1,1,0\n0,0,2,0,0\n0,0,2,1,0\n"
    all1 = {"verify": 1, "chsh": 1, "local": 1}
    return [
        ("header", "a,b,c\n0,0,0\n", all1),
        ("short-row", "\n".join(good[:5] + ["0,1,0,0"] + good[6:]) + "\n", all1),
        ("not-a-number", "\n".join(good[:3] + ["0,0,1,0,x"] + good[4:]) + "\n", all1),
        ("duplicate", "\n".join(good + [good[7]]) + "\n", all1),
        ("incomplete", "\n".join(good[:-1]) + "\n", all1),
        ("empty", "", all1),
        ("negative", oracles.box_csv(neg), {"verify": 2, "chsh": 2, "local": 2}),
        ("unnormalized", oracles.box_csv(over), {"verify": 2, "chsh": 2, "local": 2}),
        ("three-outputs", three, {"chsh": 1, "local": 1}),
    ]


def _bad_expressions(rng: random.Random) -> list[str]:
    """Expressions the CLI must reject with ``error:`` and exit 1."""
    k = "".join(rng.choice("01") for _ in range(2))
    j = "".join(rng.choice("01") for _ in range(2))
    mix = f"(|{k}> (+) |{j}>)"
    return [
        f"(|{k}> + |{j}>",
        f"|{k}> + |{j[0]}>",
        f"|{k[0]}a>",
        f"|> + |{k}>",
        "2",
        f"|{k}> |{j}>",
        f"c|{k}> + s|{j}>",
        f"1/0 |{k}>",
        f"0 |{k}>",
        f"sqrt(|{k}>",
        " + ".join([mix] * 5),
    ]


def user_inputs_round(rng: random.Random, scratch: Path) -> list[Op]:
    """Expressions to parse, CSV boxes to verify, and malformed input of both kinds."""
    theta = rng.uniform(0.05, 1.5)
    ops = []
    for width, depth in EXPR_SHAPES:
        tree = expression(rng, width, depth)
        argv = ["parse", "--expr", render(tree), "--theta", repr(theta), "--dump-rho"]
        ops.append(single(f"parse{width}x{depth}", argv,
                          lambda o, e, c, tree=tree: oracles.check_parse(tree, theta, o, c)))

    boxes = {
        "mixture": _local_mixture(rng),
        "noisy-local": _noisy_pr(rng, rng.uniform(0.05, 0.45)),
        "noisy-nonlocal": _noisy_pr(rng, rng.uniform(0.55, 1.0)),
        "construction": oracles.construction_table(rng.uniform(0.15, 1.42)),
    }
    checks = {"verify": oracles.check_verify, "chsh": oracles.check_chsh, "local": oracles.check_local}
    for name, table in boxes.items():
        path = str(scratch / f"{name}.csv")
        for command, judge in checks.items():
            ops.append(single(f"{command}-{name}", [command, "--box", path],
                              lambda o, e, c, t=table, judge=judge: judge(t, o, c),
                              files={path: oracles.box_csv(table)}))

    for name, text, codes in rng.sample(_bad_box_texts(), 3):
        command = rng.choice(sorted(codes))
        path = str(scratch / f"bad-{name}.csv")
        ops.append(single("bad-box", [command, "--box", path],
                          lambda o, e, c, want=codes[command]: oracles.check_error(e, c, want),
                          files={path: text}))
    for text in rng.sample(_bad_expressions(rng), 3):
        ops.append(single("bad-expr", ["parse", "--expr", text],
                          lambda o, e, c: oracles.check_error(e, c, 1)))
    for text in DEEP_NESTING:
        ops.append(single("deep-parse", ["parse", "--expr", text],
                          lambda o, e, c: oracles.check_error(e, c, 1)))
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "cli_cold": cli_cold_round,
    "angle_sweep": angle_sweep_round,
    "repetition": repetition_round,
    "user_inputs": user_inputs_round,
}


def make_round(workload: str, seed: int, r: int, scratch: Path) -> list[Op]:
    return ROUNDS[workload](random.Random(f"{workload}:{seed}:{r}"), scratch)
