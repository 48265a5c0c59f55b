"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import contextlib
import io
import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boxworld.audit import audit_sweep, effective_box
from boxworld.boxes import (
    ConditionalBox,
    check_no_signaling,
    chsh_value,
    deterministic_vertices,
    is_local,
    pr_box,
    uniform_box,
)
from boxworld.cli import main
from boxworld.dsl import format as format_expr
from boxworld.dsl import parse
from boxworld.hybrid import HybridState, bob_state, distribute
from boxworld.protocol import (
    copy_distance,
    exact_success,
    min_rounds,
    simulate,
    _chunk_correct,
    CHUNK_SHOTS,
)
from boxworld.quantum import Ket
from boxworld.tolerance import DEFAULT_TOL
from reference import (
    exact_success_fraction,
    helstrom,
    measure_probs,
    partial_trace,
    trace_distances,
)
from reference import DensityOperator as ArrayDensity
from reference import plain_basis_ket as basis_ket

QUARTER = math.pi / 4


class Criterion:
    """Collects named checks and prints a single PASS/FAIL line."""

    def __init__(self, name: str):
        self.name = name
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> None:
        if not ok:
            self.failures.append(label)

    def finish(self) -> None:
        status = "PASS" if not self.failures else "FAIL (" + "; ".join(self.failures) + ")"
        print(f"[acceptance] {self.name}: {status}")
        assert not self.failures, f"{self.name}: {self.failures}"


def test_criterion_1_pr_box_fidelity():
    c = Criterion("1 PR-box fidelity")
    box = pr_box()
    relation_ok = all(
        box.table[a][b][A][B] == (0.5 if a ^ b == A & B else 0.0)
        for a, b, A, B in itertools.product(range(2), repeat=4)
    )
    c.check(relation_ok, "table matches the defining relation entrywise")
    rep = check_no_signaling(box)
    c.check(rep.a_to_b_violation == 0.0 and rep.b_to_a_violation == 0.0, "violations exactly zero")
    c.check(abs(chsh_value(box) - 4.0) <= 1e-12, "CHSH = 4")
    c.check(is_local(box)[0] is False, "not local")
    c.finish()


def test_criterion_2_quantum_sanity():
    c = Criterion("2 quantum sanity")
    rho = HybridState(2, ((0.5, basis_ket("00")), (0.5, basis_ket("11")))).to_density()
    reduced = partial_trace(rho.matrix, keep=1, dims=(2, 2))
    c.check(
        np.abs(reduced - np.eye(2) / 2).max() <= 1e-12,
        "equal mixture reduces to I/2",
    )
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 33):
        cs = math.cos(theta) * math.sin(theta)
        expected = 0.5 * np.array([[1.0, cs], [cs, 1.0]])
        worst = max(worst, float(np.abs(bob_state(float(theta)).matrix - expected).max()))
    c.check(worst <= 1e-12, f"marginal matches printed matrix (worst dev {worst:.2e})")
    c.finish()


def test_criterion_3_rewrite_equivalence():
    c = Criterion("3 rewrite equivalence")
    compact = parse("c(|00> (+) |11>) + s(|01> (+) |10>)")
    expanded = parse(
        "1/4 ((c|00> + s|01>) (+) (c|00> + s|10>) (+) (c|11> + s|01>) (+) (c|11> + s|10>))"
    )
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 33):
        rho_a = distribute(compact, float(theta)).to_density()
        rho_b = distribute(expanded, float(theta)).to_density()
        worst = max(worst, float(np.abs(np.subtract(rho_a.matrix, rho_b.matrix)).max()))
    c.check(worst <= 1e-12, f"pre/post-distribution densities agree (worst dev {worst:.2e})")
    c.finish()


def test_criterion_4_signaling_curve():
    c = Criterion("4 signaling curve")
    grid = np.linspace(0.0, math.pi / 2, 65)
    # signal's figure at each angle: the marginal shift of a one-angle sweep
    values = np.array([next(audit_sweep([float(t)])).a_to_b_violation for t in grid])
    curve_ok = bool(np.all(np.abs(values - np.sin(2 * grid) / 4) <= 1e-10))
    reverse_ok = all(row.b_to_a_violation <= 1e-10 for row in audit_sweep(grid))
    c.check(curve_ok, "matches sin(2 theta)/4 to 1e-10 on 65 points")
    c.check(
        abs(values.max() - 0.25) <= 1e-10 and abs(grid[values.argmax()] - QUARTER) <= 1e-12,
        "maximum 0.25 at pi/4",
    )
    c.check(values[0] == 0.0 and values[-1] <= 1e-10, "zero at the endpoints")
    c.check(reverse_ok, "no reverse violation anywhere")
    c.finish()


def _audit_row(theta):
    """The row ``boxworld audit --theta`` prints: pos_ok, norm_ok, ab_violation, ba_violation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["audit", f"--theta={theta!r}"])
    header, row = out.getvalue().splitlines()
    assert (code, header) == (0, "theta,pos_ok,norm_ok,ab_violation,ba_violation")
    theta_text, pos_ok, norm_ok, ab, ba = row.split(",")
    assert float(theta_text) == theta
    return pos_ok, norm_ok, float(ab), float(ba)


def test_criterion_5_audit():
    c = Criterion("5 dynamics audit")
    for theta in (0.1, 0.3, QUARTER):
        pos_ok, norm_ok, ab, _ = _audit_row(theta)
        table = np.array(effective_box(theta).table)
        c.check(table.min() >= -1e-12, f"positivity at theta={theta:.4g}")
        c.check(
            np.abs(table.sum(axis=(0, 1)) - 1.0).max() <= 1e-12,
            f"normalization at theta={theta:.4g}",
        )
        c.check(
            abs(ab - math.sin(2 * theta) / 4) <= 1e-10,
            f"violation = sin(2 theta)/4 at theta={theta:.4g}",
        )
        c.check((pos_ok, norm_ok) == ("true", "true"), f"report flags at theta={theta:.4g}")
    # Valid yet signaling, as the printed row reads: positive and normalized,
    # with a violation past the tolerance; the signal-free angles stay within it.
    pos_ok, norm_ok, ab, _ = _audit_row(0.3)
    c.check(
        (pos_ok, norm_ok) == ("true", "true") and ab > DEFAULT_TOL,
        "valid but signaling at theta=0.3",
    )
    for theta in (0.0, math.pi / 2, math.pi):
        c.check(_audit_row(theta)[2] <= DEFAULT_TOL, f"no signal at theta={theta:.4g}")
    c.finish()


def test_criterion_6_repetition_convergence():
    c = Criterion("6 repetition convergence")
    c.check(exact_success_fraction(Fraction(1, 2), 1) == Fraction(5, 8), "n=1 rational value")
    c.check(exact_success_fraction(Fraction(1, 2), 2) == Fraction(21, 32), "n=2 rational value")
    c.check(exact_success(QUARTER, 1) == 0.625, "n=1 float value exact")
    c.check(exact_success(QUARTER, 2) == 0.65625, "n=2 float value exact")

    succ = [exact_success(QUARTER, n) for n in range(1, 65)]
    c.check(all(b >= a - 1e-12 for a, b in zip(succ, succ[1:])), "nondecreasing up to n=64")

    n_quarter = min_rounds(QUARTER, 0.99)
    c.check(n_quarter <= 128, f"theta=pi/4 exceeds 0.99 by n={n_quarter} <= 128")
    n_small = min_rounds(0.1, 0.99)
    c.check(n_small == 2186, f"theta=0.1 first exceeds 0.99 at the oracle value (got {n_small})")
    c.check(
        copy_distance(0.5 * math.sin(0.2), n_small) >= 2 * (0.99 - 0.5),
        "theta=0.1 reaches the 0.99 target at that n",
    )
    print(f"  note: theta=0.1 needs n={n_small}; exact_success(0.1, 128) = "
          f"{0.5 + 0.5 * copy_distance(0.5 * math.sin(0.2), 128):.6f}")

    # cross-checks: brute-force eigen decomposition for n <= 8 ...
    eigen_ok = True
    for theta in (0.1, QUARTER):
        rho1 = bob_state(theta).matrix
        stacked = np.array([[1.0 + 0j]])
        cs = 0.5 * math.sin(2 * theta)
        for n in range(1, 9):
            stacked = np.kron(stacked, rho1)
            flat = np.eye(2**n) / 2**n
            brute = 0.5 * np.abs(np.linalg.eigvalsh(stacked - flat)).sum()
            if abs(copy_distance(cs, n) - brute) > 1e-10:
                eigen_ok = False
    c.check(eigen_ok, "closed form matches 2^n eigen brute force for n <= 8")

    # ... and the binomial total-variation identity for a wide n range.
    from scipy.stats import binom

    tv_ok = True
    for theta in (0.1, QUARTER):
        cs = 0.5 * math.sin(2 * theta)
        for n in (1, 2, 8, 32, 64, 128, 500, 2186):
            ks = np.arange(n + 1)
            tv = 0.5 * np.abs(binom.pmf(ks, n, (1 + cs) / 2) - binom.pmf(ks, n, 0.5)).sum()
            if abs(copy_distance(cs, n) - tv) > 1e-10:
                tv_ok = False
    c.check(tv_ok, "closed form equals the binomial TV distance")
    c.finish()


def test_criterion_7_monte_carlo():
    c = Criterion("7 Monte Carlo consistency")
    res = simulate(QUARTER, 1, 100_000, 20260809)
    c.check(abs(res.empirical_success - 0.625) <= 0.0046, "single-copy run within 3 sigma")
    res0 = simulate(0.0, 8, 10_000, 314159)
    c.check(abs(res0.empirical_success - 0.5) <= 0.015, "no-signal run within 3 sigma of 1/2")
    c.check(
        simulate(QUARTER, 1, 100_000, 20260809) == res,
        "rerun with the same seed is identical",
    )
    # chunk substreams make the result independent of evaluation order,
    # which is the contract that licenses parallel evaluation
    sizes = [CHUNK_SHOTS, CHUNK_SHOTS, 1000]
    forward = sum(_chunk_correct(QUARTER, 2, 99, i, m) for i, m in enumerate(sizes))
    backward = sum(
        _chunk_correct(QUARTER, 2, 99, i, m) for i, m in reversed(list(enumerate(sizes)))
    )
    c.check(forward == backward, "chunk evaluation order does not change the tally")
    c.finish()


def test_criterion_8_helstrom_identity():
    c = Criterion("8 Helstrom identity")
    rng = np.random.default_rng(8)

    def random_density(dim):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        return ArrayDensity(m / m.trace()).matrix

    worst_gap = 0.0
    worst_tv = 0.0
    for dim in (2, 4):
        for _ in range(100):
            rho0, rho1 = random_density(dim), random_density(dim)
            td = trace_distances(rho0, rho1)
            success, _ = helstrom(rho0, rho1, 0.5)
            worst_gap = max(worst_gap, abs(success - (0.5 + td / 2)))
            _, vecs = np.linalg.eigh(rho1 - rho0)
            basis = [Ket(vecs[:, k]) for k in range(dim)]
            tv = 0.5 * np.abs(
                measure_probs(rho1, basis) - measure_probs(rho0, basis)
            ).sum()
            worst_tv = max(worst_tv, abs(tv - td))
    c.check(worst_gap <= 1e-10, f"success = 1/2 + distance/2 (worst gap {worst_gap:.2e})")
    c.check(worst_tv <= 1e-10, f"witness-basis TV equals trace distance (worst {worst_tv:.2e})")
    c.finish()


def test_criterion_9_dsl_roundtrip():
    from boxworld.hybrid import BasisKet, CoherentSum, IncoherentSum, SYM_C, SYM_S, Scalar, Scaled

    c = Criterion("9 notation round-trip")

    scalars = st.one_of(
        st.integers(0, 9).map(lambda n: Scalar("num", float(n))),
        st.tuples(st.integers(0, 9), st.integers(1, 9)).map(
            lambda ab: Scalar("frac", float(ab[0]), float(ab[1]))
        ),
        st.integers(1, 9).map(lambda n: Scalar("sqrt", float(n))),
        st.integers(1, 9).map(lambda n: Scalar("invsqrt", float(n))),
        st.just(SYM_C),
        st.just(SYM_S),
    )

    def exprs(width):
        kets = st.sampled_from([BasisKet(bin(i)[2:].zfill(width)) for i in range(2**width)])
        return st.recursive(
            kets,
            lambda kids: st.one_of(
                st.tuples(scalars, kids).map(lambda t: Scaled(*t)),
                st.lists(kids, min_size=2, max_size=3).map(lambda k: CoherentSum(tuple(k))),
                st.lists(kids, min_size=2, max_size=3).map(lambda k: IncoherentSum(tuple(k))),
            ),
            max_leaves=10,
        )

    counter = {"n": 0}

    @given(st.integers(1, 3).flatmap(exprs))
    @settings(max_examples=1000, deadline=None)
    def roundtrip(expr):
        counter["n"] += 1
        assert parse(format_expr(expr)) == expr

    try:
        roundtrip()
        c.check(counter["n"] >= 1000, f"1000 generated expressions round-trip ({counter['n']} run)")
    except AssertionError:
        c.check(False, "round-trip property failed")

    theta = 0.8
    cth, sth = math.cos(theta), math.sin(theta)

    rho_mix = distribute(parse("1/2 (|00> (+) |11>)")).to_density()
    c.check(
        np.abs(rho_mix.matrix - np.diag([0.5, 0, 0, 0.5])).max() <= 1e-12,
        "equal-mixture expression evaluates to its density",
    )

    rho_sup = distribute(parse("c(|00> (+) |11>) + s(|01> (+) |10>)"), theta).to_density()
    branches = [
        np.array([cth, sth, 0, 0]),
        np.array([cth, 0, sth, 0]),
        np.array([0, sth, 0, cth]),
        np.array([0, 0, sth, cth]),
    ]
    hand = sum(0.25 * np.outer(v, v) for v in branches)
    c.check(
        np.abs(rho_sup.matrix - hand).max() <= 1e-12,
        "superposed expression evaluates to its density",
    )

    paired = distribute(
        parse("1/sqrt(2) (|00> + |10>) (+) 1/sqrt(2) (|01> + |11>)")
    ).to_density()
    v1 = np.array([1, 0, 1, 0]) / math.sqrt(2)
    v2 = np.array([0, 1, 0, 1]) / math.sqrt(2)
    hand_pair = 0.5 * np.outer(v1, v1) + 0.5 * np.outer(v2, v2)
    c.check(
        np.abs(paired.matrix - hand_pair).max() <= 1e-12,
        "degenerate-pair expression evaluates to its density",
    )
    c.finish()


def test_criterion_10_locality_lp():
    c = Criterion("10 locality LP")
    verts = np.array(deterministic_vertices())

    local, weights = is_local(uniform_box())
    c.check(local, "uniform box accepted")
    if local:
        recon = (np.array(weights) @ verts).reshape(2, 2, 2, 2)
        c.check(
            np.abs(recon - uniform_box().table).max() <= 1e-9,
            "uniform weights reconstruct the box",
        )

    mix = ConditionalBox(0.5 * np.array(pr_box().table) + 0.5 * np.array(uniform_box().table))
    local, weights = is_local(mix)
    c.check(local, "half PR + half uniform accepted")
    if local:
        recon = (np.array(weights) @ verts).reshape(2, 2, 2, 2)
        c.check(np.abs(recon - mix.table).max() <= 1e-9, "facet-point weights reconstruct the box")

    c.check(is_local(pr_box())[0] is False, "PR box rejected")
    c.finish()
