import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxworld.audit as audit_mod
from boxworld import boxes, cli, quantum
from boxworld.audit import audit_sweep, effective_box
from boxworld.boxes import BoxValidationError, ConditionalBox, check_no_signaling
from boxworld.cli import main
from boxworld.hybrid import HybridState, bob_state
from boxworld.tolerance import DEFAULT_TOL, ROUNDING
from reference import basis_ket
from reference import (
    _EXT_MEAN,
    _EXT_SPREAD,
    apply,
    exact_chain,
    exact_density,
    exact_sweep_row,
    identity,
    measure_probs,
    minus_ket,
    partial_trace,
    plus_ket,
    pr_extend,
    pr_extend_density,
    rotated_inputs,
    rotation,
    tensor,
    trace_distances,
)

QUARTER = math.pi / 4


def _oracle_joint(theta):
    """Joint output density by branch expansion of the rotated input."""
    inp = apply(tensor(rotation(theta), identity(2)), basis_ket("01"))
    return pr_extend(HybridState(2, ((1.0, inp),))).to_density().matrix


def _oracle_box(theta):
    """The effective box measured basis ket by basis ket on branch-expanded densities."""
    joint = {0: _oracle_joint(0.0), 1: _oracle_joint(theta)}
    z_basis = (basis_ket("0"), basis_ket("1"))
    bob_bases = {0: z_basis, 1: (plus_ket(), minus_ket())}
    table = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            full_basis = [tensor(ka, kb) for ka in z_basis for kb in bob_bases[y]]
            table[:, :, x, y] = measure_probs(joint[x], full_basis).reshape(2, 2)
    return ConditionalBox(table)


def _oracle_shift(theta):
    bob = [partial_trace(_oracle_joint(t), keep=1, dims=(2, 2)) for t in (theta, 0.0)]
    return float(trace_distances(*bob))


# The box check on an effective box against the audit's exact figures: each
# X entry, in [1/8, 3/8], rounds by at most 2^-55, a marginal doubles it,
# and the gap's sum and the row's own rounding add at most 2^-55 + 2^-56.
# The worst seen on 22 000 angles is 2^-55.
BOX_BOUND = 2.0**-53


def _exact(theta):
    """The exact chain at the float (cos theta, sin theta)."""
    return exact_chain(Fraction(math.cos(theta)), Fraction(math.sin(theta)))


ORACLE_ANGLES = tuple(np.random.default_rng(7).uniform(-4.0, 4.0, 36)) + (
    0.0,
    math.pi / 2,
    -math.pi / 2,
    math.pi,
    QUARTER,
)


class TestEffectiveBox:
    def test_no_rotation_setting_reproduces_plain_statistics(self):
        box = effective_box(0.7)  # theta only enters at x = 1
        joint = np.array(box.table)[:, :, 0, 0]
        np.testing.assert_allclose(joint, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_rotated_x_measurement_marginal(self):
        box = effective_box(QUARTER)
        bob = np.array(box.table)[:, :, 1, 1].sum(axis=0)
        np.testing.assert_allclose(bob, [0.75, 0.25], atol=1e-12)

    def test_zero_angle_box_does_not_signal(self):
        report = check_no_signaling(effective_box(0.0), tol=1e-12)
        assert report.a_to_b_violation == 0.0
        assert report.b_to_a_violation <= 1e-14

    def test_signaling_verdict_uses_the_tolerance(self):
        assert not check_no_signaling(effective_box(0.0)).signaling
        assert check_no_signaling(effective_box(QUARTER)).signaling

    def test_audit_verdict_agrees_with_the_box_check(self):
        # The float images of the signal-free angles, and three angles whose
        # sin(2 theta)/4 lies just below, near and above DEFAULT_TOL. The row
        # is the exact chain rounded once; the box check, on the box's
        # rounded entries, lies within BOX_BOUND of it, with the same verdict.
        special = [0.0, math.pi / 2, -math.pi / 2, math.pi, 1.9e-9, 2e-9, 2.1e-9]
        rng = np.random.default_rng(15)
        thetas = [*special, *rng.uniform(-4.0, 4.0, 200), *10.0 ** rng.uniform(-10.0, -7.0, 66)]
        verdicts = set()
        for row in _rows(thetas):
            assert row == exact_sweep_row(row.theta)
            report = check_no_signaling(effective_box(row.theta))
            assert abs(row.a_to_b_violation - report.a_to_b_violation) <= BOX_BOUND
            box_verdict = row.positivity_ok and row.normalization_ok and report.signaling
            assert _valid_but_signaling(row) == box_verdict
            verdicts.add(box_verdict)
        assert verdicts == {True, False}

    def test_z_measurement_never_sees_the_rotation(self):
        table = np.array(effective_box(1.1).table)
        bob_y0_x0 = table[:, :, 0, 0].sum(axis=0)
        bob_y0_x1 = table[:, :, 1, 0].sum(axis=0)
        np.testing.assert_allclose(bob_y0_x0, bob_y0_x1, atol=1e-12)

    def test_well_formed_for_many_angles(self):
        for theta in np.linspace(0.0, math.pi / 2, 9):
            table = np.array(effective_box(float(theta)).table)
            assert table.min() >= -1e-12
            np.testing.assert_allclose(table.sum(axis=(0, 1)), 1.0, atol=1e-12)


class TestBoxCheckMatchesTheSweep:
    """The plain-Python box check on each angle's effective box against the
    sweep's row for that angle: within BOX_BOUND of its exact figures."""

    def test_every_row_of_a_long_grid(self):
        rng = np.random.default_rng(61)
        edges = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 5e-324, -5e-324]
        thetas = edges + rng.uniform(-4.0, 4.0, 2000 - len(edges)).tolist()
        valid = 0
        for row in audit_sweep(thetas):
            ok = row.positivity_ok and row.normalization_ok
            try:
                box = ConditionalBox(effective_box(row.theta).table, tol=ROUNDING)
            except BoxValidationError:
                assert not ok, row.theta
                continue
            assert ok, row.theta
            valid += 1
            report = check_no_signaling(box, tol=ROUNDING)
            lowest, normalization = boxes._deviations(box.table)
            assert abs(report.a_to_b_violation - row.a_to_b_violation) <= BOX_BOUND
            assert report.b_to_a_violation <= BOX_BOUND and row.b_to_a_violation == 0.0
            assert lowest >= 0.0 and normalization <= BOX_BOUND
        assert valid == len(thetas)


class TestAuditDynamics:
    """The audit's figures at one angle, as its row holds them."""

    def test_zero_angle_all_clear(self):
        row = _row(0.0)
        assert row.positivity_ok and row.normalization_ok
        assert row.a_to_b_violation == 0.0
        assert not _valid_but_signaling(row)

    def test_quarter_angle(self):
        row = _row(QUARTER)
        assert row.positivity_ok and row.normalization_ok
        assert row.a_to_b_violation == pytest.approx(0.25, abs=1e-10)
        assert _valid_but_signaling(row)

    def test_half_turn_residue_is_not_signaling(self):
        row = _row(math.pi)
        assert 0.0 < row.a_to_b_violation <= 1e-15
        assert not _valid_but_signaling(row)

    def test_intermediate_angle_closed_form(self):
        row = _row(0.3)
        assert row.a_to_b_violation == pytest.approx(math.sin(0.6) / 4, abs=1e-10)
        assert row.a_to_b_violation == pytest.approx(0.1411606, abs=1e-7)

    def test_violation_equals_marginal_trace_distance(self):
        for theta in np.linspace(0.0, math.pi / 2, 17):
            row = _row(float(theta))
            expected = trace_distances(bob_state(float(theta)).matrix, bob_state(0.0).matrix)
            assert row.a_to_b_violation == pytest.approx(expected, abs=1e-10)

    def test_no_reverse_signaling_anywhere(self):
        for theta in np.linspace(0.0, math.pi / 2, 17):
            assert _row(float(theta)).b_to_a_violation <= 1e-10

    @pytest.mark.parametrize("shift", [0.0, 1e-16])
    def test_rounding_residue_is_reported_not_raised(self, shift):
        # The float (cos, sin) lies off the unit circle by its rounding; the
        # audit's exact table there is still valid, and its figures follow
        # |sin 2 theta|/4. A shift of 1e-16 turns 0 into a tiny angle and
        # moves the rest by an ulp at most.
        grid = [float(t) for t in np.linspace(0.0, math.pi, 33)] + [0.3, -math.pi / 2]
        assert {0.0, math.pi / 2, math.pi} <= set(grid)
        thetas = [t + shift for t in grid]
        rows = _rows(thetas) + [_row(0.3 + shift)]
        assert [row.theta for row in rows[:-1]] == thetas
        for row in rows:
            assert row.positivity_ok and row.normalization_ok
            assert abs(row.a_to_b_violation - abs(math.sin(2 * row.theta)) / 4) <= 1e-15

    def test_worst_setting_is_the_x_detector(self):
        direction, receiver, senders = check_no_signaling(effective_box(QUARTER)).worst_settings
        assert direction == "a_to_b"
        assert receiver == 1  # Bob's |+>/|-> setting
        assert senders == (0, 1)


class TestSweepAgainstBranchExpansion:
    """The closed-form sweep against the branch-by-branch construction."""

    @staticmethod
    def _assert_matches(rows, thetas):
        assert [r.theta for r in rows] == [float(t) for t in thetas]
        for row in rows:
            box = _oracle_box(row.theta)
            oracle = check_no_signaling(box)
            effective = effective_box(row.theta)
            np.testing.assert_allclose(effective.table, box.table, rtol=0, atol=1e-15)
            assert abs(row.a_to_b_violation - oracle.a_to_b_violation) <= 1e-15
            assert abs(row.b_to_a_violation - oracle.b_to_a_violation) <= 1e-15
            # Below the oracle's rounding its worst setting is a residue's; the
            # exact table's is Bob's X setting, or with no signal the sentinel.
            worst = check_no_signaling(effective).worst_settings
            if oracle.a_to_b_violation > 1e-15:
                assert worst == oracle.worst_settings
            else:
                assert worst in (("a_to_b", 1, (0, 1)), ("a_to_b", 0, (0, 0)))
            assert abs(row.a_to_b_violation - _oracle_shift(row.theta)) <= 1e-15
            assert row.positivity_ok and row.normalization_ok

    def test_default_rotation_across_chunks(self):
        thetas = ORACLE_ANGLES
        self._assert_matches(_rows(thetas), thetas)

    @pytest.mark.parametrize("command", ["scan", "audit"])
    def test_cli_rows_match_oracle_rows(self, command, capsys):
        assert main([command, "--theta-min", "-3.2", "--theta-max", "3.2", "--steps", "21"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 21
        for row in rows:
            theta = float(row[0])
            oracle = check_no_signaling(_oracle_box(theta))
            if command == "scan":
                expected = [theta, _oracle_shift(theta), oracle.b_to_a_violation]
            else:
                assert row[1:3] == ["true", "true"]
                row = [row[0], *row[3:]]
                expected = [theta, oracle.a_to_b_violation, oracle.b_to_a_violation]
            np.testing.assert_allclose([float(v) for v in row], expected, rtol=0, atol=1e-15)


class TestChunkColumns:
    """The CLI writes a sweep one row at a time: each row is what its
    angle's own sweep prints."""

    SPECIALS = (0.0, -0.0, math.pi / 2, math.pi, 5e-324, -5e-324)

    @pytest.mark.parametrize("digits", [17, 5])
    @pytest.mark.parametrize("count", [1, 31, 32, 33, 65])
    def test_each_row_is_its_angles_own_sweep(self, count, digits, monkeypatch, capsys):
        if count == 1:
            grids = [[t] for t in self.SPECIALS]
        else:
            grids = [_grid(count, count, self.SPECIALS)]
        for thetas, command in itertools.product(grids, ("scan", "audit")):
            flags = ["--theta-min", "0", "--theta-max", "1", "--steps", str(count)]
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_theta_grid", lambda args: iter(thetas))
                assert main(["--digits", str(digits), command, *flags]) == 0
            header, *rows = capsys.readouterr().out.splitlines()
            assert len(rows) == count
            for theta, row in zip(thetas, rows):
                if command == "scan":
                    one = ["scan", f"--theta-min={theta!r}", f"--theta-max={theta!r}", "--steps", "1"]
                else:
                    one = ["audit", f"--theta={theta!r}"]
                assert main(["--digits", str(digits), *one]) == 0
                assert capsys.readouterr().out == f"{header}\n{row}\n"


def _grid(count, seed, specials=(0.0, math.pi / 2, math.pi)):
    """``count`` random angles with as many of ``specials`` among them as fit."""
    rng = np.random.default_rng(seed)
    thetas = [float(t) for t in rng.uniform(-4.0, 4.0, count)]
    for pos, special in zip(rng.permutation(count), specials):
        thetas[pos] = special
    return thetas


def _rows(thetas):
    """Every angle's :class:`~boxworld.audit.SweepRow`, in order."""
    return list(audit_sweep(thetas))


def _row(theta):
    return _rows([theta])[0]


def _valid_but_signaling(row):
    """The audit's verdict as its printed row reads: positive, normalized and
    signaling past DEFAULT_TOL."""
    return row.positivity_ok and row.normalization_ok and row.a_to_b_violation > DEFAULT_TOL


def _tables(thetas):
    """The bytes of every angle's effective-box table, in order."""
    return b"".join(np.array(effective_box(t).table).tobytes() for t in thetas)


def _rotation_family_figures(thetas):
    """The rows and table bytes of the exact chain at the inputs built one
    ``Unitary`` per angle, (U tensor 1)|01>, each figure rounded once."""
    psi = rotated_inputs([rotation(t) for t in thetas])
    assert not psi.imag.any()
    rows, tables = [], []
    for theta, (_, c, _, s) in zip(thetas, psi.real.tolist()):
        fig = exact_chain(Fraction(c), Fraction(s))
        assert (c, s) == (math.cos(theta), math.sin(theta))
        rows.append(exact_sweep_row(theta))
        tables.append(np.array(fig.table, dtype=float).tobytes())
    return rows, b"".join(tables)


class TestDefaultRotationStack:
    """The sweep's figures, formed from cos and sin without a rotation matrix,
    are those of the rotation family's inputs, exactly, rounded once."""

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 65])
    def test_default_equals_explicit_rotation_family_bit_for_bit(self, count):
        for thetas in (_grid(count, count), [float(t) for t in np.linspace(0.0, math.pi, count)]):
            default, tables = _rows(thetas), _tables(thetas)
            assert len(default) == count
            rows, family_tables = _rotation_family_figures(thetas)
            assert repr(default) == repr(rows)
            assert tables == family_tables

    def test_one_angle_wrappers_equal_the_rotation_family(self):
        for theta in (0.0, -0.0, 0.3, QUARTER, math.pi / 2, math.pi, -1.9, 7.5):
            rows, table = _rotation_family_figures([theta])
            assert np.array(effective_box(theta).table).tobytes() == table
            assert repr(_row(theta)) == repr(rows[0])
            C, S, n = audit_mod._numerators(theta)
            g = Fraction(C * S, 2 * n)
            assert bob_state(theta).matrix == ((0.5, float(g)), (float(g), 0.5))

    def test_no_unitary_objects_and_one_evaluation_per_angle(self, monkeypatch, capsys):
        built, rows, directions = [], [], []
        init, row = quantum.Unitary.__post_init__, audit_mod._row
        largest_gap = boxes._largest_gap

        def counting_init(self):
            built.append(self)
            init(self)

        def counting_row(theta):
            rows.append(theta)
            return row(theta)

        def counting_gaps(marginals):
            directions.append(marginals)
            return largest_gap(marginals)

        monkeypatch.setattr(quantum.Unitary, "__post_init__", counting_init)
        monkeypatch.setattr(audit_mod, "_row", counting_row)
        monkeypatch.setattr(boxes, "_largest_gap", counting_gaps)
        thetas = _grid(65, 4)
        sweep = audit_sweep(thetas)
        assert rows == []  # nothing is evaluated before it is read
        assert [r.theta for r in sweep] == thetas and rows == thetas
        rows.clear()
        for argv in (
            ["scan", "--theta-min", "0", "--theta-max", "3.2", "--steps", "40"],
            ["audit", "--theta-min", "0", "--theta-max", "3.2", "--steps", "40"],
            ["audit", "--theta", "0.3"],
            ["signal", "--theta", "0.7"],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(rows) == 40 + 40 + 1 + 1
        assert built == [] and directions == []
        # The one-angle box still has its worst setting located by the box
        # check, which compares the marginals of each direction.
        report = check_no_signaling(effective_box(QUARTER))
        assert report.worst_settings == ("a_to_b", 1, (0, 1))
        assert len(directions) == 2
        quantum.Unitary(np.eye(2))  # the counter itself works
        assert len(built) == 1

    def test_non_finite_angle_rejected_like_rotation(self):
        for call in (
            lambda: list(audit_sweep([0.1, math.nan])),
            lambda: effective_box(math.inf),
            lambda: next(audit_sweep([-math.inf])).witness,
        ):
            with pytest.raises(ValueError, match="^rotation angle must be finite$"):
                call()


# Pythagorean triples (a, b, h): (a/h, b/h) is a rational point of the unit circle.
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))
# Each (cos, sin) with both signs and both orders: 32 points, one per octant and triple.
PYTHAGOREAN = [
    pair
    for a, b, h in TRIPLES
    for c, s in ((Fraction(a, h), Fraction(b, h)), (Fraction(b, h), Fraction(a, h)))
    for pair in ((c, s), (-c, s), (c, -s), (-c, -s))
]


# The 31 primitive triples (m^2 - n^2, 2mn, m^2 + n^2) with m <= 12, in the
# same eight variants, and the four points on the axes.
EUCLID = [
    pair
    for m in range(2, 13)
    for n in range(1, m)
    if (m - n) % 2 and math.gcd(m, n) == 1
    for a, b, h in [(m * m - n * n, 2 * m * n, m * m + n * n)]
    for c, s in ((Fraction(a, h), Fraction(b, h)), (Fraction(b, h), Fraction(a, h)))
    for pair in ((c, s), (-c, s), (c, -s), (-c, -s))
] + [(Fraction(c), Fraction(s)) for c, s in ((1, 0), (0, 1), (-1, 0), (0, -1))]


def _outer(u, v, weight):
    return [[weight * x * y for y in v] for x in u]


def _plus(*terms):
    return [[sum(t[j][k] for t in terms) for k in range(4)] for j in range(4)]


class TestThreeTermsExactly:
    """At rational points of the unit circle, in ``Fraction`` arithmetic, the
    three-term density is the extension's density and its
    eigen-decomposition, whose eigenvalues 1/2, c^2/2, s^2/2 and 0 put the
    sweep's table entries C^2/(2n), S^2/(2n) and (n +- CS)/(4n) at 0 or above."""

    # The entries of a (|00><00| + |11><11|) + b (|01><01| + |10><10|)
    # + g ((|00> + |11>)(<01| + <10|) + h.c.), row major, as indices into
    # (a, b, g, 0).
    LAYOUT = [0, 2, 2, 3, 2, 1, 3, 2, 2, 3, 1, 2, 3, 2, 2, 0]

    @classmethod
    def three_terms(cls, c, s):
        """The three terms a = c^2/8, b = s^2/8 and g = cs/16, over the trace
        2(a + b)."""
        a, b, g = c * c / 8, s * s / 8, c * s / 16
        terms = (a / (2 * (a + b)), b / (2 * (a + b)), g / (2 * (a + b)), Fraction(0))
        return [[terms[cls.LAYOUT[4 * j + k]] for k in range(4)] for j in range(4)]

    @staticmethod
    def closed_form(c, s):
        """:func:`reference.pr_extend_density`'s formula, M psi psi^T M^T +
        sum_i psi_i^2 K_i over its trace, with its dyadic constants exactly."""
        psi = (0, c, 0, s)
        mean = [sum(Fraction(_EXT_MEAN[o, i]) * psi[i] for i in range(4)) for o in range(4)]
        spreads = [
            [[Fraction(_EXT_SPREAD[i, j, k]) * psi[i] ** 2 for k in range(4)] for j in range(4)]
            for i in range(4)
        ]
        rho = _plus(_outer(mean, mean, 1), *spreads)
        trace = sum(rho[i][i] for i in range(4))
        return [[x / trace for x in row] for row in rho]

    @staticmethod
    def eigen_decomposition(c, s):
        """(1/2)|v><v| + (1/2)c^2|Phi-><Phi-| + (1/2)s^2|Psi-><Psi-|, with
        v = c|Phi+> + s|Psi+>; each Bell projector is (1/2) u u^T."""
        v, phi_minus, psi_minus = (c, s, s, c), (1, 0, 0, -1), (0, 1, -1, 0)
        return _plus(
            _outer(v, v, Fraction(1, 4)),
            _outer(phi_minus, phi_minus, c * c / 4),
            _outer(psi_minus, psi_minus, s * s / 4),
        )

    @pytest.mark.parametrize("points", ["PYTHAGOREAN", "EUCLID"])
    def test_four_derivations_agree(self, points):
        for c, s in {"PYTHAGOREAN": PYTHAGOREAN, "EUCLID": EUCLID}[points]:
            assert c * c + s * s == 1
            rho = self.three_terms(c, s)
            assert rho == exact_density(c, s)  # reference.pr_extend's branches
            assert rho == self.closed_form(c, s)
            assert rho == self.eigen_decomposition(c, s)

    def test_the_spectrum_is_the_checked_one(self):
        for c, s in PYTHAGOREAN + EUCLID:
            rho = self.three_terms(c, s)
            a, b, g = rho[0][0], rho[1][1], rho[0][1]
            assert (a, b, g) == (c * c / 2, s * s / 2, c * s / 4)
            assert a * b == 4 * g * g  # the lowest eigenvalue of [[a, 2g], [2g, b]] is 0
            for vector, value in (
                ((1, 0, 0, -1), a),  # Phi-
                ((0, 1, -1, 0), b),  # Psi-
                ((c, s, s, c), Fraction(1, 2)),  # v
                ((s, -c, -c, s), 0),  # its orthogonal complement in span{Phi+, Psi+}
            ):
                image = [sum(rho[j][k] * vector[k] for k in range(4)) for j in range(4)]
                assert image == [value * x for x in vector]


class TestRationalOracle:
    """The float chain at theta = atan2(s, c) against the exact chain at (c, s)."""

    # Every figure is O(1) and formed by a handful of roundings from
    # math.cos/math.sin of a rounded angle; the worst seen is 0.75 ulp of 1.
    BOUND = 4 * sys.float_info.epsilon

    def test_exact_figures(self):
        for c, s in PYTHAGOREAN:
            fig = exact_chain(c, s)
            table = np.array(fig.table, dtype=object)
            assert all(p >= 0 for p in table.flat)
            assert all(v == 1 for v in table.sum(axis=(0, 1)).flat)
            assert fig.b_to_a_violation == 0
            assert fig.a_to_b_violation == abs(2 * c * s) / 4  # |sin 2 theta| / 4
            assert fig.marginal_shift == fig.a_to_b_violation
            assert fig.bob == [[Fraction(1, 2), c * s / 2], [c * s / 2, Fraction(1, 2)]]
        assert exact_chain(Fraction(3, 5), Fraction(4, 5)).a_to_b_violation == Fraction(6, 25)

    def test_float_chain_within_the_bound(self):
        thetas = [math.atan2(s, c) for c, s in PYTHAGOREAN]
        exact = [exact_chain(c, s) for c, s in PYTHAGOREAN]
        rows = np.array([[0.0, c, 0.0, s] for c, s in PYTHAGOREAN], dtype=float)
        sweep = _rows(thetas)
        got = {
            "density": pr_extend_density(rows),
            "tables": np.array([effective_box(t).table for t in thetas]),
            # what scan prints, Bob's marginal shift, and what audit prints
            "marginal_shift": np.array([r.a_to_b_violation for r in sweep]),
            "a_to_b_violation": np.array([r.a_to_b_violation for r in sweep]),
            "b_to_a_violation": np.array([r.b_to_a_violation for r in sweep]),
        }
        want = {
            "density": [fig.density for fig in exact],
            "tables": [fig.table for fig in exact],
            "marginal_shift": [fig.marginal_shift for fig in exact],
            "a_to_b_violation": [fig.a_to_b_violation for fig in exact],
            "b_to_a_violation": [fig.b_to_a_violation for fig in exact],
        }
        for name, values in got.items():
            error = np.abs(values - np.array(want[name], dtype=float)).max()
            assert error <= self.BOUND, (name, error)


# Every finite float, subnormals included, and the neighbourhoods of the
# angles where cos or sin is 0, where the figures are smallest against
# their rounding: within 2^20 ulps, and within 1e-3.
_CENTRES = (0.0, math.pi / 2, -math.pi / 2, math.pi)
ANY_ANGLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda c, k: c + k * math.ulp(c), st.sampled_from(_CENTRES), st.integers(-2**20, 2**20)),
    st.builds(lambda c, d: c + d, st.sampled_from(_CENTRES), st.floats(-1e-3, 1e-3)),
)


class TestExactFiguresAtEveryFloatAngle:
    """Each column ``signal``, ``scan`` and ``audit`` print, at any finite
    float angle, against the exact chain at that angle's float (cos, sin).

    Every bound is 0: each figure, and each entry of the effective box, is
    the exact value rounded once, compared by its bits, so that a signed
    zero or a one-ulp change to any constant of the closed form fails.
    The witness is Bob's basis that attains his shift [[0, e], [e, 0]]:
    |+> then |-> for e > 0, the other way round for e < 0, and at e = 0,
    where any basis does, |1> then |0>."""

    @settings(max_examples=400, deadline=None)
    @given(theta=ANY_ANGLE)
    def test_every_printed_column_within_its_bound(self, theta):
        row = next(audit_sweep([theta]))
        assert repr(row) == repr(exact_sweep_row(theta))
        assert row.positivity_ok and row.normalization_ok
        want = np.array(_exact(theta).table, dtype=float)
        assert np.array(effective_box(theta).table).tobytes() == want.tobytes()


class TestMovedChecks:
    """The checks of the rotation stack still run on every path to a density."""

    # At angles whose sine is 0 a cosine of 1 + 1e-9 puts c^2 + s^2 - 1 at 2e-9.
    CALLS = {
        "audit_sweep": lambda: next(audit_sweep([0.0, -0.0])),
        "effective_box": lambda: effective_box(0.0),
        "bob_state": lambda: bob_state(-0.0),
        "signal": lambda: next(audit_sweep([0.0])).witness,
    }

    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_an_input_off_the_unit_circle_is_refused(self, monkeypatch, call):
        monkeypatch.setattr(audit_mod.math, "cos", lambda theta: 1.0 + 1e-9)
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(deviation 2e-09\)$"):
            self.CALLS[call]()
