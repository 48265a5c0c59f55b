import itertools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxworld.audit as audit_mod
from boxworld import boxes, cli, quantum
from boxworld.audit import SWEEP_CHUNK, audit_sweep, effective_box
from boxworld.boxes import BoxValidationError, ConditionalBox, check_no_signaling
from boxworld.cli import main
from boxworld.hybrid import HybridState, bob_state
from boxworld.quantum import basis_ket, trace_distances
from boxworld.tolerance import DEFAULT_TOL, ROUNDING
from reference import (
    _EXT_MEAN,
    _EXT_SPREAD,
    apply,
    exact_chain,
    exact_density,
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
        # sin(2 theta)/4 lies just below, near and above DEFAULT_TOL.
        special = [0.0, math.pi / 2, -math.pi / 2, math.pi, 1.9e-9, 2e-9, 2.1e-9]
        rng = np.random.default_rng(15)
        thetas = [*special, *rng.uniform(-4.0, 4.0, 200), *10.0 ** rng.uniform(-10.0, -7.0, 66)]
        verdicts = set()
        for row in _rows(thetas):
            report = check_no_signaling(effective_box(row.theta))
            assert row.a_to_b_violation == report.a_to_b_violation
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
    """The plain-Python box check on each angle's table against the sweep's
    stacked columns for that angle, bit for bit."""

    def test_every_row_of_a_long_grid(self):
        rng = np.random.default_rng(61)
        edges = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 5e-324, -5e-324]
        thetas = edges + rng.uniform(-4.0, 4.0, 2000 - len(edges)).tolist()
        valid = 0
        for chunk in audit_sweep(thetas):
            lowest, normalization = audit_mod.table_deviations(chunk.tables)
            for i, table in enumerate(chunk.tables):
                ok = bool(chunk.positivity_ok[i] and chunk.normalization_ok[i])
                try:
                    box = ConditionalBox(table, tol=ROUNDING)  # the verdicts' own limits
                except BoxValidationError:
                    assert not ok, chunk.theta[i]
                    continue
                assert ok, chunk.theta[i]
                valid += 1
                report = check_no_signaling(box, tol=ROUNDING)
                got = [report.a_to_b_violation, report.b_to_a_violation]
                got += boxes._deviations(box.table)
                want = [chunk.a_to_b_violation[i], chunk.b_to_a_violation[i]]
                want += [lowest[i], normalization[i]]
                assert np.array(got).tobytes() == np.array(want).tobytes()
        assert valid == len(thetas)


class TestAuditDynamics:
    """The audit's figures at one angle, as its chunk columns hold them."""

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
        # Normalization is off by ~4.4e-16 at most angles; the audit reports
        # it, judged by its ROUNDING limits, instead of raising. A shift below
        # that residue turns 0 into a tiny angle and moves the rest by an ulp
        # at most.
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
            assert check_no_signaling(effective).worst_settings == oracle.worst_settings
            assert abs(row.marginal_shift - _oracle_shift(row.theta)) <= 1e-15
            assert row.positivity_ok and row.normalization_ok

    def test_default_rotation_across_chunks(self):
        thetas = ORACLE_ANGLES
        assert len(thetas) > SWEEP_CHUNK
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
    """The CLI writes a sweep a chunk of columns at a time."""

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
                patch.setattr(cli, "_theta_grid", lambda args: np.array(thetas))
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


class Row(NamedTuple):
    """One angle's figures, named as the sweep's chunk columns."""

    theta: float
    positivity_ok: bool
    normalization_ok: bool
    a_to_b_violation: float
    b_to_a_violation: float
    marginal_shift: float


def _rows(thetas):
    """Every angle's :class:`Row`, read off the sweep's chunk columns in order."""
    return [
        Row(*row)
        for chunk in audit_sweep(thetas)
        for row in zip(chunk.theta, *(getattr(chunk, name).tolist() for name in Row._fields[1:]))
    ]


def _row(theta):
    return _rows([theta])[0]


def _valid_but_signaling(row):
    """The audit's verdict as its printed row reads: positive, normalized and
    signaling past DEFAULT_TOL."""
    return row.positivity_ok and row.normalization_ok and row.a_to_b_violation > DEFAULT_TOL


def _tables(thetas):
    """The bytes of every angle's effective-box table, chunk by chunk."""
    return b"".join(chunk.tables.tobytes() for chunk in audit_sweep(thetas))


def _rotation_family_densities(thetas):
    """Output densities from input rows built one ``Unitary`` per angle, real
    like the chain's: their imaginary parts are all zero."""
    rho = pr_extend_density(rotated_inputs([rotation(t) for t in thetas]))
    assert not rho.imag.any()
    return rho.real.copy()


class TestDefaultRotationStack:
    """The sweep's inputs, formed from cos and sin without a rotation matrix,
    give the figures of the rotation family bit for bit."""

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 65])
    def test_default_equals_explicit_rotation_family_bit_for_bit(self, count, monkeypatch):
        for thetas in (_grid(count, count), [float(t) for t in np.linspace(0.0, math.pi, count)]):
            default, tables = _rows(thetas), _tables(thetas)
            assert len(default) == count
            with monkeypatch.context() as patch:
                patch.setattr(audit_mod, "_densities", _rotation_family_densities)
                assert repr(default) == repr(_rows(thetas))
                assert tables == _tables(thetas)

    def test_one_angle_wrappers_equal_the_rotation_family(self, monkeypatch):
        for theta in (0.0, -0.0, 0.3, QUARTER, math.pi / 2, math.pi, -1.9, 7.5):
            box, row = effective_box(theta), _row(theta)
            with monkeypatch.context() as patch:
                patch.setattr(audit_mod, "_densities", _rotation_family_densities)
                again = effective_box(theta).table
                assert np.array(box.table).tobytes() == np.array(again).tobytes()
                assert repr(row) == repr(_row(theta))
            expected = _rotation_family_densities([theta])[0]
            assert audit_mod._densities([theta])[0].tobytes() == expected.tobytes()

    def test_no_unitary_objects_and_one_density_call_per_chunk(self, monkeypatch, capsys):
        built, rows, directions = [], [], []
        init, densities = quantum.Unitary.__post_init__, audit_mod._densities
        largest_gap = boxes._largest_gap

        def counting_init(self):
            built.append(self)
            init(self)

        def counting_densities(thetas):
            rows.append(len(thetas))
            return densities(thetas)

        def counting_gaps(marginals):
            directions.append(marginals)
            return largest_gap(marginals)

        audit_mod._zero_figures()  # the theta = 0 row, evaluated once per process
        monkeypatch.setattr(quantum.Unitary, "__post_init__", counting_init)
        monkeypatch.setattr(audit_mod, "_densities", counting_densities)
        monkeypatch.setattr(boxes, "_largest_gap", counting_gaps)
        thetas = _grid(2 * SWEEP_CHUNK + 1, 4)
        assert [len(chunk.theta) for chunk in audit_sweep(thetas)] == [SWEEP_CHUNK, SWEEP_CHUNK, 1]
        assert rows == [SWEEP_CHUNK, SWEEP_CHUNK, 1]
        for argv in (
            ["scan", "--theta-min", "0", "--theta-max", "3.2", "--steps", "40"],
            ["audit", "--theta-min", "0", "--theta-max", "3.2", "--steps", "40"],
            ["audit", "--theta", "0.3"],
            ["signal", "--theta", "0.7"],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        assert built == [] and directions == []
        # The one-angle box still has its worst setting located by the box
        # check, which compares the marginals of each direction.
        report = check_no_signaling(effective_box(QUARTER))
        assert report.worst_settings == ("a_to_b", 1, (0, 1))
        assert len(directions) == 2
        rotation(0.1)  # the counter itself works
        assert len(built) == 1

    def test_non_finite_angle_rejected_like_rotation(self):
        for call in (
            lambda: next(audit_sweep([0.1, math.nan])),
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
    sweep's three terms are the extension's density and its eigen-decomposition."""

    @staticmethod
    def three_terms(c, s):
        """The layout of :func:`audit._densities` filled with a = c^2/8,
        b = s^2/8 and g = cs/16, over the trace 2(a + b)."""
        a, b, g = c * c / 8, s * s / 8, c * s / 16
        terms = (a / (2 * (a + b)), b / (2 * (a + b)), g / (2 * (a + b)), Fraction(0))
        return [[terms[audit_mod._SWEEP_LAYOUT[4 * j + k]] for k in range(4)] for j in range(4)]

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
        names = ("tables", "marginal_shift", "a_to_b_violation", "b_to_a_violation")
        columns = {name: [] for name in names}
        for chunk in audit_sweep(thetas):
            for name, values in columns.items():
                values.extend(getattr(chunk, name))
        got = {
            "density": pr_extend_density(rows),
            "chain density": audit_mod._densities(thetas),
            **{name: np.array(values) for name, values in columns.items()},
        }
        want = {
            "density": [fig.density for fig in exact],
            "chain density": [fig.density for fig in exact],
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
    float angle, against the exact chain at that angle's float (cos, sin)."""

    EPS = sys.float_info.epsilon
    # The worst error seen on 60 000 angles, in units of EPS (one ulp of 1),
    # plus a margin of one EPS each. The angles had uniform float bits, lay
    # within 2^20 ulps or 1e-3 of each centre, were log-uniform down to
    # 5e-324, or uniform in [-4, 4].
    BOUNDS = {
        "tables": (0.75 + 1) * EPS,
        "scan ab_violation": (0.25 + 1) * EPS,  # marginal_shift
        "audit ab_violation": (0.75 + 1) * EPS,  # a_to_b_violation
        "ba_violation": (1 + 1) * EPS,
        "witness": (0.5 + 1) * EPS,
    }

    @settings(max_examples=400, deadline=None)
    @given(theta=ANY_ANGLE)
    def test_every_printed_column_within_its_bound(self, theta):
        fig = exact_chain(Fraction(math.cos(theta)), Fraction(math.sin(theta)))
        chunk = next(audit_sweep([theta]))
        assert chunk.positivity_ok[0] and chunk.normalization_ok[0]
        errors = {
            "tables": np.abs(chunk.tables[0] - np.array(fig.table, dtype=float)).max(),
            "scan ab_violation": abs(chunk.marginal_shift[0] - float(fig.marginal_shift)),
            "audit ab_violation": abs(chunk.a_to_b_violation[0] - float(fig.a_to_b_violation)),
            "ba_violation": abs(chunk.b_to_a_violation[0] - float(fig.b_to_a_violation)),
        }
        # Bob's shift [[0, e], [e, 0]] is attained by |+> then |-> for e > 0,
        # the other way round for e < 0. A shift below the smallest normal
        # float prints as 0 or subnormal, and any basis attains that.
        e = fig.bob[0][1]
        if abs(e) >= sys.float_info.min:
            r = math.sqrt(0.5)
            basis = [[r, r], [r, -r]] if e > 0 else [[r, -r], [r, r]]
            errors["witness"] = np.abs(chunk.witness[0] - basis).max()
        assert all(errors[name] <= self.BOUNDS[name] for name in errors), errors


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
