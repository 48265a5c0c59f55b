import math

import numpy as np
import pytest

from boxworld.audit import SWEEP_CHUNK, audit_dynamics, audit_sweep, effective_box
from boxworld.boxes import ConditionalBox, check_no_signaling
from boxworld.cli import main
from boxworld.hybrid import HybridState, bob_state, pr_extend
from boxworld.quantum import (
    Unitary,
    apply,
    basis_ket,
    identity,
    measure_probs,
    minus_ket,
    partial_trace,
    plus_ket,
    rotation,
    tensor,
    trace_distance,
)

QUARTER = math.pi / 4


def _oracle_joint(theta, unitary_family=rotation):
    """Joint output density by branch expansion of the rotated input."""
    inp = apply(tensor(unitary_family(theta), identity(2)), basis_ket("01"))
    return pr_extend(HybridState.from_ket(inp)).to_density()


def _oracle_box(theta, unitary_family=rotation):
    """The effective box measured basis ket by basis ket on branch-expanded densities."""
    joint = {0: _oracle_joint(0.0, unitary_family), 1: _oracle_joint(theta, unitary_family)}
    z_basis = (basis_ket("0"), basis_ket("1"))
    bob_bases = {0: z_basis, 1: (plus_ket(), minus_ket())}
    table = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            full_basis = [tensor(ka, kb) for ka in z_basis for kb in bob_bases[y]]
            table[:, :, x, y] = measure_probs(joint[x], full_basis).reshape(2, 2)
    return ConditionalBox(table)


def _oracle_shift(theta, unitary_family=rotation):
    bob = [
        partial_trace(_oracle_joint(t, unitary_family), keep=1, dims=(2, 2)) for t in (theta, 0.0)
    ]
    return trace_distance(*bob)


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
        joint = box.setting(0, 0)
        np.testing.assert_allclose(joint, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_rotated_x_measurement_marginal(self):
        box = effective_box(QUARTER)
        bob = box.setting(1, 1).sum(axis=0)
        np.testing.assert_allclose(bob, [0.75, 0.25], atol=1e-12)

    def test_zero_angle_box_does_not_signal(self):
        report = check_no_signaling(effective_box(0.0), tol=1e-12)
        assert report.a_to_b_violation == 0.0
        assert report.b_to_a_violation <= 1e-14

    def test_signaling_verdict_uses_the_tolerance(self):
        assert not check_no_signaling(effective_box(0.0)).signaling
        assert check_no_signaling(effective_box(QUARTER)).signaling

    def test_z_measurement_never_sees_the_rotation(self):
        box = effective_box(1.1)
        bob_y0_x0 = box.setting(0, 0).sum(axis=0)
        bob_y0_x1 = box.setting(1, 0).sum(axis=0)
        np.testing.assert_allclose(bob_y0_x0, bob_y0_x1, atol=1e-12)

    def test_well_formed_for_many_angles(self):
        for theta in np.linspace(0.0, math.pi / 2, 9):
            box = effective_box(float(theta))
            assert box.table.min() >= -1e-12
            np.testing.assert_allclose(box.table.sum(axis=(0, 1)), 1.0, atol=1e-12)


class TestAuditDynamics:
    def test_zero_angle_all_clear(self):
        report = audit_dynamics(0.0)
        assert report.positivity_ok and report.normalization_ok
        assert report.a_to_b_violation == 0.0
        assert not report.valid_but_signaling

    def test_quarter_angle(self):
        report = audit_dynamics(QUARTER)
        assert report.positivity_ok and report.normalization_ok
        assert report.a_to_b_violation == pytest.approx(0.25, abs=1e-10)
        assert report.valid_but_signaling

    def test_half_turn_residue_is_not_signaling(self):
        report = audit_dynamics(math.pi)
        assert 0.0 < report.a_to_b_violation <= 1e-15
        assert report.tol == 1e-9
        assert not report.valid_but_signaling

    def test_intermediate_angle_closed_form(self):
        report = audit_dynamics(0.3)
        assert report.a_to_b_violation == pytest.approx(math.sin(0.6) / 4, abs=1e-10)
        assert report.a_to_b_violation == pytest.approx(0.1411606, abs=1e-7)

    def test_violation_equals_marginal_trace_distance(self):
        for theta in np.linspace(0.0, math.pi / 2, 17):
            report = audit_dynamics(float(theta))
            expected = trace_distance(bob_state(float(theta)), bob_state(0.0))
            assert report.a_to_b_violation == pytest.approx(expected, abs=1e-10)

    def test_no_reverse_signaling_anywhere(self):
        for theta in np.linspace(0.0, math.pi / 2, 17):
            assert audit_dynamics(float(theta)).b_to_a_violation <= 1e-10

    @pytest.mark.parametrize("tol", [0.0, 1e-16])
    def test_rounding_residue_is_reported_not_raised(self, tol):
        # Normalization is off by ~4.4e-16 at most angles; a tolerance below
        # that still gets a report, judged by the audit's own 1e-12 limits.
        thetas = [float(t) for t in np.linspace(0.0, math.pi, 33)] + [0.3, -math.pi / 2]
        assert {0.0, math.pi / 2, math.pi} <= set(thetas)
        reports = list(audit_sweep(thetas, tol=tol)) + [audit_dynamics(0.3, tol=tol)]
        for rep in reports:
            assert rep.positivity_ok and rep.normalization_ok and rep.tol == tol
            assert abs(rep.a_to_b_violation - abs(math.sin(2 * rep.theta)) / 4) <= 1e-15

    def test_worst_setting_is_the_x_detector(self):
        direction, receiver, senders = audit_dynamics(QUARTER).worst_setting
        assert direction == "a_to_b"
        assert receiver == 1  # Bob's |+>/|-> setting
        assert senders == (0, 1)

    def test_alternative_unitary_family_hook(self):
        from boxworld.quantum import rotation

        theta = 0.2
        doubled = audit_dynamics(theta, unitary_family=lambda t: rotation(2 * t))
        assert doubled.positivity_ok and doubled.normalization_ok
        assert doubled.a_to_b_violation == pytest.approx(math.sin(4 * theta) / 4, abs=1e-10)
        default = audit_dynamics(theta, unitary_family=rotation)
        assert default.a_to_b_violation == pytest.approx(math.sin(2 * theta) / 4, abs=1e-10)


class TestSweepAgainstBranchExpansion:
    """The closed-form sweep against the branch-by-branch construction."""

    @staticmethod
    def _assert_matches(reports, thetas, unitary_family=rotation):
        assert [r.theta for r in reports] == [float(t) for t in thetas]
        for rep in reports:
            box = _oracle_box(rep.theta, unitary_family)
            oracle = check_no_signaling(box)
            np.testing.assert_allclose(
                effective_box(rep.theta, unitary_family).table, box.table, rtol=0, atol=1e-15
            )
            assert abs(rep.a_to_b_violation - oracle.a_to_b_violation) <= 1e-15
            assert abs(rep.b_to_a_violation - oracle.b_to_a_violation) <= 1e-15
            assert rep.worst_setting == oracle.worst_settings
            assert abs(rep.marginal_shift - _oracle_shift(rep.theta, unitary_family)) <= 1e-15
            assert rep.positivity_ok and rep.normalization_ok

    def test_default_rotation_across_chunks(self):
        thetas = ORACLE_ANGLES
        assert len(thetas) > SWEEP_CHUNK
        self._assert_matches(list(audit_sweep(thetas)), thetas)

    def test_other_unitary_family(self):
        def family(t):  # a rotation about a tilted axis: complex amplitudes
            c, s = math.cos(t), math.sin(t)
            return Unitary(np.array([[c, -s * np.exp(-0.7j)], [s * np.exp(0.7j), c]]))

        thetas = ORACLE_ANGLES[:10]
        self._assert_matches(list(audit_sweep(thetas, unitary_family=family)), thetas, family)

    def test_family_is_called_once_per_angle(self):
        calls = []

        def family(t):
            calls.append(t)
            return rotation(t)

        list(audit_sweep([0.1, 0.2, 0.3], unitary_family=family))
        assert sorted(calls) == [0.0, 0.1, 0.2, 0.3]

    def test_family_must_give_a_qubit_unitary(self):
        with pytest.raises(TypeError):
            audit_dynamics(0.1, unitary_family=lambda t: np.eye(2))
        with pytest.raises(ValueError):
            audit_dynamics(0.1, unitary_family=lambda t: identity(4))

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
