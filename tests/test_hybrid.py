import math

import numpy as np
import pytest

from boxworld import hybrid, quantum
from boxworld.hybrid import (
    BasisKet,
    BranchLimitError,
    CoherentSum,
    ExpressionError,
    HybridState,
    IncoherentSum,
    SYM_C,
    SYM_S,
    Scalar,
    Scaled,
    bob_state,
    box_output_state,
    distribute,
    dumps,
    pr_extend_density,
    signaling_witness,
)
from boxworld.quantum import Ket, basis_ket, measure_probs, partial_trace
from reference import (
    apply,
    extrapolated,
    identity,
    loads,
    minus_ket,
    plus_ket,
    pr_extend,
    rotated_inputs,
    rotation,
    tensor,
)

K00, K01, K10, K11 = (BasisKet(s) for s in ("00", "01", "10", "11"))
QUARTER_TURN = math.pi / 4

EQUAL_MIXTURE = Scaled(Scalar("frac", 1, 2), IncoherentSum((K00, K11)))
SUPERPOSED_MIXTURE = CoherentSum(
    (
        Scaled(SYM_C, IncoherentSum((K00, K11))),
        Scaled(SYM_S, IncoherentSum((K01, K10))),
    )
)


def _expected_marginal(theta: float) -> np.ndarray:
    cs = math.cos(theta) * math.sin(theta)
    return 0.5 * np.array([[1.0, cs], [cs, 1.0]], dtype=complex)


def _rotated_input(theta: float) -> HybridState:
    ket = apply(tensor(rotation(theta), identity(2)), basis_ket("01"))
    return HybridState.from_ket(ket)


class TestDistribute:
    def test_equal_mixture_density(self):
        rho = distribute(EQUAL_MIXTURE).to_density()
        assert np.array_equal(rho.matrix, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))

    def test_equal_mixture_branches(self):
        state = distribute(EQUAL_MIXTURE)
        assert state.width == 2
        assert [w for w, _ in state.branches] == [0.5, 0.5]
        np.testing.assert_allclose(state.branches[0][1].amplitudes, [0.5, 0, 0, 0])
        np.testing.assert_allclose(state.branches[1][1].amplitudes, [0, 0, 0, 0.5])

    def test_superposed_expression_expands_to_four_branches(self):
        theta = 0.45
        c, s = math.cos(theta), math.sin(theta)
        state = distribute(SUPERPOSED_MIXTURE, theta)
        assert [w for w, _ in state.branches] == [0.25] * 4
        expected = [
            [c, s, 0, 0],  # |0>(c|0>+s|1>)
            [c, 0, s, 0],  # (c|0>+s|1>)|0>
            [0, s, 0, c],  # (s|0>+c|1>)|1>
            [0, 0, s, c],  # |1>(s|0>+c|1>)
        ]
        for (_, ket), amps in zip(state.branches, expected):
            np.testing.assert_allclose(ket.amplitudes, amps, atol=1e-15)

    def test_mixture_of_superpositions_shape(self):
        inv = Scalar("invsqrt", 2)
        expr = IncoherentSum(
            (
                Scaled(inv, CoherentSum((K00, K10))),
                Scaled(inv, CoherentSum((K01, K11))),
            )
        )
        state = distribute(expr)
        assert [w for w, _ in state.branches] == [0.5, 0.5]
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(state.branches[0][1].amplitudes, [r, 0, r, 0])
        np.testing.assert_allclose(state.branches[1][1].amplitudes, [0, r, 0, r])

    def test_symbol_without_theta(self):
        with pytest.raises(ExpressionError):
            distribute(Scaled(SYM_C, BasisKet("0")))

    def test_inverse_square_root_of_zero(self):
        with pytest.raises(ExpressionError):
            distribute(Scaled(Scalar("invsqrt", 0), BasisKet("0")))

    def test_unknown_symbol(self):
        with pytest.raises(ExpressionError):
            distribute(Scaled("q", BasisKet("0")), 0.1)

    def test_width_mismatch(self):
        with pytest.raises(ExpressionError):
            distribute(CoherentSum((BasisKet("0"), K00)))
        with pytest.raises(ExpressionError):
            distribute(IncoherentSum((BasisKet("0"), K00)))

    def test_branch_cap(self):
        many = IncoherentSum(tuple(BasisKet("0") for _ in range(17)))
        with pytest.raises(BranchLimitError):
            distribute(many)
        state = distribute(many, max_branches=17)
        assert len(state.branches) == 17

    def test_coherent_blowup_capped(self):
        pair = IncoherentSum((BasisKet("0"), BasisKet("1")))
        expr = CoherentSum((pair,) * 5)  # 2^5 = 32 > 16
        with pytest.raises(BranchLimitError):
            distribute(expr)

    @pytest.mark.parametrize("k", [600, -600])
    def test_coherent_branches_2_to_the_600_apart(self, k):
        # 2^k (2^k |0> + |1>): amplitudes 2^2k and 2^k, the first beyond a
        # float. The state is 2^k |0> + |1>, scaled by a power of two.
        big = Scalar("num", 2.0**k)
        near = CoherentSum((Scaled(big, BasisKet("0")), BasisKet("1")))
        far = Scaled(big, near)
        rho = distribute(far).to_density().matrix
        assert np.array_equal(rho, distribute(near).to_density().matrix)
        assert rho[0, 1] == rho[1, 0] == 2.0 ** -abs(k)
        assert (rho[0, 0], rho[1, 1]) == ((1.0, 2.0**-1200) if k > 0 else (2.0**-1200, 1.0))

    def test_written_scale_kept_where_every_amplitude_is_normal(self):
        # 10^300 |0> + |1>: the branch lists the amplitudes as written.
        expr = CoherentSum((Scaled(Scalar("num", 1e300), BasisKet("0")), BasisKet("1")))
        (weight, ket), = distribute(expr).branches
        assert weight == 1.0 and ket.amplitudes.tolist() == [1e300, 1.0]

    def test_zero_prefactor_sets_no_scale(self):
        # 10^-160 |0> + 0 (|0> + 10^300 |0>): the zero operand must not
        # align the sum to 10^300, which would flush 10^-160 to zero.
        tiny = Scaled(Scalar("num", 1e-160), BasisKet("0"))
        zero = Scaled(
            Scalar("num", 0.0),
            CoherentSum((BasisKet("0"), Scaled(Scalar("num", 1e300), BasisKet("0")))),
        )
        rho = distribute(CoherentSum((tiny, zero))).to_density().matrix
        assert np.array_equal(rho, distribute(tiny).to_density().matrix)
        assert rho[0, 0] == pytest.approx(1.0) and rho[1, 1] == 0.0

    def test_overflowing_prefactor_rejected(self):
        huge = Scalar("frac", 1e300, 1e-300)
        with pytest.raises(ExpressionError, match="overflows a float"):
            distribute(Scaled(huge, BasisKet("0")))


class TestPrExtend:
    def test_basis_input_01(self):
        out = pr_extend(HybridState.from_ket(basis_ket("01")))
        assert [w for w, _ in out.branches] == [0.5, 0.5]
        np.testing.assert_allclose(out.branches[0][1].amplitudes, [0.5, 0, 0, 0])
        np.testing.assert_allclose(out.branches[1][1].amplitudes, [0, 0, 0, 0.5])
        assert np.array_equal(
            out.to_density().matrix, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        )

    def test_basis_input_00_gives_same_output_pair(self):
        # A.B = 0 for input 00 just as for 01.
        out = pr_extend(HybridState.from_ket(basis_ket("00")))
        assert np.array_equal(
            out.to_density().matrix, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        )

    @pytest.mark.parametrize("label", ["00", "01", "10", "11"])
    def test_reproduces_box_statistics_exactly(self, label):
        A, B = int(label[0]), int(label[1])
        out = pr_extend(HybridState.from_ket(basis_ket(label)))
        z2 = [tensor(basis_ket(a), basis_ket(b)) for a in "01" for b in "01"]
        probs = measure_probs(out.to_density(), z2)
        expected = np.array(
            [0.5 if (a ^ b) == (A & B) else 0.0 for a in (0, 1) for b in (0, 1)]
        )
        assert np.array_equal(probs, expected)

    def test_rotated_branch_matches_distributed_expression(self):
        theta = 0.45
        out = pr_extend(_rotated_input(theta))
        assert len(out.branches) == 4
        assert [w for w, _ in out.branches] == [0.25] * 4
        via_expr = distribute(SUPERPOSED_MIXTURE, theta).to_density()
        np.testing.assert_allclose(out.to_density().matrix, via_expr.matrix, atol=1e-15)

    def test_output_positive_and_normalized(self):
        for theta in np.linspace(0.0, math.pi / 2, 17):
            rho = pr_extend(_rotated_input(float(theta))).to_density()
            evals = np.linalg.eigvalsh(rho.matrix)
            assert evals.min() >= -1e-10
            assert abs(rho.matrix.trace() - 1.0) < 1e-12

    def test_extrapolation_flag(self):
        both_sides = HybridState.from_ket(
            Ket(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
        )
        assert extrapolated(both_sides)
        assert not extrapolated(_rotated_input(0.3))
        assert not extrapolated(HybridState.from_ket(basis_ket("11")))

    def test_extrapolated_output_still_valid(self):
        both_sides = HybridState.from_ket(
            Ket(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        )
        rho = pr_extend(both_sides).to_density()
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_wrong_width(self):
        with pytest.raises(ExpressionError):
            pr_extend(HybridState.from_ket(basis_ket("0")))

    def test_branch_cap(self):
        both_sides = HybridState.from_ket(
            Ket(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        )
        with pytest.raises(BranchLimitError):
            pr_extend(both_sides, max_branches=8)


class TestPrExtendDensity:
    """The closed form against the branch expansion of :func:`reference.pr_extend`.

    The two derive the box's outputs from a XOR b = A AND B separately.
    """

    @staticmethod
    def _random_inputs(rng, n):
        psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        psi[rng.random(size=(n, 4)) < 0.3] = 0.0  # some components absent
        psi[np.all(psi == 0, axis=1), 0] = 1.0
        return psi

    def test_matches_branch_expansion(self):
        rng = np.random.default_rng(11)
        thetas = list(rng.uniform(-4.0, 4.0, 20)) + [0.0, math.pi / 2, -math.pi / 2, math.pi]
        psi = np.vstack(
            [self._random_inputs(rng, 40), rotated_inputs([rotation(t) for t in thetas])]
        )
        rho = pr_extend_density(psi)
        assert rho.shape == (len(psi), 4, 4)
        for row, got in zip(psi, rho):
            state = HybridState.from_ket(Ket(row))
            expected = pr_extend(state, max_branches=32).to_density()
            np.testing.assert_allclose(got, expected.matrix, rtol=0, atol=1e-15)

    def test_box_output_state_is_bit_identical_to_expansion(self):
        for theta in (0.0, 0.3, QUARTER_TURN, math.pi / 2, math.pi, -1.9):
            expected = pr_extend(_rotated_input(theta)).to_density().matrix
            assert np.array_equal(box_output_state(theta).matrix, expected)

    def test_empty_stack(self):
        rho = pr_extend_density(np.zeros((0, 4)))
        assert rho.shape == (0, 4, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ExpressionError):
            pr_extend_density(np.ones((3, 2)))
        with pytest.raises(ExpressionError):
            pr_extend_density(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))
        with pytest.raises(ValueError):
            pr_extend_density(np.array([[np.nan, 0, 0, 0]]))


class TestBobState:
    def test_zero_angle_maximally_mixed(self):
        assert np.array_equal(bob_state(0.0).matrix, (np.eye(2) / 2).astype(complex))

    def test_quarter_angle(self):
        np.testing.assert_allclose(
            bob_state(math.pi / 4).matrix,
            0.5 * np.array([[1.0, 0.5], [0.5, 1.0]]),
            atol=1e-15,
        )

    def test_half_turn_back_to_mixed(self):
        np.testing.assert_allclose(bob_state(math.pi / 2).matrix, np.eye(2) / 2, atol=1e-12)

    def test_closed_form_sweep(self):
        for theta in np.linspace(0.0, math.pi / 2, 33):
            np.testing.assert_allclose(
                bob_state(float(theta)).matrix, _expected_marginal(float(theta)), atol=1e-12
            )

    def test_alice_marginal_matches_bob(self):
        for theta in (0.2, 0.9, math.pi / 4):
            joint = box_output_state(theta)
            alice = partial_trace(joint, keep=0, dims=(2, 2))
            np.testing.assert_allclose(alice.matrix, _expected_marginal(theta), atol=1e-12)


class TestSignalingWitness:
    def test_zero_angle_silent(self):
        assert signaling_witness(0.0).a_to_b_violation == 0.0

    def test_quarter_angle_maximum(self):
        rep = signaling_witness(math.pi / 4)
        assert rep.a_to_b_violation == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(
            rep.witness_basis[0].amplitudes, plus_ket().amplitudes, atol=1e-12
        )
        np.testing.assert_allclose(
            rep.witness_basis[1].amplitudes, minus_ket().amplitudes, atol=1e-12
        )

    def test_small_angle_value(self):
        rep = signaling_witness(0.1)
        assert rep.a_to_b_violation == pytest.approx(math.sin(0.2) / 4, abs=1e-12)
        assert rep.a_to_b_violation == pytest.approx(0.049667, abs=1e-6)

    def test_closed_form_and_symmetry(self):
        for theta in np.linspace(0.0, math.pi / 2, 25):
            rep = signaling_witness(float(theta))
            assert rep.a_to_b_violation == pytest.approx(
                math.sin(2 * theta) / 4, abs=1e-10
            )
            mirrored = signaling_witness(float(math.pi / 2 - theta))
            assert rep.a_to_b_violation == pytest.approx(
                mirrored.a_to_b_violation, abs=1e-12
            )

    def test_witness_basis_is_x_for_nonzero_cs(self):
        for theta in (0.1, 0.7, 1.3):
            rep = signaling_witness(theta)
            np.testing.assert_allclose(
                rep.witness_basis[0].amplitudes, plus_ket().amplitudes, atol=1e-10
            )

    def test_one_stacked_chain_and_no_density_objects(self, monkeypatch):
        stacks, built = [], []
        densities, init = hybrid.pr_extend_density, quantum.DensityOperator.__post_init__

        def counting_densities(psi):
            stacks.append(len(psi))
            return densities(psi)

        def counting_init(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(hybrid, "pr_extend_density", counting_densities)
        monkeypatch.setattr(quantum.DensityOperator, "__post_init__", counting_init)
        rep = signaling_witness(0.7)
        assert stacks == [2] and built == []
        assert rep.a_to_b_violation == pytest.approx(math.sin(1.4) / 4, abs=1e-12)


class TestHybridStateValidation:
    def test_needs_branches(self):
        with pytest.raises(ExpressionError):
            HybridState(2, ())

    def test_rejects_negative_weight(self):
        with pytest.raises(ExpressionError):
            HybridState(1, ((-1.0, basis_ket("0")),))

    def test_rejects_zero_mass(self):
        with pytest.raises(ExpressionError):
            HybridState(1, ((0.0, basis_ket("0")),))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ExpressionError):
            HybridState(2, ((1.0, basis_ket("0")),))

    def test_from_ket_needs_power_of_two(self):
        with pytest.raises(ExpressionError):
            HybridState.from_ket(Ket(np.array([1.0, 0.0, 0.0])))


class TestSerialization:
    def test_roundtrip(self):
        state = distribute(SUPERPOSED_MIXTURE, 0.3)
        again = loads(dumps(state))
        assert again.width == state.width
        assert len(again.branches) == len(state.branches)
        for (w1, k1), (w2, k2) in zip(state.branches, again.branches):
            assert w1 == w2
            assert np.array_equal(k1.amplitudes, k2.amplitudes)

    def test_golden_line_format(self):
        state = HybridState(1, ((0.5, Ket([1.0, 0.0])), (0.5, Ket([0.0, 1j]))))
        assert dumps(state) == "0.5; 1 0 0 0\n0.5; 0 0 0 1\n"

    def test_loads_rejects_garbage(self):
        with pytest.raises(ExpressionError):
            loads("not a branch\n")
        with pytest.raises(ExpressionError):
            loads("0.5; 1 0 0\n")
        with pytest.raises(ExpressionError):
            loads("")
