import contextlib
import io
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxworld.audit as audit_mod
import reference
from boxworld import cli, dsl, hybrid, quantum
from boxworld.audit import audit_sweep, effective_box
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
    distribute,
)
from boxworld.quantum import Ket
from boxworld.tolerance import EIGEN_ROUNDING, ROUNDING
from reference import HybridState as ArrayState
from reference import basis_ket as array_basis_ket
from reference import check_densities as check_density_stacks
from reference import plain_basis_ket as basis_ket
from reference import (
    apply,
    dumps,
    exact_chain,
    extrapolated,
    identity,
    loads,
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


def _rotated_input(theta: float) -> ArrayState:
    ket = apply(tensor(rotation(theta), identity(2)), array_basis_ket("01"))
    return ArrayState(2, ((1.0, ket),))


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

    @pytest.mark.parametrize("label", ["02", "", "0 1", "1_0"])
    def test_bad_basis_label(self, label):
        # a BasisKet built through the API may carry any label; its leaf checks it
        message = f"basis label must be a nonempty string over 0/1, got {label!r}"
        with pytest.raises(ExpressionError) as err:
            distribute(BasisKet(label))
        assert str(err.value) == message
        with pytest.raises(ExpressionError) as err:
            distribute(CoherentSum((BasisKet("0"), Scaled(SYM_C, BasisKet(label)))), 0.3)
        assert str(err.value) == message

    def test_width_mismatch(self):
        with pytest.raises(ExpressionError):
            distribute(CoherentSum((BasisKet("0"), K00)))
        with pytest.raises(ExpressionError):
            distribute(IncoherentSum((BasisKet("0"), K00)))

    def test_branch_cap(self):
        many = IncoherentSum(tuple(BasisKet("0") for _ in range(17)))
        message = "^expression expands past the cap of 16 branches$"
        with pytest.raises(BranchLimitError, match=message):
            distribute(many)
        state = distribute(IncoherentSum(many.children[:16]))
        assert len(state.branches) == 16

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
        rho = np.array(distribute(far).to_density().matrix)
        assert np.array_equal(rho, distribute(near).to_density().matrix)
        assert rho[0, 1] == rho[1, 0] == 2.0 ** -abs(k)
        assert (rho[0, 0], rho[1, 1]) == ((1.0, 2.0**-1200) if k > 0 else (2.0**-1200, 1.0))

    def test_written_scale_kept_where_every_amplitude_is_normal(self):
        # 10^300 |0> + |1>: the branch lists the amplitudes as written.
        expr = CoherentSum((Scaled(Scalar("num", 1e300), BasisKet("0")), BasisKet("1")))
        (weight, ket), = distribute(expr).branches
        assert weight == 1.0 and ket.amplitudes == (1e300, 1.0)

    def test_zero_prefactor_sets_no_scale(self):
        # 10^-160 |0> + 0 (|0> + 10^300 |0>): the zero operand must not
        # align the sum to 10^300, which would flush 10^-160 to zero.
        tiny = Scaled(Scalar("num", 1e-160), BasisKet("0"))
        zero = Scaled(
            Scalar("num", 0.0),
            CoherentSum((BasisKet("0"), Scaled(Scalar("num", 1e300), BasisKet("0")))),
        )
        rho = np.array(distribute(CoherentSum((tiny, zero))).to_density().matrix)
        assert np.array_equal(rho, distribute(tiny).to_density().matrix)
        assert rho[0, 0] == pytest.approx(1.0) and rho[1, 1] == 0.0

    def test_overflowing_prefactor_rejected(self):
        huge = Scalar("frac", 1e300, 1e-300)
        with pytest.raises(ExpressionError, match="overflows a float"):
            distribute(Scaled(huge, BasisKet("0")))

    @pytest.mark.parametrize(
        "text, theta, plain_adds",
        [
            (
                " + ".join(["(|00000000> (+) |00000001>)"] + [f"|{k:08b}>" for k in range(2, 256)]),
                None,
                0,
            ),
            ("|0> + c |1> + |1>", 2.5, 0),  # c |1> has -0 + 0j at |0>
            ("c (|0> + |1>) + |1> + |0>", 2.5, 2),  # c (...) has -0 parts: one plain sum
            ("|0> + (|0> (+) s |1>)", 2.5, 0),
        ],
        ids=["254-kets", "negative-c-right", "negative-c-left", "mixture-right"],
    )
    def test_a_sum_with_a_clean_operand_adds_only_the_others_nonzero_entries(
        self, monkeypatch, text, theta, plain_adds
    ):
        # Adding a zero to a part that is not -0 changes no bit, so a
        # coherent sum of basis kets adds one entry per ket, not 2^w.
        adds = []

        def counting_add(x, y):
            adds.append(1)
            return x + y

        expr = dsl.parse(text)
        monkeypatch.setattr(hybrid, "add", counting_add)
        got = distribute(expr, theta)
        monkeypatch.undo()
        assert len(adds) == plain_adds
        assert [(repr(w), list(map(repr, k.amplitudes))) for w, k in got.branches] == [
            (repr(w), [repr(complex(z)) for z in k.amplitudes])
            for w, k in reference.distribute(expr, theta).branches
        ]


class TestPrExtend:
    def test_basis_input_01(self):
        out = pr_extend(HybridState(2, ((1.0, basis_ket("01")),)))
        assert [w for w, _ in out.branches] == [0.5, 0.5]
        np.testing.assert_allclose(out.branches[0][1].amplitudes, [0.5, 0, 0, 0])
        np.testing.assert_allclose(out.branches[1][1].amplitudes, [0, 0, 0, 0.5])
        assert np.array_equal(
            out.to_density().matrix, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        )

    def test_basis_input_00_gives_same_output_pair(self):
        # A.B = 0 for input 00 just as for 01.
        out = pr_extend(HybridState(2, ((1.0, basis_ket("00")),)))
        assert np.array_equal(
            out.to_density().matrix, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        )

    @pytest.mark.parametrize("label", ["00", "01", "10", "11"])
    def test_reproduces_box_statistics_exactly(self, label):
        A, B = int(label[0]), int(label[1])
        out = pr_extend(HybridState(2, ((1.0, basis_ket(label)),)))
        z2 = [tensor(array_basis_ket(a), array_basis_ket(b)) for a in "01" for b in "01"]
        probs = measure_probs(out.to_density().matrix, z2)
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
        both_sides = HybridState(2, ((1.0, Ket(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))),))
        assert extrapolated(both_sides)
        assert not extrapolated(_rotated_input(0.3))
        assert not extrapolated(HybridState(2, ((1.0, basis_ket("11")),)))

    def test_extrapolated_output_still_valid(self):
        both_sides = HybridState(2, ((1.0, Ket(np.full(4, 0.5))),))
        rho = pr_extend(both_sides).to_density()
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_wrong_width(self):
        with pytest.raises(ExpressionError):
            pr_extend(HybridState(1, ((1.0, basis_ket("0")),)))

    def test_branch_cap(self):
        both_sides = HybridState(2, ((1.0, Ket(np.full(4, 0.5))),))
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
            state = HybridState(2, ((1.0, Ket(row)),))
            expected = pr_extend(state, max_branches=32).to_density()
            np.testing.assert_allclose(got, expected.matrix, rtol=0, atol=1e-15)

    def test_chain_density_is_bit_identical_to_expansion(self):
        # The chain forms no density. What it reads off one, Bob's marginal,
        # is the exact expansion's at the float (cos, sin), rounded once, and
        # within 2^-54 of the marginal of the float expansion.
        for theta in (0.0, 0.3, QUARTER_TURN, math.pi / 2, math.pi, -1.9):
            expected = pr_extend(_rotated_input(theta)).to_density().matrix
            exact = exact_chain(Fraction(math.cos(theta)), Fraction(math.sin(theta))).bob
            got = bob_state(theta).matrix
            assert got == tuple(tuple(complex(float(v)) for v in row) for row in exact)
            marginal = partial_trace(expected, keep=1, dims=(2, 2))
            np.testing.assert_allclose(got, marginal, rtol=0, atol=2.0**-54)

    def test_empty_stack(self):
        rho = pr_extend_density(np.zeros((0, 4)))
        assert rho.shape == (0, 4, 4)

    def test_rows_far_from_unit_scale(self):
        # Squared, 1e200 overflowed (eigenvalues did not converge) and
        # 1e-200 underflowed (the row carried no mass).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = pr_extend_density(np.array([[1e200, 0, 0, 0], [1e-200, 0, 0, 0], [5e-324, 0, 0, 0]]))
        assert np.array_equal(rho, np.broadcast_to(np.diag([0.5, 0.0, 0.0, 0.5]), (3, 4, 4)))

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(st.integers(-(2**20), 2**20), min_size=8, max_size=8).filter(any),
        k=st.integers(-1000, 1000),
    )
    def test_a_power_of_two_leaves_the_density(self, parts, k):
        # Every nonzero part is at least 2^-20 of the largest, so 2^k psi
        # stays normal; where the squares of 2^k psi are subnormal, their
        # rounding lies far below that of the trace.
        psi = (np.array(parts, dtype=float) / 2**20).view(complex)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = pr_extend_density(np.ldexp(psi.view(float), k).view(complex))
        np.testing.assert_allclose(scaled, pr_extend_density(psi), rtol=0, atol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ExpressionError):
            pr_extend_density(np.ones((3, 2)))
        with pytest.raises(ExpressionError):
            pr_extend_density(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))
        with pytest.raises(ValueError):
            pr_extend_density(np.array([[np.nan, 0, 0, 0]]))


def _bits(a: np.ndarray) -> np.ndarray:
    """The float64 parts of ``a`` as integers, so that -0.0 differs from +0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestSweepDensities:
    """The extension's densities at the sweep's inputs, which the sweep never
    forms: its table, from integers, against the exact chain, and the
    closed form of the extension for any input against its spectrum."""

    # The entries of a density a (|00><00| + |11><11|) + b (|01><01| +
    # |10><10|) + g ((|00> + |11>)(<01| + <10|) + h.c.), row major, as
    # indices into (a, b, g, 0).
    LAYOUT = [0, 2, 2, 3, 2, 1, 3, 2, 2, 3, 1, 2, 3, 2, 2, 0]

    @staticmethod
    def _closed_form(thetas):
        return pr_extend_density(rotated_inputs([rotation(t) for t in thetas]))

    @staticmethod
    def _assert_exact_tables(thetas):
        """Each entry of each angle's effective box is the exact chain's at the
        float (cos, sin), rounded once: bit for bit, signed zeros included."""
        for theta in thetas:
            fig = exact_chain(Fraction(math.cos(theta)), Fraction(math.sin(theta)))
            got = np.array(effective_box(theta).table)
            assert np.array_equal(_bits(got), _bits(np.array(fig.table, dtype=float))), theta

    def test_bit_for_bit_equal_to_the_closed_form(self):
        rng = np.random.default_rng(21)
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-300, math.pi / 2, -math.pi / 2, math.pi]
        thetas = specials + [1e300, -1e300, 3e-162] + [float(t) for t in rng.uniform(-4, 4, 300)]
        self._assert_exact_tables(thetas)
        # The closed form of the extension is real, every zero +0.0.
        assert not _bits(self._closed_form(thetas).imag).any()

    def test_subnormal_sines_differ_only_where_the_closed_form_leaves_a_residue(self):
        # Where s^2/16 is subnormal, the closed form's mean and spread of
        # |01><10| round apart instead of cancelling, a residue the exact
        # density has not; the sweep's table is the exact one there too.
        rng = np.random.default_rng(22)
        thetas = [float(t) for t in np.exp(rng.uniform(math.log(1e-163), math.log(1e-152), 3000))]
        thetas += [1e-160, -1e-160] + [k * 5e-324 for k in range(1, 300)]
        want = self._closed_form(thetas)
        assert not _bits(want.imag).any()
        residue = np.abs(want.real[:, 1, 2])
        assert residue.max() < np.finfo(float).tiny
        assert residue.max() > 0.0  # the corpus reaches the residue
        self._assert_exact_tables(thetas[::15] + thetas[-5:])

    def test_empty_grid(self):
        assert list(audit_sweep([])) == []
        assert self._closed_form([]).shape == (0, 4, 4)

    def test_the_checked_spectrum_is_the_matrix_spectrum(self):
        # On v = c|Phi+> + s|Psi+>, Phi-, Psi- and the complement of v the
        # density has the eigenvalues 1/2, C^2/(2n), S^2/(2n) and 0, so the
        # table the sweep reads off it is nonnegative.
        thetas = [float(t) for t in np.random.default_rng(23).uniform(-4, 4, 200)]
        for theta, rho in zip(thetas, self._closed_form(thetas)):
            C, S, n = audit_mod._numerators(theta)
            closed = sorted([0.0, C * C / (2 * n), S * S / (2 * n), 0.5])
            np.testing.assert_allclose(closed, np.linalg.eigvalsh(rho), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([(0.5, 0.0, 0.0), (0.25, 0.25, 0.2)], r"^negative eigenvalue -0\.15$"),
            ([(0.7, -0.2, 0.0)], r"^negative eigenvalue -0\.2$"),
            ([(0.5, 0.0, 0.0), (0.3, 0.3, 0.0), (0.25, 0.25, 0.0)], r"^trace is 1\.2, not 1$"),
        ],
    )
    def test_a_term_off_the_spectrum_is_refused(self, terms, message):
        # 4g^2 > ab puts an eigenvalue of the (Phi+, Psi+) block below 0; the
        # density checks refuse such terms, and a trace 2(a + b) off 1.
        stack = np.array([[(a, b, g, 0.0)[k] for k in self.LAYOUT] for a, b, g in terms])
        stack = stack.reshape(-1, 4, 4)
        with pytest.raises(ValueError, match=message):
            check_density_stacks(stack)
        # The numpy density checks one matrix at a time; exactly one is
        # refused, with the stack's message, its trace printed as the complex
        # it is.
        refused = []
        for one in stack:
            try:
                reference.DensityOperator(one)
            except ValueError as err:
                refused.append(str(err))
        assert len(refused) == 1
        assert re.match(message.replace(", not 1$", r"\+0j, not 1$"), refused[0])


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
            joint = pr_extend_density(rotated_inputs([rotation(theta)]))[0]
            alice = partial_trace(joint, keep=0, dims=(2, 2))
            np.testing.assert_allclose(alice, _expected_marginal(theta), atol=1e-12)


def _signal(theta):
    """What ``signal`` prints at ``theta``: a one-angle sweep's marginal shift
    and the witness basis that attains it."""
    row = next(audit_sweep([theta]))
    return row.a_to_b_violation, row.witness


class TestSignalingWitness:
    def test_zero_angle_silent(self):
        assert _signal(0.0)[0] == 0.0

    def test_quarter_angle_maximum(self):
        violation, witness = _signal(math.pi / 4)
        assert violation == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(witness[0], plus_ket().amplitudes, atol=1e-12)
        np.testing.assert_allclose(witness[1], minus_ket().amplitudes, atol=1e-12)

    def test_small_angle_value(self):
        violation = _signal(0.1)[0]
        assert violation == pytest.approx(math.sin(0.2) / 4, abs=1e-12)
        assert violation == pytest.approx(0.049667, abs=1e-6)

    def test_closed_form_and_symmetry(self):
        for theta in np.linspace(0.0, math.pi / 2, 25):
            violation = _signal(float(theta))[0]
            assert violation == pytest.approx(math.sin(2 * theta) / 4, abs=1e-10)
            mirrored = _signal(float(math.pi / 2 - theta))[0]
            assert violation == pytest.approx(mirrored, abs=1e-12)

    def test_witness_basis_is_x_for_nonzero_cs(self):
        for theta in (0.1, 0.7, 1.3):
            np.testing.assert_allclose(_signal(theta)[1][0], plus_ket().amplitudes, atol=1e-10)

    def test_one_evaluation_and_no_density_objects(self, monkeypatch):
        rows, built = [], []
        row, init = audit_mod._row, quantum.DensityOperator.__post_init__

        def counting_row(theta):
            rows.append(theta)
            return row(theta)

        def counting_init(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(audit_mod, "_row", counting_row)
        monkeypatch.setattr(quantum.DensityOperator, "__post_init__", counting_init)
        violation = _signal(0.7)[0]
        assert rows == [0.7] and built == []
        assert violation == pytest.approx(math.sin(1.4) / 4, abs=1e-12)


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


def _branch_lines(*argv: str) -> str:
    """The branch lines that ``parse`` prints for ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["parse", *argv]) == 0
    head, branches = out.getvalue().split("\n", 2)[1:]
    assert head.startswith("branches (")
    return branches.partition("rho:\n")[0]


class TestSerialization:
    def test_roundtrip(self):
        state = distribute(SUPERPOSED_MIXTURE, 0.3)
        again = loads(_branch_lines("--expr", dsl.format(SUPERPOSED_MIXTURE), "--theta", "0.3"))
        assert again.width == state.width
        assert len(again.branches) == len(state.branches)
        for (w1, k1), (w2, k2) in zip(state.branches, again.branches):
            assert w1 == w2
            assert np.array_equal(k1.amplitudes, k2.amplitudes)

    def test_golden_line_format(self):
        assert _branch_lines("--expr", "|0> (+) |1>") == "0.5; 1 0 0 0\n0.5; 0 0 1 0\n"
        assert _branch_lines("--expr", "|0> (+) |1>", "--dump-rho") == "0.5; 1 0 0 0\n0.5; 0 0 1 0\n"

    def test_loads_rejects_garbage(self):
        with pytest.raises(ExpressionError):
            loads("not a branch\n")
        with pytest.raises(ExpressionError):
            loads("0.5; 1 0 0\n")
        with pytest.raises(ExpressionError):
            loads("")


# ---------------------------------------------------------------- against the numpy forms

_PREFACTORS = st.one_of(
    st.integers(0, 9).map(float),
    st.floats(min_value=1e-300, max_value=1e300),
)
_SCALARS = st.one_of(
    _PREFACTORS.map(lambda x: Scalar("num", x)),
    st.tuples(_PREFACTORS, _PREFACTORS.filter(bool)).map(lambda ab: Scalar("frac", *ab)),
    _PREFACTORS.map(lambda x: Scalar("sqrt", x)),
    _PREFACTORS.map(lambda x: Scalar("invsqrt", x)),
    st.just(SYM_C),
    st.just(SYM_S),
)


def _expressions(width: int):
    kets = st.integers(0, 2**width - 1).map(lambda k: BasisKet(format(k, f"0{width}b")))
    return st.recursive(
        kets,
        lambda children: st.one_of(
            st.tuples(_SCALARS, children).map(lambda t: Scaled(*t)),
            st.lists(children, min_size=2, max_size=3).map(lambda c: CoherentSum(tuple(c))),
            st.lists(children, min_size=2, max_size=3).map(lambda c: IncoherentSum(tuple(c))),
        ),
        max_leaves=10,
    )


def _reference_stdout(expr, theta: float) -> tuple[str, str]:
    """What ``parse --dump-rho`` printed with numpy's states and densities:
    (stdout, the error message or "")."""
    try:
        state = reference.distribute(expr, theta)
        rho = state.to_density()
    except ExpressionError as err:
        return "", str(err)
    head = f"canonical: {dsl.format(expr)}\nbranches ({len(state.branches)}):\n"
    return head + dumps(state) + "rho:\n" + reference.dumps_density_csv(rho), ""


class TestAgainstNumpyForms:
    """The plain-Python states and densities against their numpy forms in
    :mod:`reference`: the same branches, weights and amplitudes to the bit
    (signed zeros included), the same density and the same printed bytes."""

    @settings(max_examples=100, deadline=None)
    @given(
        expr=st.integers(1, 8).flatmap(_expressions),
        theta=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_branches_densities_and_stdout(self, expr, theta):
        want, error = _reference_stdout(expr, theta)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["parse", "--expr", dsl.format(expr), f"--theta={theta!r}", "--dump-rho"])
        assert (code, out.getvalue(), err.getvalue()) == ((1, "", f"error: {error}\n") if error else (0, want, ""))
        if error:
            with pytest.raises(ExpressionError, match=f"^{re.escape(error)}$"):
                distribute(expr, theta).to_density()
            return
        got, ref = distribute(expr, theta), reference.distribute(expr, theta)
        assert [(repr(w), list(map(repr, k.amplitudes))) for w, k in got.branches] == [
            (repr(w), [repr(complex(z)) for z in k.amplitudes]) for w, k in ref.branches
        ]
        assert np.array(got.to_density().matrix).tobytes() == ref.to_density().matrix.tobytes()


class TestDensityWork:
    """``density_rows`` forms a row's product only of two nonzero amplitudes
    of one branch (its certificate: :class:`TestDensityIsValidByConstruction`)."""

    CASES = [
        ("c(|00> (+) |11>) + s(|01> (+) |10>)", 0.4),
        ("(|000> (+) |001>) + (|010> (+) |011>) + c (|100> (+) |101>) + s (|110> (+) |111>)", 2.5),
        ("1/sqrt(3) (|0000000> + c |0101010> + s |1111111>) (+) 2/7 (|1111111> + s |1010101>)", -0.7),
        (" (+) ".join(f"|{k:09b}>" for k in range(16)), None),
        (" + ".join(f"|{k:08b}>" for k in range(0, 256, 3)) + " (+) |11111111>", None),
    ]

    @staticmethod
    def _count(monkeypatch, module, name, form):
        """The products ``module.name``, the adder whose last argument is the
        coefficient, forms while ``form()`` runs, and what ``form()`` returns."""
        products = []
        add_term = getattr(module, name)

        def counting_term(*args):
            coef = args[-1]
            kind = type(coef)

            class Counted(kind):
                def __mul__(self, other):
                    products.append(1)
                    return kind.__mul__(self, other)

            return add_term(*args[:-1], Counted(coef))

        monkeypatch.setattr(module, name, counting_term)
        counted = form()
        monkeypatch.undo()
        assert counted == form()  # counting changes nothing
        return len(products), counted

    @pytest.mark.parametrize(
        "text, theta", CASES, ids=["readme", "16-branches", "width-7", "16-kets-width-9", "86-kets"]
    )
    def test_real_amplitudes(self, monkeypatch, text, theta):
        state = distribute(dsl.parse(text), theta)
        nnz = [sum(map(bool, ket.amplitudes)) for w, ket in state.branches if w]
        products, _ = self._count(
            monkeypatch, hybrid, "_add_row", lambda: list(state.density_rows())
        )
        assert products <= sum(n * n for n in nnz)
        assert products == sum(n * n for n in nnz)  # every entry, once

    def test_complex_amplitudes(self, monkeypatch):
        # The package refuses them; the complex path of the reference forms
        # every entry, from the nonzero amplitudes alone.
        rng = np.random.default_rng(5)
        branches = []
        for _ in range(6):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            amps[rng.random(16) < 0.5] = 0.0
            amps[0] = 1j
            branches.append((float(rng.uniform(0.1, 1.0)), Ket(amps)))
        state = HybridState(4, tuple(branches))
        with pytest.raises(ValueError, match="^a density is formed from real amplitudes only$"):
            state.to_density()
        products, rho = self._count(
            monkeypatch, reference, "_add_complex_term", lambda: reference.complex_density(state)
        )
        assert products == sum(sum(map(bool, ket.amplitudes)) ** 2 for _, ket in branches)
        pivots = reference._pivots(rho)
        assert pivots is not None and pivots <= len(branches)

    def test_the_call_raises_and_sums_the_trace_before_any_row(self, monkeypatch):
        # parse calls density_rows before it prints, so a failure prints nothing
        with pytest.raises(ValueError, match="^a density is formed from real amplitudes only$"):
            HybridState(1, ((1.0, Ket([1.0, 1j])),)).density_rows()
        sums = []
        monkeypatch.setattr(hybrid, "_pairwise", lambda xs: sums.append(xs) or quantum._pairwise(xs))
        rows = HybridState(1, ((1.0, Ket([1.0, 1.0])),)).density_rows()
        assert sums == [[0.125, 0.125]]  # w (v_i v_i) in the frame 2^-3, v = (1/2, 1/2)
        assert list(rows) == [[0.5, 0.5], [0.5, 0.5]] and len(sums) == 1


# The widest dense expression: 16 branches of width 10, each nonzero on 1020
# of its 1024 amplitudes (tests/test_cli.py prints it within a memory cap).
WIDEST = " + ".join(
    [f"(|{k:010b}> (+) |{k + 1:010b}>)" for k in range(0, 8, 2)]
    + [f"|{k:010b}>" for k in range(8, 1024)]
)


def _assert_valid_by_construction(state: HybridState) -> None:
    """The rows ``density_rows`` yields for ``state``, which ``parse`` prints,
    are a density operator within the bound it states: real and exactly
    symmetric, its trace within ROUNDING of 1, no eigenvalue below
    -EIGEN_ROUNDING, and positivity certified by :func:`reference._pivots`
    after at most one pivot per branch."""
    rows = list(state.density_rows())
    rho = np.array(rows)
    assert rho.dtype == float and rho.tobytes() == rho.T.copy().tobytes()
    assert abs(np.trace(rho) - 1.0) <= ROUNDING
    assert np.linalg.eigvalsh(rho.real).min() >= -EIGEN_ROUNDING
    pivots = reference._pivots(rows)
    assert pivots is not None and pivots <= len(state.branches)


class TestDensityIsValidByConstruction:
    """``parse``'s density needs no check of its own: on every expression it
    is Hermitian, of unit trace and positive semidefinite, within rounding."""

    @settings(max_examples=100, deadline=None)
    @given(
        expr=st.integers(1, 8).flatmap(_expressions),
        theta=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_drawn_expressions(self, expr, theta):
        try:
            state = distribute(expr, theta)
        except ExpressionError:
            return
        _assert_valid_by_construction(state)

    @pytest.mark.parametrize(
        "text, theta",
        [*TestDensityWork.CASES, (WIDEST, None)],
        ids=["readme", "16-branches", "width-7", "16-kets-width-9", "86-kets", "widest"],
    )
    def test_cases_and_the_widest_input(self, text, theta):
        _assert_valid_by_construction(distribute(dsl.parse(text), theta))
