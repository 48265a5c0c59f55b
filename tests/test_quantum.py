import math
from fractions import Fraction

import numpy as np
import pytest

import reference
from boxworld import audit, cli, quantum
from boxworld.hybrid import HybridState
from boxworld.tolerance import EIGEN_ROUNDING
from boxworld.quantum import Ket, Unitary
from reference import DensityOperator as ArrayDensity
from reference import basis_ket as array_basis_ket
from reference import check_densities as check_density_stacks
from reference import check_unitaries as check_unitary_stacks
from reference import plain_basis_ket as basis_ket
from reference import (
    apply,
    helstrom,
    identity,
    measure_probs,
    minus_ket,
    partial_trace,
    plus_ket,
    rotated_inputs,
    rotation,
    tensor,
    trace_distances,
)


def _random_density(rng, dim: int) -> ArrayDensity:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return ArrayDensity(m / m.trace())


def _rho_with_coherence(theta: float) -> ArrayDensity:
    cs = math.cos(theta) * math.sin(theta)
    return ArrayDensity(0.5 * np.array([[1.0, cs], [cs, 1.0]]))


MAXMIX = ArrayDensity(np.eye(2) / 2)


def _mixture(branches) -> HybridState:
    branches = tuple(branches)
    width = branches[0][1].dim.bit_length() - 1 if branches else 1
    return HybridState(width, branches)


def density_from_mixture(branches) -> quantum.DensityOperator:
    """The density of (weight, Ket) branches, as ``HybridState.to_density`` forms it."""
    return _mixture(branches).to_density()


def density_array(branches) -> np.ndarray:
    """:func:`density_from_mixture` as an array, for the reference functions."""
    return np.array(density_from_mixture(branches).matrix)


def complex_density_array(branches) -> np.ndarray:
    """The density of branches whose amplitudes may be complex, by
    :func:`reference.complex_density`, as an array."""
    return np.array(reference.complex_density(_mixture(branches)))


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(rotation(0.0).matrix, np.eye(2))

    def test_action_on_zero_ket(self):
        theta = 0.37
        out = apply(rotation(theta), array_basis_ket("0"))
        np.testing.assert_allclose(
            out.amplitudes, [math.cos(theta), math.sin(theta)], atol=1e-15
        )

    def test_quarter_turn_up_to_sign(self):
        out = apply(rotation(math.pi / 2), array_basis_ket("0"))
        assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(out.amplitudes[0]) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rotation(float("nan"))
        with pytest.raises(ValueError):
            rotation(float("inf"))


def _rotation_stack(thetas) -> np.ndarray:
    """The rotations of ``thetas`` as one stack (T, 2, 2), one ``reference.rotation`` each."""
    return np.array([rotation(t).matrix for t in thetas]).reshape(-1, 2, 2)


class TestRotationStack:
    THETAS = (0.0, 0.37, -1.9, math.pi / 2, math.pi, -math.pi, 1e-300, 7.5, 123456.789)

    def test_rows_are_the_rotation_matrices_bit_for_bit(self):
        # The chain forms no input rows; its integers (C, S) are, up to one
        # power of two, the rows (U tensor 1)|01> of each rotation matrix,
        # bit for bit.
        stack = _rotation_stack(self.THETAS)
        assert stack.shape == (len(self.THETAS), 2, 2) and stack.dtype == complex
        expected = rotated_inputs([rotation(t) for t in self.THETAS])
        assert np.array_equal(expected[:, 1::2], stack[:, :, 0])
        assert not expected.imag.view(np.uint64).any()  # real, every zero +0.0
        for theta, row in zip(self.THETAS, expected.real.tolist()):
            c, s = Fraction(row[1]), Fraction(row[3])
            C, S, n = audit._numerators(theta)
            scale = Fraction(C) / c if c else Fraction(S) / s
            assert scale.denominator == 1 and scale.numerator & (scale.numerator - 1) == 0
            assert (C, S, n) == (scale * c, scale * s, C * C + S * S)
        assert list(audit.audit_sweep([])) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_like_rotation(self, bad):
        with pytest.raises(ValueError, match="^rotation angle must be finite$"):
            rotation(bad)
        with pytest.raises(ValueError, match="^rotation angle must be finite$"):
            list(audit.audit_sweep([0.1, bad, 0.2]))


class TestCheckUnitaries:
    def test_accepts_one_matrix_and_stacks(self):
        stack = _rotation_stack([0.1, 0.2, 0.3, 0.4])
        for one in stack:
            Unitary(one)
            Unitary(one.tolist())
        Unitary(np.eye(4))
        check_unitary_stacks(stack)
        check_unitary_stacks(stack.reshape(2, 2, 2, 2))
        check_unitary_stacks(np.eye(4)[None])

    def test_names_the_worst_deviation(self):
        good = _rotation_stack([0.1, 0.2])
        bad = np.stack([good[0] * (1 + 1e-9), good[1], good[0] * (1 + 1e-6), good[1]])
        Unitary(bad[1])
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(deviation 2e-06\)$"):
            Unitary(bad[2])
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(deviation 2e-06\)$"):
            check_unitary_stacks(bad)
        with pytest.raises(ValueError, match=r"\(deviation 2e-06\)$"):
            check_unitary_stacks(bad.reshape(2, 2, 2, 2))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones(2), "unitary must be square, got shape \\(2,\\)"),
            (np.ones((3, 2, 3)), "unitary must be square, got shape \\(3, 2, 3\\)"),
            (np.array([np.eye(2), [[1.0, np.nan], [0.0, 1.0]]]), "non-finite amplitudes"),
            (np.array([np.eye(2), [[1.0, 0.0], [0.0, np.inf * 1j]]]), "non-finite amplitudes"),
        ],
    )
    def test_rejects_non_square_and_non_finite(self, bad, message):
        # the package checks one matrix, the reference a stack
        for one in (bad[-1],) if bad.ndim == 3 and bad.shape[-1] == bad.shape[-2] else (bad,):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Unitary(one)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_unitary_stacks(bad)

    def test_unitary_gives_the_same_messages(self):
        for bad, message in (
            (np.ones((2, 3)), "^unitary must be square, got shape \\(2, 3\\)$"),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "^non-finite amplitudes$"),
            (np.diag([1.0, 2.0]), "^matrix is not unitary \\(deviation 3\\)$"),
        ):
            with pytest.raises(ValueError, match=message):
                Unitary(bad)


MALFORMED = {
    "1-D": (np.ones(2), "{what} must be square, got shape (2,)"),
    "3-D": (np.ones((2, 2, 2)), "{what} must be square, got shape (2, 2, 2)"),
    "ragged": ([[1.0, 0.0], [0.0]], "rows of unequal length in a matrix of shape (2, 2)"),
    "empty": ([], "{what} must be square, got shape (0,)"),
    "nan": ([[1.0, float("nan")], [0.0, 1.0]], "{non_finite}"),
    "inf-j": ([[1.0, 0.0], [0.0, complex(0.0, float("inf"))]], "{non_finite}"),
    "minus-inf-j": ([[1.0, 0.0], [0.0, complex(0.0, -float("inf"))]], "{non_finite}"),
    "non-square": (np.ones((2, 3)), "{what} must be square, got shape (2, 3)"),
}


@pytest.mark.parametrize("bad, message", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize(
    "kind, what, non_finite", [(Unitary, "unitary", "non-finite amplitudes")], ids=["unitary"]
)
def test_one_message_per_malformed_matrix(kind, what, non_finite, bad, message):
    # one message for each malformation; a density operator is valid by
    # construction and checks nothing
    with pytest.raises(ValueError) as err:
        kind(bad)
    assert str(err.value) == message.format(what=what, non_finite=non_finite)


class TestTensor:
    def test_basis_kets_concatenate_labels(self):
        prod = tensor(array_basis_ket("0"), array_basis_ket("1"))
        assert np.array_equal(prod.amplitudes, array_basis_ket("01").amplitudes)

    def test_identity_factors(self):
        assert np.array_equal(tensor(identity(2), identity(2)).matrix, np.eye(4))

    def test_rotated_input_state(self):
        # Oracle: direct 4-vector multiplication, independent of tensor().
        theta = 0.81
        c, s = math.cos(theta), math.sin(theta)
        big = np.kron(np.array([[c, -s], [s, c]]), np.eye(2))
        expected = big @ np.array([0.0, 1.0, 0.0, 0.0])
        out = apply(tensor(rotation(theta), identity(2)), array_basis_ket("01"))
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)
        np.testing.assert_allclose(out.amplitudes, [0.0, c, 0.0, s], atol=1e-15)

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            tensor(array_basis_ket("0"), identity(2))


class TestDensityFromMixture:
    """The density of a mixture, as ``HybridState.to_density`` forms it."""

    def test_equal_mixture_of_00_and_11(self):
        rho = density_from_mixture([(0.5, basis_ket("00")), (0.5, basis_ket("11"))])
        assert np.array_equal(rho.matrix, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))

    def test_pure_state(self):
        rho = density_from_mixture([(1.0, basis_ket("0"))])
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_four_branch_coherence(self):
        theta = 0.6
        c, s = math.cos(theta), math.sin(theta)
        phi0 = Ket([c, s])
        phi1 = Ket([s, c])
        rho = density_from_mixture(
            [(0.25, phi0), (0.25, basis_ket("0")), (0.25, basis_ket("1")), (0.25, phi1)]
        )
        np.testing.assert_allclose(rho.matrix, _rho_with_coherence(theta).matrix, atol=1e-15)

    def test_trace_normalizes_unnormalized_input(self):
        rho = density_from_mixture([(0.1, Ket([2.0, 0.0]))])
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            density_from_mixture([(0.0, basis_ket("0"))])
        with pytest.raises(ValueError):
            density_from_mixture([])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            density_from_mixture([(-0.5, basis_ket("0")), (1.5, basis_ket("1"))])

    @staticmethod
    def _plain_sum(branches):
        """The unscaled sum, as computed before scaling: the reference for ordinary inputs.

        Each product is formed in Python's complex arithmetic: numpy's may
        fuse a multiply and an add, which changes the bits of products of
        complex numbers, though not of the real ones expressions produce.
        """
        terms = [[[complex(w) * (a * b.conjugate()) for b in k.amplitudes] for a in k.amplitudes] for w, k in branches]
        acc = sum(np.array(term) for term in terms)
        return acc / float(acc.trace().real)

    def test_ordinary_inputs_give_the_plain_sum_bit_for_bit(self):
        # the package on real amplitudes, the complex path of the reference
        # on complex ones
        rng = np.random.default_rng(3)
        for _ in range(300):
            dim = int(rng.choice([2, 4, 8]))
            count = int(rng.integers(1, 6))
            real, complex_ = [], []
            for _ in range(count):
                re, im = rng.normal(size=(2, dim))
                zero = rng.random(dim) < 0.3
                re[zero], im[zero] = 0.0, 0.0
                scale, w = 10.0 ** rng.uniform(-3, 3), float(rng.uniform(0.0, 2.0))
                real.append((w, Ket(re * scale)))
                complex_.append((w, Ket((re + 1j * im) * scale)))
            for branches, density in ((real, density_array), (complex_, complex_density_array)):
                branches.append((1.0, Ket(np.eye(dim)[0])))
                got = density(branches)
                assert got.tobytes() == self._plain_sum(branches).tobytes()

    def test_complex_amplitudes_are_refused(self):
        # no expression has an imaginary unit; only a direct caller can build one
        for amps in ([0.0, 1j], [1.0, complex(0.0, 5e-324)], [complex(1.0, -2.0), 0.0]):
            with pytest.raises(ValueError, match="^a density is formed from real amplitudes only$"):
                density_from_mixture([(0.5, basis_ket("0")), (0.5, Ket(amps))])
        density_from_mixture([(1.0, Ket([complex(1.0, -0.0), 0.0]))])  # -0 is no imaginary part

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300, 5e-324, 1.7e308])
    def test_amplitude_scale_drops_out(self, scale):
        # scale and its mantissa differ by a power of two: the same bits, whatever the size
        unit = math.frexp(scale)[0]
        for branches, expected, density in (
            ([(1.0, [1.0, 0.0])], np.diag([1.0, 0.0]), density_array),
            ([(1.0, [1.0, 1.0])], np.full((2, 2), 0.5), density_array),
            ([(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])], np.diag([0.5, 0.5]), density_array),
            ([(0.5, [1.0, 0.0]), (0.5, [0.0, 1j])], np.diag([0.5, 0.5]), complex_density_array),
        ):
            got = density([(w, Ket(np.multiply(a, scale))) for w, a in branches])
            ref = density([(w, Ket(np.multiply(a, unit))) for w, a in branches])
            assert got.tobytes() == ref.tobytes()
            np.testing.assert_allclose(got, expected, rtol=0, atol=2e-16)

    def test_weight_scale_drops_out_and_tiny_branches_vanish(self):
        for w in (5e-324, 1e-300, 1e300, 1.7e308):
            rho = density_from_mixture([(w, Ket([0.0, 1e200])), (w, Ket([1e200, 0.0]))])
            assert np.array_equal(rho.matrix, np.diag([0.5, 0.5]).astype(complex))
        rho = density_from_mixture([(1.0, Ket([1e-200, 0.0])), (1.0, Ket([0.0, 1.0]))])
        assert np.array_equal(rho.matrix, np.diag([0.0, 1.0]).astype(complex))


class TestPartialTrace:
    """The reference partial trace, the oracle of the audit's marginals."""

    def test_correlated_mixture_reduces_to_maximally_mixed(self):
        rho = density_from_mixture([(0.5, basis_ket("00")), (0.5, basis_ket("11"))])
        reduced = partial_trace(rho.matrix, keep=1, dims=(2, 2))
        assert np.array_equal(reduced, (np.eye(2) / 2).astype(complex))

    def test_product_state_factors(self):
        rng = np.random.default_rng(2)
        rho_a = _random_density(rng, 2)
        rho_b = _random_density(rng, 2)
        prod = tensor(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(prod.matrix, 1, (2, 2)), rho_b.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(prod.matrix, 0, (2, 2)), rho_a.matrix, atol=1e-12)

    def test_three_factors(self):
        rng = np.random.default_rng(3)
        parts = [_random_density(rng, 2) for _ in range(3)]
        prod = tensor(tensor(parts[0], parts[1]), parts[2])
        np.testing.assert_allclose(
            partial_trace(prod.matrix, 1, (2, 2, 2)), parts[1].matrix, atol=1e-12
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = _random_density(rng, 4)
            for keep in (0, 1):
                red = partial_trace(rho.matrix, keep=keep, dims=(2, 2))
                assert abs(red.trace() - 1.0) < 1e-12

    def test_bad_factorization(self):
        rho = _random_density(np.random.default_rng(5), 4)
        with pytest.raises(ValueError):
            partial_trace(rho.matrix, keep=0, dims=(3, 2))
        with pytest.raises(ValueError):
            partial_trace(rho.matrix, keep=2, dims=(2, 2))


class TestTraceDistance:
    """:func:`reference.trace_distances` on single matrices, the oracle of the
    sweep's closed-form marginal shift."""

    def test_identical_states(self):
        rho = _random_density(np.random.default_rng(6), 4).matrix
        assert trace_distances(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        rho0 = density_array([(1.0, basis_ket("0"))])
        rho1 = density_array([(1.0, basis_ket("1"))])
        assert trace_distances(rho0, rho1) == pytest.approx(1.0, abs=1e-15)

    def test_coherence_against_maximally_mixed(self):
        for theta in (0.1, 0.4, math.pi / 4, 1.2):
            expected = math.sin(2 * theta) / 4
            assert trace_distances(_rho_with_coherence(theta).matrix, MAXMIX.matrix) == pytest.approx(
                expected, abs=1e-14
            )

    def test_metric_properties(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a, b, c = (_random_density(rng, 4).matrix for _ in range(3))
            assert trace_distances(a, b) == pytest.approx(trace_distances(b, a), abs=1e-12)
            assert trace_distances(a, c) <= trace_distances(a, b) + trace_distances(b, c) + 1e-10
            assert 0.0 <= trace_distances(a, b) <= 1.0 + 1e-12

    def test_dim_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            trace_distances(_random_density(rng, 2).matrix, _random_density(rng, 4).matrix)


class TestHelstrom:
    """The reference Helstrom bound, the oracle of the one-copy success."""

    def test_identical_states_coin_flip(self):
        rho = _random_density(np.random.default_rng(10), 2)
        success, _ = helstrom(rho.matrix, rho.matrix, 0.5)
        assert success == pytest.approx(0.5, abs=1e-12)

    def test_quarter_angle_value(self):
        success, _ = helstrom(MAXMIX.matrix, _rho_with_coherence(math.pi / 4).matrix, 0.5)
        assert success == pytest.approx(0.625, abs=1e-15)

    def test_orthogonal_pure_states(self):
        rho0 = density_array([(1.0, basis_ket("0"))])
        rho1 = density_array([(1.0, basis_ket("1"))])
        success, witness = helstrom(rho0, rho1, 0.5)
        assert success == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(witness, np.diag([0.0, 1.0]), atol=1e-12)

    def test_matches_trace_distance_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(25):
                rho0, rho1 = _random_density(rng, dim), _random_density(rng, dim)
                success, _ = helstrom(rho0.matrix, rho1.matrix, 0.5)
                assert success == pytest.approx(
                    0.5 + 0.5 * trace_distances(rho0.matrix, rho1.matrix), abs=1e-10
                )

    def test_witness_projector_achieves_the_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho0, rho1 = _random_density(rng, 4), _random_density(rng, 4)
            success, witness = helstrom(rho0.matrix, rho1.matrix, 0.5)
            achieved = 0.5 * np.real(
                np.trace(rho0.matrix @ (np.eye(4) - witness)) + np.trace(rho1.matrix @ witness)
            )
            assert achieved == pytest.approx(success, abs=1e-10)

    def test_unequal_priors(self):
        rho = _random_density(np.random.default_rng(13), 2)
        success, _ = helstrom(rho.matrix, rho.matrix, 0.3)
        assert success == pytest.approx(0.7, abs=1e-12)

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            helstrom(MAXMIX.matrix, MAXMIX.matrix, 1.5)


class TestMeasureProbs:
    """The reference basis measurement, the oracle of the effective box."""

    def test_maximally_mixed_in_z(self):
        probs = measure_probs(MAXMIX.matrix, [basis_ket("0"), basis_ket("1")])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_coherent_state_hides_in_z(self):
        probs = measure_probs(_rho_with_coherence(0.7).matrix, [basis_ket("0"), basis_ket("1")])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_coherent_state_shows_in_x(self):
        theta = 0.7
        cs = math.cos(theta) * math.sin(theta)
        probs = measure_probs(_rho_with_coherence(theta).matrix, [plus_ket(), minus_ket()])
        np.testing.assert_allclose(probs, [(1 + cs) / 2, (1 - cs) / 2], atol=1e-14)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(14)
        rho = _random_density(rng, 2)
        probs = measure_probs(rho.matrix, [plus_ket(), minus_ket()])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            measure_probs(MAXMIX.matrix, [basis_ket("0"), plus_ket()])

    def test_rejects_incomplete_basis(self):
        with pytest.raises(ValueError):
            measure_probs(MAXMIX.matrix, [basis_ket("0")])


class TestTypesValidation:
    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))

    # A density operator is valid by construction and checks nothing; the
    # checks below are those of the numpy form in :mod:`reference` and of its
    # certificate, the oracles that tests/test_hybrid.py holds parse's
    # densities to.

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ArrayDensity(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            ArrayDensity(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            ArrayDensity(np.diag([1.1, -0.1]))

    def test_stack_check_finds_the_bad_matrix(self):
        good = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
        for one in good:
            ArrayDensity(one)
        check_density_stacks(good)
        for bad, message in (
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
            (np.eye(2) * 0.6, "trace is 1.2"),
            (np.diag([1.1, -0.1]), "negative eigenvalue"),
        ):
            with pytest.raises(ValueError, match=message):
                ArrayDensity(bad)
            with pytest.raises(ValueError, match=message):
                check_density_stacks(np.concatenate([good, bad[None]]))

    @pytest.mark.parametrize(
        "lowest", [-EIGEN_ROUNDING * (1 + 1e-3), -EIGEN_ROUNDING * (1 - 1e-3), 0.0, -1e-16]
    )
    def test_certificate_agrees_with_the_eigenvalue_rule(self, lowest, monkeypatch):
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4)))[0]
        spectrum = np.concatenate([np.full((64, 1), lowest), rng.dirichlet(np.ones(3), 64)], axis=1)
        spectrum[:, 1:] *= 1.0 - lowest
        m = q @ (spectrum[:, :, None] * q.conj().swapaxes(-1, -2))
        m = 0.5 * (m + m.conj().swapaxes(-1, -2))
        passes = np.linalg.eigvalsh(m).min(axis=-1) >= -EIGEN_ROUNDING
        assert passes.all() if lowest > -EIGEN_ROUNDING else not passes.any()
        good = np.eye(4, dtype=complex) / 4
        decomposed, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: decomposed.append(a) or eigvalsh(a))
        for one, ok in zip(m, passes.tolist()):
            stack = np.stack([good, one, good])
            # within EIGEN_ROUNDING / 2 of 0 the certificate decides, and
            # only matrices that pass; nearer the bound it decides none
            certified = reference._pivots(one.tolist()) is not None
            assert certified == (lowest > -EIGEN_ROUNDING / 2)
            assert ok or not certified
            if ok:
                check_density_stacks(stack)
                assert decomposed == []
            else:
                with pytest.raises(ValueError, match="^negative eigenvalue -1e-10$"):
                    ArrayDensity(one)
                assert np.array_equal(decomposed.pop(), one)
                with pytest.raises(ValueError, match="^negative eigenvalue -1e-10$"):
                    check_density_stacks(stack)
                assert decomposed.pop() is stack

    @pytest.mark.parametrize("lowest, ok", [(-0.9 * EIGEN_ROUNDING, True), (-1.1 * EIGEN_ROUNDING, False)])
    def test_what_the_certificate_cannot_decide_goes_to_numpy(self, lowest, ok):
        # Three eigenvalues just above or below -EIGEN_ROUNDING leave a Schur
        # complement too large to certify, and no positive pivot.
        m = np.diag([1.0 - 3 * lowest, lowest, lowest, lowest])
        assert reference._pivots(m.tolist()) is None
        if ok:
            ArrayDensity(m)
        else:
            with pytest.raises(ValueError, match="^negative eigenvalue -1.1e-10$"):
                ArrayDensity(m)

    @pytest.mark.parametrize(
        "bad",
        [
            np.full((2, 2), np.nan),
            np.stack([np.eye(2) / 2, np.diag([np.inf, 0.0])]),
            np.stack([np.eye(2) / 2, [[0.5, -np.inf * 1j], [np.inf * 1j, 0.5]]]),
            np.full((3, 2, 4, 4), np.nan + 0j),
        ],
    )
    def test_stack_check_rejects_non_finite_entries(self, bad):
        # NaN once passed: every comparison with it is false
        with pytest.raises(ValueError, match="^non-finite entries$"):
            check_density_stacks(bad.reshape(-1, *bad.shape[-2:])[-1])
        with pytest.raises(ValueError, match="^non-finite entries$"):
            check_density_stacks(bad)

    def test_stack_check_accepts_an_empty_stack(self):
        for empty in (np.zeros((0, 2, 2)), np.zeros((0, 3, 4, 4), dtype=complex)):
            check_density_stacks(empty)
        check_unitary_stacks(np.zeros((0, 2, 2)))

    def test_ket_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Ket([float("nan"), 0.0])

    def test_bad_basis_label(self):
        with pytest.raises(ValueError, match="^basis label must be a nonempty string over 0/1, got '02'$"):
            basis_ket("02")
        with pytest.raises(ValueError, match="^basis label must be a nonempty string over 0/1, got ''$"):
            basis_ket("")


def test_density_csv_dump(capsys):
    assert cli.main(["parse", "--expr", "|0> (+) |1>", "--dump-rho"]) == 0
    assert capsys.readouterr().out.partition("rho:\n")[2] == "0.5,0,0,0\n0,0,0.5,0\n"


def test_trace_sums_as_numpy_does():
    # numpy sums a trace pairwise, in an order its length fixes;
    # density_rows divides by the real part so summed, by quantum._pairwise.
    for dim in [*range(1, 70), 127, 128, 129, 255, 256, 257, 1000, 1024]:
        rng = np.random.default_rng(dim)
        diag = rng.normal(size=(2, dim)) * 10.0 ** rng.uniform(-20, 5, size=(2, dim))
        diag[rng.random(size=(2, dim)) < 0.2] = 0.0
        for parts in (diag, np.full((2, dim), -0.0)):
            m = np.diag(parts[0] + 1j * parts[1])
            got = reference._trace(m.tolist())
            assert np.array([got]).tobytes() == np.array([np.trace(m)]).tobytes(), dim
