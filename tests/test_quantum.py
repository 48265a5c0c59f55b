import math

import numpy as np
import pytest

from boxworld.quantum import (
    check_densities,
    check_unitaries,
    DensityOperator,
    Ket,
    Unitary,
    apply,
    basis_ket,
    density_from_mixture,
    dumps_density_csv,
    helstrom,
    identity,
    measure_probs,
    minus_ket,
    partial_trace,
    plus_ket,
    rotation,
    rotations,
    tensor,
    trace_distance,
)


def _random_density(rng, dim: int) -> DensityOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace())


def _rho_with_coherence(theta: float) -> DensityOperator:
    cs = math.cos(theta) * math.sin(theta)
    return DensityOperator(0.5 * np.array([[1.0, cs], [cs, 1.0]]))


MAXMIX = DensityOperator(np.eye(2) / 2)


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(rotation(0.0).matrix, np.eye(2))

    def test_action_on_zero_ket(self):
        theta = 0.37
        out = apply(rotation(theta), basis_ket("0"))
        np.testing.assert_allclose(
            out.amplitudes, [math.cos(theta), math.sin(theta)], atol=1e-15
        )

    def test_quarter_turn_up_to_sign(self):
        out = apply(rotation(math.pi / 2), basis_ket("0"))
        assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(out.amplitudes[0]) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rotation(float("nan"))
        with pytest.raises(ValueError):
            rotation(float("inf"))


class TestRotationStack:
    THETAS = (0.0, 0.37, -1.9, math.pi / 2, math.pi, -math.pi, 1e-300, 7.5, 123456.789)

    def test_rows_are_the_rotation_matrices_bit_for_bit(self):
        stack = rotations(self.THETAS)
        assert stack.shape == (len(self.THETAS), 2, 2) and stack.dtype == complex
        for theta, m in zip(self.THETAS, stack):
            assert m.tobytes() == rotation(theta).matrix.tobytes()
        assert rotations([]).shape == (0, 2, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_like_rotation(self, bad):
        with pytest.raises(ValueError, match="^rotation angle must be finite$"):
            rotation(bad)
        with pytest.raises(ValueError, match="^rotation angle must be finite$"):
            rotations([0.1, bad, 0.2])


class TestCheckUnitaries:
    def test_accepts_one_matrix_and_stacks(self):
        stack = rotations([0.1, 0.2, 0.3, 0.4])
        check_unitaries(stack[0])
        check_unitaries(stack)
        check_unitaries(stack.reshape(2, 2, 2, 2))
        check_unitaries(np.eye(4)[None])

    def test_names_the_worst_deviation(self):
        good = rotations([0.1, 0.2])
        bad = np.stack([good[0] * (1 + 1e-9), good[1], good[0] * (1 + 1e-6), good[1]])
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(deviation 2e-06\)$"):
            check_unitaries(bad)
        with pytest.raises(ValueError, match=r"\(deviation 2e-06\)$"):
            check_unitaries(bad.reshape(2, 2, 2, 2))

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
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_unitaries(bad)

    def test_unitary_gives_the_same_messages(self):
        for bad, message in (
            (np.ones((2, 3)), "^unitary must be square, got shape \\(2, 3\\)$"),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "^non-finite amplitudes$"),
            (np.diag([1.0, 2.0]), "^matrix is not unitary \\(deviation 3\\)$"),
        ):
            with pytest.raises(ValueError, match=message):
                Unitary(bad)


class TestTensor:
    def test_basis_kets_concatenate_labels(self):
        prod = tensor(basis_ket("0"), basis_ket("1"))
        assert np.array_equal(prod.amplitudes, basis_ket("01").amplitudes)

    def test_identity_factors(self):
        assert np.array_equal(tensor(identity(2), identity(2)).matrix, np.eye(4))

    def test_rotated_input_state(self):
        # Oracle: direct 4-vector multiplication, independent of tensor().
        theta = 0.81
        c, s = math.cos(theta), math.sin(theta)
        big = np.kron(np.array([[c, -s], [s, c]]), np.eye(2))
        expected = big @ np.array([0.0, 1.0, 0.0, 0.0])
        out = apply(tensor(rotation(theta), identity(2)), basis_ket("01"))
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)
        np.testing.assert_allclose(out.amplitudes, [0.0, c, 0.0, s], atol=1e-15)

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            tensor(basis_ket("0"), identity(2))


class TestDensityFromMixture:
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
        """The unscaled sum, as computed before scaling: the reference for ordinary inputs."""
        acc = sum(w * k.outer() for w, k in branches)
        return acc / float(acc.trace().real)

    def test_ordinary_inputs_give_the_plain_sum_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            dim = int(rng.choice([2, 4, 8]))
            count = int(rng.integers(1, 6))
            branches = []
            for _ in range(count):
                amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                amps[rng.random(dim) < 0.3] = 0.0
                amps *= 10.0 ** rng.uniform(-3, 3)
                branches.append((float(rng.uniform(0.0, 2.0)), Ket(amps)))
            branches.append((1.0, Ket(np.eye(dim)[0])))
            got = density_from_mixture(branches).matrix
            assert got.tobytes() == self._plain_sum(branches).tobytes()

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300, 5e-324, 1.7e308])
    def test_amplitude_scale_drops_out(self, scale):
        # scale and its mantissa differ by a power of two: the same bits, whatever the size
        unit = math.frexp(scale)[0]
        for branches, expected in (
            ([(1.0, [1.0, 0.0])], np.diag([1.0, 0.0])),
            ([(1.0, [1.0, 1.0])], np.full((2, 2), 0.5)),
            ([(0.5, [1.0, 0.0]), (0.5, [0.0, 1j])], np.diag([0.5, 0.5])),
        ):
            got = density_from_mixture([(w, Ket(np.multiply(a, scale))) for w, a in branches])
            ref = density_from_mixture([(w, Ket(np.multiply(a, unit))) for w, a in branches])
            assert got.matrix.tobytes() == ref.matrix.tobytes()
            np.testing.assert_allclose(got.matrix, expected, rtol=0, atol=2e-16)

    def test_weight_scale_drops_out_and_tiny_branches_vanish(self):
        for w in (5e-324, 1e-300, 1e300, 1.7e308):
            rho = density_from_mixture([(w, Ket([0.0, 1e200])), (w, Ket([1e200, 0.0]))])
            assert np.array_equal(rho.matrix, np.diag([0.5, 0.5]).astype(complex))
        rho = density_from_mixture([(1.0, Ket([1e-200, 0.0])), (1.0, Ket([0.0, 1.0]))])
        assert np.array_equal(rho.matrix, np.diag([0.0, 1.0]).astype(complex))


class TestPartialTrace:
    def test_correlated_mixture_reduces_to_maximally_mixed(self):
        rho = density_from_mixture([(0.5, basis_ket("00")), (0.5, basis_ket("11"))])
        reduced = partial_trace(rho, keep=1, dims=(2, 2))
        assert np.array_equal(reduced.matrix, (np.eye(2) / 2).astype(complex))

    def test_product_state_factors(self):
        rng = np.random.default_rng(2)
        rho_a = _random_density(rng, 2)
        rho_b = _random_density(rng, 2)
        prod = tensor(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(prod, 1, (2, 2)).matrix, rho_b.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(prod, 0, (2, 2)).matrix, rho_a.matrix, atol=1e-12)

    def test_three_factors(self):
        rng = np.random.default_rng(3)
        parts = [_random_density(rng, 2) for _ in range(3)]
        prod = tensor(tensor(parts[0], parts[1]), parts[2])
        np.testing.assert_allclose(
            partial_trace(prod, 1, (2, 2, 2)).matrix, parts[1].matrix, atol=1e-12
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = _random_density(rng, 4)
            for keep in (0, 1):
                red = partial_trace(rho, keep=keep, dims=(2, 2))
                assert abs(red.matrix.trace() - 1.0) < 1e-12

    def test_bad_factorization(self):
        rho = _random_density(np.random.default_rng(5), 4)
        with pytest.raises(ValueError):
            partial_trace(rho, keep=0, dims=(3, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, keep=2, dims=(2, 2))


class TestTraceDistance:
    def test_identical_states(self):
        rho = _random_density(np.random.default_rng(6), 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        rho0 = density_from_mixture([(1.0, basis_ket("0"))])
        rho1 = density_from_mixture([(1.0, basis_ket("1"))])
        assert trace_distance(rho0, rho1) == pytest.approx(1.0, abs=1e-15)

    def test_coherence_against_maximally_mixed(self):
        for theta in (0.1, 0.4, math.pi / 4, 1.2):
            expected = math.sin(2 * theta) / 4
            assert trace_distance(_rho_with_coherence(theta), MAXMIX) == pytest.approx(
                expected, abs=1e-14
            )

    def test_metric_properties(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a, b, c = (_random_density(rng, 4) for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10
            assert 0.0 <= trace_distance(a, b) <= 1.0 + 1e-12

    def test_dim_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            trace_distance(_random_density(rng, 2), _random_density(rng, 4))


class TestHelstrom:
    def test_identical_states_coin_flip(self):
        rho = _random_density(np.random.default_rng(10), 2)
        success, _ = helstrom(rho, rho, 0.5)
        assert success == pytest.approx(0.5, abs=1e-12)

    def test_quarter_angle_value(self):
        success, _ = helstrom(MAXMIX, _rho_with_coherence(math.pi / 4), 0.5)
        assert success == pytest.approx(0.625, abs=1e-15)

    def test_orthogonal_pure_states(self):
        rho0 = density_from_mixture([(1.0, basis_ket("0"))])
        rho1 = density_from_mixture([(1.0, basis_ket("1"))])
        success, witness = helstrom(rho0, rho1, 0.5)
        assert success == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(witness, np.diag([0.0, 1.0]), atol=1e-12)

    def test_matches_trace_distance_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(25):
                rho0, rho1 = _random_density(rng, dim), _random_density(rng, dim)
                success, _ = helstrom(rho0, rho1, 0.5)
                assert success == pytest.approx(
                    0.5 + 0.5 * trace_distance(rho0, rho1), abs=1e-10
                )

    def test_witness_projector_achieves_the_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho0, rho1 = _random_density(rng, 4), _random_density(rng, 4)
            success, witness = helstrom(rho0, rho1, 0.5)
            achieved = 0.5 * np.real(
                np.trace(rho0.matrix @ (np.eye(4) - witness)) + np.trace(rho1.matrix @ witness)
            )
            assert achieved == pytest.approx(success, abs=1e-10)

    def test_unequal_priors(self):
        rho = _random_density(np.random.default_rng(13), 2)
        success, _ = helstrom(rho, rho, 0.3)
        assert success == pytest.approx(0.7, abs=1e-12)

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            helstrom(MAXMIX, MAXMIX, 1.5)


class TestMeasureProbs:
    def test_maximally_mixed_in_z(self):
        probs = measure_probs(MAXMIX, [basis_ket("0"), basis_ket("1")])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_coherent_state_hides_in_z(self):
        probs = measure_probs(_rho_with_coherence(0.7), [basis_ket("0"), basis_ket("1")])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_coherent_state_shows_in_x(self):
        theta = 0.7
        cs = math.cos(theta) * math.sin(theta)
        probs = measure_probs(_rho_with_coherence(theta), [plus_ket(), minus_ket()])
        np.testing.assert_allclose(probs, [(1 + cs) / 2, (1 - cs) / 2], atol=1e-14)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(14)
        rho = _random_density(rng, 2)
        probs = measure_probs(rho, [plus_ket(), minus_ket()])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            measure_probs(MAXMIX, [basis_ket("0"), plus_ket()])

    def test_rejects_incomplete_basis(self):
        with pytest.raises(ValueError):
            measure_probs(MAXMIX, [basis_ket("0")])


class TestTypesValidation:
    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.1, -0.1]))

    def test_stack_check_finds_the_bad_matrix(self):
        good = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
        check_densities(good)
        for bad, message in (
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
            (np.eye(2) * 0.6, "trace is 1.2"),
            (np.diag([1.1, -0.1]), "negative eigenvalue"),
        ):
            with pytest.raises(ValueError, match=message):
                check_densities(np.concatenate([good, bad[None]]))

    def test_stack_check_accepts_an_empty_stack(self):
        for empty in (np.zeros((0, 2, 2)), np.zeros((0, 3, 4, 4), dtype=complex)):
            check_densities(empty)
        check_unitaries(np.zeros((0, 2, 2)))

    def test_ket_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Ket([float("nan"), 0.0])

    def test_bad_basis_label(self):
        with pytest.raises(ValueError):
            basis_ket("02")
        with pytest.raises(ValueError):
            basis_ket("")

    def test_ket_algebra(self):
        k = 2.0 * basis_ket("0") + 3.0 * basis_ket("1")
        assert np.array_equal(k.amplitudes, np.array([2.0, 3.0], dtype=complex))


@pytest.mark.filterwarnings("error")
class TestKetScale:
    def test_huge_amplitudes_do_not_overflow(self):
        k = Ket([1e200, 1e200])
        assert k.norm() == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert np.allclose(k.normalized().amplitudes, [1 / math.sqrt(2.0)] * 2, rtol=0, atol=1e-15)

    def test_tiny_amplitudes_do_not_underflow(self):
        k = Ket([1e-200, 0.0])
        assert k.norm() == 1e-200
        assert np.array_equal(k.normalized().amplitudes, [1.0, 0.0])
        assert Ket([5e-324, 5e-324j]).normalized().amplitudes[1] == pytest.approx(1j / math.sqrt(2.0))

    def test_ordinary_amplitudes_give_the_plain_result_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            k = Ket(amps * 10.0 ** rng.uniform(-5, 5))
            plain = k.amplitudes / np.linalg.norm(k.amplitudes)
            assert k.norm() == float(np.linalg.norm(k.amplitudes))
            assert np.array_equal(k.normalized().amplitudes, plain)

    def test_norm_beyond_the_largest_float_is_inf(self):
        k = Ket([1.5e308, 1.5e308])
        assert k.norm() == math.inf
        assert Ket([1.2e308, 1.2e308]).norm() == pytest.approx(math.sqrt(2.0) * 1.2e308, rel=1e-15)
        assert np.allclose(k.normalized().amplitudes, [1 / math.sqrt(2.0)] * 2, rtol=0, atol=1e-15)

    def test_zero_vector_still_rejected(self):
        assert Ket([0.0, 0.0]).norm() == 0.0
        with pytest.raises(ValueError, match="zero vector"):
            Ket([0.0, 0.0]).normalized()


def test_density_csv_dump():
    text = dumps_density_csv(MAXMIX)
    assert text == "0.5,0,0,0\n0,0,0.5,0\n"
