import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from boxworld import protocol
from boxworld.hybrid import bob_state
from boxworld.protocol import (
    CHUNK_SHOTS,
    MIN_ROUNDS_MAX_COPIES,
    ZeroSignalError,
    _chunk_correct,
    copy_distance,
    exact_success,
    exact_success_fraction,
    min_rounds,
    simulate,
)
from boxworld.quantum import helstrom

QUARTER = math.pi / 4


def _binomial_tv(cs: float, n: int) -> float:
    """Independent oracle: TV distance between Binomial(n, (1+cs)/2) and Binomial(n, 1/2)."""
    ks = np.arange(n + 1)
    return 0.5 * float(np.abs(binom.pmf(ks, n, (1 + cs) / 2) - binom.pmf(ks, n, 0.5)).sum())


def _n_copy_trace_distance(theta: float, n: int) -> float:
    """Brute-force oracle: eigenvalues of the full 2^n-dimensional difference."""
    rho1 = bob_state(theta).matrix
    acc1 = np.array([[1.0 + 0j]])
    for _ in range(n):
        acc1 = np.kron(acc1, rho1)
    flat = np.eye(2**n) / 2**n
    return 0.5 * float(np.abs(np.linalg.eigvalsh(acc1 - flat)).sum())


class TestExactSuccess:
    def test_single_copy_quarter_angle(self):
        assert exact_success(QUARTER, 1) == 0.625

    def test_two_copies_quarter_angle(self):
        assert exact_success(QUARTER, 2) == 0.65625

    def test_rational_oracle(self):
        assert exact_success_fraction(Fraction(1, 2), 1) == Fraction(5, 8)
        assert exact_success_fraction(Fraction(1, 2), 2) == Fraction(21, 32)
        for n in (3, 5, 10):
            exact = float(exact_success_fraction(Fraction(1, 2), n))
            assert exact_success(QUARTER, n) == pytest.approx(exact, abs=1e-14)

    def test_zero_angle_stays_even(self):
        for n in (1, 4, 16, 64):
            assert exact_success(0.0, n) == 0.5

    def test_nondecreasing_in_n(self):
        for theta in (0.1, 0.3, QUARTER):
            values = [exact_success(theta, n) for n in range(1, 65)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12

    def test_matches_single_shot_discrimination(self):
        for theta in (0.15, 0.6, QUARTER):
            rho0, rho1 = bob_state(0.0), bob_state(theta)
            optimal, _ = helstrom(rho0, rho1, 0.5)
            assert exact_success(theta, 1) == pytest.approx(optimal, abs=1e-12)

    def test_binomial_tv_identity(self):
        for theta in (0.1, 0.5, QUARTER):
            cs = 0.5 * math.sin(2 * theta)
            for n in (1, 2, 7, 30, 64):
                assert copy_distance(cs, n) == pytest.approx(_binomial_tv(cs, n), abs=1e-12)

    def test_log_space_branch_agrees_with_oracle(self):
        cs = 0.5 * math.sin(0.2)
        for n in (171, 500, 2186):
            assert copy_distance(cs, n) == pytest.approx(_binomial_tv(cs, n), abs=1e-10)

    def test_brute_force_eigen_oracle(self):
        for theta in (0.2, QUARTER, 1.0):
            cs = 0.5 * math.sin(2 * theta)
            for n in range(1, 9):
                assert copy_distance(cs, n) == pytest.approx(
                    _n_copy_trace_distance(theta, n), abs=1e-10
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_success(QUARTER, 0)
        with pytest.raises(ValueError):
            exact_success(QUARTER, 65)
        with pytest.raises(ValueError):
            exact_success(QUARTER, 1.5)
        with pytest.raises(ValueError):
            exact_success(float("nan"), 1)
        assert exact_success(QUARTER, 128, max_n=128) > 0.99


class TestMinRounds:
    def test_quarter_angle_small_targets(self):
        assert min_rounds(QUARTER, 0.6) == 1
        assert min_rounds(QUARTER, 0.65) == 2

    def test_threshold_is_tight(self):
        for theta, target in ((QUARTER, 0.99), (0.3, 0.9), (0.1, 0.8)):
            n = min_rounds(theta, target)
            assert exact_success(theta, n, max_n=n) >= target
            if n > 1:
                assert exact_success(theta, n - 1, max_n=n) < target

    def test_small_angle_frozen_value(self):
        # frozen from the binomial-TV oracle sweep
        assert min_rounds(0.05, 0.99) == 8680

    def test_monotone_in_theta(self):
        target = 0.9
        angles = (0.05, 0.1, 0.2, 0.4, QUARTER)
        rounds = [min_rounds(t, target) for t in angles]
        assert rounds == sorted(rounds, reverse=True)

    def test_no_signal_angles_raise(self):
        for theta in (0.0, math.pi / 2, math.pi):
            with pytest.raises(ZeroSignalError):
                min_rounds(theta, 0.9)

    def test_target_validation(self):
        for target in (0.5, 1.0, 1.3, 0.2):
            with pytest.raises(ValueError):
                min_rounds(QUARTER, target)

    def test_unreachable_cap(self):
        with pytest.raises(ValueError):
            min_rounds(0.001, 0.999, max_n=100)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        a = simulate(QUARTER, 3, 20_000, 123)
        b = simulate(QUARTER, 3, 20_000, 123)
        assert a == b

    def test_seed_changes_stream(self):
        a = simulate(QUARTER, 3, 20_000, 123)
        b = simulate(QUARTER, 3, 20_000, 124)
        assert a.empirical_success != b.empirical_success

    def test_chunk_order_independence(self):
        # the documented contract behind safe parallel evaluation
        theta, n, seed, shots = 0.5, 4, 77, 3 * CHUNK_SHOTS + 17
        sizes = [CHUNK_SHOTS] * 3 + [17]
        forward = sum(_chunk_correct(theta, n, seed, c, m) for c, m in enumerate(sizes))
        shuffled = sum(
            _chunk_correct(theta, n, seed, c, m)
            for c, m in sorted(enumerate(sizes), key=lambda kv: -kv[0])
        )
        assert forward == shuffled
        assert simulate(theta, n, shots, seed).empirical_success == forward / shots

    def test_quarter_angle_single_copy_statistics(self):
        result = simulate(QUARTER, 1, 100_000, 20260809)
        assert result.exact_success == 0.625
        assert abs(result.empirical_success - 0.625) < 0.0046  # 3 sigma

    def test_no_signal_stays_even(self):
        result = simulate(0.0, 8, 10_000, 11)
        assert abs(result.empirical_success - 0.5) < 0.015

    def test_many_copies_nearly_certain(self):
        # exact success is 0.98278 at n = 64 and 0.99857 at n = 128
        at64 = simulate(QUARTER, 64, 10_000, 5)
        sigma = math.sqrt(at64.exact_success * (1 - at64.exact_success) / at64.shots)
        assert abs(at64.empirical_success - at64.exact_success) < 5 * sigma
        at128 = simulate(QUARTER, 128, 10_000, 5)
        assert at128.empirical_success >= 0.99

    def test_within_five_sigma_of_exact(self):
        rng_seeds = (1, 2, 3)
        for seed in rng_seeds:
            result = simulate(0.4, 5, 40_000, seed)
            p = result.exact_success
            sigma = math.sqrt(p * (1 - p) / result.shots)
            assert abs(result.empirical_success - p) < 5 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate(QUARTER, 0, 10, 1)
        with pytest.raises(ValueError):
            simulate(QUARTER, 1, 0, 1)
        with pytest.raises(ValueError):
            simulate(QUARTER, 1, 10, -1)
        with pytest.raises(ValueError):
            simulate(QUARTER, 1, 10, 2**64)

    def test_copy_cap_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before n was checked")

        # Both would otherwise run: copy_distance would allocate n + 1 floats.
        monkeypatch.setattr(protocol, "_chunk_correct", no_work)
        monkeypatch.setattr(protocol, "copy_distance", no_work)
        for n in (MIN_ROUNDS_MAX_COPIES + 1, 10**10):
            with pytest.raises(ValueError, match="exceeds the cap"):
                simulate(QUARTER, n, 10, 1)

    def test_copy_cap_is_inclusive(self):
        result = simulate(QUARTER, MIN_ROUNDS_MAX_COPIES, 10, 1)
        assert result.n == MIN_ROUNDS_MAX_COPIES and result.exact_success == pytest.approx(1.0)


def test_copy_distance_independent_of_cs_sign():
    for n in (1, 5, 20):
        assert copy_distance(0.3, n) == pytest.approx(copy_distance(-0.3, n), abs=1e-15)
