import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import binom

from boxworld import protocol
from boxworld.hybrid import bob_state
from boxworld.protocol import (
    CHUNK_SHOTS,
    MAX_SHOTS,
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


# The float sum and the doubling-and-bisection search that the windowed sum
# and the bracketed search replaced, kept as references.
def _float_sum_distance(cs: float, n: int) -> float:
    lam_p = (1.0 + cs) / 2.0
    lam_m = (1.0 - cs) / 2.0
    if n <= 170:
        total = 0.0
        for k in range(n + 1):
            total += math.comb(n, k) * abs(lam_p**k * lam_m ** (n - k) - 0.5**n)
        return 0.5 * total
    k = np.arange(n + 1, dtype=float)
    logc = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    signal = np.exp(logc + k * math.log(lam_p) + (n - k) * math.log(lam_m))
    flat = np.exp(logc - n * math.log(2.0))
    return 0.5 * float(np.abs(signal - flat).sum())


def _doubling_min_rounds(cs: float, target: float) -> int:
    def success(n: int) -> float:
        return 0.5 + 0.5 * _float_sum_distance(cs, n)

    hi = 1
    while success(hi) < target:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if success(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


class TestWindowedDistance:
    @settings(max_examples=150, deadline=None)
    @given(
        x=st.floats(min_value=-0.5, max_value=0.5),
        n=st.integers(min_value=1, max_value=200),
    )
    def test_relative_error_against_rational_oracle(self, x, n):
        # cs on a 2^-40 grid keeps the rational oracle's denominators small
        cs = round(x * 2**40) / 2**40
        exact = float(2 * (exact_success_fraction(Fraction(cs), n) - Fraction(1, 2)))
        assert abs(copy_distance(cs, n) - exact) <= 1e-12 * exact

    def test_rational_oracle_beyond_the_window_edge(self):
        # at n = 1000 the window leaves out about 300 counts on each side
        for cs in (Fraction(1, 16), Fraction(3, 100)):
            exact = float(2 * (exact_success_fraction(cs, 1000) - Fraction(1, 2)))
            assert copy_distance(float(cs), 1000) == pytest.approx(exact, rel=1e-12)

    def test_matches_float_sum_up_to_a_million_copies(self):
        for cs in (1e-4, 1e-3, 0.01, 0.0998, 0.3, 0.5):
            for n in (1, 2, 3, 10, 64, 170, 171, 500, 2186, 10**4, 10**5, 10**6):
                got, ref = copy_distance(cs, n), _float_sum_distance(cs, n)
                # The float sum's log-gamma terms drift by up to 1.2e-9 in D at
                # n = 10^6 (against 40-digit arithmetic), so there the bound is
                # the success column's 1e-9, i.e. 2e-9 in D.
                assert abs(got - ref) <= (1e-9 if n <= 10**5 else 2e-9), (cs, n)

    def test_far_separated_channels_round_to_one(self):
        # n cs^2 >= 320 leaves 1 - D_n below 2 exp(-40); just below, the
        # window sum carries its own rounding, about 1e-13 relative
        for cs, n in ((0.5, 1280), (0.3, 10**6), (0.02, 800_000)):
            assert copy_distance(cs, n) == 1.0
            assert copy_distance(cs, n - 1) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_coherence_outside_the_disc(self):
        for cs in (1.0, -1.5, float("nan")):
            with pytest.raises(ValueError, match="coherence"):
                copy_distance(cs, 3)


class TestBracketedMinRounds:
    def test_equals_doubling_search_on_seeded_pairs(self):
        rng = random.Random(20261018)
        checked = 0
        while checked < 300:
            goal = round(10 ** rng.uniform(0.0, 4.3))
            theta = 0.5 * math.asin(min(2.0 * rng.uniform(0.3, 2.5) / math.sqrt(goal), 1.0))
            theta = rng.choice((theta, -theta, math.pi / 2 - theta))
            target = rng.uniform(0.5001, 0.9999)
            cs = 0.5 * math.sin(2.0 * theta)
            want = _doubling_min_rounds(cs, target)
            below = 0.5 + 0.5 * _float_sum_distance(cs, want - 1) if want > 1 else 0.5
            if 0.5 + 0.5 * _float_sum_distance(cs, want) - target < 1e-9 or target - below < 1e-9:
                continue  # too close to a step for two float sums to agree on it
            assert min_rounds(theta, target) == want, (theta, target)
            checked += 1

    def test_unreachable_target_costs_one_evaluation(self, monkeypatch):
        # The search evaluates the miss probability 1 - D_n, not copy_distance.
        calls = []
        miss = protocol._miss

        def counted(a, n):
            calls.append(n)
            return miss(a, n)

        def no_work(*args):
            raise AssertionError("the search evaluated copy_distance")

        monkeypatch.setattr(protocol, "_miss", counted)
        monkeypatch.setattr(protocol, "copy_distance", no_work)
        with pytest.raises(ValueError, match="not reached within 100 copies"):
            min_rounds(0.001, 0.999, max_n=100)
        assert calls == [100]

    def test_max_n_ceiling_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the curve was evaluated before max_n was checked")

        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_miss", no_work)
        for max_n in (MIN_ROUNDS_MAX_COPIES + 1, 10**10, 0, -5):
            with pytest.raises(ValueError, match=r"max_n must lie in \[1, 1000000\]"):
                min_rounds(1e-6, 0.99, max_n=max_n)

    def test_max_n_bounds_are_inclusive(self):
        assert min_rounds(QUARTER, 0.6, max_n=1) == 1
        assert min_rounds(0.01, 0.99, max_n=MIN_ROUNDS_MAX_COPIES) == 216497


def test_shot_ceiling_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before shots was checked")

    monkeypatch.setattr(protocol, "_chunk_correct", no_work)
    monkeypatch.setattr(protocol, "copy_distance", no_work)
    for shots in (MAX_SHOTS + 1, 10**12):
        with pytest.raises(ValueError, match="exceeds the cap of 10000000"):
            simulate(QUARTER, 1, shots, 1)


def _likelihood_rule(counts: np.ndarray, n: int, lam_p: float, lam_m: float) -> np.ndarray:
    """The per-shot decoder that the one-threshold decoder replaced, kept as
    the reference: log-likelihood ratio of "rotated" against "flat", and
    ties (>= 0) decide 1."""
    llr = counts * math.log(2.0 * lam_p) + (n - counts) * math.log(2.0 * lam_m)
    return llr >= 0.0


class TestThresholdDecoder:
    @pytest.mark.parametrize("theta", [-0.7, -1e-3, 0.0, math.pi / 2, 1e-17, 0.3, QUARTER, 2.5])
    def test_threshold_equals_likelihood_rule_on_every_count(self, theta):
        rng = random.Random(hash(theta) % 2**32)
        for n in (1, 2, 3, 20, 1001, rng.randint(1, 10**4), rng.randint(1, 10**6), 10**6):
            lam_p, k, up = protocol._decoder(theta, n)
            assert lam_p == (1.0 + 0.5 * math.sin(2.0 * theta)) / 2.0
            counts = np.arange(n + 1)
            want = _likelihood_rule(counts, n, lam_p, 1.0 - lam_p)
            got = counts >= k if up else counts <= k
            assert np.array_equal(got, want), (theta, n, k, up)

    def test_threshold_on_random_channels(self):
        rng = random.Random(20261019)
        for _ in range(200):
            theta = rng.uniform(-4.0, 4.0) * 10 ** -rng.uniform(0, 6)
            n = round(10 ** rng.uniform(0, 6))
            lam_p, k, up = protocol._decoder(theta, n)
            counts = np.arange(n + 1)
            got = counts >= k if up else counts <= k
            assert np.array_equal(got, _likelihood_rule(counts, n, lam_p, 1.0 - lam_p)), (theta, n)

    # (theta, n, shots, seed, correct shots), frozen from the per-shot decoder;
    # 12289 shots end in a partial chunk of one shot, 8197 in one of five.
    FROZEN = (
        (QUARTER, 1, 10000, 1, 6242),
        (0.3, 2, 8197, 7, 4759),
        (-0.4, 20, 5000, 2**63 + 11, 3928),
        (0.0, 50, 3000, 5, 1488),
        (0.05, 1000, 9000, 123, 7045),
        (0.001, 10**6, 4100, 99, 2790),
        (-0.002, 10**6, 3000, 8, 2539),
        (math.pi / 2, 7, 100, 3, 46),
        (2.5, 5, 3 * CHUNK_SHOTS + 1, 2**64 - 1, 8772),
    )

    @pytest.mark.parametrize("theta, n, shots, seed, correct", FROZEN)
    def test_simulate_reproduces_frozen_streams(self, theta, n, shots, seed, correct):
        result = simulate(theta, n, shots, seed)
        assert result.empirical_success == correct / shots
        assert result.exact_success == exact_success(theta, n, max_n=n)


def _reached(theta: float, target: float, n: int) -> bool:
    """The decision min_rounds makes at n: miss 1 - D_n within 2 (1 - target)."""
    return protocol._miss(abs(0.5 * math.sin(2.0 * theta)), n) <= 2.0 * (1.0 - target)


class TestSecantMinRounds:
    def test_equals_linear_scan(self):
        rng = random.Random(20261020)
        checked = 0
        while checked < 100:
            goal = 10 ** rng.uniform(0.0, 3.4)
            theta = 0.5 * math.asin(min(2.0 * rng.uniform(0.3, 2.5) / math.sqrt(goal), 1.0))
            theta = rng.choice((theta, -theta, math.pi / 2 - theta, theta + math.pi))
            target = rng.choice((rng.uniform(0.5001, 0.9999), 1.0 - 10 ** -rng.uniform(1.0, 12.0)))
            if not _reached(theta, target, 3000):
                continue
            want = next(n for n in range(1, 3001) if _reached(theta, target, n))
            max_n = rng.randint(1, 4000)
            if want <= max_n:
                assert min_rounds(theta, target, max_n=max_n) == want, (theta, target, max_n)
            else:
                with pytest.raises(ValueError, match="not reached"):
                    min_rounds(theta, target, max_n=max_n)
            checked += 1

    def test_few_evaluations_on_benchmark_like_channels(self, monkeypatch):
        # Channels as the repetition benchmark draws them: n* from 20 to
        # 20000, target halfway between the successes at n* - 1 and n*.
        rng = random.Random(11)
        calls = []
        miss = protocol._miss

        def counted(a, n):
            calls.append(n)
            return miss(a, n)

        monkeypatch.setattr(protocol, "_miss", counted)
        for _ in range(4):
            for goal in (round(20 * 1000 ** (i / 24)) for i in range(25)):
                while True:
                    base = 0.5 * math.asin(2.0 * min(rng.uniform(0.8, 2.0) / math.sqrt(goal), 0.45))
                    theta = rng.choice((base, math.pi / 2 - base, -base, base + math.pi))
                    lo, hi = exact_success(theta, goal - 1, max_n=goal), exact_success(theta, goal, max_n=goal)
                    if hi - lo > 4e-9 and hi < 1.0 - 1e-6:
                        break
                calls.clear()
                assert min_rounds(theta, 0.5 * (lo + hi)) == goal
                assert len(calls) <= 6, (goal, calls)

    def test_one_flip_near_target_one(self, monkeypatch):
        # 1/2 + D_n/2 rounds the miss away here; the miss itself flips once.
        # The normal estimate is up to 6 % off this close to 1, and the
        # secant step still keeps the search short.
        rng = random.Random(5)
        calls = []
        miss = protocol._miss

        def counted(a, n):
            calls.append(n)
            return miss(a, n)

        for _ in range(30):
            target = 1.0 - 10 ** -rng.uniform(9.0, 13.0)
            theta = 0.5 * math.asin(2.0 * 10 ** rng.uniform(math.log10(0.02), math.log10(0.45)))
            theta = rng.choice((theta, -theta, math.pi / 2 - theta))
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "_miss", counted)
                calls.clear()
                n = min_rounds(theta, target)
            assert len(calls) <= 6, (theta, target, calls)
            lo = max(1, n - 64)
            decisions = [_reached(theta, target, m) for m in range(lo, n + 65)]
            flips = [lo + i + 1 for i in range(len(decisions) - 1) if decisions[i] != decisions[i + 1]]
            assert flips == ([n] if n > 1 else []) and decisions[n - lo], (theta, target, n)

    def test_near_one_case_is_minimal(self):
        # 40-digit arithmetic gives n* = 98431; the success form said 98441
        assert min_rounds(-3.1856063812250373, 0.9999999999973623) == 98431
