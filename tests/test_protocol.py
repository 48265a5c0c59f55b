import math
import random
import re
from decimal import Decimal
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
    min_rounds,
    simulate,
)
from reference import decimal_channel, exact_success_fraction, helstrom

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
            optimal, _ = helstrom(rho0.matrix, rho1.matrix, 0.5)
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
            exact_success(QUARTER, MIN_ROUNDS_MAX_COPIES + 1)
        with pytest.raises(ValueError):
            exact_success(QUARTER, 1.5)
        with pytest.raises(ValueError):
            exact_success(float("nan"), 1)
        assert exact_success(QUARTER, 128) > 0.99

    def test_any_n_simulate_takes(self):
        # n once stopped at 64, while simulate printed the same figure past it
        for n in (65, 1000, MIN_ROUNDS_MAX_COPIES):
            assert exact_success(0.3, n) == simulate(0.3, n, 1, 0).exact_success


class TestMinRounds:
    def test_quarter_angle_small_targets(self):
        assert min_rounds(QUARTER, 0.6) == 1
        assert min_rounds(QUARTER, 0.65) == 2

    def test_threshold_is_tight(self):
        for theta, target in ((QUARTER, 0.99), (0.3, 0.9), (0.1, 0.8)):
            n = min_rounds(theta, target)
            assert exact_success(theta, n) >= target
            if n > 1:
                assert exact_success(theta, n - 1) < target

    # A tie: the target is the success exact_success reports at n = 98, and
    # the exact sum reaches it there, but the float miss answers 99.
    TIE = (0.7318686727434452, 0.9952590429526448, 98)

    def test_the_tie_is_exact_at_its_n(self):
        theta, target, n = self.TIE
        assert exact_success(theta, n) == target
        cs = Fraction(protocol._cs(theta))
        assert exact_success_fraction(cs, n) >= Fraction(target) > exact_success_fraction(cs, n - 1)

    @pytest.mark.xfail(strict=True, reason="min_rounds decides a tie by the float miss alone")
    def test_a_target_at_a_success_is_reached_there(self):
        theta, target, n = self.TIE
        assert min_rounds(theta, target) == n

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

        # All would otherwise run: the exact column sums a window of the curve.
        monkeypatch.setattr(protocol, "_chunk_correct", no_work)
        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_channel", no_work)
        for n in (MIN_ROUNDS_MAX_COPIES + 1, 10**10):
            with pytest.raises(ValueError, match=rf"^n must be an integer in \[1, 1000000\], got {n}$"):
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

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
    def test_relative_error_against_decimal_oracle(self, n):
        # The module docstring's accuracy up to n = 10^6, where the rational
        # oracle is too slow: D_n within 1e-13 and the miss within 1e-12 of
        # 40-digit sums, across n cs^2 from 0.3 (D_n small) to 319 (miss
        # near 1e-19). Worst measured on 160 random draws: 2.3e-14 and 4.4e-13.
        for ncs2 in (0.3, 3.0, 30.0, 150.0, 319.0):
            a = math.sqrt(ncs2 / n)
            d, miss = decimal_channel(a, n)
            got_d, got_miss = protocol._channel(a, n)
            assert abs(Decimal(got_d) - d) <= Decimal(1e-13) * d, (n, ncs2)
            assert abs(Decimal(got_miss) - miss) <= Decimal(1e-12) * miss, (n, ncs2)

    def test_rejects_coherence_outside_the_disc(self):
        for cs in (1.0, -1.5, float("nan")):
            with pytest.raises(ValueError, match="coherence"):
                copy_distance(cs, 3)


# Pythagorean (cos, sin) pairs: at theta = atan2(s, c) the float coherence
# is within an ulp of the rational cs, and the exact sum over all counts at
# that float stays cheap up to n = 200.
PYTHAGOREAN_ANGLES = {
    f"{a}-{b}-{h}": math.atan2(b, a) for a, b, h in ((3, 4, 5), (5, 12, 13), (7, 24, 25))
}
COPIES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200)


class TestExactAtTheFloatCoherence:
    """The channel against :func:`reference.exact_success_fraction` at
    ``Fraction(cs)`` of the coherence the program computes, so the only
    error is the channel's own."""

    # Relative errors over every n in [1, 200] at the three angles, worst
    # measured: D_n 1.63e-15, the miss 3.0e-14, the success 7.4e-16. Each
    # bound is about twice that.
    D_BOUND, MISS_BOUND, SUCCESS_BOUND = 4e-15, 6e-14, 2e-15

    def test_distance_miss_and_success(self):
        for theta in PYTHAGOREAN_ANGLES.values():
            cs = protocol._cs(theta)
            for n in COPIES:
                success = exact_success_fraction(Fraction(cs), n)
                d = 2 * success - 1
                got_d, got_miss = protocol._channel(abs(cs), n)
                assert got_d == copy_distance(cs, n)
                assert abs(Fraction(got_d) - d) <= self.D_BOUND * d, (theta, n)
                assert abs(Fraction(got_miss) - (1 - d)) <= self.MISS_BOUND * (1 - d), (theta, n)
                assert abs(Fraction(exact_success(theta, n)) - success) <= self.SUCCESS_BOUND * success

    @pytest.mark.parametrize(
        "triple, targets",
        [
            ("3-4-5", (0.6, 0.75, 0.9, 0.95, 0.99)),
            ("5-12-13", (0.6, 0.75, 0.9, 0.95)),
            ("7-24-25", (0.6, 0.75, 0.9)),
        ],
    )
    def test_min_rounds_is_the_exact_threshold(self, triple, targets):
        # Every n* here is at most 89, and the exact success at n* and at
        # n* - 1 is 1.6e-4 or more from the target.
        theta = PYTHAGOREAN_ANGLES[triple]
        cs = Fraction(protocol._cs(theta))
        for target in targets:
            n = min_rounds(theta, target)
            assert n <= 89
            assert exact_success_fraction(cs, n) >= Fraction(target)
            assert n == 1 or exact_success_fraction(cs, n - 1) < Fraction(target)


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
        channel = protocol._channel

        def counted(a, n):
            calls.append(n)
            return channel(a, n)

        def no_work(*args):
            raise AssertionError("the search evaluated copy_distance")

        monkeypatch.setattr(protocol, "_channel", counted)
        monkeypatch.setattr(protocol, "copy_distance", no_work)
        with pytest.raises(ValueError, match="not reached within 100 copies"):
            min_rounds(0.001, 0.999, max_n=100)
        assert calls == [100]

    def test_reachable_target_the_tail_bound_cannot_settle(self, monkeypatch):
        # At n* = 216497 the bound 2 exp(-n* cs^2 / 8) is 0.86, far above
        # the budget 0.02: with max_n = n* the miss there is evaluated, and
        # the answer is the one the default cap gives.
        theta, target = 0.01, 0.99
        cs = protocol._cs(theta)
        n = min_rounds(theta, target)
        assert n == 216497 and 2.0 * math.exp(-n * cs * cs / 8.0) > 0.5 * 2.0 * (1.0 - target)
        calls = []
        channel = protocol._channel

        def counted(a, m):
            calls.append(m)
            return channel(a, m)

        monkeypatch.setattr(protocol, "_channel", counted)
        assert min_rounds(theta, target, max_n=n) == n
        assert calls[0] == n
        calls.clear()
        with pytest.raises(ValueError, match=f"not reached within {n - 1} copies"):
            min_rounds(theta, target, max_n=n - 1)
        assert calls == [n - 1]

    def test_a_miss_that_breaks_the_tail_bound_raises_at_max_n(self, monkeypatch):
        # The bound settles reachability without evaluating max_n; a miss
        # that never reaches the budget ends the search there, not in a loop.
        calls = []

        def stuck(a, n):
            calls.append(n)
            return 0.0, 1.0

        monkeypatch.setattr(protocol, "_channel", stuck)
        with pytest.raises(ValueError, match="^target 0.9 not reached within 1000 copies at theta = 0.3$"):
            min_rounds(0.3, 0.9, max_n=1000)
        assert calls[-1] == 1000 and len(calls) <= 13

    def test_max_n_ceiling_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the curve was evaluated before max_n was checked")

        monkeypatch.setattr(protocol, "copy_distance", no_work)
        monkeypatch.setattr(protocol, "_channel", no_work)
        for max_n in (MIN_ROUNDS_MAX_COPIES + 1, 10**10, 0, -5):
            with pytest.raises(ValueError, match=rf"^max_n must be an integer in \[1, 1000000\], got {max_n}$"):
                min_rounds(1e-6, 0.99, max_n=max_n)

    def test_max_n_bounds_are_inclusive(self):
        assert min_rounds(QUARTER, 0.6, max_n=1) == 1
        assert min_rounds(0.01, 0.99, max_n=MIN_ROUNDS_MAX_COPIES) == 216497


def test_shot_ceiling_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before shots was checked")

    monkeypatch.setattr(protocol, "_chunk_correct", no_work)
    monkeypatch.setattr(protocol, "copy_distance", no_work)
    monkeypatch.setattr(protocol, "_channel", no_work)
    for shots in (MAX_SHOTS + 1, 10**12):
        with pytest.raises(ValueError, match=rf"^shots must be an integer in \[1, 10000000\], got {shots}$"):
            simulate(QUARTER, 1, shots, 1)


CAP = MIN_ROUNDS_MAX_COPIES
# Each integer argument of the public functions, and of the exact oracle in
# tests/reference.py: a call that takes it, its name and its range.
COUNT_ARGUMENTS = {
    "copy_distance n": (lambda v: copy_distance(1e-10, v), "n", 1, CAP),
    "exact_success n": (lambda v: exact_success(0.3, v), "n", 1, CAP),
    "exact_success_fraction n": (lambda v: exact_success_fraction(Fraction(1, 4), v), "n", 1, CAP),
    "min_rounds max_n": (lambda v: min_rounds(0.3, 0.9, max_n=v), "max_n", 1, CAP),
    "simulate n": (lambda v: simulate(0.3, v, 100, 1), "n", 1, CAP),
    "simulate shots": (lambda v: simulate(0.3, 1, v, 1), "shots", 1, MAX_SHOTS),
    "simulate seed": (lambda v: simulate(0.3, 1, 100, v), "seed", 0, 2**64 - 1),
}


class TestCountArguments:
    @pytest.mark.parametrize("argument", COUNT_ARGUMENTS)
    def test_rejected_before_any_work(self, monkeypatch, argument):
        # 2.5 as simulate's n once gave a result with n = 2.5, and as
        # min_rounds' max_n a miss at a fractional n; copy_distance took
        # 2.5, failed on -1 with a math domain error, and had no cap: at
        # cs = 1e-10 and n = 10^14 its window would hold 1.2e8 counts.
        call, name, lo, hi = COUNT_ARGUMENTS[argument]

        def no_work(*args):
            raise AssertionError(f"work started before {name} was checked")

        monkeypatch.setattr(protocol, "_channel", no_work)
        monkeypatch.setattr(protocol, "_chunk_correct", no_work)
        for value in (True, 2.5, 1.5, lo - 1, -1, hi + 1, hi * 10**8):
            line = f"{name} must be an integer in [{lo}, {hi}], got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                call(value)

    @pytest.mark.parametrize("argument", COUNT_ARGUMENTS)
    def test_bounds_are_inclusive_and_numpy_integers_pass(self, monkeypatch, argument):
        call, _, lo, hi = COUNT_ARGUMENTS[argument]
        monkeypatch.setattr(protocol, "_channel", lambda a, n: (1.0, 0.0))
        monkeypatch.setattr(protocol, "_chunk_correct", lambda theta, n, seed, chunk, m: m)
        if argument != "exact_success_fraction n":  # an exact sum over 10^6 counts is far too slow
            call(hi)
        call(lo)
        call(np.uint64(lo))

    def test_simulate_reports_plain_integers(self):
        result = simulate(0.3, np.int64(3), np.int32(100), np.uint64(5))
        assert result == simulate(0.3, 3, 100, 5)
        assert type(result.n) is type(result.shots) is type(result.seed) is int


@pytest.mark.parametrize("theta, n", [(QUARTER, 64), (0.3, 5), (0.01, 10), (0.0, 7)])
def test_one_channel_evaluation_per_success(monkeypatch, theta, n):
    # (0.01, 10) and (0.0, 7) have a miss of 1/2 or more, where the success
    # is 1/2 + D_n/2; it comes from the same window as the miss.
    calls = []
    channel = protocol._channel

    def counted(a, m):
        calls.append(m)
        return channel(a, m)

    monkeypatch.setattr(protocol, "_channel", counted)
    exact_success(theta, n)
    assert calls == [n]
    calls.clear()
    simulate(theta, n, 10, 1)
    assert calls == [n]


def test_window_sign_change_is_the_decoder_threshold():
    # In exact arithmetic llr_k = k log(2 lam_p) + (n - k) log(2 lam_m), the
    # decoder's rule, so its first count with llr_k >= 0 is k* for cs > 0
    # and n - k* (the mirror count) for cs < 0. In floats the two agree from
    # |cs| = 1e-7 on; below about 1e-8 they can differ at the tie count.
    rng = random.Random(20261021)
    checked = 0
    while checked < 3000:
        theta = rng.choice((1.0, -1.0)) * 10 ** -rng.uniform(0.0, 7.3)
        theta += rng.choice((0.0, math.pi / 2, math.pi))
        n = round(10 ** rng.uniform(0.0, 6.0))
        cs = 0.5 * math.sin(2.0 * theta)
        if not (abs(cs) >= 1e-7 and n * cs * cs < 320.0):
            continue
        k, _, llr = protocol._window(abs(cs), n)
        first = int(k[np.argmax(llr >= 0.0)])
        _, k_star, up = protocol._decoder(theta, n)
        assert llr[-1] >= 0.0 and up == (cs > 0.0), (theta, n)
        assert first == (k_star if up else n - k_star), (theta, n)
        checked += 1


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
        assert result.exact_success == exact_success(theta, n)


def _reached(theta: float, target: float, n: int) -> bool:
    """The decision min_rounds makes at n: miss 1 - D_n within 2 (1 - target)."""
    return protocol._channel(abs(0.5 * math.sin(2.0 * theta)), n)[1] <= 2.0 * (1.0 - target)


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
        channel = protocol._channel

        def counted(a, n):
            calls.append(n)
            return channel(a, n)

        monkeypatch.setattr(protocol, "_channel", counted)
        for _ in range(4):
            for goal in (round(20 * 1000 ** (i / 24)) for i in range(25)):
                while True:
                    base = 0.5 * math.asin(2.0 * min(rng.uniform(0.8, 2.0) / math.sqrt(goal), 0.45))
                    theta = rng.choice((base, math.pi / 2 - base, -base, base + math.pi))
                    lo, hi = exact_success(theta, goal - 1), exact_success(theta, goal)
                    if hi - lo > 4e-9 and hi < 1.0 - 1e-6:
                        break
                calls.clear()
                assert min_rounds(theta, 0.5 * (lo + hi)) == goal
                # the tail bound settles reachability, so max_n is never evaluated
                assert len(calls) <= 5 and MIN_ROUNDS_MAX_COPIES not in calls, (goal, calls)

    def test_one_flip_near_target_one(self, monkeypatch):
        # 1/2 + D_n/2 rounds the miss away here; the miss itself flips once.
        # The normal estimate is up to 6 % off this close to 1, and the
        # secant step still keeps the search short.
        rng = random.Random(5)
        calls = []
        channel = protocol._channel

        def counted(a, n):
            calls.append(n)
            return channel(a, n)

        for _ in range(30):
            target = 1.0 - 10 ** -rng.uniform(9.0, 13.0)
            theta = 0.5 * math.asin(2.0 * 10 ** rng.uniform(math.log10(0.02), math.log10(0.45)))
            theta = rng.choice((theta, -theta, math.pi / 2 - theta))
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "_channel", counted)
                calls.clear()
                n = min_rounds(theta, target)
            assert len(calls) <= 6, (theta, target, calls)
            lo = max(1, n - 64)
            decisions = [_reached(theta, target, m) for m in range(lo, n + 65)]
            flips = [lo + i + 1 for i in range(len(decisions) - 1) if decisions[i] != decisions[i + 1]]
            assert flips == ([n] if n > 1 else []) and decisions[n - lo], (theta, target, n)

    def test_near_one_case_is_minimal(self):
        # 40-digit arithmetic gives n* = 98431; the success form said 98441
        theta, target = -3.1856063812250373, 0.9999999999973623
        assert min_rounds(theta, target) == 98431
        assert exact_success(theta, 98431) >= target

    @settings(max_examples=200, deadline=None)
    @given(
        cs=st.floats(min_value=0.02, max_value=0.5),
        mirror=st.sampled_from([1.0, -1.0]),
        gap=st.floats(min_value=math.log10(3e-13), max_value=-9.0),
    )
    def test_exact_success_agrees_with_the_answer_near_target_one(self, cs, mirror, gap):
        # The reported success reaches the target at n* and does not pass it
        # at n* - 1: it is read off the termwise miss min_rounds decides on.
        theta = mirror * 0.5 * math.asin(2.0 * cs)
        target = 1.0 - 10.0**gap
        n = min_rounds(theta, target)
        assert exact_success(theta, n) >= target
        assert n == 1 or exact_success(theta, n - 1) <= target
