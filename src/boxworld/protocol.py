"""Repetition coding and sampling for the one-bit marginal channel.

Alice either leaves her input alone (bit 0, Bob's marginal is I/2) or
rotates it by theta (bit 1, Bob's marginal has coherence cs = sin(2
theta)/2). Both marginals are diagonal in the |+>/|-> basis with "+"
probabilities 1/2 and p = (1 + |cs|)/2 (the sign of cs only swaps the
outcomes), and n uses of the channel commute, so the n-copy trace
distance collapses to a binomial total-variation distance. With
B(k) = C(n, k) 2^-n and the log-likelihood ratio

    llr_k = k log1p(|cs|) + (n-k) log1p(-|cs|)
          = (2k - n) atanh|cs| + (n/2) log1p(-cs^2)

it is summed termwise,

    D_n = (1/2) * sum_k B(k) * |expm1(llr_k)|,

and the optimal n-copy success probability is 1/2 + D_n/2. Where
llr_k > 0 a term is taken as exp(log B(k) + llr_k) * -expm1(-llr_k), so
both factors stay at most 1 and no n * cs overflows. The second form of
llr_k is the one computed: it has no cancellation at small cs.

Only a window of k is summed. By Hoeffding's inequality any Bin(n, r)
puts at most exp(-W^2/2) of its mass more than W sqrt(n)/2 beyond its
mean on either side. The window runs from W sqrt(n)/2 below n/2 to
W sqrt(n)/2 above n p, with W = ``_WINDOW_SIGMAS`` = 12, so it drops
less than 2 exp(-72) < 2e-31 of D_n. log B(k) comes from the ratio
C(n, k+1) / C(n, k) = (n-k) / (k+1) by a cumulative sum, normalised so
that the window holds unit mass of Bin(n, 1/2). What remains is
rounding. Against 40-digit sums the relative error of D_n is below
1e-14 for n <= 200 and 3e-14 up to n = 10^6; that of the miss below
1e-13 for n <= 200 and up to 4.4e-13 near n = 10^6 (the worst of 160
random channels with n cs^2 < 320), so below 1e-12. The window is
O(sqrt(n)) terms because it is needed only while n cs^2 < 320, which
keeps the two means within 18 sqrt(n)/2 of each other. Beyond that the same
inequality at the midpoint gives 1 - D_n <= 2 exp(-n cs^2/8) < 2^-54,
and 1.0 is D_n correctly rounded.

One window serves each (|cs|, n), built once, by :func:`_channel`. Over
it the miss probability 1 - D_n = sum_k min(B(k), B(k) e^llr_k) is
summed termwise as exp(log B(k) + min(llr_k, 0)), which keeps its
relative accuracy where it is tiny; :func:`min_rounds` decides on it.
While the miss is below 1/2, D_n is taken as 1 - miss and the success as
1 - miss/2: the termwise D_n above, a sum of terms up to 1, carries an
absolute error of about 1e-13, a sizable part of a miss near 1e-12.
Beyond, D_n is small, its termwise sum keeps its relative accuracy, and
the success is 1/2 + D_n/2. The search starts from the normal estimate,
takes one secant step on the normal quantile of the success, and closes
the bracket from there in about four evaluations.

The optimal decoder is classical: measure every copy in
|+>/|->, count, and threshold the likelihood ratio. Ties at the
threshold decide "bit 1" (this matches the tie-neutral absolute-value
form of D_n at the 2^-n scale). The floating-point rule is monotone in
the count, so each chunk of :func:`simulate` finds its one integer
threshold by bisection and compares counts with it; the decisions are
those of the per-count rule bit for bit.

Sampling uses the numpy Philox4x64-10 counter-based generator. Shots are
grouped into fixed chunks of ``CHUNK_SHOTS``; chunk c draws from the
substream with key = seed and counter = c * 2**64, so results depend
only on (seed, shots, n, theta), never on how chunks are scheduled.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .tolerance import ROUNDING

__all__ = [
    "MIN_ROUNDS_MAX_COPIES",
    "MAX_SHOTS",
    "CHUNK_SHOTS",
    "ZeroSignalError",
    "ProtocolResult",
    "copy_distance",
    "exact_success",
    "min_rounds",
    "simulate",
]

MIN_ROUNDS_MAX_COPIES = 1_000_000
MAX_SHOTS = 10_000_000  # about a second of sampling at any n <= MIN_ROUNDS_MAX_COPIES
CHUNK_SHOTS = 4096
_WINDOW_SIGMAS = 12.0  # half-width of the summed window in sqrt(n)/2 units
_CERTAIN_NCS2 = 320.0  # n cs^2 from which D_n rounds to 1.0


class ZeroSignalError(ValueError):
    """No signaling at this theta: cs = sin(2 theta)/2 vanishes."""


@dataclass(frozen=True)
class ProtocolResult:
    theta: float
    n: int
    exact_success: float
    empirical_success: float
    shots: int
    seed: int


def _count(name: str, value: object, lo: int, hi: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) in [lo, hi]:
    the one check every integer argument of this module passes."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _cs(theta: float) -> float:
    if not math.isfinite(2.0 * theta):  # also rules out a theta that is not finite
        raise ValueError(f"theta must be finite and so must 2 theta, got {theta!r}")
    return 0.5 * math.sin(2.0 * theta)


def copy_distance(cs: float, n: int) -> float:
    """n-copy trace distance D_n for coherence cs, from a window of
    O(sqrt(n)) counts (see the module docstring for the bound); ``n`` lies
    in [1, ``MIN_ROUNDS_MAX_COPIES``]."""
    a = abs(cs)
    if not a < 1.0:
        raise ValueError(f"coherence must satisfy |cs| < 1, got {cs}")
    return _channel(a, _count("n", n, 1, MIN_ROUNDS_MAX_COPIES))[0]


def _channel(a: float, n: int) -> tuple[float, float]:
    """(D_n, miss) for |cs| = a in [0, 1), from one window: the miss
    1 - D_n summed termwise, and D_n as 1 - miss while the miss is below
    1/2, else as its own termwise sum."""
    if n * a * a >= _CERTAIN_NCS2:
        return 1.0, 0.0  # miss below 2 exp(-40), under every budget 2 (1 - target) >= 2^-52
    _, log_b, llr = _window(a, n)
    miss = float(np.exp(log_b + np.minimum(llr, 0.0)).sum())
    if miss < 0.5:
        return 1.0 - miss, miss
    terms = np.exp(log_b + np.maximum(llr, 0.0)) * -np.expm1(-np.abs(llr))
    return 0.5 * float(terms.sum()), miss


def _window(a: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The summed window of counts k, with log B(k) and llr_k, for |cs| = a."""
    half = 0.5 * _WINDOW_SIGMAS * math.sqrt(n)
    lo = max(0, math.ceil(0.5 * n - half))
    hi = min(n, math.floor(0.5 * n * (1.0 + a) + half))
    k = np.arange(lo, hi + 1, dtype=float)
    log_b = np.zeros_like(k)  # log B(k) up to a constant, fixed by the normalisation
    np.cumsum(np.log((n - k[:-1]) / (k[:-1] + 1.0)), out=log_b[1:])
    log_b -= log_b.max()
    log_b -= math.log(np.exp(log_b).sum())
    llr = (2.0 * k - n) * math.atanh(a) + 0.5 * n * math.log1p(-a * a)
    return k, log_b, llr


def exact_success(theta: float, n: int) -> float:
    """Optimal probability of decoding Alice's bit from n channel uses;
    ``n`` lies in [1, ``MIN_ROUNDS_MAX_COPIES``]. It is 1 - miss/2 while
    the miss is below 1/2, where that is the accurate figure, else
    1/2 + D_n/2."""
    d, miss = _channel(abs(_cs(theta)), _count("n", n, 1, MIN_ROUNDS_MAX_COPIES))
    return 1.0 - 0.5 * miss if miss < 0.5 else 0.5 + 0.5 * d


def min_rounds(theta: float, target: float, *, max_n: int = MIN_ROUNDS_MAX_COPIES) -> int:
    """Smallest n whose optimal success reaches ``target``.

    ``target`` must lie strictly between 1/2 and 1, and ``max_n`` in
    [1, ``MIN_ROUNDS_MAX_COPIES``]. Success 1/2 + D_n/2 reaches the
    target exactly when the miss probability 1 - D_n is at most
    2 (1 - target); both sides are compared as computed, the miss summed
    termwise and the budget exact in floats, so the decision stays sharp
    near target 1, where the absolute error of about 1e-13 in D_n is a
    sizable part of the miss. The miss is nonincreasing in n, so the
    target is reachable exactly when it is reached at ``max_n``. Where the
    tail bound at the midpoint, miss <= 2 exp(-max_n cs^2 / 8), is at most
    half the budget, that holds without evaluating the miss there: the
    other half covers the computed miss's relative rounding, below 1e-12.
    Elsewhere one evaluation at ``max_n`` decides. The search then starts
    from the normal estimate n0 = ceil((2 z / |cs|)^2),
    z the standard normal quantile of ``target``, and takes one secant
    step on that quantile,
    n1 = ceil(n0 (z / z(s(n0)))^2), with z(s) = -z(miss / 2). From n1,
    which is usually within one of the answer, steps 1, 2, 4, ... bracket
    the threshold and bisection closes it: about four evaluations in all.
    Raises :class:`ZeroSignalError` when cs vanishes, where no number of
    repetitions helps. Coherences below ROUNDING count as zero so that the
    floating-point images of 0, pi/2, pi, ... are treated as the
    signal-free angles they represent.
    """
    if not 0.5 < target < 1.0:
        raise ValueError(f"target must lie in (1/2, 1), got {target}")
    max_n = _count("max_n", max_n, 1, MIN_ROUNDS_MAX_COPIES)
    cs = _cs(theta)
    if abs(cs) < ROUNDING:
        raise ZeroSignalError(f"no signaling at theta = {theta}: cs = {cs:.3g}")
    a = abs(cs)
    budget = 2.0 * (1.0 - target)  # both steps exact for target in [1/2, 1)

    @functools.cache
    def miss(n: int) -> float:
        return _channel(a, n)[1]

    def reached(n: int) -> bool:
        return miss(n) <= budget

    unreachable = ValueError(f"target {target} not reached within {max_n} copies at theta = {theta}")
    if 2.0 * math.exp(-0.125 * max_n * a * a) > 0.5 * budget and not reached(max_n):
        raise unreachable
    from statistics import NormalDist  # only here, so importing the package does not load it

    z_of = NormalDist().inv_cdf
    z = -z_of(0.5 * budget)
    n1 = n0 = min(max_n, math.ceil((2.0 * z / a) ** 2))
    tail = 0.5 * miss(n0)
    if 0.0 < tail < 0.5:  # s(n0) strictly between 1/2 and 1
        n1 = max(1, math.ceil(min(n0 * (z / z_of(tail)) ** 2, max_n)))
    # grow lo < n* <= hi around n1; success(0) = 1/2 never reaches the target
    step = 1
    if reached(n1):
        lo, hi = n1 - step, n1
        while lo > 0 and reached(lo):
            step *= 2
            lo, hi = max(0, lo - step), lo
    else:  # the loop stops at max_n at the latest
        lo = hi = n1
        while not reached(hi):
            if hi == max_n:  # only if the computed miss broke the tail bound
                raise unreachable
            lo, hi = hi, min(max_n, hi + step)
            step *= 2
    bracket = range(lo + 1, hi + 1)
    return bracket[bisect.bisect_left(bracket, True, key=reached)]


def _decoder(theta: float, n: int) -> tuple[float, int, bool]:
    """lam_p, and the counts c that decide "bit 1": c >= k if ``up``, else c <= k.

    The likelihood rule c log(2 lam_p) + (n - c) log(2 lam_m) >= 0 (ties
    decide 1) is monotone in c even in floats, since each product and
    their sum round monotonically. Its "bit 1" counts are therefore one
    interval: [k, n] when cs > 0, [0, k] when cs < 0 and every count when
    cs = 0 (both logs vanish). Bisection on the same scalar expression,
    evaluated in the same order as an array of counts would be, finds k.

    This rule, not the sign change of the window's llr_k, defines k. The
    two are the same function of c in exact arithmetic and agree in
    floats for |cs| >= 1e-7, oriented by the sign of cs; below about 1e-8
    they can differ at the tie count, where llr_k is a rounding residue.
    The decoder keeps the rule of the channel it samples, so seeded
    :func:`simulate` output does not hinge on the window's rounding.
    """
    lam_p = (1.0 + _cs(theta)) / 2.0
    lam_m = 1.0 - lam_p
    log_p, log_m = math.log(2.0 * lam_p), math.log(2.0 * lam_m)
    up = log_p >= log_m

    def one(c: int) -> bool:
        return (c * log_p + (n - c) * log_m >= 0.0) == up

    first = bisect.bisect_left(range(n + 1), True, key=one)  # n + 1 if no count qualifies
    return lam_p, (first if up else first - 1), up


def _chunk_correct(theta: float, n: int, seed: int, chunk: int, m: int) -> int:
    """Number of correctly decoded shots in one fixed-substream chunk."""
    lam_p, k, up = _decoder(theta, n)
    rng = np.random.Generator(np.random.Philox(key=seed, counter=chunk << 64))
    m1 = int(np.count_nonzero(rng.integers(0, 2, size=m)))  # shots where Alice sends 1
    flat = rng.binomial(n, 0.5, size=m - m1)
    rotated = rng.binomial(n, lam_p, size=m1)
    # correct: the rotated counts that decide 1 and the flat counts that do not
    if up:
        return m - m1 + int(np.count_nonzero(rotated >= k)) - int(np.count_nonzero(flat >= k))
    return m1 - int(np.count_nonzero(rotated > k)) + int(np.count_nonzero(flat > k))


def simulate(theta: float, n: int, shots: int, seed: int) -> ProtocolResult:
    """Monte Carlo run of the repetition protocol; deterministic per seed.

    Per shot: Alice's bit is uniform; Bob samples the n-fold |+>/|->
    statistics of the matching marginal and thresholds the count. The
    contract is that identical (seed, shots, n, theta) give an identical
    result no matter how the fixed-size chunks are evaluated. ``n`` lies
    in [1, ``MIN_ROUNDS_MAX_COPIES``], the range :func:`min_rounds`
    returns, ``shots`` in [1, ``MAX_SHOTS``] and ``seed`` in [0, 2^64).
    """
    n = _count("n", n, 1, MIN_ROUNDS_MAX_COPIES)
    shots = _count("shots", shots, 1, MAX_SHOTS)
    seed = _count("seed", seed, 0, 2**64 - 1)
    correct = sum(
        _chunk_correct(theta, n, seed, chunk, min(CHUNK_SHOTS, shots - start))
        for chunk, start in enumerate(range(0, shots, CHUNK_SHOTS))
    )
    return ProtocolResult(theta, n, exact_success(theta, n), correct / shots, shots, seed)
