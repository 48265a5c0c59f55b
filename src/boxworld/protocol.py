"""Repetition coding and sampling for the one-bit marginal channel.

Alice either leaves her input alone (bit 0, Bob's marginal is I/2) or
rotates it by theta (bit 1, Bob's marginal has coherence cs = sin(2
theta)/2). Both marginals are diagonal in the |+>/|-> basis with "+"
probabilities 1/2 and lam_plus = (1 + cs)/2 respectively, and n uses of
the channel commute, so the n-copy trace distance collapses to a
binomial total-variation distance:

    D_n = (1/2) * sum_k C(n, k) * | lam_plus^k lam_minus^(n-k) - 2^-n |

and the optimal n-copy success probability is 1/2 + D_n/2. The optimal
decoder is therefore classical: measure every copy in |+>/|->, count,
and threshold the likelihood ratio. Ties at the threshold decide "bit 1"
(this matches the tie-neutral absolute-value form of D_n at the 2^-n
scale).

Sampling uses the numpy Philox4x64-10 counter-based generator. Shots are
grouped into fixed chunks of ``CHUNK_SHOTS``; chunk c draws from the
substream with key = seed and counter = c * 2**64, so results depend
only on (seed, shots, n, theta), never on how chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "DEFAULT_MAX_COPIES",
    "PRNG_NAME",
    "CHUNK_SHOTS",
    "ZeroSignalError",
    "ProtocolResult",
    "copy_distance",
    "exact_success",
    "exact_success_fraction",
    "min_rounds",
    "simulate",
]

DEFAULT_MAX_COPIES = 64
MIN_ROUNDS_MAX_COPIES = 1_000_000
PRNG_NAME = "numpy Philox4x64-10, per-chunk counters"
CHUNK_SHOTS = 4096
_COMB_LIMIT = 170  # beyond this, C(n, k) overflows float64; switch to log space


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


def _cs(theta: float) -> float:
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return 0.5 * math.sin(2.0 * theta)


def copy_distance(cs: float, n: int) -> float:
    """n-copy trace distance D_n for coherence cs, via the binomial form."""
    lam_p = (1.0 + cs) / 2.0
    lam_m = (1.0 - cs) / 2.0
    if n <= _COMB_LIMIT:
        total = 0.0
        for k in range(n + 1):
            total += math.comb(n, k) * abs(lam_p**k * lam_m ** (n - k) - 0.5**n)
        return 0.5 * total
    from scipy.special import gammaln  # only here, so the package loads without scipy

    k = np.arange(n + 1, dtype=float)
    logc = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    signal = np.exp(logc + k * math.log(lam_p) + (n - k) * math.log(lam_m))
    flat = np.exp(logc - n * math.log(2.0))
    return 0.5 * float(np.abs(signal - flat).sum())


def exact_success(theta: float, n: int, *, max_n: int = DEFAULT_MAX_COPIES) -> float:
    """Optimal probability of decoding Alice's bit from n channel uses."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > max_n:
        raise ValueError(f"n = {n} exceeds the cap of {max_n} copies")
    return 0.5 + 0.5 * copy_distance(_cs(theta), n)


def exact_success_fraction(cs: Fraction, n: int) -> Fraction:
    """Exact rational n-copy success for a rational coherence cs."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cs = Fraction(cs)
    lam_p = (1 + cs) / 2
    lam_m = (1 - cs) / 2
    flat = Fraction(1, 2**n)
    total = Fraction(0)
    for k in range(n + 1):
        total += math.comb(n, k) * abs(lam_p**k * lam_m ** (n - k) - flat)
    # success = 1/2 + D_n/2 with D_n = total/2
    return Fraction(1, 2) + total / 4


def min_rounds(theta: float, target: float, *, max_n: int = MIN_ROUNDS_MAX_COPIES) -> int:
    """Smallest n whose exact success reaches ``target``.

    ``target`` must lie strictly between 1/2 and 1; success is
    nondecreasing in n, so an exponential probe plus bisection finds the
    threshold. Raises :class:`ZeroSignalError` when cs vanishes, where no
    number of repetitions helps. Coherences below 1e-12 count as zero so
    that the floating-point images of 0, pi/2, pi, ... are treated as the
    signal-free angles they represent.
    """
    if not 0.5 < target < 1.0:
        raise ValueError(f"target must lie in (1/2, 1), got {target}")
    cs = _cs(theta)
    if abs(cs) < 1e-12:
        raise ZeroSignalError(f"no signaling at theta = {theta}: cs = {cs:.3g}")

    def success(n: int) -> float:
        return 0.5 + 0.5 * copy_distance(cs, n)

    if success(1) >= target:
        return 1
    hi = 1
    while success(hi) < target:
        if hi >= max_n:
            raise ValueError(
                f"target {target} not reached within {max_n} copies at theta = {theta}"
            )
        hi = min(2 * hi, max_n)
    lo = hi // 2  # success(lo) < target <= success(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if success(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _decide_bit_one(counts: np.ndarray, n: int, lam_p: float, lam_m: float) -> np.ndarray:
    # log-likelihood ratio of "rotated" against "flat"; >= 0 (ties) decides 1
    llr = counts * math.log(2.0 * lam_p) + (n - counts) * math.log(2.0 * lam_m)
    return llr >= 0.0


def _chunk_correct(theta: float, n: int, seed: int, chunk: int, m: int) -> int:
    """Number of correctly decoded shots in one fixed-substream chunk."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=chunk << 64))
    alice = rng.integers(0, 2, size=m)
    lam_p = (1.0 + _cs(theta)) / 2.0
    lam_m = 1.0 - lam_p
    counts = np.empty(m, dtype=np.int64)
    zero = alice == 0
    counts[zero] = rng.binomial(n, 0.5, size=int(zero.sum()))
    counts[~zero] = rng.binomial(n, lam_p, size=int((~zero).sum()))
    guess = _decide_bit_one(counts, n, lam_p, lam_m).astype(alice.dtype)
    return int((guess == alice).sum())


def simulate(theta: float, n: int, shots: int, seed: int) -> ProtocolResult:
    """Monte Carlo run of the repetition protocol; deterministic per seed.

    Per shot: Alice's bit is uniform; Bob samples the n-fold |+>/|->
    statistics of the matching marginal and thresholds the count. The
    contract is that identical (seed, shots, n, theta) give an identical
    result no matter how the fixed-size chunks are evaluated. ``n`` may
    not exceed ``MIN_ROUNDS_MAX_COPIES``, the largest n that
    :func:`min_rounds` returns.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MIN_ROUNDS_MAX_COPIES:
        raise ValueError(f"n = {n} exceeds the cap of {MIN_ROUNDS_MAX_COPIES} copies")
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    correct = 0
    done = 0
    chunk = 0
    while done < shots:
        m = min(CHUNK_SHOTS, shots - done)
        correct += _chunk_correct(theta, n, seed, chunk, m)
        done += m
        chunk += 1
    exact = 0.5 + 0.5 * copy_distance(_cs(theta), n)
    return ProtocolResult(theta, n, exact, correct / shots, shots, seed)
