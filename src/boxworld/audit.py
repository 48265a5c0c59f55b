"""Package the extended-box construction as a box and check what breaks.

Alice's input x selects whether she pre-rotates her register (x = 0:
angle 0, x = 1: angle theta); Bob's input y selects his measurement
basis (y = 0: computational Z, y = 1: the |+>/|-> X basis, which is the
optimal detector for the marginal shift). Alice reads her own register
out in Z, the unique choice that reproduces the plain box statistics at
theta = 0. The resulting table is a perfectly well-formed conditional
probability box, nonnegative and normalized, yet its Bob marginal moves
with x: a dynamics that keeps probabilities valid while breaking the
marginal-independence requirement.

This module owns the paper's chain, from theta to every figure that
``signal``, ``scan`` and ``audit`` print. :func:`_densities` evaluates it
on a whole chunk of angles at once, in one call that fills each real
density from three fixed terms in (cos theta, sin theta) and checks it by
its closed-form spectrum; the x = 0 figures are formed once per process,
by :func:`_zero_figures`. A sweep yields each chunk as columns, one array
per figure, computed when first read: the chunk's tables in one
C-contiguous array, positivity and normalization from
:func:`table_deviations`, the two signaling directions from their
no-signaling gap arrays, Bob's marginal shift, and the basis that attains
it, so a caller pays only for the figures it prints. These stacked forms
live here, with the sweep's arrays; :mod:`boxworld.boxes` computes the
same figures of one table in plain Python, summing the same entries in
the same order wherever numpy sums them one at a time (fewer than eight
terms), so both report the same bits. ``signal`` reads the shift and
that basis off a one-angle sweep, so it prints ``scan``'s figure byte for
byte. The figures are reported, never raised:
the audit's job is to say which property fails. A box is valid but
signaling when ``positivity_ok`` and ``normalization_ok`` hold and
``a_to_b_violation`` exceeds :data:`~boxworld.tolerance.DEFAULT_TOL`, as
an ``audit`` row reads. :func:`effective_box` is one angle of that sweep
as a box, whose worst setting :func:`~boxworld.boxes.check_no_signaling`
locates.
"""

from __future__ import annotations

import functools
import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .boxes import ConditionalBox
from .quantum import trace_distances
from .tolerance import EIGEN_ROUNDING, ROUNDING

__all__ = [
    "SWEEP_CHUNK",
    "SweepChunk",
    "effective_box",
    "audit_sweep",
    "table_deviations",
]

# Angles evaluated together by a sweep: a grid of any length holds at most
# this many densities and tables at a time.
SWEEP_CHUNK = 32

# The entries of a sweep density, row major, as columns of (a, b, g, 0).
_SWEEP_LAYOUT = [0, 2, 2, 3, 2, 1, 3, 2, 2, 3, 1, 2, 3, 2, 2, 0]


def _densities(thetas) -> np.ndarray:
    """The paper's chain for a whole stack of angles: the output densities
    of the extended box, shape (T, 4, 4), for the inputs (U tensor 1)|01>
    = (0, c, 0, s), with U = [[c, -s], [s, c]] the rotation by each angle.

    The angles are checked finite and each U unitary, which it is exactly
    when c^2 + s^2 = 1, as U^dagger U - I = (c^2 + s^2 - 1) I. The box
    sends c|01> + s|11> to c(|00> (+) |11>) + s(|01> (+) |10>), whose
    density is three fixed terms in (c, s), over its trace 2(a + b):

        a (|00><00| + |11><11|) + b (|01><01| + |10><10|)
            + g ((|00> + |11>)(<01| + <10|) + h.c.),

    with a = c^2/8, b = s^2/8 and g = cs/16. a and b are formed as the
    squared mean of the two pair choices plus their spread, (c/4)^2 +
    c^2/16, and g as the product of the means, (c/4)(s/4), which is how
    the branch expansion rounds them where they are subnormal; the trace
    divides as a product by its reciprocal. Adding 0.0 turns the g of
    s = -0.0 into +0.0. The matrix is real and symmetric, so Hermitian,
    and is returned as float64; it is finite, as its trace (c^2 + s^2)/4 is
    within ROUNDING of 1/4, and its spectrum is checked by
    :func:`_check_spectrum`.
    """
    if not all(map(math.isfinite, thetas)):
        raise ValueError("rotation angle must be finite")
    c = [math.cos(t) for t in thetas]
    s = [math.sin(t) for t in thetas]
    dev = max([abs(x * x + y * y - 1.0) for x, y in zip(c, s)], default=0.0)
    if dev > ROUNDING:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")
    terms = []
    for x, y in zip(c, s):
        qc, qs = 0.25 * x, 0.25 * y
        a, b, g = qc * qc + 0.0625 * (x * x), qs * qs + 0.0625 * (y * y), qc * qs
        r = 1.0 / ((a + b) + (a + b))
        terms.append((a * r, b * r, g * r + 0.0))
    _check_spectrum(terms)
    abg = np.zeros((len(terms), 4))
    abg[:, :3] = np.reshape(terms, (-1, 3))
    return abg.take(_SWEEP_LAYOUT, axis=1).reshape(-1, 4, 4)


def _check_spectrum(terms) -> None:
    """Raise ValueError unless each (a, b, g) of ``terms`` fills a density
    operator in the layout of :func:`_densities`.

    That matrix's eigenvalues are a on Phi- = |00> - |11>, b on Psi- =
    |01> - |10>, and (a + b)/2 +- hypot((a - b)/2, 2g) on the span of
    Phi+ and Psi+, where it reads [[a, 2g], [2g, b]]: its spectrum exactly,
    with no decomposition. The checks and messages are those of
    :func:`~boxworld.quantum.check_densities`: a trace 2(a + b) within
    ROUNDING of 1, and no eigenvalue below -EIGEN_ROUNDING, the lowest
    being negative when 4g^2 > ab. In the chain 4g^2 = ab up to rounding,
    so the lowest eigenvalue is 0 up to rounding.
    """
    trace = max([(a + b) + (a + b) for a, b, _ in terms], key=lambda t: abs(t - 1.0), default=1.0)
    if abs(trace - 1.0) > ROUNDING:
        raise ValueError(f"trace is {trace:.15g}, not 1")
    lo = min(
        [min(a, b, 0.5 * (a + b) - math.hypot(0.5 * (a - b), g + g)) for a, b, g in terms],
        default=0.0,
    )
    if lo < -EIGEN_ROUNDING:
        raise ValueError(f"negative eigenvalue {lo:.3g}")


def table_deviations(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest entry and worst setting-normalization error of each table.

    ``t`` is one table or a stack, shape ``(..., a, b, A, B)``; both results
    have shape ``t.shape[:-4]``. The normalization error is the largest
    ``|sum over (a, b) - 1|`` over the settings (A, B).
    """
    t = np.ascontiguousarray(t)
    return t.min(axis=(-4, -3, -2, -1)), np.abs(t.sum(axis=(-4, -3)) - 1.0).max(axis=(-2, -1))


def _a_to_b_gaps(t: np.ndarray) -> np.ndarray:
    """Gaps of Bob's marginals across Alice's inputs, indexed [..., B, A, A']."""
    return _gaps(np.ascontiguousarray(t).sum(axis=-4).swapaxes(-3, -1))


def _b_to_a_gaps(t: np.ndarray) -> np.ndarray:
    """Gaps of Alice's marginals across Bob's inputs, indexed [..., A, B, B']."""
    return _gaps(np.ascontiguousarray(t).sum(axis=-3).swapaxes(-3, -1).swapaxes(-3, -2))


def _gaps(marg: np.ndarray) -> np.ndarray:
    """Total-variation gaps [..., receiver, i, j] between the marginals of
    sender inputs i and j, from marginals [..., receiver, sender, outcome].
    """
    # With the outcome axis last and contiguous, each gap is summed in the
    # same order as the sum of one 1-D marginal difference.
    marg = np.ascontiguousarray(marg)
    return 0.5 * np.abs(marg[..., :, None, :] - marg[..., None, :, :]).sum(axis=-1)


def _bob_marginals(rho: np.ndarray) -> np.ndarray:
    """Second-register marginals of two-qubit densities, shape (..., 2, 2):
    the sum of the two diagonal blocks."""
    return rho[..., :2, :2] + rho[..., 2:, 2:]


# Joint measurement bases, indexed [y, i, k]: column k = 2a + b is Alice's
# Z outcome a times Bob's outcome b in Z (y = 0) or |+>/|-> (y = 1).
_BOB_BASES = (np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
_BASES = np.array([np.kron(np.eye(2), bob) for bob in _BOB_BASES])


def _probabilities(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities [t, y, k] of a stack of densities in the joint bases."""
    return np.einsum("yik,tij,yjk->tyk", _BASES, rho, _BASES)


@functools.cache
def _zero_figures() -> tuple[np.ndarray, np.ndarray]:
    """The x = 0 half of every table, [a, b, y], and Bob's x = 0 marginal:
    formed once per process, read-only."""
    rho = _densities([0.0])
    half = _probabilities(rho)[0].reshape(2, 2, 2).transpose(1, 2, 0).copy()
    bob = _bob_marginals(rho[0])
    half.setflags(write=False)
    bob.setflags(write=False)
    return half, bob


class SweepChunk:
    """Up to SWEEP_CHUNK consecutive angles of a sweep and their figures, as columns.

    ``theta`` lists the angles. Every other column is an array indexed by
    angle first: ``tables``; ``positivity_ok`` and ``normalization_ok``,
    judged within :data:`~boxworld.tolerance.ROUNDING`;
    ``a_to_b_violation`` and ``b_to_a_violation``, the box's
    total-variation gaps; and ``marginal_shift``, the trace distance
    between Bob's x = 1 and x = 0 marginals, which ``a_to_b_violation``
    reaches in his X basis; ``witness``, the basis that attains the
    shift, two vectors per angle. A column is computed when first
    read, from the chunk's x = 1 densities and the x = 0 figures, so a
    caller pays only for the columns it reads.
    """

    def __init__(self, theta: list[float], rho: np.ndarray):
        self.theta = theta
        self._rho = rho

    @cached_property
    def tables(self) -> np.ndarray:
        """Box tables [t, a, b, x, y], one C-contiguous array."""
        tables = np.empty((len(self._rho), 2, 2, 2, 2))
        tables[:, :, :, 0] = _zero_figures()[0]
        tables[:, :, :, 1] = _probabilities(self._rho).reshape(-1, 2, 2, 2).transpose(0, 2, 3, 1)
        return tables

    @cached_property
    def marginal_shift(self) -> np.ndarray:
        return trace_distances(_bob_marginals(self._rho), _zero_figures()[1])

    @cached_property
    def witness(self) -> np.ndarray:
        """Bob's basis that attains the shift, [t, k, i]: the eigenvectors of
        his marginal's shift, largest eigenvalue first, each with its largest
        entry made real and positive. The shift is decomposed as a complex
        matrix, whose eigenvectors carry the signed zeros ``signal`` prints."""
        shift = (_bob_marginals(self._rho) - _zero_figures()[1]).astype(complex)
        vectors = np.linalg.eigh(shift)[1][..., ::-1].swapaxes(-1, -2)
        lead = np.take_along_axis(vectors, np.abs(vectors).argmax(axis=-1)[..., None], axis=-1)
        return vectors / (lead / np.abs(lead))

    @cached_property
    def _deviations(self) -> tuple[np.ndarray, np.ndarray]:
        return table_deviations(self.tables)

    @property
    def positivity_ok(self) -> np.ndarray:
        return self._deviations[0] >= -ROUNDING

    @property
    def normalization_ok(self) -> np.ndarray:
        return self._deviations[1] <= ROUNDING

    @cached_property
    def a_to_b_violation(self) -> np.ndarray:
        return _a_to_b_gaps(self.tables).max(axis=(-3, -2, -1))

    @cached_property
    def b_to_a_violation(self) -> np.ndarray:
        return _b_to_a_gaps(self.tables).max(axis=(-3, -2, -1))


def audit_sweep(thetas: Iterable[float]) -> Iterator[SweepChunk]:
    """The figures of every angle of a grid, in order, one :class:`SweepChunk`
    of SWEEP_CHUNK angles at a time.

    Each chunk's densities come from one call of the checked chain,
    :func:`_densities`; the x = 0 figures, from the
    process's one evaluation at theta = 0. A chunk's tables are one
    C-contiguous array, read by :func:`table_deviations` and the
    no-signaling gaps as a whole.
    """
    angles = iter(thetas)
    while chunk := [float(t) for t in itertools.islice(angles, SWEEP_CHUNK)]:
        yield SweepChunk(chunk, _densities(chunk))


def effective_box(theta: float) -> ConditionalBox:
    """The construction as a 2-input/2-output box; entries from joint measurement."""
    return ConditionalBox(next(audit_sweep([theta])).tables[0])

