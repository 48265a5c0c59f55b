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

A sweep evaluates the paper's chain, :func:`boxworld.hybrid._densities`,
on a whole chunk of angles at once, in one call that fills each density
from three fixed terms in (cos theta, sin theta) and checks it by its
closed-form spectrum; the x = 0 figures are formed once per process. It
yields each chunk as columns, one array per figure, computed when first
read: the chunk's tables in one C-contiguous array, positivity and
normalization from :func:`~boxworld.boxes.table_deviations`, the two
signaling directions from their no-signaling gaps, and Bob's marginal
shift, so a caller pays only for the figures it prints. The figures are
reported, never raised: the audit's job is to say which property fails.
A box is valid but signaling when ``positivity_ok`` and
``normalization_ok`` hold and ``a_to_b_violation`` exceeds
:data:`~boxworld.tolerance.DEFAULT_TOL`, as an ``audit`` row reads.
:func:`effective_box` is one angle of that sweep as a box, whose worst
setting :func:`~boxworld.boxes.check_no_signaling` locates.
:func:`~boxworld.hybrid.signaling_witness` reads the same rows as a
one-angle sweep, so ``signal`` and ``scan`` print the same figure.
"""

from __future__ import annotations

import functools
import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .boxes import ConditionalBox, _a_to_b_gaps, _b_to_a_gaps, table_deviations
from .hybrid import _bob_marginals, _densities, _zero_densities
from .quantum import trace_distances
from .tolerance import ROUNDING

__all__ = [
    "SWEEP_CHUNK",
    "SweepChunk",
    "effective_box",
    "audit_sweep",
]

# Angles evaluated together by a sweep: a grid of any length holds at most
# this many densities and tables at a time.
SWEEP_CHUNK = 32

# Joint measurement bases, indexed [y, i, k]: column k = 2a + b is Alice's
# Z outcome a times Bob's outcome b in Z (y = 0) or |+>/|-> (y = 1).
_BOB_BASES = (np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
_BASES = np.array([np.kron(np.eye(2), bob) for bob in _BOB_BASES], dtype=complex)
_BASES_CONJ = _BASES.conj()


def _probabilities(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities [t, y, k] of a stack of densities in the joint bases."""
    return np.einsum("yik,tij,yjk->tyk", _BASES_CONJ, rho, _BASES).real


@functools.cache
def _zero_figures() -> tuple[np.ndarray, np.ndarray]:
    """The x = 0 half of every table, [a, b, y], and Bob's x = 0 marginal:
    formed once per process, read-only."""
    rho = _zero_densities()
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
    reaches in his X basis. A column is computed when first
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
    :func:`~boxworld.hybrid._densities`; the x = 0 figures, from the
    process's one evaluation at theta = 0. A chunk's tables are one
    C-contiguous array, read by :func:`~boxworld.boxes.table_deviations`
    and the no-signaling gaps as a whole.
    """
    angles = iter(thetas)
    while chunk := [float(t) for t in itertools.islice(angles, SWEEP_CHUNK)]:
        yield SweepChunk(chunk, _densities(chunk))


def effective_box(theta: float) -> ConditionalBox:
    """The construction as a 2-input/2-output box; entries from joint measurement."""
    return ConditionalBox(next(audit_sweep([theta])).tables[0])

