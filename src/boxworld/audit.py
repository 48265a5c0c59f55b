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
on a whole chunk of angles at once (Alice's plane rotations as one stack
checked unitary in one pass, then the closed-form output densities in one
call), with the x = 0 density riding in the first chunk. It reads every
table of the chunk off them in one array and checks that array in one
pass: positivity and normalization with
:func:`~boxworld.boxes.table_deviations`, signaling with
:func:`~boxworld.boxes.no_signaling_violations`. The figures are reported,
never raised: the audit's job is to say which property fails.
:func:`~boxworld.hybrid.signaling_witness` reads the same two-row stack
as a one-angle sweep, so ``signal`` and ``scan`` print the same figure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .boxes import ConditionalBox, no_signaling_violations, table_deviations
from .hybrid import _bob_marginals, _densities
from .quantum import trace_distances
from .tolerance import DEFAULT_TOL, ROUNDING

__all__ = [
    "SWEEP_CHUNK",
    "AuditReport",
    "effective_box",
    "audit_dynamics",
    "audit_sweep",
]

# Angles evaluated together by a sweep: a grid of any length holds at most
# this many densities and tables at a time.
SWEEP_CHUNK = 32

# Joint measurement bases, indexed [y, i, k]: column k = 2a + b is Alice's
# Z outcome a times Bob's outcome b in Z (y = 0) or |+>/|-> (y = 1).
_BOB_BASES = (np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
_BASES = np.array([np.kron(np.eye(2), bob) for bob in _BOB_BASES], dtype=complex)


@dataclass(frozen=True)
class AuditReport:
    """Validity and signaling figures for the boxed-up construction at one angle.

    ``marginal_shift`` is the trace distance between Bob's reduced states
    for x = 1 and x = 0: the largest gap any measurement of Bob's can show,
    which ``a_to_b_violation`` (the box's total-variation figure) reaches
    in his X basis. Positivity and normalization hold within
    :data:`~boxworld.tolerance.ROUNDING`; the box signals when
    ``a_to_b_violation`` exceeds :data:`~boxworld.tolerance.DEFAULT_TOL`.
    """

    theta: float
    positivity_ok: bool
    normalization_ok: bool
    a_to_b_violation: float
    b_to_a_violation: float
    worst_setting: tuple[str, int, tuple[int, int]]
    marginal_shift: float

    @property
    def valid_but_signaling(self) -> bool:
        return self.positivity_ok and self.normalization_ok and self.a_to_b_violation > DEFAULT_TOL


def _tables(rho0: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Box tables [t, a, b, x, y] from the x = 0 density and a stack of x = 1 densities."""
    joint = np.stack([np.broadcast_to(rho0, rho.shape), rho], axis=1)
    probs = np.stack(
        [np.einsum("ik,txij,jk->txk", b.conj(), joint, b).real for b in _BASES], axis=2
    )
    return probs.reshape(len(rho), 2, 2, 2, 2).transpose(0, 3, 4, 1, 2)


def effective_box(theta: float) -> ConditionalBox:
    """The construction as a 2-input/2-output box; entries from joint measurement."""
    rho = _densities([0.0, theta])
    return ConditionalBox(_tables(rho[0], rho[1:])[0])


def audit_sweep(thetas: Iterable[float]) -> Iterator[AuditReport]:
    """Audit every angle of a grid, in order, SWEEP_CHUNK angles at a time.

    Each chunk's inputs come from the stack of plane rotations, checked
    unitary once per chunk. The x = 0 input leads the first chunk, so each
    chunk's densities come from one closed-form call and its tables from
    one array, which is checked as a whole: the reports are rows of
    :func:`~boxworld.boxes.table_deviations` and
    :func:`~boxworld.boxes.no_signaling_violations` on that array.
    """
    angles = iter(thetas)
    chunk = [float(t) for t in itertools.islice(angles, SWEEP_CHUNK)]
    first = _densities([0.0, *chunk])
    rho0, rho = first[0], first[1:]
    bob0 = _bob_marginals(rho0)
    while chunk:
        shifts = trace_distances(_bob_marginals(rho), bob0)
        tables = _tables(rho0, rho)
        lowest, worst = table_deviations(tables)
        a_to_b, b_to_a, settings = no_signaling_violations(tables)
        rows = zip(lowest.tolist(), worst.tolist(), a_to_b.tolist(), b_to_a.tolist(), settings)
        for theta, (low, off, ab, ba, setting), shift in zip(chunk, rows, shifts.tolist()):
            yield AuditReport(
                theta=theta,
                positivity_ok=low >= -ROUNDING,
                normalization_ok=off <= ROUNDING,
                a_to_b_violation=ab,
                b_to_a_violation=ba,
                worst_setting=setting,
                marginal_shift=shift,
            )
        if chunk := [float(t) for t in itertools.islice(angles, SWEEP_CHUNK)]:
            rho = _densities(chunk)


def audit_dynamics(theta: float) -> AuditReport:
    """Build the effective box and report positivity, normalization, signaling.

    For any theta with cs != 0 the expected outcome is: positivity and
    normalization hold within ROUNDING, the Alice-to-Bob violation equals
    sin(2 theta)/4 (achieved at Bob's y = 1 setting), and the reverse
    direction stays at zero.
    """
    return next(audit_sweep([theta]))
