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

A sweep evaluates the closed-form output densities of a whole chunk of
angles at once and reads every table of the chunk off them in one array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .boxes import DEFAULT_TOL, ConditionalBox, check_no_signaling
from .hybrid import pr_extend_density, rotated_inputs
from .quantum import Unitary, rotation, trace_distances

__all__ = [
    "POSITIVITY_ATOL",
    "NORMALIZATION_ATOL",
    "SWEEP_CHUNK",
    "AuditReport",
    "effective_box",
    "audit_dynamics",
    "audit_sweep",
]

POSITIVITY_ATOL = 1e-12
NORMALIZATION_ATOL = 1e-12
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
    in his X basis. ``tol`` is the tolerance the verdicts applied.
    """

    theta: float
    positivity_ok: bool
    normalization_ok: bool
    a_to_b_violation: float
    b_to_a_violation: float
    worst_setting: tuple[str, int, tuple[int, int]]
    marginal_shift: float
    tol: float

    @property
    def valid_but_signaling(self) -> bool:
        return self.positivity_ok and self.normalization_ok and self.a_to_b_violation > self.tol


def _densities(thetas: list[float], unitary_family: Callable[[float], Unitary]) -> np.ndarray:
    return pr_extend_density(rotated_inputs([unitary_family(t) for t in thetas]))


def _tables(rho0: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Box tables [t, a, b, x, y] from the x = 0 density and a stack of x = 1 densities."""
    joint = np.stack([np.broadcast_to(rho0, rho.shape), rho], axis=1)
    probs = np.stack(
        [np.einsum("ik,txij,jk->txk", b.conj(), joint, b).real for b in _BASES], axis=2
    )
    return probs.reshape(len(rho), 2, 2, 2, 2).transpose(0, 3, 4, 1, 2)


def _bob_marginals(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...abac->...bc", rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))


def effective_box(
    theta: float, unitary_family: Callable[[float], Unitary] = rotation
) -> ConditionalBox:
    """The construction as a 2-input/2-output box; entries from joint measurement.

    ``unitary_family`` maps an angle to the local unitary Alice applies;
    the default is the plane rotation. Swapping in another one-parameter
    family is an exploration hook, audited on the same footing.
    """
    rho = _densities([0.0, theta], unitary_family)
    return ConditionalBox(_tables(rho[0], rho[1:])[0])


def audit_sweep(
    thetas: Iterable[float],
    tol: float = DEFAULT_TOL,
    unitary_family: Callable[[float], Unitary] = rotation,
) -> Iterator[AuditReport]:
    """Audit every angle of a grid, in order, SWEEP_CHUNK angles at a time.

    ``unitary_family`` is called once per angle, plus once at 0 for the
    x = 0 setting. Each chunk's densities come from one closed-form call
    and its tables from one array; each table then becomes a
    :class:`ConditionalBox` and goes through :func:`check_no_signaling`.
    """
    rho0 = _densities([0.0], unitary_family)[0]
    bob0 = _bob_marginals(rho0)
    angles = iter(thetas)
    while chunk := [float(t) for t in itertools.islice(angles, SWEEP_CHUNK)]:
        rho = _densities(chunk, unitary_family)
        shifts = trace_distances(_bob_marginals(rho), bob0)
        for theta, table, shift in zip(chunk, _tables(rho0, rho), shifts):
            box = ConditionalBox(table)
            sums = box.table.sum(axis=(0, 1))
            report = check_no_signaling(box, tol=tol)
            yield AuditReport(
                theta=theta,
                positivity_ok=bool(box.table.min() >= -POSITIVITY_ATOL),
                normalization_ok=bool(np.max(np.abs(sums - 1.0)) <= NORMALIZATION_ATOL),
                a_to_b_violation=report.a_to_b_violation,
                b_to_a_violation=report.b_to_a_violation,
                worst_setting=report.worst_settings,
                marginal_shift=float(shift),
                tol=tol,
            )


def audit_dynamics(
    theta: float,
    tol: float = DEFAULT_TOL,
    unitary_family: Callable[[float], Unitary] = rotation,
) -> AuditReport:
    """Build the effective box and report positivity, normalization, signaling.

    For any theta with cs != 0 the expected outcome is: positivity and
    normalization hold to 1e-12, the Alice-to-Bob violation equals
    sin(2 theta)/4 (achieved at Bob's y = 1 setting), and the reverse
    direction stays at zero.
    """
    return next(audit_sweep([theta], tol, unitary_family))
