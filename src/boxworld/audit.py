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
``signal``, ``scan`` and ``audit`` print, in closed form. The float pair
(c, s) = (cos theta, sin theta) is (C, S)/D for integers C and S and one
power of two D (:func:`_numerators`). The extended box sends the input
c|01> + s|11> to a density whose table, with n = C^2 + S^2, is

- at x = 1: C^2/(2n) where a = b and S^2/(2n) where a != b in Z (y = 0),
  and (n + CS)/(4n) where b = 0 and (n - CS)/(4n) where b = 1 in X (y = 1);
- at x = 0 (C = 1, S = 0): 1/2 and 0 in Z, 1/4 everywhere in X.

Bob's marginal is [[1/2, g], [g, 1/2]] with g = CS/(2n); it is 1/2 on
each Z outcome and (n +- CS)/(2n) on each X outcome, so the a->b gap and
the trace distance of Bob's marginal from its x = 0 value are both
|CS|/(2n). Alice's marginal is 1/2 on every setting, so the b->a gap is
exactly 0. The entries are nonnegative, as n >= 2|CS|, and every setting
sums to 1 exactly. Each printed figure is its exact value at the float
(c, s), rounded once by one int/int true division, which CPython rounds
correctly. The witness, Bob's basis that attains the shift, is
(r, r), (r, -r) when CS > 0 and (r, -r), (r, r) when CS < 0, with
r = 1/sqrt(2) correctly rounded. Where CS = 0 every basis attains the
zero shift; the witness is then (0, 1), (1, 0), so that ``signal`` at
theta = 0 prints the bytes it printed when the witness came from an
eigen-decomposition.

The figures are reported, never raised: the audit's job is to say which
property fails. A box is valid but signaling when ``positivity_ok`` and
``normalization_ok`` hold and ``a_to_b_violation`` exceeds
:data:`~boxworld.tolerance.DEFAULT_TOL`, as an ``audit`` row reads.
:func:`effective_box` is the same table as a box, each entry rounded
once, whose worst setting :func:`~boxworld.boxes.check_no_signaling`
locates.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .tolerance import ROUNDING

if TYPE_CHECKING:
    from .boxes import ConditionalBox

__all__ = ["SweepRow", "audit_sweep", "effective_box"]

# 1/sqrt(2), correctly rounded, as sqrt(0.5) is.
_R = math.sqrt(0.5)
# The witness by the sign of CS, indexed 0, 1 and -1.
_WITNESSES = (((0.0, 1.0), (1.0, 0.0)), ((_R, _R), (_R, -_R)), ((_R, -_R), (_R, _R)))


def _numerators(theta: float) -> tuple[int, int, int]:
    """(C, S, n): (cos theta, sin theta) = (C, S)/D for one power of two D,
    and n = C^2 + S^2.

    The angle is checked finite, and the rotation [[c, -s], [s, c]]
    unitary within ROUNDING, with the message of
    :class:`~boxworld.quantum.Unitary`: U^dagger U - I is
    (c^2 + s^2 - 1) I exactly.
    """
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    dev = abs(c * c + s * s - 1.0)
    if dev > ROUNDING:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")
    (C, dc), (S, ds) = c.as_integer_ratio(), s.as_integer_ratio()
    if dc < ds:
        C *= ds // dc
    else:
        S *= dc // ds
    return C, S, C * C + S * S


class SweepRow(NamedTuple):
    """One angle's figures: the verdicts, the two signaling directions and
    Bob's witness basis, two vectors of real amplitudes."""

    theta: float
    positivity_ok: bool
    normalization_ok: bool
    a_to_b_violation: float
    b_to_a_violation: float
    witness: tuple[tuple[float, float], tuple[float, float]]


def _row(theta: float) -> SweepRow:
    """The figures of one angle, from the exact table at x = 1."""
    C, S, n = _numerators(theta)
    cc, ss, cs = C * C, S * S, C * S
    # The x = 1 numerators are C^2 and S^2 over 2n in Z, and n + CS and
    # n - CS over 4n in X. A Z setting sums to 2(C^2 + S^2) over 2n, and an
    # X setting to 4n over 4n whatever CS is.
    return SweepRow(
        theta,
        min(cc, ss, n - abs(cs)) >= 0,
        cc + ss == n,
        abs(cs) / (2 * n),
        0.0,
        _WITNESSES[(cs > 0) - (cs < 0)],
    )


def audit_sweep(thetas: Iterable[float]) -> Iterator[SweepRow]:
    """The :class:`SweepRow` of every angle of a grid, in order, each
    evaluated when it is read."""
    return map(_row, thetas)


def effective_box(theta: float) -> ConditionalBox:
    """The construction as a 2-input/2-output box, each entry its exact
    value rounded once."""
    from .boxes import ConditionalBox  # only here, so the sweep runs no boxes code

    C, S, n = _numerators(theta)
    cc, ss, cs = C * C, S * S, C * S
    z0 = ((0.5, 0.0), (0.0, 0.5))
    z1 = ((cc / (2 * n), ss / (2 * n)), (ss / (2 * n), cc / (2 * n)))
    x1 = ((n + cs) / (4 * n), (n - cs) / (4 * n))
    return ConditionalBox(
        [[((z0[a][b], 0.25), (z1[a][b], x1[b])) for b in (0, 1)] for a in (0, 1)]
    )
