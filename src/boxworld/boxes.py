"""Bipartite conditional-probability boxes and their symmetries.

A box is a table P(a, b | A, B) over finite input alphabets (A for Alice,
B for Bob) and finite output alphabets (a, b). The canonical example is
the PR box, whose outputs satisfy a XOR b = A AND B with uniform local
marginals. This module builds boxes, measures how badly a box lets one
side's input leak into the other side's output marginal, evaluates the
CHSH functional, and decides membership in the local
(deterministic-strategy) polytope with an exact certificate.

The locality LP's optimum t is the box's L-infinity distance to the
local polytope: the least worst-entry deviation between the table p and
a convex combination V^T w of the 16 deterministic boxes. Its matrices
do not depend on the box, so :func:`is_local` solves it with a small
dense tableau simplex (:func:`_simplex`) and no solver library. It never
trusts the float solve alone; each verdict rests on one of two bounds on
t, each decided exactly on the float table as given:

- an upper bound t+ = |V^T w - p|_inf + |sum w - 1| from any weights
  w >= 0, since w / sum w is a point of the polytope within t+ of p;
- a lower bound t- = (g.p - max over vertices v of g.v) / |g|_1 from any
  Bell functional g, since moving every entry by at most t moves g.p by
  at most |g|_1 t, and no local box scores above max g.v.

The box is local when t+ <= tol and not local when t- > tol. The first g
tried, before any pivot, is the best of the 8 CHSH variants (|g|_1 = 16,
local maximum 2) and the 16 no-signaling gaps (|g|_1 = 4, local maximum
0); by Fine's theorem (PRL 48, 291, 1982) a CHSH facet is the optimal g
of a no-signaling box. Its entries are integers, so math.fsum decides its
bound. Then the float simplex gives w and, from its reduced costs, the
dual g, and Fractions decide their bounds. If neither decides, t is within
rounding of tol, and the simplex reruns in Fractions, where it is exact
and always ends.

Violation magnitudes are total-variation distances (half L1) so they sit
on the same scale as trace distances elsewhere in the package.

Validity and no-signaling are computed by array functions:
:func:`table_deviations` and the two directions' gap arrays,
:func:`_a_to_b_gaps` and :func:`_b_to_a_gaps`. Each takes one table or a
stack of tables, shape ``(..., a, b, A, B)``, and gives every table of a
stack exactly the figures it gets on its own. The audit's sweep reads
them on a stack; :class:`ConditionalBox` and :func:`check_no_signaling`
are their one-table callers, and only the latter locates the worst
setting.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tolerance import DEFAULT_TOL, ROUNDING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DEFAULT_TOL",
    "MAX_CSV_BYTES",
    "MAX_PAIR_ENTRIES",
    "BoxValidationError",
    "BoxFormatError",
    "ConditionalBox",
    "NoSignalingReport",
    "pr_box",
    "uniform_box",
    "table_deviations",
    "check_no_signaling",
    "chsh_value",
    "deterministic_vertices",
    "is_local",
    "loads_csv",
]

# The longest box CSV the command line reads; a binary box at 17 digits
# takes under 500 bytes.
MAX_CSV_BYTES = 1 << 20
# The most gaps the no-signaling check may form in one direction, receiver
# inputs x sender inputs^2 x receiver outputs (32 MiB of floats). loads_csv
# refuses larger tables: within MAX_CSV_BYTES, 60000 inputs on one side
# would ask for 28.8 GB.
MAX_PAIR_ENTRIES = 1 << 22


class BoxValidationError(ValueError):
    """The table breaks a box invariant (negative mass or broken normalization)."""


class BoxFormatError(ValueError):
    """Box CSV text does not conform to the ``A,B,a,b,p`` layout."""


@dataclass(frozen=True)
class ConditionalBox:
    """P(a, b | A, B) stored as a read-only float array indexed ``[a, b, A, B]``.

    Entries must be >= -tol and every input setting (A, B) must sum to 1
    within tol. Canonical constructors use exact dyadic values, so equality
    checks against them need no tolerance.
    """

    table: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        t = np.array(self.table, dtype=float)
        if t.ndim != 4 or min(t.shape) < 1:
            raise BoxValidationError(
                f"box table must be 4-dimensional (a, b, A, B), got shape {t.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise BoxValidationError("box table contains non-finite entries")
        lowest, worst = table_deviations(t)
        if lowest < -self.tol:
            raise BoxValidationError(
                f"negative probability {lowest:.3g} below -tol={-self.tol:.3g}"
            )
        if worst > self.tol:
            raise BoxValidationError(
                f"setting normalization off by {worst:.3g} (tol {self.tol:.3g})"
            )
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class NoSignalingReport:
    """Directional marginal-shift magnitudes for a box.

    ``a_to_b_violation`` is the largest total-variation distance between
    Bob's outcome marginals across two Alice inputs, maximized over Bob's
    settings (and symmetrically for ``b_to_a_violation``).
    ``worst_settings`` is ``(direction, receiver_input, sender_input_pair)``
    for the overall maximum. ``tol`` is the tolerance the report was
    computed with; the box signals when either violation exceeds it.
    """

    a_to_b_violation: float
    b_to_a_violation: float
    worst_settings: tuple[str, int, tuple[int, int]]
    tol: float

    @property
    def signaling(self) -> bool:
        return max(self.a_to_b_violation, self.b_to_a_violation) > self.tol


def pr_box() -> ConditionalBox:
    """The binary box with P(a, b | A, B) = 1/2 when a XOR b = A AND B, else 0."""
    t = np.zeros((2, 2, 2, 2))
    for a, b, A, B in itertools.product(range(2), repeat=4):
        if a ^ b == A & B:
            t[a, b, A, B] = 0.5
    return ConditionalBox(t)


def uniform_box() -> ConditionalBox:
    """The binary box with the uniform outcome distribution, 1/4, at every setting."""
    return ConditionalBox(np.full((2, 2, 2, 2), 0.25))


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


def _worst_setting(a_to_b: np.ndarray, b_to_a: np.ndarray) -> tuple[str, int, tuple[int, int]]:
    """Where one table's largest gap lies, from its two gap arrays.

    The a-to-b direction wins a tie; within a direction the first maximum
    in receiver-major order, sender pairs in :func:`itertools.combinations`
    order, wins; when no gap is > 0 the place is receiver 0, pair (0, 0).
    """
    direction, gaps = ("a_to_b", a_to_b) if a_to_b.max() >= b_to_a.max() else ("b_to_a", b_to_a)
    # A C-order scan of the symmetric [receiver, i, j] gaps meets the first
    # maximum at i < j, in the order above, or at the zero at (0, 0, 0).
    receiver, i, j = np.unravel_index(gaps.argmax(), gaps.shape)
    return direction, int(receiver), (int(i), int(j))


def check_no_signaling(box: ConditionalBox, tol: float = DEFAULT_TOL) -> NoSignalingReport:
    """Measure how much each side's input moves the other side's marginal.

    Raises BoxValidationError if the table is malformed beyond ``tol``
    (re-validated here because the box may have been built with a looser
    tolerance). A box satisfies the no-signaling condition exactly when
    both reported violations are zero.
    """
    lowest, worst = table_deviations(box.table)
    if lowest < -tol or worst > tol:
        raise BoxValidationError(
            "box table breaks positivity/normalization beyond the requested tolerance"
        )
    a_to_b, b_to_a = _a_to_b_gaps(box.table), _b_to_a_gaps(box.table)
    return NoSignalingReport(
        float(a_to_b.max()), float(b_to_a.max()), _worst_setting(a_to_b, b_to_a), tol
    )


def _correlators(t: np.ndarray) -> np.ndarray:
    """E(A, B) = P(a = b) - P(a != b) of a binary table, indexed [A, B]."""
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(a xor b)
    return np.einsum("ab,abAB->AB", sign, t)


def chsh_value(box: ConditionalBox) -> float:
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) with E = P(a=b) - P(a!=b) per setting.

    Ranges over [-4, 4]; 2 bounds the local polytope, 4 is reached by the
    PR box and its relabelings.
    """
    if box.table.shape != (2, 2, 2, 2):
        raise ValueError(f"CHSH needs a binary 2x2x2x2 box, got shape {box.table.shape}")
    corr = _correlators(box.table)
    return float(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1])


def deterministic_vertices() -> np.ndarray:
    """The 16 deterministic binary boxes, flattened, shape (16, 16).

    Vertex v encodes the strategy (a(A=0), a(A=1), b(B=0), b(B=1)) read off
    the bits of v from most to least significant; row v is the table
    flattened in (a, b, A, B) row-major order.
    """
    verts = np.zeros((16, 2, 2, 2, 2))
    for a0, a1, b0, b1 in itertools.product(range(2), repeat=4):
        v = 8 * a0 + 4 * a1 + 2 * b0 + b1
        for A, B in itertools.product(range(2), repeat=2):
            a = (a0, a1)[A]
            b = (b0, b1)[B]
            verts[v, a, b, A, B] = 1.0
    return verts.reshape(16, 16)


@functools.cache
def _lp_data() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The locality LP's tableau and the index tables its certificates read.

    None depends on the box, so all four are built once per process and
    kept read-only:

    - the 34 x 50 tableau with a zero right-hand side. Its columns are the
      16 vertex weights w, the deviation t, the slacks of the 16 rows
      ``V^T w - t <= p`` (rows 0-15) and of the 16 rows ``-V^T w - t <= -p``
      (rows 16-31), then the right-hand side. Row 32 is ``sum w = 1`` and
      row 33 the objective t;
    - ``support``, shape (16, 4): the entries at which each vertex is 1;
    - ``members``, shape (16, 4): the vertices that are 1 at each entry;
    - ``bell``, shape (24, 16): the functionals g tried before any pivot,
      the 8 CHSH variants and the 16 no-signaling gaps.
    """
    verts = deterministic_vertices()
    tableau = np.zeros((34, 50))
    tableau[:16, :16], tableau[16:32, :16] = verts.T, -verts.T
    tableau[:32, 16] = -1.0
    tableau[:32, 17:49] = np.eye(32)
    tableau[32, :16] = tableau[33, 16] = 1.0
    support = np.nonzero(verts)[1].reshape(16, 4)
    members = np.nonzero(verts.T)[1].reshape(16, 4)
    a, b, A, B = np.indices((2, 2, 2, 2))
    parity = 1.0 - 2.0 * (a ^ b)
    bell = [
        sign * parity * np.where((A == x) & (B == y), -1.0, 1.0)
        for x, y, sign in itertools.product((0, 1), (0, 1), (1.0, -1.0))
    ]
    for setting, outcome, sign in itertools.product((0, 1), (0, 1), (1.0, -1.0)):
        # The shift of P(b = outcome | B = setting) with A, and its mirror image.
        bell.append(sign * (1.0 - 2.0 * A) * ((B == setting) & (b == outcome)))
        bell.append(sign * (1.0 - 2.0 * B) * ((A == setting) & (a == outcome)))
    bell = np.reshape(bell, (24, 16))
    for array in (tableau, support, members, bell):
        array.setflags(write=False)
    return tableau, support, members, bell


def _bell_bounds(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(g.p - max over vertices v of g.v) / |g|_1, for each functional g (last axis).

    A lower bound on the table p's distance t to the local polytope for
    any nonzero g. Exact when g and p hold Fractions.
    """
    top = g[..., _lp_data()[1]].sum(axis=-1).max(axis=-1)
    return (g @ p - top) / np.abs(g).sum(axis=-1)


def _bell_clears(g: np.ndarray, p: np.ndarray, tol: float) -> bool:
    """Whether a functional of the Bell family bounds t past tol, decided exactly.

    Its entries are -1, 0 or 1, its local maximum is an integer and |g|_1
    is 16 or 4, so g.p - max_v g.v - |g|_1 tol is a sum of floats, and the
    correctly rounded sum that math.fsum returns has the exact sum's sign.
    """
    top = g[_lp_data()[1]].sum(axis=1).max()
    return math.fsum([*(g * p).tolist(), -top, -np.abs(g).sum() * tol]) > 0.0


def _fractions(a: np.ndarray) -> np.ndarray:
    """The floats of ``a`` as exact Fractions, in an object array."""
    from fractions import Fraction  # only here, as only the locality verdict needs them

    return np.frompyfunc(Fraction, 1, 1)(a)


def _upper_bound(w: np.ndarray, p: np.ndarray) -> Fraction:
    """|V^T w - p|_inf + |sum w - 1|, exactly: w / sum w is within it of p."""
    w, p = _fractions(w), _fractions(p)
    return np.abs(w[_lp_data()[2]].sum(axis=1) - p).max() + abs(w.sum() - 1)


# Most pivots a float run may take before the exact run decides; the boxes
# tried took at most 20.
_FLOAT_PIVOTS = 200


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make column ``col`` basic in ``row``, touching only nonzero entries."""
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(tableau[row])
    tableau[np.ix_(rows, cols)] -= np.multiply.outer(tableau[rows, col], tableau[row, cols])
    basis[row] = col


def _simplex(p: np.ndarray, exact: bool) -> tuple[np.ndarray, float | Fraction, np.ndarray] | None:
    """Minimize t over the locality LP of the flat table p by Bland's rule.

    The run starts at vertex 0 with t = max |V_0 - p|, a feasible basis,
    so it needs no phase 1. Pivots enter the lowest-index column with a
    negative reduced cost and leave the tied row of lowest basic index,
    which cannot cycle (Bland, Math. Oper. Res. 2, 103, 1977). In
    Fractions (``exact``) every step is exact and the run always ends at
    the optimum. In floats a reduced cost or pivot counts only past
    :data:`~boxworld.tolerance.ROUNDING`, and a run still going after
    ``_FLOAT_PIVOTS`` pivots gives None.

    Returns the weights w, the optimum t and the dual functional g, the
    lower rows' slack reduced costs minus the upper rows': the LP dual
    whose bound :func:`_bell_bounds` evaluates.
    """
    tableau = _lp_data()[0]
    rhs = np.concatenate([p, -p, [1.0]])
    if exact:
        tableau, rhs, eps = _fractions(tableau), _fractions(rhs), 0
    else:
        tableau, eps = tableau.copy(), ROUNDING
    tableau[:33, -1] = rhs
    basis = np.arange(17, 50)  # row 32 has no slack; its placeholder goes at once
    _pivot(tableau, basis, 32, 0)
    _pivot(tableau, basis, int(np.argmin(tableau[:32, -1])), 16)
    for _ in itertools.count() if exact else range(_FLOAT_PIVOTS):
        entering = np.flatnonzero(tableau[-1, :-1] < -eps)
        if entering.size == 0:
            x = np.zeros(49, dtype=tableau.dtype)
            x[basis] = tableau[:-1, -1]
            return x[:16], -tableau[-1, -1], tableau[-1, 33:49] - tableau[-1, 17:33]
        col = entering[0]
        rows = np.flatnonzero(tableau[:-1, col] > eps)
        if rows.size == 0:  # unbounded: a float run's rounding, never an exact one
            return None
        ratios = tableau[rows, -1] / tableau[rows, col]
        tied = rows[ratios == ratios.min()]
        _pivot(tableau, basis, int(tied[np.argmin(basis[tied])]), col)
    return None


def _binary_table(box: ConditionalBox) -> np.ndarray:
    if box.table.shape != (2, 2, 2, 2):
        raise ValueError(f"locality LP needs a binary 2x2x2x2 box, got shape {box.table.shape}")
    return box.table.reshape(16)


def _distance_lower_bound(p: np.ndarray) -> tuple[float, np.ndarray]:
    """The best float bound on the flat table p's t among the 24 functionals
    of :func:`_lp_data` (CHSH variants and no-signaling gaps), and its g."""
    bell = _lp_data()[3]
    bounds = _bell_bounds(bell, p)
    best = int(np.argmax(bounds))
    return float(bounds[best]), bell[best]


def is_local(box: ConditionalBox, tol: float = DEFAULT_TOL) -> tuple[bool, np.ndarray | None]:
    """Decide local-polytope membership; return convex weights when inside.

    The box is local iff its L-infinity distance t to the local polytope
    (the least worst-entry deviation from a convex combination of the 16
    deterministic boxes) is at most ``tol``. Weights follow the vertex
    ordering of :func:`deterministic_vertices`. Every verdict rests on a
    certificate checked exactly on the float table as given:

    - "not local" when some functional g bounds t from below past tol.
      The CHSH variant or no-signaling gap with the best float bound is
      tried first, so the PR box and its like need no simplex; its
      integer entries let math.fsum decide its bound exactly;
    - otherwise the simplex runs in floats. "Local" when its weights w,
      clipped at 0 and renormalized, rebuild the box within tol, so the
      returned weights rebuild it within tol; "not local" when its dual
      functional bounds t past tol;
    - when neither holds, t lies within rounding of tol, and the simplex
      reruns in Fractions and compares its exact t. A local verdict's
      weights are then the exact optimum's, rounded to floats.
    """
    p = _binary_table(box)
    bound, first = _distance_lower_bound(p)
    if bound > tol and _bell_clears(first, p, tol):
        return False, None
    solved = _simplex(p, exact=False)
    if solved is not None:
        w, _, g = solved
        w = np.maximum(w, 0.0)
        w = w / w.sum() + 0.0  # + 0.0 turns signed zeros into 0.0
        if _upper_bound(w, p) <= tol:
            return True, w
        if g.any() and _bell_bounds(_fractions(g), _fractions(p)) > tol:
            return False, None
    w, t, _ = _simplex(p, exact=True)
    if t > tol:
        return False, None
    return True, w.astype(float)


def loads_csv(text: str, tol: float = DEFAULT_TOL) -> ConditionalBox:
    """Parse the ``A,B,a,b,p`` CSV format; every index combination must appear once.

    Lines may end in LF, CRLF or CR, as in a file read in text mode.
    """
    import csv  # only here, as only a --box file is read as CSV

    try:
        rows = list(csv.reader(io.StringIO(text, newline=None)))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise BoxFormatError(str(exc)) from exc
    rows = [r for r in rows if r and any(field.strip() for field in r)]
    if not rows or [f.strip() for f in rows[0]] != ["A", "B", "a", "b", "p"]:
        raise BoxFormatError("expected header 'A,B,a,b,p'")
    entries: dict[tuple[int, int, int, int], float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise BoxFormatError(f"line {lineno}: expected 5 fields, got {len(row)}")
        try:
            A, B, a, b = (int(f) for f in row[:4])
            p = float(row[4])
        except ValueError as exc:
            raise BoxFormatError(f"line {lineno}: {exc}") from exc
        if min(A, B, a, b) < 0:
            raise BoxFormatError(f"line {lineno}: negative index")
        key = (A, B, a, b)
        if key in entries:
            raise BoxFormatError(f"line {lineno}: duplicate entry for {key}")
        entries[key] = p
    if not entries:
        raise BoxFormatError("no data rows")
    nA_in = max(k[0] for k in entries) + 1
    nB_in = max(k[1] for k in entries) + 1
    nA_out = max(k[2] for k in entries) + 1
    nB_out = max(k[3] for k in entries) + 1
    if len(entries) != nA_in * nB_in * nA_out * nB_out:
        raise BoxFormatError("incomplete table: some (A,B,a,b) combinations are missing")
    if max(nB_in * nA_in**2 * nB_out, nA_in * nB_in**2 * nA_out) > MAX_PAIR_ENTRIES:
        raise BoxFormatError(
            f"table with {nA_in}x{nB_in} inputs and {nA_out}x{nB_out} outputs is too large:"
            f" its no-signaling check compares more than {MAX_PAIR_ENTRIES} entries"
        )
    t = np.zeros((nA_out, nB_out, nA_in, nB_in))
    for (A, B, a, b), p in entries.items():
        t[a, b, A, B] = p
    return ConditionalBox(t, tol=tol)
