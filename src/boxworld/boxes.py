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

Everything here is plain Python on one table, stored as nested tuples of
floats, so ``verify``, ``chsh`` and ``local`` load no numpy. Sums are
formed in index order, one addition at a time. On an effective box of
:mod:`boxworld.audit`, whose entries are each rounded once, the gaps lie
within 2^-53 of the audit's exact figures, with the same verdicts.
:func:`check_no_signaling` compares every pair of sender
inputs, at most :data:`MAX_PAIR_ENTRIES` entries per direction, and
locates the worst setting; at that bound it takes about a second. The
simplex runs on lists of rows, in floats or in Fractions alike.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    "check_no_signaling",
    "chsh_value",
    "deterministic_vertices",
    "is_local",
    "loads_csv",
]

# The longest box CSV the command line reads; a binary box at 17 digits
# takes under 500 bytes.
MAX_CSV_BYTES = 1 << 20
# The most entries the no-signaling check may compare in one direction,
# counted as receiver inputs x sender inputs^2 x receiver outputs; it
# compares each sender pair once, so about half of that, in about a second.
# loads_csv refuses larger tables: within MAX_CSV_BYTES, 60000 inputs on
# one side would ask for 1.8e9 comparisons.
MAX_PAIR_ENTRIES = 1 << 22


class BoxValidationError(ValueError):
    """The table breaks a box invariant (negative mass or broken normalization)."""


class BoxFormatError(ValueError):
    """Box CSV text does not conform to the ``A,B,a,b,p`` layout."""


def _sum(values) -> float:
    """The sum of ``values`` from 0.0, one addition at a time in their order."""
    return functools.reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class ConditionalBox:
    """P(a, b | A, B) stored as read-only nested tuples of floats, ``table[a][b][A][B]``.

    The table may be given as any nested sequence or as an array, which is
    read through its ``tolist``. Entries must be >= -tol and every input
    setting (A, B) must sum to 1 within tol. Canonical constructors use
    exact dyadic values, so equality checks against them need no tolerance.
    """

    table: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        t = _nested_floats(self.table)
        if not all(map(math.isfinite, _entries(t))):
            raise BoxValidationError("box table contains non-finite entries")
        lowest, worst = _deviations(t)
        if lowest < -self.tol:
            raise BoxValidationError(
                f"negative probability {lowest:.3g} below -tol={-self.tol:.3g}"
            )
        if worst > self.tol:
            raise BoxValidationError(
                f"setting normalization off by {worst:.3g} (tol {self.tol:.3g})"
            )
        object.__setattr__(self, "table", t)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """The alphabet sizes (a, b, A, B)."""
        t = self.table
        return len(t), len(t[0]), len(t[0][0]), len(t[0][0][0])


def _nested_floats(table) -> tuple:
    """``table`` as nested tuples of floats, checked 4-dimensional, with
    every axis nonempty and every row of an axis the same length."""
    if hasattr(table, "tolist"):
        table = table.tolist()
    try:
        t = tuple(tuple(tuple(tuple(map(float, c)) for c in b) for b in a) for a in table)
    except TypeError:  # fewer or more than four levels
        t = None
    level = [t]
    for _ in range(4):
        if t is None or len({len(x) for x in level}) != 1 or not level[0]:
            raise BoxValidationError(
                "box table must be 4-dimensional (a, b, A, B), with nonempty, equal-length axes"
            )
        level = [y for x in level for y in x]
    return t


def _entries(t: tuple):
    """Every entry of the table ``t``, in (a, b, A, B) row-major order."""
    return (p for b_rows in t for settings in b_rows for row in settings for p in row)


def _deviations(t: tuple) -> tuple[float, float]:
    """Smallest entry of the table ``t``, and its worst setting-normalization
    error: the largest ``|sum over (a, b) - 1|`` over the settings (A, B)."""
    blocks = [settings for b_rows in t for settings in b_rows]  # [A][B] at each (a, b)
    sums = [
        _sum(block[A][B] for block in blocks)
        for A in range(len(blocks[0]))
        for B in range(len(blocks[0][0]))
    ]
    return min(_entries(t)), max(abs(s - 1.0) for s in sums)


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
    return ConditionalBox(
        [
            [[[0.5 if a ^ b == A & B else 0.0 for B in (0, 1)] for A in (0, 1)] for b in (0, 1)]
            for a in (0, 1)
        ]
    )


def uniform_box() -> ConditionalBox:
    """The binary box with the uniform outcome distribution, 1/4, at every setting."""
    return ConditionalBox([[[[0.25] * 2] * 2] * 2] * 2)


def _gap(p, q) -> float:
    """The total-variation distance between two outcome marginals."""
    return 0.5 * _sum(map(abs, map(operator.sub, p, q)))


def _largest_gap(marginals) -> tuple[float, int, tuple[int, int]]:
    """The largest gap between the marginals [receiver][sender][outcome] of
    two sender inputs, and where it lies: the first maximum in receiver-major
    order, sender pairs in :func:`itertools.combinations` order, or receiver
    0, pair (0, 0) when no gap is > 0."""
    worst, receiver, pair = 0.0, 0, (0, 0)
    for r, rows in enumerate(marginals):
        for (i, p), (j, q) in itertools.combinations(enumerate(rows), 2):
            gap = _gap(p, q)
            if gap > worst:
                worst, receiver, pair = gap, r, (i, j)
    return worst, receiver, pair


def check_no_signaling(box: ConditionalBox, tol: float = DEFAULT_TOL) -> NoSignalingReport:
    """Measure how much each side's input moves the other side's marginal.

    Raises BoxValidationError if the table is malformed beyond ``tol``
    (re-validated here because the box may have been built with a looser
    tolerance). A box satisfies the no-signaling condition exactly when
    both reported violations are zero.
    """
    t = box.table
    lowest, worst = _deviations(t)
    if lowest < -tol or worst > tol:
        raise BoxValidationError(
            "box table breaks positivity/normalization beyond the requested tolerance"
        )
    n_a, n_b, n_x, n_y = box.shape
    bob = [  # [B][A][b]
        [[_sum(t[a][b][x][y] for a in range(n_a)) for b in range(n_b)] for x in range(n_x)]
        for y in range(n_y)
    ]
    alice = [  # [A][B][a]
        [[_sum(t[a][b][x][y] for b in range(n_b)) for a in range(n_a)] for y in range(n_y)]
        for x in range(n_x)
    ]
    a_to_b, b_to_a = _largest_gap(bob), _largest_gap(alice)
    # The worst setting is the a-to-b direction's on a tie.
    worst = ("a_to_b", *a_to_b[1:]) if a_to_b[0] >= b_to_a[0] else ("b_to_a", *b_to_a[1:])
    return NoSignalingReport(a_to_b[0], b_to_a[0], worst, tol)


def chsh_value(box: ConditionalBox) -> float:
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) with E = P(a=b) - P(a!=b) per setting.

    Ranges over [-4, 4]; 2 bounds the local polytope, 4 is reached by the
    PR box and its relabelings.
    """
    if box.shape != (2, 2, 2, 2):
        raise ValueError(f"CHSH needs a binary 2x2x2x2 box, got shape {box.shape}")
    t = box.table
    corr = [
        [_sum((t[0][0][x][y], -t[0][1][x][y], -t[1][0][x][y], t[1][1][x][y])) for y in (0, 1)]
        for x in (0, 1)
    ]
    return corr[0][0] + corr[0][1] + corr[1][0] - corr[1][1]


def deterministic_vertices() -> tuple[tuple[float, ...], ...]:
    """The 16 deterministic binary boxes, flattened: 16 rows of 16 entries.

    Vertex v encodes the strategy (a(A=0), a(A=1), b(B=0), b(B=1)) read off
    the bits of v from most to least significant; row v is the table
    flattened in (a, b, A, B) row-major order.
    """
    return tuple(
        tuple(
            float((a0, a1)[A] == a and (b0, b1)[B] == b)
            for a, b, A, B in itertools.product(range(2), repeat=4)
        )
        for a0, a1, b0, b1 in itertools.product(range(2), repeat=4)
    )


@functools.cache
def _lp_data() -> tuple[tuple, tuple, tuple, tuple]:
    """The locality LP's tableau and the index tables its certificates read.

    None depends on the box, so all four are built once per process, as
    tuples of tuples:

    - the 34 x 50 tableau with a zero right-hand side. Its columns are the
      16 vertex weights w, the deviation t, the slacks of the 16 rows
      ``V^T w - t <= p`` (rows 0-15) and of the 16 rows ``-V^T w - t <= -p``
      (rows 16-31), then the right-hand side. Row 32 is ``sum w = 1`` and
      row 33 the objective t;
    - ``support``, 16 x 4: the entries at which each vertex is 1;
    - ``members``, 16 x 4: the vertices that are 1 at each entry;
    - ``bell``, 24 x 16: the functionals g tried before any pivot, the 8
      CHSH variants and the 16 no-signaling gaps.
    """
    verts = deterministic_vertices()
    columns = list(zip(*verts))  # the vertices' values at each entry
    tableau = []
    for row in range(32):
        sign, values = (1.0, columns[row]) if row < 16 else (-1.0, columns[row - 16])
        slack = [0.0] * 33  # and the right-hand side
        slack[row] = 1.0
        tableau.append((*(sign * v for v in values), -1.0, *slack))
    tableau.append((*[1.0] * 16, *[0.0] * 34))
    tableau.append((*[0.0] * 16, 1.0, *[0.0] * 33))
    support = tuple(tuple(e for e, v in enumerate(row) if v) for row in verts)
    members = tuple(tuple(v for v, x in enumerate(values) if x) for values in columns)
    entries = list(itertools.product(range(2), repeat=4))  # (a, b, A, B)
    bell = [
        tuple(
            sign * (1.0 - 2.0 * (a ^ b)) * (-1.0 if (A, B) == (x, y) else 1.0)
            for a, b, A, B in entries
        )
        for x, y, sign in itertools.product((0, 1), (0, 1), (1.0, -1.0))
    ]
    for setting, outcome, sign in itertools.product((0, 1), (0, 1), (1.0, -1.0)):
        # The shift of P(b = outcome | B = setting) with A, and its mirror image.
        bell.append(
            tuple(
                sign * (1.0 - 2.0 * A) * float(B == setting and b == outcome)
                for a, b, A, B in entries
            )
        )
        bell.append(
            tuple(
                sign * (1.0 - 2.0 * B) * float(A == setting and a == outcome)
                for a, b, A, B in entries
            )
        )
    return tuple(tableau), support, members, tuple(bell)


def _local_maximum(g) -> float:
    """max over vertices v of g.v, from the four entries at which v is 1."""
    return max(g[i] + g[j] + g[k] + g[m] for i, j, k, m in _lp_data()[1])


def _bell_bound(g, p) -> float | Fraction:
    """(g.p - max over vertices v of g.v) / |g|_1 for the functional g.

    A lower bound on the flat table p's distance t to the local polytope
    for any nonzero g. Exact when g and p hold Fractions.
    """
    return (sum(map(operator.mul, g, p)) - _local_maximum(g)) / sum(map(abs, g))


def _bell_clears(g, p, tol: float) -> bool:
    """Whether a functional of the Bell family bounds t past tol, decided exactly.

    Its entries are -1, 0 or 1, its local maximum is an integer and |g|_1
    is 16 or 4, so g.p - max_v g.v - |g|_1 tol is a sum of floats, and the
    correctly rounded sum that math.fsum returns has the exact sum's sign.
    """
    terms = [*map(operator.mul, g, p), -_local_maximum(g), -sum(map(abs, g)) * tol]
    return math.fsum(terms) > 0.0


def _upper_bound(w, p) -> Fraction:
    """|V^T w - p|_inf + |sum w - 1|, exactly: w / sum w is within it of p."""
    from fractions import Fraction  # only here, as only the locality verdict needs them

    w = [Fraction(v) for v in w]
    off = max(abs(sum(w[v] for v in vs) - Fraction(x)) for vs, x in zip(_lp_data()[2], p))
    return off + abs(sum(w) - 1)


# Most pivots a float run may take before the exact run decides; the boxes
# tried took at most 20.
_FLOAT_PIVOTS = 200


def _pivot(tableau: list[list], basis: list[int], row: int, col: int) -> None:
    """Make column ``col`` basic in ``row``, touching only nonzero entries."""
    pivot_row = tableau[row]
    scale = pivot_row[col]
    pivot_row[:] = [x / scale for x in pivot_row]
    cols = [c for c, x in enumerate(pivot_row) if x]
    for r, other in enumerate(tableau):
        factor = other[col]
        if factor and r != row:
            for c in cols:
                other[c] -= factor * pivot_row[c]
    basis[row] = col


def _simplex(p, exact: bool) -> tuple[list, float | Fraction, list] | None:
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
    whose bound :func:`_bell_bound` evaluates.
    """
    rhs = [*p, *(-x for x in p), 1.0]
    if exact:
        from fractions import Fraction

        tableau = [[Fraction(x) for x in row] for row in _lp_data()[0]]
        rhs, eps = map(Fraction, rhs), Fraction(0)
    else:
        tableau, eps = [list(row) for row in _lp_data()[0]], ROUNDING
    for row, value in zip(tableau, rhs):
        row[-1] = value
    basis = list(range(17, 50))  # row 32 has no slack; its placeholder goes at once
    _pivot(tableau, basis, 32, 0)
    _pivot(tableau, basis, min(range(32), key=lambda r: tableau[r][-1]), 16)
    objective = tableau[-1]
    for _ in itertools.count() if exact else range(_FLOAT_PIVOTS):
        col = next((c for c in range(49) if objective[c] < -eps), None)
        if col is None:
            x = [eps * 0] * 49  # zeros of the run's number type
            for row, b in zip(tableau, basis):
                x[b] = row[-1]
            g = list(map(operator.sub, objective[33:49], objective[17:33]))
            return x[:16], -objective[-1], g
        rows = [r for r in range(33) if tableau[r][col] > eps]
        if not rows:  # unbounded: a float run's rounding, never an exact one
            return None
        ratios = [tableau[r][-1] / tableau[r][col] for r in rows]
        least = min(ratios)
        tied = [r for r, ratio in zip(rows, ratios) if ratio == least]
        _pivot(tableau, basis, min(tied, key=basis.__getitem__), col)
    return None


def _binary_table(box: ConditionalBox) -> list[float]:
    if box.shape != (2, 2, 2, 2):
        raise ValueError(f"locality LP needs a binary 2x2x2x2 box, got shape {box.shape}")
    return list(_entries(box.table))


def _distance_lower_bound(p) -> tuple[float, tuple[float, ...]]:
    """The best float bound on the flat table p's t among the 24 functionals
    of :func:`_lp_data` (CHSH variants and no-signaling gaps), and its g."""
    return max(((_bell_bound(g, p), g) for g in _lp_data()[3]), key=operator.itemgetter(0))


def _normalized(w: list[float]) -> list[float]:
    """The weights w over their sum, formed as eight sums of pairs (w_k, w_k+8)
    added as a balanced tree: the order in which numpy's pairwise sum adds
    16 floats, so the weights equal an array's ``w / w.sum()`` to the bit.
    + 0.0 turns signed zeros into 0.0."""
    r = list(map(operator.add, w[:8], w[8:]))
    total = 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    return [v / total + 0.0 for v in w]


def is_local(box: ConditionalBox, tol: float = DEFAULT_TOL) -> tuple[bool, list[float] | None]:
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
        w = _normalized([max(v, 0.0) for v in w])
        if _upper_bound(w, p) <= tol:
            return True, w
        if any(g):
            from fractions import Fraction

            if _bell_bound([*map(Fraction, g)], [*map(Fraction, p)]) > tol:
                return False, None
    w, t, _ = _simplex(p, exact=True)
    if t > tol:
        return False, None
    return True, [float(v) for v in w]


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
    t = [[[[0.0] * nB_in for _ in range(nA_in)] for _ in range(nB_out)] for _ in range(nA_out)]
    for (A, B, a, b), p in entries.items():
        t[a][b][A][B] = p
    return ConditionalBox(t, tol=tol)
