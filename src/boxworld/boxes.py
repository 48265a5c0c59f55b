"""Bipartite conditional-probability boxes and their symmetries.

A box is a table P(a, b | A, B) over finite input alphabets (A for Alice,
B for Bob) and finite output alphabets (a, b). The canonical example is
the PR box, whose outputs satisfy a XOR b = A AND B with uniform local
marginals. This module builds boxes, measures how badly a box lets one
side's input leak into the other side's output marginal, evaluates the
CHSH functional, and decides membership in the local
(deterministic-strategy) polytope by linear programming.

The LP's optimum t is the box's L-infinity distance to the local polytope.
:func:`is_local` first computes two lower bounds on t that hold for any
real binary table, and answers "not local" without the LP when one of
them clears ``tol`` by :data:`LP_SLACK`:

- (largest of the 8 CHSH variants - 2) / 16: each variant weights all 16
  entries by +-1, so moving every entry by at most t moves it by at most
  16 t, and a local box scores at most 2;
- (largest no-signaling violation) / 4: each marginal entry sums 2
  entries, so a violation (half the L1 gap of two marginals of 2 entries)
  moves by at most 4 t, and a local box has none.

HiGHS meets constraints only to its feasibility tolerance of 1e-7, so its
t may fall short of the true optimum by about that much; the slack of
1e-6 keeps every verdict the bound gives equal to the LP's. Every other
box, the local ones included, goes to the LP, which stays the only judge
of membership (Fine's criterion, CHSH <= 2 for no-signaling boxes, is an
oracle in the tests, not a decider here).

Violation magnitudes are total-variation distances (half L1) so they sit
on the same scale as trace distances elsewhere in the package.

Validity and no-signaling are computed by two array functions,
:func:`table_deviations` and :func:`no_signaling_violations`. Each takes
one table or a stack of tables, shape ``(..., a, b, A, B)``, and gives
every table of a stack exactly the figures it gets on its own;
:class:`ConditionalBox` and :func:`check_no_signaling` are their one-table
callers.
"""

from __future__ import annotations

import functools
import io
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "LP_SLACK",
    "MAX_CSV_BYTES",
    "MAX_PAIR_ENTRIES",
    "BoxValidationError",
    "BoxFormatError",
    "LocalityLPError",
    "ConditionalBox",
    "NoSignalingReport",
    "pr_box",
    "uniform_box",
    "table_deviations",
    "no_signaling_violations",
    "check_no_signaling",
    "chsh_value",
    "deterministic_vertices",
    "is_local",
    "dumps_csv",
    "loads_csv",
]

DEFAULT_TOL = 1e-9
# How far the lower bound on the locality LP's t must clear tol before the
# LP is skipped; it covers HiGHS's primal feasibility tolerance of 1e-7.
LP_SLACK = 1e-6
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


class LocalityLPError(RuntimeError):
    """The locality LP solver stopped without an optimum, so no verdict exists."""


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

    @property
    def nA_out(self) -> int:
        return self.table.shape[0]

    @property
    def nB_out(self) -> int:
        return self.table.shape[1]

    @property
    def nA_in(self) -> int:
        return self.table.shape[2]

    @property
    def nB_in(self) -> int:
        return self.table.shape[3]

    def setting(self, A: int, B: int) -> np.ndarray:
        """Joint outcome distribution for one input pair, indexed [a, b]."""
        return np.array(self.table[:, :, A, B])


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


def uniform_box(nA_out: int = 2, nB_out: int = 2, nA_in: int = 2, nB_in: int = 2) -> ConditionalBox:
    """Box with the uniform outcome distribution at every setting."""
    t = np.full((nA_out, nB_out, nA_in, nB_in), 1.0 / (nA_out * nB_out))
    return ConditionalBox(t)


def table_deviations(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest entry and worst setting-normalization error of each table.

    ``t`` is one table or a stack, shape ``(..., a, b, A, B)``; both results
    have shape ``t.shape[:-4]``. The normalization error is the largest
    ``|sum over (a, b) - 1|`` over the settings (A, B).
    """
    t = np.ascontiguousarray(t)
    return t.min(axis=(-4, -3, -2, -1)), np.abs(t.sum(axis=(-4, -3)) - 1.0).max(axis=(-2, -1))


def no_signaling_violations(
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[tuple[str, int, tuple[int, int]]]]:
    """A-to-b and b-to-a violations and the worst setting of each table.

    ``t`` is one table or a stack, shape ``(..., a, b, A, B)``. The two
    violations have shape ``t.shape[:-4]``; the worst settings are a list
    with one ``(direction, receiver_input, sender_input_pair)`` per table,
    in C order of the leading axes. See :class:`NoSignalingReport`.
    """
    t = np.ascontiguousarray(t)
    # Each marginal indexed [..., receiver input, sender input, outcome].
    a_to_b, ab_at = _max_shift(t.sum(axis=-4).swapaxes(-3, -1))
    b_to_a, ba_at = _max_shift(t.sum(axis=-3).swapaxes(-3, -1).swapaxes(-3, -2))
    worst = [
        ("a_to_b", *at1) if d1 >= d2 else ("b_to_a", *at2)
        for d1, d2, at1, at2 in zip(a_to_b.ravel().tolist(), b_to_a.ravel().tolist(), ab_at, ba_at)
    ]
    return a_to_b, b_to_a, worst


def _max_shift(marg: np.ndarray) -> tuple[np.ndarray, list[tuple[int, tuple[int, int]]]]:
    """Largest total-variation gap between two sender inputs' marginals, and where.

    The first maximum in receiver-major order, sender pairs in
    :func:`itertools.combinations` order, wins; when no gap is > 0 the
    place is receiver 0, pair (0, 0).
    """
    n = marg.shape[-2]
    # With the outcome axis last and contiguous, each gap is summed in the
    # same order as the sum of one 1-D marginal difference.
    marg = np.ascontiguousarray(marg)
    gaps = 0.5 * np.abs(marg[..., :, None, :] - marg[..., None, :, :]).sum(axis=-1)
    # A C-order scan of the symmetric [receiver, i, j] gaps meets the first
    # maximum at i < j, in the order above, or at the zero at (0, 0, 0).
    gaps = gaps.reshape(gaps.shape[:-3] + (gaps.shape[-3] * n * n,))
    places = [(k // (n * n), divmod(k % (n * n), n)) for k in gaps.argmax(axis=-1).ravel().tolist()]
    return gaps.max(axis=-1), places


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
    a_to_b, b_to_a, (setting,) = no_signaling_violations(box.table)
    return NoSignalingReport(float(a_to_b), float(b_to_a), setting, tol)


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


def _distance_lower_bound(t: np.ndarray) -> float:
    """A lower bound on a binary table's L-infinity distance to the local polytope.

    The larger of (best CHSH variant - 2) / 16 and (worst no-signaling
    violation) / 4; the module docstring says why each holds.
    """
    corr = _correlators(t)
    # The variant with the minus sign on E(A, B), either overall sign.
    best_chsh = float(np.abs(corr.sum() - 2.0 * corr).max())
    a_to_b, b_to_a, _ = no_signaling_violations(t)
    return max((best_chsh - 2.0) / 16.0, max(float(a_to_b), float(b_to_a)) / 4.0)


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
def _lp_data() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective, inequality and equality matrices of the locality LP.

    Variables are the 16 vertex weights then the deviation bound t. None
    of the three depends on the box, so they are built once per process
    and kept read-only.
    """
    verts = deterministic_vertices()  # (16 vertices, 16 entries)
    c = np.zeros(17)
    c[16] = 1.0
    ones = np.ones((16, 1))
    a_ub = np.vstack([np.hstack([verts.T, -ones]), np.hstack([-verts.T, -ones])])
    a_eq = np.zeros((1, 17))
    a_eq[0, :16] = 1.0
    for array in (c, a_ub, a_eq):
        array.setflags(write=False)
    return c, a_ub, a_eq


def is_local(box: ConditionalBox, tol: float = DEFAULT_TOL) -> tuple[bool, np.ndarray | None]:
    """Decide local-polytope membership; return convex weights when inside.

    The LP minimizes the worst entrywise deviation t between the box and a
    convex combination of the 16 deterministic boxes; the box is local iff
    the optimum satisfies t <= tol. Weights follow the fixed vertex
    ordering of :func:`deterministic_vertices`.

    Before the LP, t is bounded from below by the larger of
    (best CHSH variant - 2) / 16 and (worst no-signaling violation) / 4.
    When that bound exceeds ``tol + LP_SLACK`` the answer is
    ``(False, None)`` with no LP and no scipy import; the slack covers
    HiGHS's feasibility tolerance of 1e-7, so the LP could not have
    answered otherwise. Every other box is decided by the LP. Raises
    :class:`LocalityLPError` when the solver reports no optimum.
    """
    if box.table.shape != (2, 2, 2, 2):
        raise ValueError(f"locality LP needs a binary 2x2x2x2 box, got shape {box.table.shape}")
    if _distance_lower_bound(box.table) > tol + LP_SLACK:
        return False, None
    from scipy.optimize import linprog  # only here, so the package loads without scipy

    c, a_ub, a_eq = _lp_data()
    p = box.table.reshape(16)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.concatenate([p, -p]),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        raise LocalityLPError(f"locality LP failed (status {res.status}): {res.message}")
    if res.x[16] > tol:
        return False, None
    return True, res.x[:16] + 0.0  # + 0.0 turns HiGHS's signed zeros into 0.0


def dumps_csv(box: ConditionalBox, digits: int = 17) -> str:
    """Serialize to CSV with header ``A,B,a,b,p``, rows lexicographic in (A, B, a, b)."""
    buf = io.StringIO()
    buf.write("A,B,a,b,p\n")
    for A in range(box.nA_in):
        for B in range(box.nB_in):
            for a in range(box.nA_out):
                for b in range(box.nB_out):
                    buf.write(f"{A},{B},{a},{b},{box.table[a, b, A, B]:.{digits}g}\n")
    return buf.getvalue()


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
