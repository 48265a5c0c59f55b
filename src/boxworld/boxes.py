"""Bipartite conditional-probability boxes and their symmetries.

A box is a table P(a, b | A, B) over finite input alphabets (A for Alice,
B for Bob) and finite output alphabets (a, b). The canonical example is
the PR box, whose outputs satisfy a XOR b = A AND B with uniform local
marginals. This module builds boxes, relabels them, measures how badly a
box lets one side's input leak into the other side's output marginal,
evaluates the CHSH functional, and decides membership in the local
(deterministic-strategy) polytope by linear programming.

Violation magnitudes are total-variation distances (half L1) so they sit
on the same scale as trace distances elsewhere in the package.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "BoxValidationError",
    "BoxFormatError",
    "LocalityLPError",
    "ConditionalBox",
    "NoSignalingReport",
    "Relabeling",
    "pr_box",
    "uniform_box",
    "check_no_signaling",
    "relabel",
    "chsh_value",
    "deterministic_vertices",
    "is_local",
    "dumps_csv",
    "loads_csv",
]

DEFAULT_TOL = 1e-9


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
        if t.min() < -self.tol:
            raise BoxValidationError(
                f"negative probability {t.min():.3g} below -tol={-self.tol:.3g}"
            )
        sums = t.sum(axis=(0, 1))
        worst = np.max(np.abs(sums - 1.0))
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


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def check_no_signaling(box: ConditionalBox, tol: float = DEFAULT_TOL) -> NoSignalingReport:
    """Measure how much each side's input moves the other side's marginal.

    Raises BoxValidationError if the table is malformed beyond ``tol``
    (re-validated here because the box may have been built with a looser
    tolerance). A box satisfies the no-signaling condition exactly when
    both reported violations are zero.
    """
    t = box.table
    if t.min() < -tol or np.max(np.abs(t.sum(axis=(0, 1)) - 1.0)) > tol:
        raise BoxValidationError(
            "box table breaks positivity/normalization beyond the requested tolerance"
        )

    # Bob's marginal for each setting: marg_b[b, A, B]; Alice's: marg_a[a, A, B].
    marg_b = t.sum(axis=0)
    marg_a = t.sum(axis=1)

    a_to_b = 0.0
    worst_ab = (0, (0, 0))
    for B in range(box.nB_in):
        for A1, A2 in itertools.combinations(range(box.nA_in), 2):
            d = _tv(marg_b[:, A1, B], marg_b[:, A2, B])
            if d > a_to_b:
                a_to_b, worst_ab = d, (B, (A1, A2))

    b_to_a = 0.0
    worst_ba = (0, (0, 0))
    for A in range(box.nA_in):
        for B1, B2 in itertools.combinations(range(box.nB_in), 2):
            d = _tv(marg_a[:, A, B1], marg_a[:, A, B2])
            if d > b_to_a:
                b_to_a, worst_ba = d, (A, (B1, B2))

    if a_to_b >= b_to_a:
        worst = ("a_to_b", worst_ab[0], worst_ab[1])
    else:
        worst = ("b_to_a", worst_ba[0], worst_ba[1])
    return NoSignalingReport(a_to_b, b_to_a, worst, tol)


def _check_perm(perm: tuple[int, ...], size: int, what: str) -> None:
    if sorted(perm) != list(range(size)):
        raise ValueError(f"{what} is not a permutation of range({size}): {perm}")


@dataclass(frozen=True)
class Relabeling:
    """Local input and per-input output permutations for the two sides.

    ``a_in[A]`` is the input fed to the underlying box when the new Alice
    input is ``A``; ``a_out[A]`` maps the underlying box's Alice output to
    the reported one, conditioned on the new input ``A``. Same for Bob.
    """

    a_in: tuple[int, ...]
    b_in: tuple[int, ...]
    a_out: tuple[tuple[int, ...], ...]
    b_out: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_perm(self.a_in, len(self.a_in), "a_in")
        _check_perm(self.b_in, len(self.b_in), "b_in")
        if len(self.a_out) != len(self.a_in) or len(self.b_out) != len(self.b_in):
            raise ValueError("need one output permutation per input label")
        for A, p in enumerate(self.a_out):
            _check_perm(p, len(p), f"a_out[{A}]")
        for B, p in enumerate(self.b_out):
            _check_perm(p, len(p), f"b_out[{B}]")

    @classmethod
    def identity(cls, nA_in: int, nB_in: int, nA_out: int, nB_out: int) -> Relabeling:
        ida = tuple(range(nA_out))
        idb = tuple(range(nB_out))
        return cls(
            a_in=tuple(range(nA_in)),
            b_in=tuple(range(nB_in)),
            a_out=(ida,) * nA_in,
            b_out=(idb,) * nB_in,
        )

    def inverse(self) -> Relabeling:
        inv_a_in = _inv_perm(self.a_in)
        inv_b_in = _inv_perm(self.b_in)
        a_out = tuple(_inv_perm(self.a_out[inv_a_in[A]]) for A in range(len(self.a_in)))
        b_out = tuple(_inv_perm(self.b_out[inv_b_in[B]]) for B in range(len(self.b_in)))
        return Relabeling(inv_a_in, inv_b_in, a_out, b_out)


def _inv_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def relabel(box: ConditionalBox, r: Relabeling) -> ConditionalBox:
    """Apply a local relabeling; a symmetry of both no-signaling and locality."""
    if (
        len(r.a_in) != box.nA_in
        or len(r.b_in) != box.nB_in
        or any(len(p) != box.nA_out for p in r.a_out)
        or any(len(p) != box.nB_out for p in r.b_out)
    ):
        raise ValueError("relabeling alphabets do not match the box")
    out = np.zeros_like(box.table)
    for A in range(box.nA_in):
        for B in range(box.nB_in):
            src = box.table[:, :, r.a_in[A], r.b_in[B]]
            for a0 in range(box.nA_out):
                for b0 in range(box.nB_out):
                    out[r.a_out[A][a0], r.b_out[B][b0], A, B] = src[a0, b0]
    return ConditionalBox(out, tol=box.tol)


def chsh_value(box: ConditionalBox) -> float:
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) with E = P(a=b) - P(a!=b) per setting.

    Ranges over [-4, 4]; 2 bounds the local polytope, 4 is reached by the
    PR box and its relabelings.
    """
    if box.table.shape != (2, 2, 2, 2):
        raise ValueError(f"CHSH needs a binary 2x2x2x2 box, got shape {box.table.shape}")
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(a xor b)
    corr = np.einsum("ab,abAB->AB", sign, box.table)
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


def is_local(box: ConditionalBox, tol: float = DEFAULT_TOL) -> tuple[bool, np.ndarray | None]:
    """Decide local-polytope membership; return convex weights when inside.

    Solves the LP minimizing the worst entrywise deviation t between the box
    and a convex combination of the 16 deterministic boxes. The box is local
    iff the optimum satisfies t <= tol. Weights follow the fixed vertex
    ordering of :func:`deterministic_vertices`. Raises
    :class:`LocalityLPError` when the solver reports no optimum.
    """
    if box.table.shape != (2, 2, 2, 2):
        raise ValueError(f"locality LP needs a binary 2x2x2x2 box, got shape {box.table.shape}")
    from scipy.optimize import linprog  # only here, so the package loads without scipy

    p = box.table.reshape(16)
    verts = deterministic_vertices()  # (16 vertices, 16 entries)

    # Variables: 16 weights then the deviation bound t; minimize t.
    c = np.zeros(17)
    c[16] = 1.0
    ones = np.ones((16, 1))
    a_ub = np.vstack([np.hstack([verts.T, -ones]), np.hstack([-verts.T, -ones])])
    b_ub = np.concatenate([p, -p])
    a_eq = np.zeros((1, 17))
    a_eq[0, :16] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * 17,
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
    """Parse the ``A,B,a,b,p`` CSV format; every index combination must appear once."""
    rows = list(csv.reader(io.StringIO(text)))
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
    t = np.zeros((nA_out, nB_out, nA_in, nB_in))
    for (A, B, a, b), p in entries.items():
        t[a, b, A, B] = p
    return ConditionalBox(t, tol=tol)
