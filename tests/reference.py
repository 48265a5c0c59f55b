"""Reference implementations that the tests check the package against.

No command runs any of this. Each definition reaches a quantity the
package computes by a shorter path, or builds inputs for such a check:

- :class:`Ket`, :class:`Unitary` and :class:`DensityOperator` on numpy
  arrays, with :func:`check_densities` and :func:`check_unitaries` for
  whole stacks of matrices: the numpy forms of :mod:`boxworld.quantum`,
  whose plain-Python types check one matrix each; :func:`dumps_density_csv`,
  the ``rho:`` rows that ``parse --dump-rho`` prints, from a numpy
  density; :func:`basis_ket`, the numpy form
  of a basis-ket leaf of :func:`boxworld.hybrid.distribute`, and
  :func:`plain_basis_ket`, the package ket that leaf gives;
- :class:`HybridState` and :func:`distribute` on numpy arrays, the numpy
  forms of those of :mod:`boxworld.hybrid`, the oracle of a differential
  property on the branches and densities of expressions;
- single-qubit ``Unitary`` objects, kets and the tensor product, from
  which the tests build the construction's input (U tensor 1)|01> one
  angle at a time;
- the partial trace, trace distances, Helstrom discrimination and basis
  measurement on plain matrices, the textbook forms of what the package
  computes in closed form;
- local relabelings of a box, a symmetry of no-signaling and locality,
  and :func:`dumps_csv`, the ``A,B,a,b,p`` writer for box files;
- :func:`table_deviations` and the no-signaling gap arrays, the checks
  of :mod:`boxworld.boxes` on stacks of numpy tables, which the
  plain-Python ones match bit for bit wherever numpy sums one term at a
  time;
- :func:`array_simplex`, the locality LP's simplex on numpy arrays, float
  or Fraction, the oracle of the plain-Python one the package runs;
- :func:`pr_extend`, the linearly extended box applied branch by branch
  (2^k output branches for an input with k nonzero components), and
  :func:`pr_extend_density`, the density of that expansion in closed form
  for a stack of any inputs, as mean plus spread of the pair choices.
  :func:`pr_extend` derives each admissible output from the relation
  a XOR b = A AND B itself, so the two are separate derivations;
- :func:`exact_chain`, the whole construction at any rational (cos, sin)
  pair, the float ones included, in ``Fraction`` arithmetic, from the
  same relation, and :func:`exact_sweep_row`, what ``signal``, ``scan``
  and ``audit`` print of it at a float angle, rounded once;
- :func:`dumps` and :func:`loads`, a writer of the branch lines
  ``parse`` prints, each figure formatted on its own, and their reader;
- :func:`exact_success_fraction`, the optimal n-copy success of the
  repetition channel as an exact sum over all n + 1 counts;
- :func:`reference_parse`, the state-expression parser as a lexer and a
  parser that pulls its tokens, the oracle of the one-pass
  :func:`boxworld.dsl.parse`.

pytest puts both ``tests/`` and ``bench/`` on ``sys.path`` and imports
their modules by bare name, so this one must not share a name with
``bench/oracles.py``.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from boxworld.audit import SweepRow
from boxworld.boxes import _FLOAT_PIVOTS, ConditionalBox, deterministic_vertices
from boxworld.dsl import MAX_NESTING, ODOT_GLYPH, ParseError
from boxworld.hybrid import (
    DEFAULT_BRANCH_CAP,
    MAX_WIDTH,
    SYM_C,
    SYM_S,
    BasisKet,
    BranchLimitError,
    CoherentSum,
    ExpressionError,
    IncoherentSum,
    Scalar,
    Scaled,
    StateExpr,
)
from boxworld.hybrid import distribute as package_distribute
from boxworld.protocol import MIN_ROUNDS_MAX_COPIES, _count
from boxworld.tolerance import EIGEN_ROUNDING, ROUNDING

# ---------------------------------------------------------------- quantum, on numpy arrays


def _frozen_complex(value: np.ndarray | Sequence, ndim: int) -> np.ndarray:
    arr = np.array(value, dtype=complex)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("non-finite amplitudes")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Ket:
    """Complex amplitude vector; not necessarily normalized."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _frozen_complex(self.amplitudes, 1))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class Unitary:
    """Square matrix with U^dagger U = I within :data:`~boxworld.tolerance.ROUNDING`."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen_complex(self.matrix, 2)
        check_unitaries(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix (small tolerances)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen_complex(self.matrix, 2)
        check_densities(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_densities(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of ``m`` is a density operator.

    ``m`` is one matrix or a stack of them, shape (..., d, d); the whole
    stack is checked in one pass: finite entries, Hermitian and of unit
    trace within :data:`~boxworld.tolerance.ROUNDING`, no eigenvalue below
    -:data:`~boxworld.tolerance.EIGEN_ROUNDING`. The message names the
    worst matrix's deviation.

    The eigenvalue bound is first certified by a Cholesky factorization of
    m + EIGEN_ROUNDING I, which exists when no eigenvalue of m lies below
    -EIGEN_ROUNDING; only a stack it fails on is decomposed, and judged by
    its lowest eigenvalue. Both decide the bound to within the same
    O(d u |m|) rounding.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"density operator must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    herm = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0)
    if herm > ROUNDING:
        raise ValueError(f"not Hermitian (deviation {herm:.3g})")
    tr = np.trace(m, axis1=-2, axis2=-1).ravel()
    off = np.abs(tr - 1.0)
    if np.max(off, initial=0.0) > ROUNDING:
        raise ValueError(f"trace is {tr[np.argmax(off)]:.15g}, not 1")
    try:
        np.linalg.cholesky(m + EIGEN_ROUNDING * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(m).min(initial=np.inf))
        if lo < -EIGEN_ROUNDING:
            raise ValueError(f"negative eigenvalue {lo:.3g}") from None


def check_unitaries(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of ``m`` is unitary.

    ``m`` is one matrix or a stack of them, shape (..., d, d); the whole
    stack is checked in one pass: finite entries and max|U^dagger U - I|
    within :data:`~boxworld.tolerance.ROUNDING`. The message names the
    worst matrix's deviation.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"unitary must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite amplitudes")
    gram = np.swapaxes(m, -1, -2).conj() @ m
    dev = np.max(np.abs(gram - np.eye(m.shape[-1])), initial=0.0)
    if dev > ROUNDING:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")


def basis_ket(label: str) -> Ket:
    """Computational-basis ket for a binary label, e.g. ``basis_ket("01")``."""
    if not label or any(ch not in "01" for ch in label):
        raise ValueError(f"basis label must be a nonempty string over 0/1, got {label!r}")
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[int(label, 2)] = 1.0
    return Ket(amps)


def plain_basis_ket(label: str):
    """The package's plain-Python ket of a basis label: the one branch
    that :func:`boxworld.hybrid.distribute` makes of that leaf."""
    return package_distribute(BasisKet(label)).branches[0][1]


def dumps_density_csv(rho: DensityOperator, digits: int = 17) -> str:
    """CSV dump, one line per matrix row, entries as re,im pairs.

    Each row is formatted by one ``%`` pattern from its real and imaginary
    parts in order, the float view of the row.
    """
    row = ",".join([f"%.{digits}g"] * (2 * rho.dim)) + "\n"
    return "".join([row % tuple(parts) for parts in rho.matrix.view(float).tolist()])


# ---------------------------------------------------------------- hybrid, on numpy arrays

# The most density entries a state's branch terms take up at once: a term
# has 4^w entries, so at w >= 8 the terms are formed one at a time.
_TERM_ENTRIES = 2**16


@dataclass(frozen=True)
class HybridState:
    """Weighted list of coherent branches over ``width`` qubits.

    Branch kets may be unnormalized; :meth:`to_density` trace-normalizes,
    so only relative weight times squared amplitude matters.
    """

    width: int
    branches: tuple[tuple[float, Ket], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple((float(w), k) for w, k in self.branches))
        if self.width < 1:
            raise ExpressionError(f"register width must be positive, got {self.width}")
        if not self.branches:
            raise ExpressionError("a hybrid state needs at least one branch")
        dim = 2**self.width
        massive = False
        for w, ket in self.branches:
            if not math.isfinite(w) or w < 0.0:
                raise ExpressionError(f"branch weight must be finite and >= 0, got {w}")
            if ket.dim != dim:
                raise ExpressionError(
                    f"branch dimension {ket.dim} does not match width {self.width}"
                )
            massive = massive or (w > 0.0 and bool(np.any(ket.amplitudes)))
        if not massive:
            raise ExpressionError("state carries no mass")

    def to_density(self) -> DensityOperator:
        """The branches' sum of w |psi><psi|, divided by its trace.

        Each ket is first divided by the power of two of its largest real
        or imaginary part, and its term scaled into the frame of the
        largest term; powers of two scale exactly, so no square overflows
        or underflows, and inputs that did neither give the bits of the
        plain sum. The terms are summed in branch order, at most
        ``_TERM_ENTRIES`` entries of them at a time.
        """
        amps = np.array([ket.amplitudes for _, ket in self.branches])
        a_exps = np.frexp(np.abs(amps.view(float)).max(axis=1))[1]
        v = _pow2_times(amps, -a_exps[:, None])
        frames = []  # per branch: its term's exponent, and its mantissa or 0 without mass
        for (w, _), a_exp, nonzero in zip(self.branches, a_exps.tolist(), v.any(axis=1).tolist()):
            w_frac, w_exp = math.frexp(w)
            frames.append((w_exp + 2 * a_exp, w_frac if nonzero else 0.0))
        top = max(exp for exp, frac in frames if frac)  # a branch has mass, by the constructor
        coefs = np.array([math.ldexp(frac, exp - top) for exp, frac in frames])
        dim = v.shape[1]
        step = max(1, _TERM_ENTRIES // dim**2)
        acc = np.zeros((dim, dim), dtype=complex)
        for lo in range(0, len(v), step):
            u = v[lo : lo + step]
            for term in coefs[lo : lo + step, None, None] * (u[:, :, None] * u[:, None, :].conj()):
                acc += term
        return DensityOperator(acc / float(acc.trace().real))


def distribute(expr: StateExpr, theta: float | None = None) -> HybridState:
    """Normal-form an expression into a weighted list of coherent branches.

    Semantics, expanded left to right:

    * a basis ket is a single branch of weight 1;
    * a scalar multiplies every branch amplitude of its child (weights
      untouched; trace normalization later absorbs the difference between
      reading a prefactor as a probability or as an amplitude);
    * an incoherent sum of n operands concatenates their branches with
      each operand's weights divided by n;
    * a coherent sum combines branches pairwise, multiplying weights and
      adding amplitudes.

    ``theta`` binds the named symbols c and s. Past ``DEFAULT_BRANCH_CAP``
    branches it raises :class:`BranchLimitError`. A scalar that itself
    overflows a float (10^300/10^-300) is an error. Each branch carries a
    power of two besides its amplitudes, so nested prefactors of 10^200 or
    10^-200, or branches 2^600 apart, neither overflow nor underflow. Where
    every amplitude is a normal float the branches come out at the scale
    written, with the bits of the plain products and sums (powers of two
    scale exactly), save that an amplitude about 2^1021 or more below the
    largest of its branch may lose bits: it enters the density only below
    the smallest normal float. Otherwise every branch is divided by the
    power of two that brings the largest amplitude into [1/2, 1): the
    density is the same, and an amplitude that the plain products would
    leave subnormal, as 10^-320 in ``1e-160 (1e-160 |0> + |1>)``, keeps its
    full precision.
    """
    width, raw = _eval_expr(expr, theta)
    amps = np.array([m for _, m, _ in raw])
    exps = np.array([[e] for _, _, e in raw])
    frac, tops = np.frexp(amps.view(float))
    tops = (tops + exps)[frac != 0.0].tolist()
    fl = sys.float_info
    normal = not tops or (min(tops) >= fl.min_exp and max(tops) <= fl.max_exp)
    scaled = _pow2_times(amps, exps if normal else exps - max(tops))
    return HybridState(width, tuple((w, Ket(m)) for (w, _, _), m in zip(raw, scaled)))


def _eval_expr(
    node: StateExpr, theta: float | None
) -> tuple[int, list[tuple[float, np.ndarray, int]]]:
    """Width and branches (weight, m, e) of an expression, the amplitudes
    of a branch being m 2^e: each scalar's power of two goes to e and only
    its mantissa, in [1/2, 1), multiplies m.
    """
    if isinstance(node, BasisKet):
        if len(node.label) > MAX_WIDTH:
            raise ExpressionError(f"ket width {len(node.label)} exceeds the largest, {MAX_WIDTH}")
        ket = basis_ket(node.label)
        return len(node.label), [(1.0, ket.amplitudes, 0)]
    if isinstance(node, Scaled):
        factor = node.scalar.value(theta)
        if not (math.isfinite(factor.real) and math.isfinite(factor.imag)):
            raise ExpressionError("a prefactor overflows a float")
        k = math.frexp(max(abs(factor.real), abs(factor.imag)))[1]
        factor = complex(math.ldexp(factor.real, -k), math.ldexp(factor.imag, -k))
        width, branches = _eval_expr(node.child, theta)
        return width, [(w, factor * m, e + k) for w, m, e in branches]
    if isinstance(node, IncoherentSum):
        share = 1.0 / len(node.children)
        width = None
        out: list[tuple[float, np.ndarray, int]] = []
        for child in node.children:
            w_child, branches = _eval_expr(child, theta)
            if width is None:
                width = w_child
            elif w_child != width:
                raise ExpressionError(
                    f"mixed register widths ({width} and {w_child}) in one expression"
                )
            out.extend((share * w, m, e) for w, m, e in branches)
            if len(out) > DEFAULT_BRANCH_CAP:
                raise BranchLimitError(
                    f"expression expands past the cap of {DEFAULT_BRANCH_CAP} branches"
                )
        return width, out
    if isinstance(node, CoherentSum):
        width = None
        acc: list[tuple[float, np.ndarray, int]] | None = None
        for child in node.children:
            w_child, branches = _eval_expr(child, theta)
            if width is None:
                width, acc = w_child, branches
                continue
            if w_child != width:
                raise ExpressionError(
                    f"mixed register widths ({width} and {w_child}) in one expression"
                )
            combined = [
                (wl * wr, *_add(ml, el, mr, er)) for wl, ml, el in acc for wr, mr, er in branches
            ]
            if len(combined) > DEFAULT_BRANCH_CAP:
                raise BranchLimitError(
                    f"expression expands past the cap of {DEFAULT_BRANCH_CAP} branches"
                )
            acc = combined
        return width, acc
    raise ExpressionError(f"not a state expression node: {node!r}")


def _add(ml: np.ndarray, el: int, mr: np.ndarray, er: int) -> tuple[np.ndarray, int]:
    """ml 2^el + mr 2^er as (m, e), in the frame of the larger exponent,
    unless that operand is zero (as after a prefactor 0): a zero sets no
    scale, lest it flush the other operand.
    """
    if el == er:
        return ml + mr, el
    e = max(el, er) if (ml if el > er else mr).any() else min(el, er)
    if el != e:
        ml = _pow2_times(ml, el - e)
    if er != e:
        mr = _pow2_times(mr, er - e)
    return ml + mr, e


def _pow2_times(m: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """m 2^k, exactly wherever the result is a normal float."""
    return np.ldexp(m.view(float), k).view(complex)



# ---------------------------------------------------------------- quantum


def plus_ket() -> Ket:
    return Ket(np.array([1.0, 1.0]) / math.sqrt(2.0))


def minus_ket() -> Ket:
    return Ket(np.array([1.0, -1.0]) / math.sqrt(2.0))


def identity(dim: int) -> Unitary:
    return Unitary(np.eye(dim))


def rotation(theta: float) -> Unitary:
    """Single-qubit rotation taking |0> to cos(theta)|0> + sin(theta)|1>."""
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return Unitary(np.array([[c, -s], [s, c]]))


def tensor(x, y):
    """Kronecker product of two values of the same kind; left factor is most significant."""
    for kind in (Ket, Unitary, DensityOperator):
        if isinstance(x, kind) and isinstance(y, kind):
            field = "amplitudes" if kind is Ket else "matrix"
            return kind(np.kron(getattr(x, field), getattr(y, field)))
    raise TypeError(
        f"tensor requires two kets, two unitaries, or two density operators, "
        f"got {type(x).__name__} and {type(y).__name__}"
    )


def apply(u: Unitary, state: Ket | DensityOperator):
    """U|psi> for kets, U rho U^dagger for density operators."""
    if isinstance(state, Ket):
        if u.dim != state.dim:
            raise ValueError("dimension mismatch")
        return Ket(u.matrix @ state.amplitudes)
    if isinstance(state, DensityOperator):
        if u.dim != state.dim:
            raise ValueError("dimension mismatch")
        return DensityOperator(u.matrix @ state.matrix @ u.matrix.conj().T)
    raise TypeError(f"cannot apply a unitary to {type(state).__name__}")


def partial_trace(rho: np.ndarray, keep: int, dims: Sequence[int]) -> np.ndarray:
    """The ``keep``-th factor of a matrix on a tensor product of spaces of ``dims``."""
    n = len(dims)
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for {n} factors")
    cols = [n if k == keep else k for k in range(n)]
    return np.einsum(np.reshape(rho, (*dims, *dims)), [*range(n), *cols], [keep, n])


def helstrom(rho0: np.ndarray, rho1: np.ndarray, prior0: float = 0.5) -> tuple[float, np.ndarray]:
    """Optimal single-shot success 1/2 + (1/2) tr|p1 rho1 - p0 rho0| of telling
    rho0 from rho1, and the projector that attains it: the positive
    eigenspace of p1 rho1 - p0 rho0, on which the answer is "rho1"."""
    if not 0.0 <= prior0 <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {prior0}")
    rho0, rho1 = np.asarray(rho0), np.asarray(rho1)
    evals, evecs = np.linalg.eigh((1.0 - prior0) * rho1 - prior0 * rho0)
    pos = evecs[:, evals > 0.0]
    return 0.5 + 0.5 * float(np.abs(evals).sum()), pos @ pos.conj().T


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace distance between matching Hermitian matrices of two stacks.

    Shapes broadcast over the leading axes, (..., d, d); the result has
    shape (...).
    """
    return 0.5 * np.abs(np.linalg.eigvalsh(np.subtract(a, b))).sum(axis=-1)


def measure_probs(rho: np.ndarray, basis: Sequence[Ket]) -> np.ndarray:
    """Outcome probabilities <b_k| rho |b_k> of an orthonormal basis of kets."""
    b = np.column_stack([k.amplitudes for k in basis])
    if b.shape != np.shape(rho) or np.abs(b.conj().T @ b - np.eye(len(b))).max() > 1e-10:
        raise ValueError("not an orthonormal basis of the space")
    return np.einsum("ik,ij,jk->k", b.conj(), rho, b).real


# ---------------------------------------------------------------- boxes


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
    nA_out, nB_out, nA_in, nB_in = box.shape
    if (
        len(r.a_in) != nA_in
        or len(r.b_in) != nB_in
        or any(len(p) != nA_out for p in r.a_out)
        or any(len(p) != nB_out for p in r.b_out)
    ):
        raise ValueError("relabeling alphabets do not match the box")
    table = np.array(box.table)
    out = np.zeros_like(table)
    for A in range(nA_in):
        for B in range(nB_in):
            src = table[:, :, r.a_in[A], r.b_in[B]]
            for a0 in range(nA_out):
                for b0 in range(nB_out):
                    out[r.a_out[A][a0], r.b_out[B][b0], A, B] = src[a0, b0]
    return ConditionalBox(out, tol=box.tol)


def dumps_csv(box: ConditionalBox, digits: int = 17) -> str:
    """Serialize to CSV with header ``A,B,a,b,p``, rows lexicographic in (A, B, a, b)."""
    nA_out, nB_out, nA_in, nB_in = box.shape
    buf = io.StringIO()
    buf.write("A,B,a,b,p\n")
    for A in range(nA_in):
        for B in range(nB_in):
            for a in range(nA_out):
                for b in range(nB_out):
                    buf.write(f"{A},{B},{a},{b},{box.table[a][b][A][B]:.{digits}g}\n")
    return buf.getvalue()


def _lp_data() -> tuple[np.ndarray]:
    """The locality LP's 34 x 50 tableau, zero right-hand side, as the
    float array :func:`array_simplex` reads, built with array operations."""
    verts = np.array(deterministic_vertices())
    tableau = np.zeros((34, 50))
    tableau[:16, :16], tableau[16:32, :16] = verts.T, -verts.T
    tableau[:32, 16] = -1.0
    tableau[:32, 17:49] = np.eye(32)
    tableau[32, :16] = tableau[33, 16] = 1.0
    return (tableau,)


def _fractions(a: np.ndarray) -> np.ndarray:
    """The floats of ``a`` as exact Fractions, in an object array."""
    return np.frompyfunc(Fraction, 1, 1)(a)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make column ``col`` basic in ``row``, touching only nonzero entries."""
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(tableau[row])
    tableau[np.ix_(rows, cols)] -= np.multiply.outer(tableau[rows, col], tableau[row, cols])
    basis[row] = col


def array_simplex(
    p: np.ndarray, exact: bool
) -> tuple[np.ndarray, float | Fraction, np.ndarray] | None:
    """:func:`boxworld.boxes._simplex` on numpy arrays: the same Bland
    pivots and sparse row updates, on a float or object (Fraction) array.

    Returns the weights w, the optimum t and the dual functional g, or None
    when a float run finds no pivot or runs past ``_FLOAT_PIVOTS`` pivots.
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


# ---------------------------------------------------------------- hybrid


def _admissible_outputs(i: int) -> list[int]:
    """Indices 2a + b of the two outputs |ab> of input |AB> = i, in order of a.

    They are the outputs with a XOR b = A AND B.
    """
    A, B = divmod(i, 2)
    return [2 * a + b for a in (0, 1) for b in (0, 1) if a ^ b == A & B]


def _branch_outputs(nz: list[int]):
    """The branches of an input whose nonzero components are ``nz``, one per
    combination of pair choices: each a list of (output index, component)."""
    for sel in itertools.product((0, 1), repeat=len(nz)):
        yield [(_admissible_outputs(i)[choice], i) for choice, i in zip(sel, nz)]


def extrapolated(state: HybridState) -> bool:
    """Whether a branch of a two-qubit input is superposed on both registers at once.

    :func:`pr_extend` applies the extension rule to such a branch too,
    beyond anything the source construction pins down.
    """
    for _, ket in state.branches:
        nz = [i for i in range(4) if ket.amplitudes[i] != 0]
        if len({i >> 1 for i in nz}) > 1 and len({i & 1 for i in nz}) > 1:
            return True
    return False


def pr_extend(state: HybridState, *, max_branches: int = DEFAULT_BRANCH_CAP) -> HybridState:
    """Act with the linearly extended binary box on a two-qubit state.

    Every input component |AB> is sent to the equal-weight incoherent pair
    of its two admissible outputs |a b> with a XOR b = A AND B, carrying
    the component's amplitude times 1/2. The pair choices of distinct
    components are expanded independently, so a branch with k nonzero
    components becomes 2^k branches of relative weight 2^-k.
    """
    if state.width != 2:
        raise ExpressionError(f"the box extension acts on 2 qubits, got width {state.width}")
    out: list[tuple[float, Ket]] = []
    for w, ket in state.branches:
        amps = ket.amplitudes
        nz = [i for i in range(4) if amps[i] != 0]
        if not nz:
            out.append((w, ket))
            continue
        share = w / 2 ** len(nz)
        for branch in _branch_outputs(nz):
            o = np.zeros(4, dtype=complex)
            for j, i in branch:
                o[j] += 0.5 * amps[i]
            out.append((share, Ket(o)))
        if len(out) > max_branches:
            raise BranchLimitError(f"extension expands past the cap of {max_branches} branches")
    return HybridState(2, tuple(out))


def _pr_output(i: int, choice: int) -> int:
    """Index of the admissible output |a b> of input |AB> = i with a = choice.

    The box relation a XOR b = A AND B fixes b once a is chosen.
    """
    return (choice << 1) | (((i >> 1) & (i & 1)) ^ choice)


# The extension as linear maps. _EXT_OUT[s] sends |i> to (1/2)|o(i, s)>,
# the amplitude-halved output of pair choice s; _EXT_MEAN is their mean
# (1/2)(O_0 + O_1); _EXT_SPREAD[i] is (1/2) sum_s O_s|i><i|O_s^T minus
# M|i><i|M^T, what a component's own pair choice adds beyond the mean.
_EXT_OUT = np.array(
    [[[0.5 * (o == _pr_output(i, s)) for i in range(4)] for o in range(4)] for s in (0, 1)]
)
_EXT_MEAN = 0.5 * (_EXT_OUT[0] + _EXT_OUT[1])
_EXT_SPREAD = 0.5 * np.einsum("sji,ski->ijk", _EXT_OUT, _EXT_OUT) - np.einsum(
    "ji,ki->ijk", _EXT_MEAN, _EXT_MEAN
)


def pr_extend_density(psi: np.ndarray) -> np.ndarray:
    """Output densities of the extended box for a stack of pure inputs, in closed form.

    ``psi`` holds one two-qubit input per row, shape (T, 4), normalized or
    not; the result, shape (T, 4, 4), is row by row the density of the
    branch expansion of :func:`pr_extend`, without the
    expansion. With O_s the map of pair choice s, M their mean and K_i the
    spread of component i (see the module constants), the unnormalized
    density is M psi psi^+ M^+ + sum_i |psi_i|^2 K_i, since distinct
    components choose independently and only their means interfere; each
    is then divided by its trace. A row whose largest real or imaginary
    part lies outside [2^-500, 2^500] is first scaled by the power of two
    that brings that part into [1/2, 1), exactly, so its squares neither
    overflow nor underflow; the trace undoes the scale. Every matrix of
    the stack passes the density-operator checks.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != 4:
        raise ExpressionError(f"the box extension acts on rows of 2 qubits, got shape {psi.shape}")
    top = np.abs(psi.view(float)).max(axis=1, initial=0.0)  # NaN or inf where a part is
    if not np.all(np.isfinite(top)):
        raise ValueError("non-finite amplitudes")
    far = (top > 2.0**500) | (top < 2.0**-500)
    if far.any():
        psi = _pow2_times(psi, np.where(far, -np.frexp(top)[1], 0)[:, None])
    mean = psi @ _EXT_MEAN.T
    weights = psi.real**2 + psi.imag**2
    rho = mean[:, :, None] * mean[:, None, :].conj()
    rho += np.einsum("ti,ijk->tjk", weights, _EXT_SPREAD)
    tr = np.trace(rho, axis1=1, axis2=2).real
    if np.any(tr <= 0.0):
        raise ExpressionError("state carries no mass")
    rho /= tr[:, None, None]
    check_densities(rho)
    return rho


def rotated_inputs(unitaries: Sequence[Unitary]) -> np.ndarray:
    """The construction's inputs (U tensor 1)|01>, one row per single-qubit U.

    Each row is U|0> on the first register and |1> on the second, the
    stack :func:`pr_extend_density` takes.
    """
    for u in unitaries:
        if not isinstance(u, Unitary):
            raise TypeError(f"expected a Unitary, got {type(u).__name__}")
        if u.dim != 2:
            raise ValueError(f"expected a single-qubit unitary, got dimension {u.dim}")
    psi = np.zeros((len(unitaries), 4), dtype=complex)
    psi[:, 1::2] = np.array([u.matrix[:, 0] for u in unitaries]).reshape(-1, 2)
    return psi


class ExactFigures(NamedTuple):
    """The construction's figures at one angle, exactly.

    ``density`` is the output density [i][j] of the rotated input,
    ``table`` the effective box [a][b][x][y] and ``bob`` Bob's marginal
    [b][b'] of ``density``; ``marginal_shift`` is the trace distance of
    Bob's two marginals, and the violations are the
    :class:`~boxworld.audit.SweepRow` fields of the same names.
    """

    density: list[list[Fraction]]
    table: list[list[list[list[Fraction]]]]
    bob: list[list[Fraction]]
    marginal_shift: Fraction
    a_to_b_violation: Fraction
    b_to_a_violation: Fraction


def exact_density(c: Fraction, s: Fraction) -> list[list[Fraction]]:
    """Output density of the input c|01> + s|11>, by the branch expansion of
    :func:`pr_extend` in ``Fraction`` arithmetic."""
    psi = [Fraction(0), c, Fraction(0), s]
    nz = [i for i in range(4) if psi[i]]
    rho = [[Fraction(0)] * 4 for _ in range(4)]
    for branch in _branch_outputs(nz):
        out = [Fraction(0)] * 4
        for j, i in branch:
            out[j] += psi[i] / 2
        for j, k in itertools.product(range(4), repeat=2):
            rho[j][k] += out[j] * out[k] / 2 ** len(nz)
    trace = sum(rho[i][i] for i in range(4))
    return [[v / trace for v in row] for row in rho]


def _max_gap(marginals: list[list[list[Fraction]]]) -> Fraction:
    """The largest total-variation gap between the marginals [r][i] (over
    outcomes) of two sender inputs i, over receiver inputs r."""
    return max(sum(abs(p - q) for p, q in zip(m[0], m[1])) / 2 for m in marginals)


def exact_chain(c: Fraction, s: Fraction) -> ExactFigures:
    """The construction at the angle whose cosine is ``c`` and sine ``s``.

    The inputs are c|01> + s|11> (x = 1) and |01> (x = 0), each sent
    through the extension branch by branch with the outputs of
    a XOR b = A AND B and divided by its trace, so (c, s) may be any
    rational pair but (0, 0): the float cosine and sine of an angle, off
    the unit circle by their rounding, give the figures the program's own
    inputs have exactly. Alice reads her register in Z and Bob in Z
    (y = 0) or in |+>/|-> (y = 1); the 1/sqrt(2) of that basis enters
    squared, so every probability is rational. The marginal shift is the
    trace distance of Bob's two marginals, whose difference is a traceless
    real 2x2 matrix [[d, e], [e, -d]]; both marginals have diagonal 1/2,
    so d = 0 and the shift is |e|.
    """
    if c == 0 and s == 0:
        raise ValueError("(0, 0) is no input: the state carries no mass")
    densities = (exact_density(Fraction(1), Fraction(0)), exact_density(c, s))
    # Bob's basis vectors, unnormalized, and their squared norms, by y.
    bob_bases = (((1, 0), (0, 1)), ((1, 1), (1, -1)))
    norms = (1, 2)
    table = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for a, b, x, y in itertools.product((0, 1), repeat=4):
        v = [0] * 4
        v[2 * a], v[2 * a + 1] = bob_bases[y][b]
        rho = densities[x]
        quad = sum(v[i] * v[j] * rho[i][j] for i in range(4) for j in range(4))
        table[a][b][x][y] = quad / norms[y]
    bobs = [
        [[sum(rho[2 * a + b][2 * a + b2] for a in (0, 1)) for b2 in (0, 1)] for b in (0, 1)]
        for rho in densities
    ]
    assert bobs[1][0][0] == bobs[0][0][0] == Fraction(1, 2)  # d = 0
    e = bobs[1][0][1] - bobs[0][0][1]
    bits = (0, 1)
    bob_marg = [[[sum(table[a][b][x][y] for a in bits) for b in bits] for x in bits] for y in bits]
    alice_marg = [[[sum(table[a][b][x][y] for b in bits) for a in bits] for y in bits] for x in bits]
    return ExactFigures(
        density=densities[1],
        table=table,
        bob=bobs[1],
        marginal_shift=abs(e),
        a_to_b_violation=_max_gap(bob_marg),
        b_to_a_violation=_max_gap(alice_marg),
    )


def exact_sweep_row(theta: float) -> SweepRow:
    """The :class:`~boxworld.audit.SweepRow` of ``theta`` from
    :func:`exact_chain` at the float (cos theta, sin theta), each figure
    rounded once.

    The verdicts read the exact table; the witness is Bob's basis that
    attains his shift [[0, e], [e, 0]]: |+> then |-> for e > 0, the other
    way round for e < 0, and at e = 0, where any basis does, |1> then |0>.
    """
    fig = exact_chain(Fraction(math.cos(theta)), Fraction(math.sin(theta)))
    bits = (0, 1)
    entries = [p for a in fig.table for b in a for x in b for p in x]
    sums = [sum(fig.table[a][b][x][y] for a in bits for b in bits) for x in bits for y in bits]
    e, r = fig.bob[0][1], math.sqrt(0.5)
    witness = ((0.0, 1.0), (1.0, 0.0))
    if e:
        witness = ((r, r), (r, -r)) if e > 0 else ((r, -r), (r, r))
    assert fig.marginal_shift == fig.a_to_b_violation
    return SweepRow(
        theta,
        min(entries) >= 0,
        all(v == 1 for v in sums),
        float(fig.a_to_b_violation),
        float(fig.b_to_a_violation),
        witness,
    )


def dumps(state) -> str:
    """The branch lines ``parse`` prints for ``state``, a package or a numpy
    one, at 17 digits: ``weight; amp_re amp_im amp_re amp_im ...``, one per
    branch."""
    lines = []
    for w, ket in state.branches:
        amps = " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in ket.amplitudes)
        lines.append(f"{w:.17g}; {amps}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> HybridState:
    """Inverse of :func:`dumps`: a numpy state from branch lines."""
    branches = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            w_part, amp_part = line.split(";")
            w = float(w_part)
            vals = [float(tok) for tok in amp_part.split()]
        except ValueError as exc:
            raise ExpressionError(f"line {lineno}: {exc}") from exc
        if len(vals) % 2:
            raise ExpressionError(f"line {lineno}: odd number of amplitude components")
        amps = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
        w_bits = int(round(math.log2(len(amps)))) if len(amps) else 0
        if 2**w_bits != len(amps):
            raise ExpressionError(f"line {lineno}: amplitude count is not a power of two")
        if width is None:
            width = w_bits
        elif w_bits != width:
            raise ExpressionError(f"line {lineno}: mixed register widths")
        branches.append((w, Ket(amps)))
    if not branches:
        raise ExpressionError("no branches found")
    return HybridState(width, tuple(branches))


# ---------------------------------------------------------------- protocol


def exact_success_fraction(cs: Fraction, n: int) -> Fraction:
    """Exact rational n-copy success for a rational coherence cs."""
    n = _count("n", n, 1, MIN_ROUNDS_MAX_COPIES)
    cs = Fraction(cs)
    lam_p = (1 + cs) / 2
    lam_m = (1 - cs) / 2
    flat = Fraction(1, 2**n)
    total = Fraction(0)
    for k in range(n + 1):
        total += math.comb(n, k) * abs(lam_p**k * lam_m ** (n - k) - flat)
    # success = 1/2 + D_n/2 with D_n = total/2
    return Fraction(1, 2) + total / 4


def decimal_channel(a: float, n: int) -> tuple[Decimal, Decimal]:
    """(D_n, miss) for |cs| = a in [0, 1), summed in 40-digit decimals.

    The counts k run over a window 40 sqrt(n)/2 beyond both means, which
    by Hoeffding's inequality drops less than 2 exp(-800) of either
    binomial's mass: nothing at 40 digits. B(k) and the rotated
    C(n, k) ((1 + a)/2)^k ((1 - a)/2)^(n-k) = B(k) e^llr_k follow from
    their first terms by the ratio of consecutive binomial coefficients,
    and both are scaled so that the window holds unit mass of B. Then
    miss = sum min(B, B e^llr) and D_n = sum |B e^llr - B| / 2.
    """
    with localcontext(prec=40):
        half = 20 * math.sqrt(n)
        lo = max(0, math.ceil(0.5 * n - half))
        hi = min(n, math.floor(0.5 * n * (1 + a) + half))
        up, down = 1 + Decimal(a), 1 - Decimal(a)
        flat, rotated = Decimal(1), (lo * up.ln() + (n - lo) * down.ln()).exp()
        total = miss = distance = Decimal(0)
        for k in range(lo, hi + 1):
            total += flat
            miss += min(flat, rotated)
            distance += abs(rotated - flat)
            ratio = Decimal(n - k) / (k + 1)
            flat *= ratio
            rotated *= ratio * up / down
        return distance / 2 / total, miss / total


# ---------------------------------------------------------------- dsl
#
# The parser of state expressions as a lexer, ``_tokens``, whose tokens a
# recursive-descent parser pulls one at a time; each token records its
# byte offset as it is read.


@dataclass(frozen=True)
class Token:
    kind: str  # KET | SCALAR | SYMBOL_C | SYMBOL_S | PLUS | ODOT | LPAREN | RPAREN | STAR
    lexeme: str
    offset: int


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _tokens(text: str) -> Iterator[Token]:
    """The tokens of ``text`` in order, read only as far as they are pulled.

    Raises :class:`ParseError` at the first character that starts no token.
    """
    n = len(text)
    i = 0  # the next character to read
    mark, mark_byte = 0, 0  # the start of the latest token and its byte offset

    def byte_at(j: int) -> int:
        # byte offset of character j >= mark; only the characters since mark are encoded
        return mark_byte + len(text[mark:j].encode("utf-8"))

    def _number_end(j: int) -> int:
        k = j
        while k < n and _is_digit(text[k]):
            k += 1
        if k < n and text[k] == "." and k + 1 < n and _is_digit(text[k + 1]):
            k += 1
            while k < n and _is_digit(text[k]):
                k += 1
        return k

    def _sqrt_end(j: int) -> int:
        # expects text[j:] to start with "sqrt("
        k = j + 5
        end = _number_end(k)
        if end == k:
            raise ParseError("expected a number inside sqrt(...)", byte_at(min(k, n - 1)))
        if end >= n or text[end] != ")":
            raise ParseError("unterminated sqrt(...)", byte_at(j))
        return end + 1

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        off = mark_byte = byte_at(i)
        mark = i
        if ch == ODOT_GLYPH:
            yield Token("ODOT", ch, off)
            i += 1
        elif text.startswith("(+)", i):
            yield Token("ODOT", "(+)", off)
            i += 3
        elif ch == "(":
            yield Token("LPAREN", ch, off)
            i += 1
        elif ch == ")":
            yield Token("RPAREN", ch, off)
            i += 1
        elif ch == "+":
            yield Token("PLUS", ch, off)
            i += 1
        elif ch == "*":
            yield Token("STAR", ch, off)
            i += 1
        elif ch == "|":
            j = i + 1
            while j < n and text[j] in "01":
                j += 1
            if j >= n:
                raise ParseError("unterminated ket", off)
            if text[j] != ">":
                if j == i + 1:
                    raise ParseError(f"bad ket label character {text[j]!r}", byte_at(j))
                raise ParseError("expected '>' to close the ket", byte_at(j))
            if j == i + 1:
                raise ParseError("empty ket label", byte_at(j))
            yield Token("KET", text[i : j + 1], off)
            i = j + 1
        elif _is_digit(ch):
            j = _number_end(i)
            if j < n and text[j] == "/":
                k = j + 1
                if k < n and _is_digit(text[k]):
                    k = _number_end(k)
                elif text.startswith("sqrt(", k):
                    if text[i:j] != "1":
                        raise ParseError(
                            "only 1/sqrt(...) is supported for square-root fractions", off
                        )
                    k = _sqrt_end(k)
                else:
                    raise ParseError(
                        "expected digits or sqrt( after '/'", byte_at(k if k < n else j)
                    )
                j = k
            yield Token("SCALAR", text[i:j], off)
            i = j
        elif text.startswith("sqrt(", i):
            j = _sqrt_end(i)
            yield Token("SCALAR", text[i:j], off)
            i = j
        elif ch == "c":
            yield Token("SYMBOL_C", ch, off)
            i += 1
        elif ch == "s":
            yield Token("SYMBOL_S", ch, off)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", off)


def _number(text: str, offset: int) -> float:
    value = float(text)
    if math.isinf(value):
        raise ParseError("number too large for a float", offset)
    return value


def _scalar_from_token(tok: Token) -> Scalar:
    if tok.kind == "SYMBOL_C":
        return SYM_C
    if tok.kind == "SYMBOL_S":
        return SYM_S
    lex, off = tok.lexeme, tok.offset  # an ASCII lexeme: its characters are bytes
    if lex.startswith("1/sqrt("):
        return Scalar("invsqrt", _number(lex[7:-1], off + 7))
    if lex.startswith("sqrt("):
        return Scalar("sqrt", _number(lex[5:-1], off + 5))
    if "/" in lex:
        num, den = lex.split("/")
        numerator = _number(num, off)
        denominator = _number(den, off + len(num) + 1)
        if denominator == 0.0:
            raise ParseError("fraction with zero denominator", off)
        return Scalar("frac", numerator, denominator)
    return Scalar("num", _number(lex, off))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.next: Token | None = None
        self.pulled = False  # whether self.next holds the token after the last one taken
        self.end_offset = len(text.encode("utf-8"))
        self.width: int | None = None
        self.depth = 0

    def peek(self) -> Token | None:
        # a token is read only when the grammar asks for it, so the first error wins
        if not self.pulled:
            self.next, self.pulled = next(self.tokens, None), True
        return self.next

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_offset)
        self.pulled = False
        return tok

    def parse(self) -> StateExpr:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input starting at {tok.lexeme!r}", tok.offset)
        return node

    def expr(self) -> StateExpr:
        parts = [self.term()]
        while (tok := self.peek()) is not None and tok.kind == "ODOT":
            self.take()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else IncoherentSum(tuple(parts))

    def term(self) -> StateExpr:
        parts = [self.factor()]
        while (tok := self.peek()) is not None and tok.kind == "PLUS":
            self.take()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else CoherentSum(tuple(parts))

    def factor(self) -> StateExpr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a ket, scalar, or '('", self.end_offset)
        if tok.kind in ("SCALAR", "SYMBOL_C", "SYMBOL_S"):
            self.take()
            scalar = _scalar_from_token(tok)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "STAR":
                self.take()
                nxt = self.peek()
            if nxt is None or nxt.kind not in ("KET", "LPAREN"):
                raise ParseError(
                    "scalar must be followed by a ket or a parenthesized state", tok.offset
                )
            return Scaled(scalar, self.primary())
        return self.primary()

    def primary(self) -> StateExpr:
        tok = self.take()
        if tok.kind == "KET":
            label = tok.lexeme[1:-1]
            if self.width is None:
                self.width = len(label)
            elif len(label) != self.width:
                raise ParseError(
                    f"ket width {len(label)} differs from {self.width} used earlier", tok.offset
                )
            return BasisKet(label)
        if tok.kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.offset)
            self.depth += 1
            node = self.expr()
            closing = self.peek()
            if closing is None or closing.kind != "RPAREN":
                raise ParseError("unbalanced parenthesis", tok.offset)
            self.take()
            self.depth -= 1
            return node
        raise ParseError(f"expected a ket or '(', got {tok.lexeme!r}", tok.offset)



def reference_parse(text: str) -> StateExpr:
    """:func:`boxworld.dsl.parse` by the lexer and token-pulling parser above."""
    return _Parser(text).parse()
