"""Mixed coherent/incoherent state algebra and the linear box extension.

Expressions combine basis kets with two different sums. `+` is the
coherent one: amplitudes add, and distributing it across branch lists
pairs every branch of one operand with every branch of the other. The
mixing operator (written ``(+)`` in text, rendered here as odot) is the
incoherent one: it concatenates branch lists, splitting the weight
equally among its operands. Normal-forming an expression under these
rules yields a :class:`HybridState`, a weighted list of coherent
branches whose trace-normalized density operator is the observable
content.

The linearly extended box feeds a pure two-qubit input through the
binary relation a XOR b = A AND B. Each input basis component |AB> has
exactly two admissible outputs, |0,(A AND B)> and |1,(1 XOR A AND B)>,
entering as an equal-weight incoherent pair; amplitudes on the input
distribute linearly across those pairs, and distinct components choose
independently. An input with k nonzero components therefore expands into
2^k output branches of relative weight 2^-k.

The paper's chain, Alice's rotation of |01> by theta followed by the
extended box, is evaluated without expanding branches in
:mod:`boxworld.audit`, which computes every figure that ``signal``,
``scan`` and ``audit`` print in closed form, from integers; :func:`bob_state`
forms Bob's marginal from the same integers at one angle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Iterator, Sequence, Union

from .quantum import DensityOperator, Ket, _pairwise

__all__ = [
    "DEFAULT_BRANCH_CAP",
    "MAX_WIDTH",
    "ExpressionError",
    "BranchLimitError",
    "Scalar",
    "SYM_C",
    "SYM_S",
    "BasisKet",
    "Scaled",
    "CoherentSum",
    "IncoherentSum",
    "StateExpr",
    "HybridState",
    "distribute",
    "bob_state",
]

DEFAULT_BRANCH_CAP = 16
# The widest register a basis ket may name: a state has 2^w amplitudes and
# its density 4^w entries. parse --dump-rho forms and prints those a row at a
# time, from at most DEFAULT_BRANCH_CAP branches of 2^w amplitudes, so its
# memory grows as 2^w, not 4^w; to_density holds all 4^w entries at once.
MAX_WIDTH = 10


class ExpressionError(ValueError):
    """The expression is structurally or semantically invalid."""


class BranchLimitError(ExpressionError):
    """Normal-forming would exceed the configured branch cap."""


_SCALAR_KINDS = ("num", "frac", "sqrt", "invsqrt", "c", "s")


@dataclass(frozen=True)
class Scalar:
    """A scalar coefficient that remembers how it was written.

    Kinds: ``num`` (plain number ``a``), ``frac`` (``a/b``), ``sqrt``
    (sqrt(a)), ``invsqrt`` (1/sqrt(a)), and the named symbols ``c`` / ``s``
    which resolve to cos(theta) / sin(theta) when a state is built.
    """

    kind: str
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _SCALAR_KINDS:
            raise ExpressionError(f"unknown scalar kind {self.kind!r}")

    def value(self, theta: float | None) -> complex:
        if self.kind == "num":
            return complex(self.a)
        if self.kind == "frac":
            if self.b == 0:
                raise ExpressionError("fraction with zero denominator")
            return complex(self.a / self.b)
        if self.kind == "sqrt":
            return complex(math.sqrt(self.a))
        if self.kind == "invsqrt":
            if self.a == 0:
                raise ExpressionError("1/sqrt(0) is undefined")
            return complex(1.0 / math.sqrt(self.a))
        if theta is None:
            raise ExpressionError(f"symbol {self.kind!r} needs an angle to resolve")
        return complex(math.cos(theta) if self.kind == "c" else math.sin(theta))

    def render(self) -> str:
        if self.kind == "num":
            return _render_number(self.a)
        if self.kind == "frac":
            return f"{_render_number(self.a)}/{_render_number(self.b)}"
        if self.kind == "sqrt":
            return f"sqrt({_render_number(self.a)})"
        if self.kind == "invsqrt":
            return f"1/sqrt({_render_number(self.a)})"
        return self.kind


def _render_number(x: float) -> str:
    """Text for a number: the shortest digits that read back as ``x``, positional.

    Integers below 1e15 print without a fraction; no exponent is ever
    written, since the expression grammar has none.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"number {x!r} has no text form in this notation")
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    text = repr(x)
    if "e" in text:  # repr's exponent form, for |x| >= 1e16 or < 1e-4
        from decimal import Decimal

        text = f"{Decimal(text):f}"
    return text


SYM_C = Scalar("c")
SYM_S = Scalar("s")


@dataclass(frozen=True)
class BasisKet:
    """Leaf node: a computational-basis ket labeled over {0, 1}, the leftmost
    character the most significant bit; :func:`distribute` checks the label."""

    label: str


@dataclass(frozen=True)
class Scaled:
    scalar: Scalar
    child: "StateExpr"

    def __post_init__(self) -> None:
        if not isinstance(self.scalar, Scalar):
            raise ExpressionError(f"a prefactor must be a Scalar, got {self.scalar!r}")


@dataclass(frozen=True)
class CoherentSum:
    children: tuple["StateExpr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ExpressionError("coherent sum needs at least one operand")


@dataclass(frozen=True)
class IncoherentSum:
    children: tuple["StateExpr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ExpressionError("incoherent sum needs at least one operand")


StateExpr = Union[BasisKet, Scaled, CoherentSum, IncoherentSum]


@dataclass(frozen=True)
class HybridState:
    """Weighted list of coherent branches over ``width`` qubits.

    Branch kets may be unnormalized; :meth:`density_rows` trace-normalizes,
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
            massive = massive or (w > 0.0 and any(ket.amplitudes))
        if not massive:
            raise ExpressionError("state carries no mass")

    def to_density(self) -> DensityOperator:
        """The density operator whose rows :meth:`density_rows` yields."""
        return DensityOperator(list(self.density_rows()))

    def density_rows(self) -> Iterator[list[float]]:
        """The rows of the branches' sum of w |psi><psi|, divided by its
        trace, one at a time: no more than the branch factors and one row
        is held at once.

        Each ket is first divided by the power of two of its largest
        amplitude, and its term scaled into the frame of the largest term;
        powers of two scale exactly, so no square overflows or underflows,
        and inputs that did neither give the bits of the plain sum. Entry
        (i, j) is inv (sum over the branches of c (v_i v_j)), c and v being
        a branch's scaled weight and amplitudes, the terms added in branch
        order from +0, each formed only where v_i and v_j are both nonzero
        (:func:`_add_row`): the rows' products number the sum over the
        branches of their nonzero amplitudes squared. Leaving the others
        out changes no bit, since the sum starts at +0, so never holds -0,
        and adding a zero leaves it as it is. The diagonal is formed first,
        the same way, and inv = 1/trace, the trace and the division by it
        rounding as numpy's ``trace`` and complex division do.

        Amplitudes must be real, as every expression's are (no scalar kind
        has an imaginary unit); a branch with an imaginary part raises
        ValueError here, not at the first row. The imaginary part of every
        entry is then +0, so a row holds the real parts alone. That makes
        the result valid by construction, within float rounding u = 2^-53
        (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3-4):
        it is exactly symmetric, since float products commute, so
        c (v_i v_j) and c (v_j v_i) are the same bits; its trace is within
        :data:`~boxworld.tolerance.ROUNDING` of 1; and it is a nonnegative
        sum of rank-one terms up to a relative error of O(d u) per entry,
        so its lowest eigenvalue is at least -O(d u), about 1e-13 at the
        widest d = 1024, far inside :data:`~boxworld.tolerance.EIGEN_ROUNDING`.
        """
        if any(z.imag for _, ket in self.branches for z in ket.amplitudes):
            raise ValueError("a density is formed from real amplitudes only")
        frames = []  # per branch: its scaled amplitudes, its term's exponent and mantissa
        for w, ket in self.branches:
            a_exp = math.frexp(max(abs(z.real) for z in ket.amplitudes))[1]
            v = [math.ldexp(z.real, -a_exp) for z in ket.amplitudes]
            w_frac, w_exp = math.frexp(w)
            frames.append((v, w_exp + 2 * a_exp, w_frac if any(v) else 0.0))  # 0 without mass
        top = max(exp for _, exp, frac in frames if frac)  # a branch has mass, by the constructor
        terms = [(v, c) for v, exp, frac in frames if (c := math.ldexp(frac, exp - top))]
        dim = 2**self.width
        diag = [0.0] * dim
        for v, coef in terms:
            diag = [x + coef * (y * y) if y else x for x, y in zip(diag, v)]
        # numpy's x / t is x (1/t) for a real x that is not -0
        inv = 1.0 / (0.0 + _pairwise(diag))

        def rows() -> Iterator[list[float]]:
            for i in range(dim):
                row = [0.0] * dim
                for v, coef in terms:
                    if v[i]:
                        row = _add_row(row, v[i], v, coef)
                yield list(map(inv.__mul__, row))

        return rows()


def _add_row(row: list[float], ui: float, v: list[float], coef: float) -> list[float]:
    """row + coef (ui v), entry j as coef (ui v_j), formed only where v_j is nonzero."""
    return [x + coef * (ui * y) if y else x for x, y in zip(row, v)]


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
    written, with the bits of the plain products and sums, Python's complex
    ones entry by entry, signed zeros included (powers of two scale exactly
    and keep the sign of a zero), save that an amplitude about 2^1021 or
    more below the largest of its branch may lose bits: it enters the
    density only below the smallest normal float. Otherwise every branch is
    divided by the power of two that brings the largest amplitude into
    [1/2, 1): the density is the same, and an amplitude that the plain
    products would leave subnormal, as 10^-320 in
    ``1e-160 (1e-160 |0> + |1>)``, keeps its full precision.
    """
    width, raw = _eval_expr(expr, theta)
    tops = [
        math.frexp(x)[1] + e for _, m, e, _ in raw for z in m if z for x in (z.real, z.imag) if x
    ]
    fl = sys.float_info
    shift = 0 if not tops or (min(tops) >= fl.min_exp and max(tops) <= fl.max_exp) else max(tops)
    return HybridState(width, tuple((w, Ket(_times_pow2(m, e - shift))) for w, m, e, _ in raw))


_Branch = tuple[float, list[complex], int, bool]


def _eval_expr(node: StateExpr, theta: float | None) -> tuple[int, list[_Branch]]:
    """Width and branches (weight, m, e, clean) of an expression, the
    amplitudes of a branch being m 2^e: each scalar's power of two goes to e
    and only its mantissa, in [1/2, 1), multiplies m. ``clean`` marks an m
    with no part -0, as a basis ket's: adding any zero to it changes no bit.
    A prefactor clears the mark, since a negative or zero one, or an
    underflow, can make a -0. Branches may share an m (a mixture's
    operands, a rescale by 2^0), so only a fresh copy is ever written to.
    """
    if isinstance(node, BasisKet):
        if len(node.label) > MAX_WIDTH:
            raise ExpressionError(f"ket width {len(node.label)} exceeds the largest, {MAX_WIDTH}")
        if not node.label or any(ch not in "01" for ch in node.label):
            raise ExpressionError(
                f"basis label must be a nonempty string over 0/1, got {node.label!r}"
            )
        m = [0j] * 2 ** len(node.label)
        m[int(node.label, 2)] = 1 + 0j
        return len(node.label), [(1.0, m, 0, True)]
    if isinstance(node, Scaled):
        factor = node.scalar.value(theta)
        if not (math.isfinite(factor.real) and math.isfinite(factor.imag)):
            raise ExpressionError("a prefactor overflows a float")
        k = math.frexp(max(abs(factor.real), abs(factor.imag)))[1]
        factor = complex(math.ldexp(factor.real, -k), math.ldexp(factor.imag, -k))
        width, branches = _eval_expr(node.child, theta)
        return width, [(w, list(map(factor.__mul__, m)), e + k, False) for w, m, e, _ in branches]
    if isinstance(node, IncoherentSum):
        share = 1.0 / len(node.children)
        width = None
        out: list[_Branch] = []
        for child in node.children:
            w_child, branches = _eval_expr(child, theta)
            if width is None:
                width = w_child
            elif w_child != width:
                raise ExpressionError(
                    f"mixed register widths ({width} and {w_child}) in one expression"
                )
            out.extend((share * w, *rest) for w, *rest in branches)
            if len(out) > DEFAULT_BRANCH_CAP:
                raise BranchLimitError(
                    f"expression expands past the cap of {DEFAULT_BRANCH_CAP} branches"
                )
        return width, out
    if isinstance(node, CoherentSum):
        width = None
        acc: list[_Branch] | None = None
        for child in node.children:
            w_child, branches = _eval_expr(child, theta)
            if width is None:
                width, acc = w_child, branches
                continue
            if w_child != width:
                raise ExpressionError(
                    f"mixed register widths ({width} and {w_child}) in one expression"
                )
            right = [(w, m, e, c, [*compress(range(len(m)), m)]) for w, m, e, c in branches]
            combined = [
                (wl * wr, *_add(ml, el, cl, mr, er, cr, nonzero))
                for wl, ml, el, cl in acc
                for wr, mr, er, cr, nonzero in right
            ]
            if len(combined) > DEFAULT_BRANCH_CAP:
                raise BranchLimitError(
                    f"expression expands past the cap of {DEFAULT_BRANCH_CAP} branches"
                )
            acc = combined
        return width, acc
    raise ExpressionError(f"not a state expression node: {node!r}")


def _add(
    ml: list[complex],
    el: int,
    cl: bool,
    mr: list[complex],
    er: int,
    cr: bool,
    nonzero: list[int],
) -> tuple[list[complex], int, bool]:
    """ml 2^el + mr 2^er as (m, e, clean), in the frame of the larger
    exponent, unless that operand is zero (as after a prefactor 0): a zero
    sets no scale, lest it flush the other operand. ``nonzero`` lists the
    indices of mr's nonzero entries.

    A sum of two parts is -0 only if both are, so a sum with a clean operand
    is clean; where ml is clean and in the same frame, only the entries at
    ``nonzero`` are added, the others being ml's own.
    """
    if el == er and cl:
        out = list(ml)
        for j in nonzero:
            out[j] += mr[j]
        return out, el, True
    e = el if el == er else max(el, er) if any(ml if el > er else mr) else min(el, er)
    m = list(map(add, _times_pow2(ml, el - e), _times_pow2(mr, er - e)))
    return m, e, el == er and (cl or cr)


def _times_pow2(m: Sequence[complex], k: int) -> Sequence[complex]:
    """m 2^k, exactly wherever the result is a normal float; a zero keeps its
    signs. At k = 0 this is m itself, else a new list."""
    if not k:
        return m
    return [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) if z else z for z in m]


def bob_state(theta: float) -> DensityOperator:
    """Second register of the box output; equals (1/2)[[1, cs], [cs, 1]].

    Here cs = cos(theta) sin(theta). At theta = 0 this is the maximally
    mixed state, so any dependence on theta is a marginal Bob can see
    without ever hearing from Alice. The coherence is CS/(2n), from the
    sweep's integers for the float (cos theta, sin theta), rounded once;
    they are imported here so that expressions alone do not load the audit
    layer. Its eigenvalues 1/2 +- g lie in [1/4, 3/4], since |cs| <= 1/2,
    so it is a density operator by construction.
    """
    from .audit import _numerators

    C, S, n = _numerators(theta)
    g = C * S / (2 * n)
    return DensityOperator([[0.5, g], [g, 0.5]])
