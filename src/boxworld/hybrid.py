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
2^k output branches of relative weight 2^-k. `pr_extend_density` gives
the density of that expansion in closed form, for a whole stack of
inputs at once, without enumerating branches.

The paper's chain, Alice's rotation of |01> by theta followed by the
extended box, is `_densities`, evaluated on a stack of angles. Every
figure the package prints reads that stack: the audit's sweep a chunk
at a time, `signaling_witness` the two rows [0, theta], and
`box_output_state` and `bob_state` one row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .quantum import (
    DensityOperator,
    Ket,
    basis_ket,
    check_densities,
    density_from_mixture,
    rotations,
    trace_distances,
)

__all__ = [
    "DEFAULT_BRANCH_CAP",
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
    "pr_extend_density",
    "box_output_state",
    "bob_state",
    "SignalingReport",
    "signaling_witness",
    "dumps",
]

DEFAULT_BRANCH_CAP = 16


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
    """Leaf node: a computational-basis ket labeled over {0, 1}."""

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

    @classmethod
    def from_ket(cls, ket: Ket) -> "HybridState":
        width = int(round(math.log2(ket.dim)))
        if 2**width != ket.dim:
            raise ExpressionError(f"ket dimension {ket.dim} is not a power of two")
        return cls(width, ((1.0, ket),))

    def to_density(self) -> DensityOperator:
        return density_from_mixture(self.branches)


def distribute(
    expr: StateExpr, theta: float | None = None, *, max_branches: int = DEFAULT_BRANCH_CAP
) -> HybridState:
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

    ``theta`` binds the named symbols c and s. Exceeding ``max_branches``
    raises :class:`BranchLimitError`. A scalar that itself overflows a
    float (10^300/10^-300) is an error. Each branch carries a power of two
    besides its amplitudes, so nested prefactors of 10^200 or 10^-200, or
    branches 2^600 apart, neither overflow nor underflow. Where every
    amplitude is a normal float the branches come out at the scale
    written, with the bits of the plain products and sums (powers of two
    scale exactly), save that an amplitude about 2^1021 or more below the
    largest of its branch may lose bits: it enters the density only below
    the smallest normal float. Otherwise every branch is divided by the
    power of two that brings the largest amplitude into [1/2, 1): the
    density is the same, and an amplitude that the plain products would
    leave subnormal, as 10^-320 in ``1e-160 (1e-160 |0> + |1>)``, keeps
    its full precision.
    """
    width, raw = _eval_expr(expr, theta, max_branches)
    amps = np.array([m for _, m, _ in raw])
    exps = np.array([[e] for _, _, e in raw])
    frac, tops = np.frexp(amps.view(float))
    tops = (tops + exps)[frac != 0.0].tolist()
    fl = sys.float_info
    normal = not tops or (min(tops) >= fl.min_exp and max(tops) <= fl.max_exp)
    scaled = _pow2_times(amps, exps if normal else exps - max(tops))
    return HybridState(width, tuple((w, Ket(m)) for (w, _, _), m in zip(raw, scaled)))


def _eval_expr(
    node: StateExpr, theta: float | None, cap: int
) -> tuple[int, list[tuple[float, np.ndarray, int]]]:
    """Width and branches (weight, m, e) of an expression, the amplitudes
    of a branch being m 2^e: each scalar's power of two goes to e and only
    its mantissa, in [1/2, 1), multiplies m.
    """
    if isinstance(node, BasisKet):
        ket = basis_ket(node.label)
        return len(node.label), [(1.0, ket.amplitudes, 0)]
    if isinstance(node, Scaled):
        factor = node.scalar.value(theta)
        if not (math.isfinite(factor.real) and math.isfinite(factor.imag)):
            raise ExpressionError("a prefactor overflows a float")
        k = math.frexp(max(abs(factor.real), abs(factor.imag)))[1]
        factor = complex(math.ldexp(factor.real, -k), math.ldexp(factor.imag, -k))
        width, branches = _eval_expr(node.child, theta, cap)
        return width, [(w, factor * m, e + k) for w, m, e in branches]
    if isinstance(node, IncoherentSum):
        share = 1.0 / len(node.children)
        width = None
        out: list[tuple[float, np.ndarray, int]] = []
        for child in node.children:
            w_child, branches = _eval_expr(child, theta, cap)
            if width is None:
                width = w_child
            elif w_child != width:
                raise ExpressionError(
                    f"mixed register widths ({width} and {w_child}) in one expression"
                )
            out.extend((share * w, m, e) for w, m, e in branches)
            if len(out) > cap:
                raise BranchLimitError(
                    f"expression expands past the cap of {cap} branches"
                )
        return width, out
    if isinstance(node, CoherentSum):
        width = None
        acc: list[tuple[float, np.ndarray, int]] | None = None
        for child in node.children:
            w_child, branches = _eval_expr(child, theta, cap)
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
            if len(combined) > cap:
                raise BranchLimitError(
                    f"expression expands past the cap of {cap} branches"
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
    branch expansion the module docstring describes, without the
    expansion. With O_s the map of pair choice s, M their mean and K_i the
    spread of component i (see the module constants), the unnormalized
    density is M psi psi^+ M^+ + sum_i |psi_i|^2 K_i, since distinct
    components choose independently and only their means interfere; each
    is then divided by its trace. Every matrix of the stack passes the
    density-operator checks.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != 4:
        raise ExpressionError(f"the box extension acts on rows of 2 qubits, got shape {psi.shape}")
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError("non-finite amplitudes")
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


def _rotated_rows(unitaries: np.ndarray) -> np.ndarray:
    """The construction's inputs (U tensor 1)|01>, one row per U of a checked
    stack of qubit unitaries, shape (T, 2, 2): U|0> on the first register
    and |1> on the second, the stack :func:`pr_extend_density` takes.
    """
    psi = np.zeros((len(unitaries), 4), dtype=complex)
    psi[:, 1::2] = unitaries[:, :, 0]
    return psi


def _densities(thetas) -> np.ndarray:
    """The paper's chain for a whole stack of angles: the output densities
    of the extended box, shape (T, 4, 4), for the inputs (U tensor 1)|01>
    with U the plane rotation by each angle. The rotations are checked in
    one pass, and the densities in one pass by :func:`pr_extend_density`.
    """
    return pr_extend_density(_rotated_rows(rotations(thetas)))


def _bob_marginals(rho: np.ndarray) -> np.ndarray:
    """Second-register marginals of two-qubit densities, shape (..., 2, 2)."""
    return np.einsum("...abac->...bc", rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))


def box_output_state(theta: float) -> DensityOperator:
    """Joint output density after the extended box eats the rotated input.

    The input is |01> with the first register rotated by ``theta``, i.e.
    (cos(theta)|0> + sin(theta)|1>) tensor |1>: the one row of
    :func:`_densities` at ``theta``.
    """
    return DensityOperator(_densities([theta])[0])


def bob_state(theta: float) -> DensityOperator:
    """Second register of the box output; equals (1/2)[[1, cs], [cs, 1]].

    Here cs = cos(theta) sin(theta). At theta = 0 this is the maximally
    mixed state, so any dependence on theta is a marginal Bob can see
    without ever hearing from Alice.
    """
    return DensityOperator(_bob_marginals(_densities([theta]))[0])


@dataclass(frozen=True)
class SignalingReport:
    """How far Alice's rotation choice moves Bob's marginal, and what detects it.

    ``a_to_b_violation`` is the trace distance between Bob's marginals with
    and without the rotation, i.e. sin(2 theta)/4. ``witness_basis`` is the
    measurement basis achieving that distance as a total-variation gap
    (the eigenbasis of the marginal difference; the |+>/|-> pair whenever
    the violation is nonzero).
    """

    theta: float
    a_to_b_violation: float
    witness_basis: tuple[Ket, Ket]


def signaling_witness(theta: float) -> SignalingReport:
    """Quantify the one-bit signal Alice's local rotation hands to Bob.

    Bob's marginals without and with the rotation are the two rows of one
    :func:`_densities` call on [0, theta], the stack a sweep starts with,
    so the violation is bit for bit the sweep's figure at ``theta``.
    """
    bob_zero, bob_theta = _bob_marginals(_densities([0.0, theta]))
    violation = float(trace_distances(bob_theta, bob_zero))
    evals, evecs = np.linalg.eigh(bob_theta - bob_zero)
    order = np.argsort(evals)[::-1]
    vectors = []
    for idx in order:
        v = evecs[:, idx]
        lead = np.argmax(np.abs(v))
        phase = v[lead] / abs(v[lead]) if abs(v[lead]) > 0 else 1.0
        vectors.append(Ket(v / phase))
    return SignalingReport(theta, violation, (vectors[0], vectors[1]))


def dumps(state: HybridState, digits: int = 17) -> str:
    """One branch per line: ``weight; amp_re amp_im amp_re amp_im ...``."""
    lines = []
    for w, ket in state.branches:
        amps = " ".join(f"{z.real:.{digits}g} {z.imag:.{digits}g}" for z in ket.amplitudes)
        lines.append(f"{w:.{digits}g}; {amps}")
    return "\n".join(lines) + "\n"

