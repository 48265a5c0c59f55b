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

The box extension (`pr_extend`) feeds such states through the binary
relation a XOR b = A AND B. Each input basis component |AB> has exactly
two admissible outputs, |0,(A AND B)> and |1,(1 XOR A AND B)>, entering
as an equal-weight incoherent pair; amplitudes on the input distribute
linearly across those pairs. A branch with k nonzero components therefore
expands into 2^k output branches of relative weight 2^-k.
`pr_extend_density` gives the density of that expansion in closed form,
for a whole stack of pure inputs at once, without enumerating branches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .quantum import (
    DensityOperator,
    Ket,
    Unitary,
    basis_ket,
    check_densities,
    density_from_mixture,
    partial_trace,
    rotations,
    trace_distance,
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
    "pr_extend",
    "pr_extend_density",
    "rotated_inputs",
    "box_output_state",
    "bob_state",
    "SignalingReport",
    "signaling_witness",
    "dumps",
    "loads",
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

ScalarLike = Union[Scalar, complex, float, int, str]


@dataclass(frozen=True)
class BasisKet:
    """Leaf node: a computational-basis ket labeled over {0, 1}."""

    label: str


@dataclass(frozen=True)
class Scaled:
    scalar: ScalarLike
    child: "StateExpr"


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
    so only relative weight times squared amplitude matters. The
    ``extrapolated`` flag marks states produced by feeding the box
    extension an input whose branches were superposed on both sides at
    once, where the extension rule is applied per branch beyond anything
    the source construction pins down.
    """

    width: int
    branches: tuple[tuple[float, Ket], ...]
    extrapolated: bool = False

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


def _resolve_scalar(scalar: ScalarLike, theta: float | None) -> complex:
    if isinstance(scalar, Scalar):
        return scalar.value(theta)
    if isinstance(scalar, str):
        if scalar in ("c", "s"):
            return Scalar(scalar).value(theta)
        raise ExpressionError(f"unresolvable scalar symbol {scalar!r}")
    if isinstance(scalar, (int, float, complex)):
        return complex(scalar)
    raise ExpressionError(f"unresolvable scalar {scalar!r}")


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
    raises :class:`BranchLimitError`. An amplitude that overflows a float
    (a scalar like 10^300/10^-300, or nested large prefactors) is rejected
    as non-finite, without a floating-point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        width, raw = _eval_expr(expr, theta, max_branches)
    return HybridState(width, tuple((w, Ket(a)) for w, a in raw))


def _eval_expr(
    node: StateExpr, theta: float | None, cap: int
) -> tuple[int, list[tuple[float, np.ndarray]]]:
    if isinstance(node, BasisKet):
        ket = basis_ket(node.label)
        return len(node.label), [(1.0, np.array(ket.amplitudes))]
    if isinstance(node, Scaled):
        factor = _resolve_scalar(node.scalar, theta)
        width, branches = _eval_expr(node.child, theta, cap)
        return width, [(w, factor * a) for w, a in branches]
    if isinstance(node, IncoherentSum):
        share = 1.0 / len(node.children)
        width = None
        out: list[tuple[float, np.ndarray]] = []
        for child in node.children:
            w_child, branches = _eval_expr(child, theta, cap)
            if width is None:
                width = w_child
            elif w_child != width:
                raise ExpressionError(
                    f"mixed register widths ({width} and {w_child}) in one expression"
                )
            out.extend((share * w, a) for w, a in branches)
            if len(out) > cap:
                raise BranchLimitError(
                    f"expression expands past the cap of {cap} branches"
                )
        return width, out
    if isinstance(node, CoherentSum):
        width = None
        acc: list[tuple[float, np.ndarray]] | None = None
        for child in node.children:
            w_child, branches = _eval_expr(child, theta, cap)
            if width is None:
                width, acc = w_child, branches
                continue
            if w_child != width:
                raise ExpressionError(
                    f"mixed register widths ({width} and {w_child}) in one expression"
                )
            combined = [(wl * wr, al + ar) for wl, al in acc for wr, ar in branches]
            if len(combined) > cap:
                raise BranchLimitError(
                    f"expression expands past the cap of {cap} branches"
                )
            acc = combined
        return width, acc
    raise ExpressionError(f"not a state expression node: {node!r}")


def _pr_output(i: int, choice: int) -> int:
    """Index of the admissible output |a b> of input |AB> = i with a = choice.

    The box relation a XOR b = A AND B fixes b once a is chosen.
    """
    return (choice << 1) | (((i >> 1) & (i & 1)) ^ choice)


def _check_pairing(pairing: str) -> None:
    if pairing not in ("independent", "correlated"):
        raise ValueError(f"pairing must be 'independent' or 'correlated', got {pairing!r}")


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


def pr_extend(
    state: HybridState,
    *,
    pairing: str = "independent",
    max_branches: int = DEFAULT_BRANCH_CAP,
) -> HybridState:
    """Act with the linearly extended binary box on a two-qubit state.

    Every input component |AB> is sent to the equal-weight incoherent pair
    of its two admissible outputs |a b| with a XOR b = A AND B, carrying
    the component's amplitude times 1/2. With ``pairing="independent"``
    (the default) the pair choices of distinct components are expanded
    independently, so a branch with k nonzero components becomes 2^k
    branches of relative weight 2^-k. ``pairing="correlated"`` instead
    locks all components to the same choice (2 branches per input branch);
    it is exposed for exploration only and doubles the off-diagonal
    coherence the default produces.

    Inputs whose branches are superposed on both registers at once are
    processed by the same per-branch rule but the result is flagged
    ``extrapolated``.
    """
    if state.width != 2:
        raise ExpressionError(f"the box extension acts on 2 qubits, got width {state.width}")
    _check_pairing(pairing)
    out: list[tuple[float, Ket]] = []
    extrapolated = state.extrapolated
    for w, ket in state.branches:
        amps = ket.amplitudes
        nz = [i for i in range(4) if amps[i] != 0]
        if not nz:
            out.append((w, ket))
            continue
        if len({i >> 1 for i in nz}) > 1 and len({i & 1 for i in nz}) > 1:
            extrapolated = True
        if pairing == "independent":
            selectors = itertools.product((0, 1), repeat=len(nz))
            share = w / 2 ** len(nz)
        else:
            selectors = ((choice,) * len(nz) for choice in (0, 1))
            share = w / 2.0
        for sel in selectors:
            o = np.zeros(4, dtype=complex)
            for choice, i in zip(sel, nz):
                o[_pr_output(i, choice)] += 0.5 * amps[i]
            out.append((share, Ket(o)))
        if len(out) > max_branches:
            raise BranchLimitError(f"extension expands past the cap of {max_branches} branches")
    return HybridState(2, tuple(out), extrapolated=extrapolated)


def pr_extend_density(psi: np.ndarray, *, pairing: str = "independent") -> np.ndarray:
    """Output densities of :func:`pr_extend` for a stack of pure inputs, in closed form.

    ``psi`` holds one two-qubit input per row, shape (T, 4), normalized or
    not; the result, shape (T, 4, 4), is row by row the density that
    ``pr_extend(HybridState.from_ket(Ket(row)), pairing=pairing)`` expands
    into branches, without the expansion. With O_s the map of pair choice
    s, M their mean and K_i the spread of component i (see the module
    constants), the unnormalized densities are

    * independent pairing: M psi psi^+ M^+ + sum_i |psi_i|^2 K_i, since
      distinct components choose independently and only their means
      interfere;
    * correlated pairing: (1/2) sum_s O_s psi psi^+ O_s^+;

    each then divided by its trace. Every matrix of the stack passes the
    density-operator checks.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != 4:
        raise ExpressionError(f"the box extension acts on rows of 2 qubits, got shape {psi.shape}")
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError("non-finite amplitudes")
    _check_pairing(pairing)
    if pairing == "independent":
        mean = psi @ _EXT_MEAN.T
        weights = psi.real**2 + psi.imag**2
        rho = mean[:, :, None] * mean[:, None, :].conj()
        rho += np.einsum("ti,ijk->tjk", weights, _EXT_SPREAD)
    else:
        out = np.einsum("sji,ti->tsj", _EXT_OUT, psi)
        rho = 0.5 * np.einsum("tsj,tsk->tjk", out, out.conj())
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
    return _rotated_rows(np.array([u.matrix for u in unitaries]).reshape(-1, 2, 2))


def _rotated_rows(unitaries: np.ndarray) -> np.ndarray:
    """:func:`rotated_inputs` for a checked stack of qubit unitaries, shape (T, 2, 2)."""
    psi = np.zeros((len(unitaries), 4), dtype=complex)
    psi[:, 1::2] = unitaries[:, :, 0]
    return psi


def box_output_state(theta: float, *, pairing: str = "independent") -> DensityOperator:
    """Joint output density after the extended box eats the rotated input.

    The input is |01> with the first register rotated by ``theta``, i.e.
    (cos(theta)|0> + sin(theta)|1>) tensor |1>.
    """
    psi = _rotated_rows(rotations([theta]))
    return DensityOperator(pr_extend_density(psi, pairing=pairing)[0])


def bob_state(theta: float) -> DensityOperator:
    """Second register of the box output; equals (1/2)[[1, cs], [cs, 1]].

    Here cs = cos(theta) sin(theta). At theta = 0 this is the maximally
    mixed state, so any dependence on theta is a marginal Bob can see
    without ever hearing from Alice.
    """
    return partial_trace(box_output_state(theta), keep=1, dims=(2, 2))


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
    """Quantify the one-bit signal Alice's local rotation hands to Bob."""
    rho_theta = bob_state(theta)
    rho_zero = bob_state(0.0)
    violation = trace_distance(rho_theta, rho_zero)
    diff = rho_theta.matrix - rho_zero.matrix
    evals, evecs = np.linalg.eigh(diff)
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


def loads(text: str) -> HybridState:
    """Inverse of :func:`dumps`; the extrapolation flag is not serialized."""
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
