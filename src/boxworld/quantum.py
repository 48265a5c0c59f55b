"""Dense complex linear algebra for few-qubit states.

Kets are column vectors over a labeled computational basis; the leftmost
label character is the most significant bit, so ``basis_ket("01")`` puts
amplitude 1 at index 1 of 4. No global-phase convention is enforced;
anything observable is compared at the density-operator level.

Everything here is a pure function of immutable values, so instances are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Ket",
    "Unitary",
    "DensityOperator",
    "check_densities",
    "check_unitaries",
    "basis_ket",
    "plus_ket",
    "minus_ket",
    "identity",
    "rotation",
    "rotations",
    "tensor",
    "apply",
    "density_from_mixture",
    "partial_trace",
    "trace_distance",
    "trace_distances",
    "helstrom",
    "measure_probs",
    "dumps_density_csv",
]

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
UNITARITY_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
ORTHONORMALITY_ATOL = 1e-10


def _frozen_complex(value: np.ndarray | Sequence, ndim: int) -> np.ndarray:
    arr = np.array(value, dtype=complex)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("non-finite amplitudes")
    arr.setflags(write=False)
    return arr


def _pow2_scaled(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each amplitude vector (the last axis) times 2^-e, e the exponent of
    its largest component (0 for a zero vector), and the exponents e.

    Powers of two scale exactly, so squaring the scaled amplitudes
    neither overflows nor underflows whatever the size of the input.
    """
    parts = amps.view(float)
    e = np.frexp(np.abs(parts).max(axis=-1, initial=0.0))[1]
    return np.ldexp(parts, -e[..., None]).view(complex), e


@dataclass(frozen=True)
class Ket:
    """Complex amplitude vector; not necessarily normalized."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _frozen_complex(self.amplitudes, 1))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        """Euclidean norm; ``math.inf`` where it exceeds the largest float."""
        scaled, e = _pow2_scaled(self.amplitudes)
        frac, exp = math.frexp(float(np.linalg.norm(scaled)))
        exp += int(e)
        return math.ldexp(frac, exp) if exp <= 1024 else math.inf

    def normalized(self) -> Ket:
        scaled, _ = _pow2_scaled(self.amplitudes)
        n = float(np.linalg.norm(scaled))
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(scaled / n)

    def outer(self) -> np.ndarray:
        """The rank-one matrix |psi><psi| as a plain array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def __add__(self, other: Ket) -> Ket:
        if not isinstance(other, Ket):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("cannot add kets of different dimension")
        return Ket(self.amplitudes + other.amplitudes)

    def __rmul__(self, scalar: complex) -> Ket:
        return Ket(complex(scalar) * self.amplitudes)


@dataclass(frozen=True)
class Unitary:
    """Square matrix with U^dagger U = I within 1e-12."""

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
    stack is checked in one pass: Hermitian within HERMITICITY_ATOL, unit
    trace within TRACE_ATOL, no eigenvalue below EIGENVALUE_FLOOR. The
    message names the worst matrix's deviation.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"density operator must be square, got shape {m.shape}")
    herm = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0)
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"not Hermitian (deviation {herm:.3g})")
    tr = np.trace(m, axis1=-2, axis2=-1).ravel()
    off = np.abs(tr - 1.0)
    if np.max(off, initial=0.0) > TRACE_ATOL:
        raise ValueError(f"trace is {tr[np.argmax(off)]:.15g}, not 1")
    lo = float(np.linalg.eigvalsh(m).min(initial=np.inf))
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {lo:.3g}")


def check_unitaries(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of ``m`` is unitary.

    ``m`` is one matrix or a stack of them, shape (..., d, d); the whole
    stack is checked in one pass: finite entries and max|U^dagger U - I|
    within UNITARITY_ATOL. The message names the worst matrix's deviation.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"unitary must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite amplitudes")
    gram = np.swapaxes(m, -1, -2).conj() @ m
    dev = np.max(np.abs(gram - np.eye(m.shape[-1])), initial=0.0)
    if dev > UNITARITY_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")


def basis_ket(label: str) -> Ket:
    """Computational-basis ket for a binary label, e.g. ``basis_ket("01")``."""
    if not label or any(ch not in "01" for ch in label):
        raise ValueError(f"basis label must be a nonempty string over 0/1, got {label!r}")
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[int(label, 2)] = 1.0
    return Ket(amps)


def plus_ket() -> Ket:
    return Ket(np.array([1.0, 1.0]) / math.sqrt(2.0))


def minus_ket() -> Ket:
    return Ket(np.array([1.0, -1.0]) / math.sqrt(2.0))


def identity(dim: int) -> Unitary:
    return Unitary(np.eye(dim))


def _cos_sin(theta: float) -> tuple[float, float]:
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    return math.cos(theta), math.sin(theta)


def rotation(theta: float) -> Unitary:
    """Single-qubit rotation taking |0> to cos(theta)|0> + sin(theta)|1>."""
    c, s = _cos_sin(theta)
    return Unitary(np.array([[c, -s], [s, c]]))


def rotations(thetas: Sequence[float]) -> np.ndarray:
    """The matrices of ``rotation(theta)`` for every angle, as one stack (T, 2, 2).

    Entry for entry the same floats as :func:`rotation`, checked in one
    pass by :func:`check_unitaries` instead of one ``Unitary`` per angle.
    """
    c, s = np.array([_cos_sin(t) for t in thetas], dtype=float).reshape(-1, 2).T
    m = np.array([[c, -s], [s, c]], dtype=complex).transpose(2, 0, 1)
    check_unitaries(m)
    return m


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


def density_from_mixture(branches) -> DensityOperator:
    """Trace-normalized sum of weighted pure projectors.

    ``branches`` is an iterable of (weight, Ket) with weights >= 0; kets may
    be unnormalized. The result is sum_i w_i |psi_i><psi_i| divided by its
    trace, which is the defined semantics (any overall weight or amplitude
    scale drops out). At least one branch must carry positive mass.

    Each weight and each ket is scaled by the power of two of its largest
    component before anything is squared, and the terms are summed in the
    frame of the largest one. Powers of two scale exactly, so finite
    inputs of any size neither overflow nor underflow, and inputs that
    did neither before give the same bits as the plain sum.
    """
    weights, kets = [], []
    for w, ket in branches:
        w = float(w)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"branch weight must be finite and >= 0, got {w}")
        if kets and ket.dim != len(kets[0]):
            raise ValueError("mixture branches have mismatched dimensions")
        weights.append(w)
        kets.append(ket.amplitudes)
    if not kets:
        raise ValueError("mixture needs at least one branch")
    v, a_exps = _pow2_scaled(np.array(kets))
    frames = []  # per branch: its term's exponent and mantissa
    for w, a_exp, nonzero in zip(weights, a_exps.tolist(), v.any(axis=1).tolist()):
        w_frac, w_exp = math.frexp(w)
        frames.append((w_exp + 2 * a_exp, w_frac if nonzero else 0.0))
    top = max((exp for exp, frac in frames if frac > 0.0), default=None)
    if top is None:
        raise ValueError("mixture has zero total mass")
    coefs = np.array([math.ldexp(frac, exp - top) for exp, frac in frames])
    terms = coefs[:, None, None] * (v[:, :, None] * v[:, None, :].conj())
    acc = np.zeros(terms.shape[1:], dtype=complex)
    for term in terms:
        acc += term
    return DensityOperator(acc / float(acc.trace().real))


def partial_trace(rho: DensityOperator, keep: int, dims: Sequence[int]) -> DensityOperator:
    """Reduce to the ``keep``-th tensor factor; trace is preserved."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims) or int(np.prod(dims)) != rho.dim:
        raise ValueError(f"factor dimensions {dims} do not multiply to {rho.dim}")
    n = len(dims)
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for {n} factors")
    rows = [chr(ord("a") + k) for k in range(n)]
    cols = list(rows)
    cols[keep] = chr(ord("a") + n)
    sub = f"{''.join(rows)}{''.join(cols)}->{rows[keep]}{cols[keep]}"
    reduced = np.einsum(sub, rho.matrix.reshape(*dims, *dims))
    return DensityOperator(reduced)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma; in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return float(trace_distances(rho.matrix, sigma.matrix))


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace distance between matching Hermitian matrices of two stacks.

    Shapes broadcast over the leading axes, (..., d, d); the result has
    shape (...).
    """
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


def helstrom(
    rho0: DensityOperator, rho1: DensityOperator, prior0: float = 0.5
) -> tuple[float, np.ndarray]:
    """Optimal single-shot discrimination success and the witness projector.

    Success probability is 1/2 + (1/2) * tr|p1 rho1 - p0 rho0|. The witness
    is the projector onto the strictly positive eigenspace of that weighted
    difference; answering "rho1" exactly on its support achieves the bound.
    """
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    prior0 = float(prior0)
    if not 0.0 <= prior0 <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {prior0}")
    weighted = (1.0 - prior0) * rho1.matrix - prior0 * rho0.matrix
    evals, evecs = np.linalg.eigh(weighted)
    success = 0.5 + 0.5 * float(np.abs(evals).sum())
    pos = evecs[:, evals > 0.0]
    witness = pos @ pos.conj().T
    return success, witness


def measure_probs(rho: DensityOperator, basis: Sequence[Ket]) -> np.ndarray:
    """Outcome probabilities <b_k| rho |b_k> for an orthonormal basis."""
    if len(basis) != rho.dim:
        raise ValueError(f"basis has {len(basis)} kets but the space has dimension {rho.dim}")
    b = np.column_stack([k.amplitudes for k in basis])
    gram_dev = np.max(np.abs(b.conj().T @ b - np.eye(rho.dim)))
    if gram_dev > ORTHONORMALITY_ATOL:
        raise ValueError(f"basis is not orthonormal (deviation {gram_dev:.3g})")
    return np.real(np.einsum("ik,ij,jk->k", b.conj(), rho.matrix, b))


def dumps_density_csv(rho: DensityOperator, digits: int = 17) -> str:
    """CSV dump, one line per matrix row, entries as re,im pairs."""
    lines = []
    for row in rho.matrix:
        fields = []
        for z in row:
            fields.append(f"{z.real:.{digits}g}")
            fields.append(f"{z.imag:.{digits}g}")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
