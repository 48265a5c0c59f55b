"""Dense complex linear algebra for few-qubit states.

Kets are column vectors over a labeled computational basis; the leftmost
label character is the most significant bit, so ``basis_ket("01")`` puts
amplitude 1 at index 1 of 4. No global-phase convention is enforced;
anything observable is compared at the density-operator level.

Everything here is a pure function of immutable values, so instances are
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerance import EIGEN_ROUNDING, ROUNDING

__all__ = [
    "Ket",
    "Unitary",
    "DensityOperator",
    "check_densities",
    "check_unitaries",
    "basis_ket",
    "dumps_density_csv",
]


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


def dumps_density_csv(rho: DensityOperator, digits: int = 17) -> str:
    """CSV dump, one line per matrix row, entries as re,im pairs.

    Each row is formatted by one ``%`` pattern from its real and imaginary
    parts in order, the float view of the row.
    """
    row = ",".join([f"%.{digits}g"] * (2 * rho.dim)) + "\n"
    return "".join([row % tuple(parts) for parts in rho.matrix.view(float).tolist()])
