"""Kets, unitaries and density operators of a few qubits, in plain Python.

Kets are column vectors over the computational basis: index k holds the
amplitude of the basis ket whose binary label reads k, the leftmost label
character the most significant bit (so |01> is index 1 of 4). No
global-phase convention is enforced; anything observable is compared at
the density-operator level.

Amplitudes and matrix rows are read-only tuples of Python ``complex``; an
array given to a constructor is read through its ``tolist()``. Each type
checks its value in its constructor, so an instance is its own proof of
validity. numpy is imported only by :class:`DensityOperator`, inside its
check, whose ``eigvalsh`` decides a matrix that the plain-Python
certificate cannot.

Nothing here formats text: ``parse --dump-rho`` prints a density's rows
from :mod:`boxworld.cli`. Everything here is a pure function of immutable
values, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from cmath import isfinite
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, attrgetter
from typing import Sequence

from .tolerance import EIGEN_ROUNDING, ROUNDING

__all__ = ["Ket", "Unitary", "DensityOperator"]


def _nested(value) -> tuple[Sequence, tuple[int, ...]]:
    """``value``, read through ``tolist()`` if it has one, and its shape,
    read down the first entries."""
    value = value.tolist() if hasattr(value, "tolist") else value
    shape, probe = [], value
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        if not probe:
            break
        probe = probe[0]
    return value, tuple(shape)


def _square(value, what: str, non_finite: str) -> tuple[tuple[complex, ...], ...]:
    """The square matrix ``value`` as rows of complex, every entry finite."""
    value, shape = _nested(value)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{what} must be square, got shape {shape}")
    if any(not isinstance(row, (list, tuple)) or len(row) != shape[1] for row in value):
        raise ValueError(f"rows of unequal length in a matrix of shape {shape}")
    rows = tuple([tuple(map(complex, row)) for row in value])
    if not all(map(isfinite, chain.from_iterable(rows))):
        raise ValueError(non_finite)
    return rows


@dataclass(frozen=True)
class Ket:
    """Complex amplitude vector; not necessarily normalized."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        value, shape = _nested(self.amplitudes)
        if len(shape) != 1:
            raise ValueError(f"expected a 1-dimensional array, got shape {shape}")
        amplitudes = tuple(map(complex, value))
        if not all(map(isfinite, amplitudes)):
            raise ValueError("non-finite amplitudes")
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class Unitary:
    """Square matrix with U^dagger U = I.

    The matrix is an array or nested sequences, shape (d, d): finite
    entries and max|U^dagger U - I| within
    :data:`~boxworld.tolerance.ROUNDING`, or ValueError, whose message
    names the deviation.
    """

    matrix: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        rows = _square(self.matrix, "unitary", "non-finite amplitudes")
        cols = list(zip(*rows))
        dev = max(
            abs(sum(a.conjugate() * b for a, b in zip(ci, cj)) - (i == j))
            for i, ci in enumerate(cols)
            for j, cj in enumerate(cols)
        )
        if dev > ROUNDING:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")
        object.__setattr__(self, "matrix", rows)

    @property
    def dim(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    The matrix is an array or nested sequences, shape (d, d): finite
    entries, Hermitian and of unit trace within
    :data:`~boxworld.tolerance.ROUNDING`, no eigenvalue below
    -:data:`~boxworld.tolerance.EIGEN_ROUNDING`, or ValueError, whose
    message names the deviation.

    The eigenvalue bound is first certified by :func:`_pivots`, in plain
    Python. Only a matrix it cannot certify is handed to numpy, whose
    lowest eigenvalue decides; both decide the bound to within the same
    O(d u |m|) rounding.
    """

    matrix: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        rows = _square(self.matrix, "density operator", "non-finite entries")
        d = len(rows)
        herm = max(  # |m_ij - conj(m_ji)| = |m_ji - conj(m_ij)|: on and above the diagonal
            abs(row[j] - rows[j][i].conjugate()) for i, row in enumerate(rows) for j in range(i, d)
        )
        if herm > ROUNDING:
            raise ValueError(f"not Hermitian (deviation {herm:.3g})")
        tr = _trace(rows)
        if abs(tr - 1.0) > ROUNDING:
            raise ValueError(f"trace is {tr:.15g}, not 1")
        if _pivots(rows) is None:
            import numpy as np

            lo = float(np.linalg.eigvalsh(np.array(rows)).min())
            if lo < -EIGEN_ROUNDING:
                raise ValueError(f"negative eigenvalue {lo:.3g}")
        object.__setattr__(self, "matrix", rows)

    @property
    def dim(self) -> int:
        return len(self.matrix)


def _pairwise(xs: Sequence[float]) -> float:
    """numpy's pairwise sum of ``xs``: in order below 4 terms; up to 64, in
    four accumulators over the index mod 4, then the rest in order; above,
    the sums of two halves, the first a multiple of 4 long."""
    n = len(xs)
    if n > 64:
        half = n // 2 - n // 2 % 4
        return _pairwise(xs[:half]) + _pairwise(xs[half:])
    if n < 4:
        return reduce(add, xs, 0.0)
    m = n - n % 4
    r0, r1, r2, r3 = (reduce(add, xs[k + 4 : m : 4], xs[k]) for k in range(4))
    return reduce(add, xs[m:], (r0 + r1) + (r2 + r3))


def _trace(rows: Sequence[Sequence[complex]]) -> complex:
    """The trace as numpy's ``trace`` sums it: each part pairwise, added to 0.0."""
    diag = [row[i] for i, row in enumerate(rows)]
    return complex(0.0 + _pairwise([z.real for z in diag]), 0.0 + _pairwise([z.imag for z in diag]))


def _pivots(rows: Sequence[Sequence[complex]]) -> int | None:
    """The pivots after which a diagonally pivoted Cholesky factorization of
    the Hermitian ``rows`` leaves a Schur complement S with ||S||_F below
    EIGEN_ROUNDING, or None if a pivot is not positive first.

    Then rows = L L^dagger + (0 (+) S), so no eigenvalue lies below
    -||S||_F (Higham 1990; Haynsworth's inertia additivity). Each pivot
    costs O(d^2), and a matrix of rank r stops after r pivots, up to
    rounding. S is updated on and above its diagonal only, and in floats
    where every entry is real; since ||S||_F is at least its largest
    diagonal entry, it is summed only once no diagonal entry reaches
    EIGEN_ROUNDING.
    """
    if any(map(attrgetter("imag"), chain.from_iterable(rows))):
        s = [list(row) for row in rows]
    else:
        s = [[z.real for z in row] for row in rows]
    pivots = 0
    while True:
        diag = [row[i].real for i, row in enumerate(s)]
        if max(map(abs, diag), default=0.0) < EIGEN_ROUNDING:
            # an entry above the diagonal stands for itself and its mirror image
            upper = [math.hypot(*map(abs, row[i + 1 :])) for i, row in enumerate(s)]
            frobenius = math.hypot(*(abs(row[i]) for i, row in enumerate(s)), *upper, *upper)
            if frobenius < EIGEN_ROUNDING:
                return pivots
        pivot = max(diag, default=0.0)
        if not pivot > 0.0:
            return None
        p = diag.index(pivot)
        # column p on and above the diagonal is row i's entry p, below it
        # the conjugate of row p's entry i
        col = [row[p] for row in s[:p]] + [z.conjugate() for z in s[p][p:]]
        for row in s:
            del row[p]
        del s[p], col[p]
        scaled = [z.conjugate() / pivot for z in col]
        for i, (row, c) in enumerate(zip(s, col)):
            row[i:] = [x - c * y for x, y in zip(row[i:], scaled[i:])]
        pivots += 1
