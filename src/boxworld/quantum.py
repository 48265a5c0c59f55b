"""Kets, unitaries and density operators of a few qubits, in plain Python.

Kets are column vectors over the computational basis: index k holds the
amplitude of the basis ket whose binary label reads k, the leftmost label
character the most significant bit (so |01> is index 1 of 4). No
global-phase convention is enforced; anything observable is compared at
the density-operator level.

Amplitudes and matrix rows are read-only tuples of Python ``complex``; an
array given to a ket or a unitary is read through its ``tolist()``. Each
of the two checks its value in its constructor, so an instance is its
own proof of validity. A density operator is valid by construction: the
package forms one only from the rows of
:meth:`boxworld.hybrid.HybridState.density_rows` and in
:func:`boxworld.hybrid.bob_state`, whose docstrings state why, so its
constructor freezes the matrix and checks nothing. No code here imports
numpy. :func:`_pairwise` is numpy's order of a sum, the order in which
``density_rows`` sums a density's trace.

Nothing here formats text: ``parse --dump-rho`` prints the rows of
``density_rows`` as they are formed, from :mod:`boxworld.cli`, and builds no
:class:`DensityOperator`. Everything here is a pure function of immutable
values, so instances are safe to share across threads.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import Sequence

from .tolerance import ROUNDING

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
        value, shape = _nested(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"unitary must be square, got shape {shape}")
        if any(not isinstance(row, (list, tuple)) or len(row) != shape[1] for row in value):
            raise ValueError(f"rows of unequal length in a matrix of shape {shape}")
        rows = tuple([tuple(map(complex, row)) for row in value])
        if not all(map(isfinite, chain.from_iterable(rows))):
            raise ValueError("non-finite amplitudes")
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
    """Hermitian, unit-trace, positive-semidefinite matrix, shape (d, d).

    The constructor only freezes the matrix to rows of complex: the
    package's own constructions are valid by construction, within the
    bound :meth:`boxworld.hybrid.HybridState.density_rows` states.
    """

    matrix: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple([tuple(map(complex, row)) for row in self.matrix])
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

