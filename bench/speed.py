"""The machine's speed, read from a fixed kernel that does not use the package.

Each vCPU of the shared machine this benchmark was built on runs at a few
discrete speeds, from about 0.5 to 1.4 times its median, and moves
between them within a second, independently of the other vCPU; a
pure-Python loop shows the same levels. Uncorrected, a run reads which
minutes it fell in as much as what the program costs. So a short kernel
of small complex matrix products, a Kronecker product, a Hermitian
eigensolve and a Python loop, the kind of work the package spends its
time in, runs right before and after every timed operation and every
set-up sample, and the measured time is divided by the kernel's time
relative to ``NOMINAL_S``. Reported times are the program's times at the
machine speed at which the kernel takes ``NOMINAL_S``. The benchmark pins
itself and the interpreters it starts to one CPU, so that the kernel
runs where the work did.

The kernel touches nothing of the package, so a change to the program
moves the corrected times in full. What it cannot tell apart is a change
that slows the machine for everything that runs next to the program, for
example a program that leaves a busy thread behind.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the machine the benchmark was built on
# (2 shared vCPUs, Intel Xeon, Python 3.11, numpy 2.4).
NOMINAL_S = 1.1e-3
ROUNDS = 12
LOOP = 600
REPEATS = 3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_B = _rng.standard_normal((2, 2))


def _kernel() -> float:
    x = _A
    for _ in range(ROUNDS):
        x = (_A @ x) / np.trace(x @ x.conj().T).real
        np.kron(_B, _B)
        np.linalg.eigh(x + x.conj().T)
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return float(x[0, 0].real) + s


def factor() -> float:
    """The kernel's time over ``NOMINAL_S``: above 1 while the machine is slow.

    The fastest of three runs, so that a first run in caches another
    process has just used, or one hit by an interrupt, does not count.
    """
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times) / NOMINAL_S
