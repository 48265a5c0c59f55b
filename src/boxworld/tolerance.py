"""Every tolerance the package compares a computed figure against.

The paper's claim rests on three verdicts about one table (it is positive,
it is normalized, it signals), and each is a comparison with one of these
values; so are the checks on states, unitaries and the locality LP. No
other module states a tolerance of its own. This module imports nothing,
so the command line can read :data:`DEFAULT_TOL` without loading numpy.
"""

__all__ = ["ROUNDING", "EIGEN_ROUNDING", "DEFAULT_TOL"]

# Rounding of an O(1) figure formed by a few float64 sums and products:
# the hermiticity, trace and unitarity checks, the coherence below which
# min_rounds treats an angle as signal-free, and the least reduced cost or
# pivot entry the float locality simplex acts on.
ROUNDING = 1e-12
# Rounding of an eigen-decomposition, a few hundred ulps: the lowest
# eigenvalue a density may have is -EIGEN_ROUNDING.
EIGEN_ROUNDING = 1e-10
# The default --tol: box validity, the no-signaling verdicts, the audit's
# valid-but-signaling verdict and the largest locality-LP t that is local.
DEFAULT_TOL = 1e-9
