"""Every tolerance the package compares a computed figure against.

The paper's claim rests on three verdicts about one table (it is positive,
it is normalized, it signals), and each is a comparison with one of these
values; so are the checks on unitaries and the locality LP, and the bounds
within which a density the package forms is valid by construction. No
other module states a tolerance of its own. This module imports nothing,
so the command line can read :data:`DEFAULT_TOL` without loading numpy.
"""

__all__ = ["ROUNDING", "EIGEN_ROUNDING", "DEFAULT_TOL"]

# Rounding of an O(1) figure formed by a few float64 sums and products:
# the unitarity checks, the distance of a density's trace from 1, the
# coherence below which min_rounds treats an angle as signal-free, and the
# least reduced cost or pivot entry the float locality simplex acts on.
ROUNDING = 1e-12
# Rounding of an eigen-decomposition, a few hundred ulps: the lowest
# eigenvalue a density may have is -EIGEN_ROUNDING. The package checks it
# nowhere: HybridState.density_rows forms a density valid by construction, to
# within O(d u) of positive, and the tests hold that density to this bound.
EIGEN_ROUNDING = 1e-10
# The default --tol: box validity, the no-signaling verdicts, the audit's
# valid-but-signaling verdict and the largest locality-LP t that is local.
DEFAULT_TOL = 1e-9
