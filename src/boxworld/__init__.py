"""Nonlocal-box toolkit.

Boxes as conditional probability tables, a small dense complex-algebra
layer, a linear extension of the extremal binary box to superposed
inputs, and the machinery to quantify exactly how that extension stays
positive and normalized while leaking a signal.

The six layer modules are registered lazily: ``boxworld.boxes`` and the
others are in ``sys.modules`` and attributes of this package from the
start, but a module's code (and numpy with it) runs only on the first
attribute read from it. So a command loads only the chain it runs, and
``import boxworld`` loads no numpy. The names re-exported here resolve
on first use, through the module-level ``__getattr__`` (PEP 562).
Python 3.11's ``importlib.util.LazyLoader`` is not thread-safe: two
threads that touch one unloaded layer at the same moment may both run
it. The command line is single-threaded.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

# Each layer and the names this package re-exports from it.
_EXPORTS = {
    "quantum": (
        "DensityOperator",
        "Ket",
        "Unitary",
        "basis_ket",
        "check_densities",
        "density_from_mixture",
        "helstrom",
        "measure_probs",
        "partial_trace",
        "trace_distance",
        "trace_distances",
    ),
    "boxes": (
        "BoxFormatError",
        "BoxValidationError",
        "ConditionalBox",
        "LocalityLPError",
        "NoSignalingReport",
        "check_no_signaling",
        "chsh_value",
        "is_local",
        "pr_box",
        "uniform_box",
    ),
    "hybrid": (
        "BasisKet",
        "BranchLimitError",
        "CoherentSum",
        "ExpressionError",
        "HybridState",
        "IncoherentSum",
        "Scalar",
        "Scaled",
        "SignalingReport",
        "StateExpr",
        "SYM_C",
        "SYM_S",
        "bob_state",
        "box_output_state",
        "distribute",
        "pr_extend_density",
        "signaling_witness",
    ),
    "protocol": (
        "ProtocolResult",
        "ZeroSignalError",
        "exact_success",
        "exact_success_fraction",
        "min_rounds",
        "simulate",
    ),
    "dsl": (),
    "audit": ("AuditReport", "audit_dynamics", "audit_sweep", "effective_box"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}


def _lazy(layer):
    spec = PathFinder.find_spec(f"{__name__}.{layer}", __path__)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)  # marks the module lazy; runs none of its code
    return module


quantum, boxes, hybrid, protocol, dsl, audit = map(_lazy, _EXPORTS)

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted([*globals(), *_HOME])
