"""Nonlocal-box toolkit.

Boxes as conditional probability tables, a small dense complex-algebra
layer, a linear extension of the extremal binary box to superposed
inputs, and the machinery to quantify exactly how that extension stays
positive and normalized while leaking a signal.
"""

from .boxes import (
    BoxFormatError,
    BoxValidationError,
    ConditionalBox,
    LocalityLPError,
    NoSignalingReport,
    check_no_signaling,
    chsh_value,
    is_local,
    pr_box,
    uniform_box,
)
from .quantum import (
    DensityOperator,
    Ket,
    Unitary,
    basis_ket,
    check_densities,
    density_from_mixture,
    helstrom,
    measure_probs,
    partial_trace,
    trace_distance,
    trace_distances,
)
from .hybrid import (
    BasisKet,
    BranchLimitError,
    CoherentSum,
    ExpressionError,
    HybridState,
    IncoherentSum,
    Scalar,
    Scaled,
    SignalingReport,
    StateExpr,
    SYM_C,
    SYM_S,
    bob_state,
    box_output_state,
    distribute,
    pr_extend_density,
    signaling_witness,
)
from .protocol import (
    ProtocolResult,
    ZeroSignalError,
    exact_success,
    exact_success_fraction,
    min_rounds,
    simulate,
)
from .audit import AuditReport, audit_dynamics, audit_sweep, effective_box

__version__ = "0.1.0"
