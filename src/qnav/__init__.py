"""Time-optimal time-independent Hamiltonians under a background drift.

Solvers for carrying a qubit state (or realizing a unitary gate) in the
least time when part of the Hamiltonian is fixed and only the remainder,
bounded in trace norm, can be chosen. Includes an independent
brute-force oracle for every solution it produces.
"""

__version__ = "0.1.0"

from .bloch import (
    CanonicalFrame,
    WindSpec,
    angular_separation,
    build_canonical_frame,
    state_to_bloch,
    transform_wind,
    wind_operator,
)
from .errors import (
    DegenerateTaskError,
    DimensionError,
    NoOpGateError,
    NotHermitianError,
    NotInvariantError,
    NotUnitaryError,
    QnavError,
    TaskFileError,
    WindTooStrongError,
)
from .gate_nav import (
    GateSolution,
    GateTask,
    branch_survey,
    solve_gate,
    solve_gate_min_branch,
)
from .linalg import (
    HermitianOperator,
    StateVector,
    expm_unitary,
    hs_trace_product,
    logm_unitary,
    pauli_compose,
    pauli_decompose,
)
from .oracle import PassageResult, fidelity_curve, first_passage, gate_mismatch
from .state_nav import (
    NavigationSolution,
    NavigationTask,
    VoyageCurve,
    alpha_of_phi,
    omega_of_phi,
    optimize,
    rho_of_phi,
    sweep,
    tau_of_phi,
)
from .subspace import SubspaceReduction, detect_and_reduce, solve_embedded

__all__ = [
    "__version__",
    "QnavError",
    "DimensionError",
    "NotHermitianError",
    "NotUnitaryError",
    "WindTooStrongError",
    "DegenerateTaskError",
    "NotInvariantError",
    "NoOpGateError",
    "TaskFileError",
    "HermitianOperator",
    "StateVector",
    "pauli_compose",
    "pauli_decompose",
    "hs_trace_product",
    "expm_unitary",
    "logm_unitary",
    "CanonicalFrame",
    "WindSpec",
    "state_to_bloch",
    "angular_separation",
    "build_canonical_frame",
    "transform_wind",
    "wind_operator",
    "NavigationTask",
    "NavigationSolution",
    "VoyageCurve",
    "omega_of_phi",
    "rho_of_phi",
    "alpha_of_phi",
    "tau_of_phi",
    "sweep",
    "optimize",
    "GateTask",
    "GateSolution",
    "solve_gate",
    "solve_gate_min_branch",
    "branch_survey",
    "SubspaceReduction",
    "detect_and_reduce",
    "solve_embedded",
    "PassageResult",
    "first_passage",
    "fidelity_curve",
    "gate_mismatch",
]
