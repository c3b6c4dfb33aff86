"""Time-optimal time-independent Hamiltonians under a background drift.

Solvers for carrying a qubit state (or realizing a unitary gate) in the
least time when part of the Hamiltonian is fixed and only the remainder,
bounded in trace norm, can be chosen. Includes an independent
brute-force oracle for every solution it produces.

The package is lazy (PEP 562): ``import qnav`` loads no submodule and no
numpy; each exported name imports its submodule on first access.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "QnavError": "errors",
    "DimensionError": "errors",
    "NotHermitianError": "errors",
    "NotUnitaryError": "errors",
    "WindTooStrongError": "errors",
    "DegenerateTaskError": "errors",
    "NotInvariantError": "errors",
    "NoOpGateError": "errors",
    "TaskFileError": "errors",
    "HermitianOperator": "linalg",
    "StateVector": "linalg",
    "pauli_compose": "linalg",
    "pauli_decompose": "linalg",
    "hs_trace_product": "linalg",
    "expm_unitary": "linalg",
    "WindSpec": "bloch",
    "state_to_bloch": "bloch",
    "angular_separation": "bloch",
    "build_canonical_frame": "bloch",
    "wind_operator": "bloch",
    "NavigationTask": "state_nav",
    "VoyageCurve": "state_nav",
    "omega_of_phi": "state_nav",
    "rho_of_phi": "state_nav",
    "alpha_of_phi": "state_nav",
    "tau_of_phi": "state_nav",
    "sweep": "state_nav",
    "optimize": "state_nav",
    "GateTask": "gate_nav",
    "solve_gate": "gate_nav",
    "solve_gate_min_branch": "gate_nav",
    "branch_survey": "gate_nav",
    "detect_and_reduce": "subspace",
    "solve_embedded": "subspace",
    "first_passage": "oracle",
    "fidelity_curve": "oracle",
    "gate_mismatch": "oracle",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
