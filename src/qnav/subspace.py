"""Reduction of n-dimensional tasks to the qubit solver.

When the background Hamiltonian maps the span of the initial and target
states into itself, the transport problem collapses to a qubit problem
on that span. The optimal control then lives entirely on the block and
the orthogonal complement just evolves under the background.
"""

from dataclasses import dataclass, replace

import numpy as np

from .bloch import distinct_separation
from .errors import NotInvariantError
from .linalg import HermitianOperator, StateVector
from .oracle import require_passed, solution_checks
from .state_nav import NavigationTask, optimize

INVARIANCE_TOL = 1e-9

__all__ = [
    "INVARIANCE_TOL",
    "SubspaceReduction",
    "detect_and_reduce",
    "solve_embedded",
]


@dataclass(frozen=True, eq=False)
class SubspaceReduction:
    """Orthonormal two-state basis and the background restricted to it.

    basis columns are e1 = psi_initial and e2, the Gram-Schmidt
    remainder of psi_final. h0_block is the traceless part of the
    restricted background; h0_trace_part is half the block trace, the
    identity coefficient split off within the block.
    """

    basis: np.ndarray
    h0_block: HermitianOperator
    h0_trace_part: float
    invariance_residual: float

    def __post_init__(self):
        b = np.array(self.basis, dtype=complex, copy=True)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)


def detect_and_reduce(task):
    """Two-state block of the background, or NotInvariantError.

    The invariance residual is the largest leak ||(I - P) h0 e_k|| of
    the background applied to the block basis, P projecting onto the
    block. Residuals above INVARIANCE_TOL mean the problem genuinely
    needs a higher-dimensional search, which is out of scope.
    """
    overlap, _ = distinct_separation(task.psi_initial, task.psi_final)
    e1 = task.psi_initial.amplitudes
    rem = task.psi_final.amplitudes - overlap * e1
    e2 = rem / np.linalg.norm(rem)
    basis = np.column_stack([e1, e2])

    h0e = task.h0.matrix @ basis
    inside = basis @ (basis.conj().T @ h0e)
    leak = h0e - inside
    residual = float(np.max(np.linalg.norm(leak, axis=0)))
    if residual > INVARIANCE_TOL:
        raise NotInvariantError(
            f"background couples the two-state block to its complement "
            f"(residual {residual:.3e}); no reduction applies"
        )
    block = basis.conj().T @ h0e
    trace_part = float(np.real(block[0, 0] + block[1, 1])) / 2.0
    traceless = HermitianOperator(block - trace_part * np.eye(2))
    return SubspaceReduction(
        basis=basis,
        h0_block=traceless,
        h0_trace_part=trace_part,
        invariance_residual=residual,
    )


def solve_embedded(task):
    """Optimal n-dimensional Hamiltonians via the qubit block solution.

    The total Hamiltonian is the embedded block solution plus the
    background restricted to the orthogonal complement, so the control
    is supported on the block alone. For n = 2 this defers to the
    direct solver outright.
    """
    red = detect_and_reduce(task)
    n = task.psi_initial.dim
    if n == 2:
        return optimize(task)

    basis = red.basis
    block_h0 = HermitianOperator(
        red.h0_block.matrix + red.h0_trace_part * np.eye(2)
    )
    sub_task = NavigationTask(
        psi_initial=StateVector(np.array([1.0, 0.0], dtype=complex)),
        psi_final=StateVector(basis.conj().T @ task.psi_final.amplitudes),
        h0=block_h0,
    )
    sol2 = optimize(sub_task)

    proj = basis @ basis.conj().T
    comp = np.eye(n) - proj
    h_total = HermitianOperator(
        basis @ sol2.h_total.matrix @ basis.conj().T + comp @ task.h0.matrix @ comp
    )
    h_control = HermitianOperator(h_total.matrix - task.h0.matrix)
    checks = solution_checks(
        h_total, h_control, task.h0, sol2.tau_star, states=(task.psi_initial, task.psi_final)
    )
    require_passed(checks, "embedded")
    return replace(
        sol2,
        h_total=h_total,
        h_control=h_control,
        fidelity_check=checks["fidelity"].value,
        constraint_residual=checks["control_budget"].value,
    )
