"""Reduction of n-dimensional tasks to the qubit solver.

When the background Hamiltonian maps the span of the initial and target
states into itself, the transport problem collapses to a qubit problem
on that span. The optimal control then lives entirely on the block and
the orthogonal complement just evolves under the background.
"""

from dataclasses import dataclass

import numpy as np

from .bloch import distinct_separation
from .errors import NotInvariantError
from .linalg import HermitianOperator, StateVector
from .state_nav import NavigationTask, _answer, _verified, optimize

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
    remainder of psi_final. h0_block is the restricted background
    basis^dagger h0 basis, trace included.
    """

    basis: np.ndarray
    h0_block: HermitianOperator
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
    block = basis.conj().T @ h0e
    leak = h0e - basis @ block
    residual = float(np.max(np.linalg.norm(leak, axis=0)))
    if residual > INVARIANCE_TOL:
        raise NotInvariantError(
            f"background couples the two-state block to its complement "
            f"(residual {residual:.3e}); no reduction applies"
        )
    return SubspaceReduction(
        basis=basis,
        h0_block=HermitianOperator(block),
        invariance_residual=residual,
    )


def solve_embedded(task):
    """Optimal n-dimensional Hamiltonians via the qubit block solution.

    The total Hamiltonian is the embedded block solution plus the
    background restricted to the orthogonal complement, so the control
    is supported on the block alone. The qubit task on h0_block is the
    solve's one background split and budget check. The block answer is
    built but not verified: checked_control runs once, on the embedded
    n x n answer, whose checks imply the block's up to the invariance
    leak. For n = 2 this defers to the direct solver before any reduction.
    """
    if task.psi_initial.dim == 2:
        return optimize(task)
    red = detect_and_reduce(task)
    basis = red.basis
    sub_task = NavigationTask(
        psi_initial=StateVector(np.array([1.0, 0.0], dtype=complex)),
        psi_final=StateVector(basis.conj().T @ task.psi_final.amplitudes),
        h0=red.h0_block,
    )
    answer, h_block = _answer(sub_task)

    proj = basis @ basis.conj().T
    comp = np.eye(task.psi_initial.dim) - proj
    h_total = HermitianOperator(
        basis @ h_block.matrix @ basis.conj().T + comp @ task.h0.matrix @ comp
    )
    return _verified(task, answer, h_total, "embedded")
