"""Reduction of n-dimensional tasks to the qubit solver.

When the background Hamiltonian maps the span of the initial and target
states into itself, the transport problem collapses to a qubit problem
on that span. The control is searched on the block alone, and the
orthogonal complement just evolves under the background.
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

    The reduction is built at most once per task, on first use, and kept
    on it (NavigationTask._reduction): every later call returns the same
    SubspaceReduction, whose basis and h0_block are read-only.
    NotInvariantError and DegenerateTaskError are raised on every call.
    """
    return task._reduction


def _reduce(task):
    """NavigationTask._reduction: detect_and_reduce's SubspaceReduction."""
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


def _block(task):
    """NavigationTask._block: (block task, complement term) of the reduction.

    The block task carries (1, 0) to the block coordinates of psi_final
    under h0_block. The complement term comp h0 comp, with comp the
    projector I - basis basis^dagger, is read-only.
    """
    red = task._reduction
    basis = red.basis
    block_task = NavigationTask(
        psi_initial=StateVector(np.array([1.0, 0.0], dtype=complex)),
        psi_final=StateVector(basis.conj().T @ task.psi_final.amplitudes),
        h0=red.h0_block,
    )
    comp = np.eye(task.psi_initial.dim) - basis @ basis.conj().T
    complement = comp @ task.h0.matrix @ comp
    complement.setflags(write=False)
    return block_task, complement


def solve_embedded(task):
    """Time-optimal Hamiltonians among controls supported on the two-state block.

    The search runs on the qubit block task alone, so the answer is optimal
    among block controls; a control that also acts on the orthogonal
    complement is not searched. The total Hamiltonian is the embedded
    block solution plus the complement term, the background restricted to
    the orthogonal complement. The qubit task on h0_block is the solve's
    one background split and budget check. The block answer is built but
    not verified: checked_control runs once, on the embedded n x n answer,
    whose checks imply the block's up to the invariance leak. The
    reduction, the block task with its canonical form and the complement
    term are kept on the task from their first use; the search, assembly
    and checks run on every call. For n = 2 this defers to the direct
    solver before any reduction.
    """
    if task.psi_initial.dim == 2:
        return optimize(task)
    basis = detect_and_reduce(task).basis
    block_task, complement = task._block
    answer, h_block = _answer(block_task)
    h_total = HermitianOperator(basis @ h_block.matrix @ basis.conj().T + complement)
    return _verified(task, answer, h_total, "embedded")
