"""Time-optimal realization of a target unitary under a background term.

The optimal total Hamiltonian is a rescaled Hermitian logarithm of the
gate relation u_final u_initial^dagger, with the voyage time fixed in
closed form by the background overlap and the full-throttle budget. The
logarithm branch is never guessed: callers pass explicit eigenphase
offsets, or enumerate them.
"""

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NoOpGateError
from .linalg import (
    HermitianOperator,
    _integer_offsets,
    require_unitary,
    split_background,
    unitary_eigenphases,
)
from .oracle import checked_control

# tr(X^2) at or below this is treated as the identity relation
NOOP_TRACE_TOL = 1e-20
# angle(det) of the gate relation within this of -pi is roundoff of det = -1
_DET_ANGLE_TOL = 1e-9
# largest offset box (2*max_offset + 1)^(n - 1) a branch search may allocate
MAX_BRANCH_CANDIDATES = 1 << 20
# offset tables kept for reuse: at most this many, each of a box whose
# (2*max_offset + 1)^(n - 1) rows times n columns stay within the cell limit
_OFFSET_CACHE_ENTRIES = 32
_OFFSET_CACHE_MAX_CELLS = 1 << 14
# int64 entries: 32 * 2^14 * 8 bytes = 4 MiB at most
_OFFSET_CACHE_MAX_BYTES = _OFFSET_CACHE_ENTRIES * _OFFSET_CACHE_MAX_CELLS * 8

__all__ = [
    "GateTask",
    "GateSolution",
    "solve_gate",
    "branch_survey",
    "solve_gate_min_branch",
]


@dataclass(frozen=True, eq=False)
class GateTask:
    """Gate-transport problem: reach u_final from u_initial despite h0.

    Construction splits h0 once with linalg.split_background, budget
    check included; every solve and survey on the task reads that split.
    """

    u_initial: np.ndarray
    u_final: np.ndarray
    h0: HermitianOperator
    _h0_split: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ui = require_unitary(self.u_initial, "u_initial")
        uf = require_unitary(self.u_final, "u_final")
        if ui.shape != uf.shape:
            raise DimensionError(f"unitary dims differ: {ui.shape} vs {uf.shape}")
        if self.h0.dim != ui.shape[0]:
            raise DimensionError(
                f"background dim {self.h0.dim} does not match gate dim {ui.shape[0]}"
            )
        object.__setattr__(self, "_h0_split", split_background(self.h0))
        ui = ui.copy()
        uf = uf.copy()
        ui.setflags(write=False)
        uf.setflags(write=False)
        object.__setattr__(self, "u_initial", ui)
        object.__setattr__(self, "u_final", uf)

    @property
    def dim(self):
        return self.h0.dim


@dataclass(frozen=True, eq=False)
class GateSolution:
    """Closed-form gate solution with verification diagnostics.

    branch holds the eigenphase offsets applied on top of the canonical
    zero-trace baseline. global_phase is the phase gamma with
    e^{i gamma} e^{-i h_total T} u_initial = u_final. gate_residual and
    constraint_residual are the gate_relation and control_budget values.
    """

    voyage_time: float
    h_total: HermitianOperator
    h_control: HermitianOperator
    branch: tuple
    generator: HermitianOperator
    global_phase: float
    gate_residual: float
    constraint_residual: float


def _canonical_phases(task):
    """Eigenphases/vectors of the SU-projected gate relation, zero-sum branch.

    Returns (lam, q, su_phase) with sum(lam) = 0 up to roundoff. The
    projection removes angle(det)/n from every eigenphase, with angle(det)
    on (-pi + _DET_ANGLE_TOL, pi + _DET_ANGLE_TOL]; the zeroing
    then shifts whole multiples of 2 pi off the largest (or onto the
    smallest) phases so the baseline is the same for every caller.
    """
    rel = task.u_final @ task.u_initial.conj().T
    n = task.dim
    det_angle = float(np.angle(np.linalg.det(rel)))
    if det_angle <= _DET_ANGLE_TOL - math.pi:
        # det = -1 up to roundoff: the sign of its imaginary part must not
        # pick the coset, so the angle is read on the +pi side
        det_angle += 2.0 * math.pi
    su_phase = det_angle / n
    lam, q = unitary_eigenphases(rel * np.exp(-1j * su_phase))
    wraps = int(round(float(np.sum(lam)) / (2.0 * math.pi)))
    # lam is ascending, so its largest and smallest phases are its two ends
    if wraps > 0:
        lam[n - wraps :] -= 2.0 * math.pi
    elif wraps < 0:
        lam[:-wraps] += 2.0 * math.pi
    return lam, q, su_phase


def _voyage_time(a, b, c):
    """Closed-form T from the overlap a = tr(h0 X), b = tr(X^2), budget c; the one formula."""
    disc = np.sqrt(a * a + c * b)
    return b / (disc + a)


def solve_gate(task, branch=None):
    """Closed-form optimal Hamiltonian for a gate task on a fixed log branch.

    branch lists one integer eigenphase offset (in turns) per ascending
    canonical eigenphase; offsets must sum to zero so the generator
    stays traceless. Defaults to all zeros. A branch of the wrong length,
    with a non-integral entry or a nonzero sum is refused before the gate
    relation is decomposed. The voyage time is the branch's row of
    branch_survey, bit for bit.
    """
    if branch is None:
        branch = (0,) * task.dim
    offs = _integer_offsets(branch, task.dim)
    if int(offs.sum()) != 0:
        raise ValueError(f"branch offsets must sum to zero, got {offs.tolist()}")
    return _solve_fastest(
        task,
        _survey(task, offs[np.newaxis]),
        "gate relation is the identity on this branch; pick a nonzero branch",
    )


def _solve_fastest(task, survey, noop_message):
    """Solve and check on the fastest row of a _survey; NoOpGateError(noop_message) if it has none.

    argmin returns the first minimum, so ties go to the earliest row. The
    generator is q diag(phases) q^dagger on that row's phases.
    """
    (_, q, su_phase), offs, phases, times = survey
    if not times.size:
        raise NoOpGateError(noop_message)
    best = int(np.argmin(times))
    t_voyage = times[best]
    x = HermitianOperator((q * phases[best]) @ q.conj().T)
    h0_trace_half = task._h0_split[0]
    h_total = HermitianOperator(x.matrix / t_voyage + h0_trace_half * np.eye(task.dim))
    global_phase = h0_trace_half * t_voyage + su_phase
    h_control, checks = checked_control(
        h_total, task.h0, t_voyage, "gate", gate=(task.u_initial, task.u_final, global_phase)
    )
    return GateSolution(
        voyage_time=float(t_voyage),
        h_total=h_total,
        h_control=h_control,
        branch=tuple(offs[best].tolist()),
        generator=x,
        global_phase=float(global_phase),
        gate_residual=checks["gate_relation"].value,
        constraint_residual=checks["control_budget"].value,
    )


def _offset_table(n, max_offset):
    """Read-only zero-sum offset vectors with entries in [-max_offset, max_offset].

    Rows come in lexicographic order so that ties in voyage time resolve
    to the lexicographically smallest vector. The box of leading offsets
    is checked against MAX_BRANCH_CANDIDATES before any table is looked
    up or allocated.

    A table depends only on (n, max_offset), so tables of boxes with at
    most _OFFSET_CACHE_MAX_CELLS entries ((2*max_offset + 1)^(n - 1) rows
    times n columns) are built once and kept, up to _OFFSET_CACHE_ENTRIES
    of them, least recently used out first; larger ones are built per
    call. The kept tables hold at most _OFFSET_CACHE_MAX_BYTES (4 MiB) in
    all. int and numpy integer arguments share one entry.
    """
    # Python ints, so that the box size below cannot wrap around as a
    # fixed-width numpy integer would, and so that equal keys hash alike
    n = operator.index(n)
    max_offset = operator.index(max_offset)
    if max_offset < 0:
        raise ValueError(f"max_offset must be >= 0, got {max_offset}")
    box = (2 * max_offset + 1) ** (n - 1)
    if box > MAX_BRANCH_CANDIDATES:
        raise ValueError(
            f"branch box (2*{max_offset}+1)^{n - 1} = {box} exceeds "
            f"MAX_BRANCH_CANDIDATES = {MAX_BRANCH_CANDIDATES}; lower max_offset"
        )
    if box * n <= _OFFSET_CACHE_MAX_CELLS:
        return _cached_offset_table(n, max_offset)
    return _build_offset_table(n, max_offset)


def _build_offset_table(n, max_offset):
    """_offset_table's rows, built afresh and made read-only."""
    head = np.indices((2 * max_offset + 1,) * (n - 1)).reshape(n - 1, -1).T - max_offset
    last = -head.sum(axis=1)
    keep = np.abs(last) <= max_offset
    table = np.column_stack((head[keep], last[keep]))
    table.setflags(write=False)
    return table


# a batch over n = 2..5 and max_offset = 1..3 walks 12 keys in a fixed
# cycle; an LRU of fewer entries would evict each key before it returns
_cached_offset_table = functools.lru_cache(maxsize=_OFFSET_CACHE_ENTRIES)(_build_offset_table)


def _survey(task, offs):
    """Canonical phases, the rows of the offset table offs, their generator
    phases lam + 2 pi offs and their closed-form voyage times.

    Rows whose generator vanishes are dropped.
    """
    canonical = _canonical_phases(task)
    lam, q, _ = canonical
    _, h0_traceless, strength = task._h0_split
    # diagonal of h0 in the eigenbasis of the gate relation
    weights = np.real(np.einsum("ij,ik,kj->j", q.conj(), h0_traceless.matrix, q))
    c = 1.0 - strength
    phases = lam + 2.0 * math.pi * offs
    # vecdot runs the same ddot inner loop as np.dot on one row, so every
    # b and a is bit-identical to a per-branch dot; einsum or @ is not
    b = np.vecdot(phases, phases)
    useful = b > NOOP_TRACE_TOL
    offs, phases, b = offs[useful], phases[useful], b[useful]
    a = np.vecdot(phases, weights)
    return canonical, offs, phases, _voyage_time(a, b, c)


def branch_survey(task, max_offset):
    """Voyage time of every admissible branch, batched over the offset box.

    Returns a list of (branch, voyage_time) in lexicographic enumeration
    order, skipping branches whose generator vanishes. Each time is the
    voyage_time of solve_gate on that branch, bit for bit: both read it off
    one survey, and np.vecdot shares np.dot's inner loop on every row.
    Raises ValueError for a negative max_offset or a box beyond
    MAX_BRANCH_CANDIDATES.
    """
    _, offs, _, times = _survey(task, _offset_table(task.dim, max_offset))
    return list(zip(map(tuple, offs.tolist()), times.tolist()))


def solve_gate_min_branch(task, max_offset):
    """Fastest solution over all zero-sum branches within max_offset.

    Evaluates the closed-form voyage time of every branch vector in one
    batched survey, then solves fully on the best one with the same
    eigendecomposition. Ties go to the lexicographically smallest branch
    vector.
    """
    return _solve_fastest(
        task,
        _survey(task, _offset_table(task.dim, max_offset)),
        f"gate relation is the identity on every branch with |offset| <= {max_offset}",
    )
