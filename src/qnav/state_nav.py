"""Time-optimal state transport under a fixed background Hamiltonian.

Given initial and target qubit states and a background (wind) term that
cannot be switched off, every admissible total Hamiltonian rotates the
Bloch sphere about an equatorial axis of the canonical frame, labelled
by an angle phi. This module computes the admissible angular frequency
omega(phi), the first-passage rotation angle alpha(phi), the voyage
time tau(phi) = alpha/omega, minimizes tau over phi, and assembles the
optimal total and control Hamiltonians back in lab coordinates.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import (
    DEGENERATE_THETA_TOL,
    CanonicalFrame,
    WindSpec,
    build_canonical_frame,
    transform_wind,
)
from .errors import DimensionError
from .linalg import (
    HermitianOperator,
    StateVector,
    hs_trace_product,
    pauli_compose,
    require_wind_below_budget,
    split_trace,
)
from .minimize import golden_min
from .oracle import CONFIRM_THRESHOLD as FIDELITY_THRESHOLD, require_passed, solution_checks

CONSTRAINT_RESIDUAL_TOL = 1e-10
DEFAULT_GRID_POINTS = 4096
DEFAULT_PHI_TOL = 1e-10
# optimize's scan grid with 2 pi appended; the size is a power of two, so
# index DEFAULT_GRID_POINTS // 2 holds pi exactly
_SCAN_PHIS = 2.0 * np.pi * np.arange(DEFAULT_GRID_POINTS + 1) / DEFAULT_GRID_POINTS
_SCAN_PHIS.setflags(write=False)
# below this |sin phi| the two alpha computations are both ~pi but differ
# in rounding structure, so the cross-check is skipped
_ORIENTATION_CHECK_MIN_SIN = 1e-6
_ORIENTATION_CHECK_TOL = 1e-9

__all__ = [
    "FIDELITY_THRESHOLD",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_PHI_TOL",
    "NavigationTask",
    "CanonicalStateTask",
    "VoyageCurve",
    "NavigationSolution",
    "canonicalize",
    "omega_of_phi",
    "rho_of_phi",
    "alpha_of_phi",
    "alpha_geometric",
    "tau_of_phi",
    "sweep",
    "principal_voyage_time",
    "optimize",
]


@dataclass(frozen=True, eq=False)
class NavigationTask:
    """State-transport problem: carry psi_initial to psi_final despite h0."""

    psi_initial: StateVector
    psi_final: StateVector
    h0: HermitianOperator

    def __post_init__(self):
        if self.psi_initial.dim != self.psi_final.dim:
            raise DimensionError(
                f"state dims differ: {self.psi_initial.dim} vs {self.psi_final.dim}"
            )
        if self.h0.dim != self.psi_initial.dim:
            raise DimensionError(
                f"background dim {self.h0.dim} does not match state dim {self.psi_initial.dim}"
            )
        # the budget competes with the wind inside the two-state block;
        # for larger dims that block is only known after reduction, so
        # the check moves there
        if self.h0.dim == 2:
            _, traceless = split_trace(self.h0)
            require_wind_below_budget(hs_trace_product(traceless, traceless))


@dataclass(frozen=True, eq=False)
class CanonicalStateTask:
    """Canonicalized problem data: separation, frame, wind, trace bookkeeping."""

    theta: float
    frame: CanonicalFrame
    wind: WindSpec
    h0: HermitianOperator
    h0_trace_half: float


class VoyageCurve(NamedTuple):
    """tau = alpha/omega at phi: floats for a scalar phi, else arrays of its shape."""

    phi: float | np.ndarray
    omega: float | np.ndarray
    alpha: float | np.ndarray
    tau: float | np.ndarray


@dataclass(frozen=True, eq=False)
class NavigationSolution:
    """Optimal control angle and the assembled lab-frame Hamiltonians."""

    phi_star: float
    omega_star: float
    tau_star: float
    theta: float
    h_total: HermitianOperator
    h_control: HermitianOperator
    fidelity_check: float
    constraint_residual: float


def canonicalize(task):
    """Canonical frame, wind spec and trace bookkeeping for a qubit task."""
    if task.psi_initial.dim != 2:
        raise DimensionError(
            "direct navigation handles qubit tasks; reduce larger dims first"
        )
    frame = build_canonical_frame(task.psi_initial, task.psi_final)
    trace_half, _ = split_trace(task.h0)
    wind = transform_wind(frame, task.h0)
    return CanonicalStateTask(
        theta=frame.theta,
        frame=frame,
        wind=wind,
        h0=task.h0,
        h0_trace_half=trace_half,
    )


def _omega(wind, c, s):
    """omega_of_phi from c = cos(phi) and s = sin(phi)."""
    if wind.is_zero:
        return np.full(np.shape(c), np.sqrt(2.0)) if np.ndim(c) else np.sqrt(2.0)
    eps = wind.epsilon
    x, y, _ = wind.axis
    p = x * c + y * s
    root = np.sqrt(2.0 * eps * p * p + 2.0 * (1.0 - eps))
    return root + np.sqrt(2.0 * eps) * p


def omega_of_phi(wind, phi):
    """Admissible angular frequency at control angle phi.

    Positive root of the full-throttle constraint
    omega^2 - 2*sqrt(2 eps) p omega - 2(1 - eps) = 0 with
    p = x cos phi + y sin phi; the root product is negative, so exactly
    one root is positive. Accepts scalar or array phi.
    """
    phi = np.asarray(phi, dtype=float)
    return _omega(wind, np.cos(phi), np.sin(phi))


def rho_of_phi(theta, phi):
    """Angle between the rotation axis and either Bloch vector."""
    phi = np.asarray(phi, dtype=float)
    return np.arccos(np.clip(np.cos(phi) * np.cos(theta / 2.0), -1.0, 1.0))


def alpha_geometric(theta, phi):
    """First-passage rotation angle from explicit vector geometry.

    Rotates the initial Bloch vector about the equatorial axis at angle
    phi and reads off the signed angle to the target around that axis,
    folded into (0, 2*pi]. Used as an independent cross-check of the
    trigonometric branch rule, so it takes its own cos and sin of phi.
    The vectors are written out component by component: the axis
    (cos phi, sin phi, 0), its point nearest b_i, the offsets u_i and
    u_f of both Bloch vectors from it, and the triple and dot products
    that give the signed angle.
    """
    phi = np.asarray(phi, dtype=float)
    half = theta / 2.0
    # b_i = (bx, 0, bz) and b_f = (bx, 0, -bz)
    bx = 0.5 * np.cos(half)
    bz = 0.5 * np.sin(half)
    ax, ay = np.cos(phi), np.sin(phi)
    # centre = (axis . b_i) axis; u_i and u_f share their x and y parts
    d = ax * bx
    ux = bx - d * ax
    uy = -(d * ay)
    # (u_i x u_f) . axis, with u_i x u_f = (-2 bz uy, 2 bz ux, 0)
    sin_part = (-2.0 * bz * uy) * ax + (2.0 * bz * ux) * ay
    # u_i . u_f
    cos_part = ux * ux + uy * uy - bz * bz
    ang = np.arctan2(sin_part, cos_part)
    ang = np.where(ang <= 0.0, ang + 2.0 * np.pi, ang)
    return ang if ang.ndim else float(ang)


def _principal_angle(theta, s):
    """Rotation angle in [0, pi] from the arccos formula, for s = sin(phi)."""
    t2 = np.tan(theta / 2.0) ** 2
    g = (s * s - t2) / (s * s + t2)
    return np.arccos(np.clip(g, -1.0, 1.0))


def _alpha(theta, phi, s):
    """alpha_of_phi for phi (a float64 array, maybe 0-d) and s = sin(phi)."""
    if theta >= np.pi - DEGENERATE_THETA_TOL:
        # antipodal states: every equatorial rotation needs a half turn
        return np.full(phi.shape, np.pi)
    base = _principal_angle(theta, s)
    alpha = np.where(s > 0.0, base, np.where(s < 0.0, 2.0 * np.pi - base, np.pi))

    check = np.abs(s) > _ORIENTATION_CHECK_MIN_SIN
    if np.any(check):
        geo = np.asarray(alpha_geometric(theta, phi))
        err = np.max(np.abs(np.where(check, alpha - geo, 0.0)))
        if err > _ORIENTATION_CHECK_TOL:
            raise ArithmeticError(
                f"orientation branch disagrees with vector geometry by {err:.3e}"
            )
    return alpha


def alpha_of_phi(theta, phi):
    """First-passage rotation angle about the equatorial axis at phi.

    The arccos expression gives the angle in [0, pi]; the rotation
    reaches the target forward for sin phi > 0 and backward otherwise,
    so the first positive angle is its 2*pi complement for sin phi < 0
    and exactly pi on the boundary. Checked against alpha_geometric.
    """
    phi = np.asarray(phi, dtype=float)
    alpha = _alpha(theta, phi, np.sin(phi))
    return alpha if alpha.ndim else float(alpha)


def _omega_residual(wind, c, s, omega):
    """Residual of the full-throttle quadratic at omega, for c = cos(phi), s = sin(phi)."""
    if wind.is_zero:
        return omega * omega - 2.0
    x, y, _ = wind.axis
    p = x * c + y * s
    return (
        omega * omega
        - 2.0 * np.sqrt(2.0 * wind.epsilon) * p * omega
        - 2.0 * (1.0 - wind.epsilon)
    )


def tau_of_phi(ctask, phi):
    """Voyage-time curve at a scalar or an array of control angles.

    Returns VoyageCurve(phi, omega, alpha, tau) and raises ArithmeticError
    when the full-throttle residual exceeds CONSTRAINT_RESIDUAL_TOL or the
    orientation check of alpha_of_phi fails. cos(phi) and sin(phi) are
    taken once and fed to the formulas behind omega_of_phi, alpha_of_phi
    and the residual, so omega and alpha equal those public functions bit
    for bit. An array gives, element for element, the floats of one call
    per angle. rho is left to rho_of_phi.
    """
    scalar = np.ndim(phi) == 0
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    omega = _omega(ctask.wind, c, s)
    alpha = _alpha(ctask.theta, phi, s)
    resid = np.max(np.abs(_omega_residual(ctask.wind, c, s, omega)))
    if resid > CONSTRAINT_RESIDUAL_TOL:
        raise ArithmeticError(f"constraint residual {resid:.3e} on the voyage curve")
    if scalar:
        phi, omega, alpha = float(phi), float(omega), float(alpha)
    return VoyageCurve(phi=phi, omega=omega, alpha=alpha, tau=alpha / omega)


def sweep(task, n_points=DEFAULT_GRID_POINTS):
    """tau_of_phi's VoyageCurve of arrays on the grid phi_k = 2 pi k / n_points."""
    if n_points < 16:
        raise ValueError(f"n_points must be >= 16, got {n_points}")
    ctask = canonicalize(task)
    return tau_of_phi(ctask, 2.0 * np.pi * np.arange(n_points) / n_points)


def principal_voyage_time(ctask, phis):
    """Diagnostic curve using the principal arccos angle on both halves.

    Unlike the first-passage curve, this one has a corner at phi = pi
    where the orientation flips. It is exposed for analysis only and
    plays no part in optimization.
    """
    phis = np.asarray(phis, dtype=float)
    omega = np.asarray(omega_of_phi(ctask.wind, phis), dtype=float)
    if ctask.theta >= np.pi - DEGENERATE_THETA_TOL:
        return np.full(phis.shape, np.pi) / omega
    return _principal_angle(ctask.theta, np.sin(phis)) / omega


def _refine_objective(ctask, seen):
    """Scalar tau(phi) for golden refinement, appending each phi to seen.

    The per-task constants are computed once; each call then repeats the
    float64 operations of alpha_of_phi(theta, phi) / omega_of_phi(wind, phi)
    in the same order, so the two agree bit for bit. The orientation
    cross-check is left to the caller, which runs it on all of seen at once.
    """
    eps = ctask.wind.epsilon
    x, y = float(ctask.wind.axis[0]), float(ctask.wind.axis[1])
    two_eps = 2.0 * eps
    slack = 2.0 * (1.0 - eps)
    gain = float(np.sqrt(2.0 * eps))
    antipodal = ctask.theta >= np.pi - DEGENERATE_THETA_TOL
    t2 = float(np.tan(ctask.theta / 2.0) ** 2)
    two_pi = 2.0 * np.pi

    def tau(phi):
        seen.append(phi)
        s = float(np.sin(phi))
        p = x * float(np.cos(phi)) + y * s
        omega = math.sqrt(two_eps * p * p + slack) + gain * p
        if antipodal:
            return np.pi / omega
        g = (s * s - t2) / (s * s + t2)
        base = float(np.arccos(min(max(g, -1.0), 1.0)))
        alpha = base if s > 0.0 else two_pi - base if s < 0.0 else np.pi
        return alpha / omega

    return tau


def _refine_half(ctask, tau, start, stop):
    """Golden refinement around the grid minimum among scan indices [start, stop).

    The minimum's two grid neighbours bracket the search; _SCAN_PHIS carries
    2 pi after the last grid angle, so both exist for every index of either
    open half. Every angle the search evaluates is cross-checked against the
    vector geometry in one batched alpha_of_phi call after the search.
    """
    best = start + np.argmin(tau[start:stop])
    seen = []
    refined = golden_min(
        _refine_objective(ctask, seen), _SCAN_PHIS[best - 1], _SCAN_PHIS[best + 1], DEFAULT_PHI_TOL
    )
    alpha_of_phi(ctask.theta, np.asarray(seen))
    return refined


def _assemble(task, ctask, phi_star):
    """Lab-frame solution at the chosen control angle, fully verified."""
    rec = tau_of_phi(ctask, phi_star)
    axis_lab = ctask.frame.to_lab([np.cos(phi_star), np.sin(phi_star), 0.0])
    h_total = pauli_compose(ctask.h0_trace_half, 0.5 * rec.omega * axis_lab)
    h_control = HermitianOperator(h_total.matrix - ctask.h0.matrix)
    checks = solution_checks(
        h_total, h_control, task.h0, rec.tau, states=(task.psi_initial, task.psi_final)
    )
    require_passed(checks, "solution")
    return NavigationSolution(
        phi_star=float(phi_star),
        omega_star=rec.omega,
        tau_star=rec.tau,
        theta=ctask.theta,
        h_total=h_total,
        h_control=h_control,
        fidelity_check=checks["fidelity"].value,
        constraint_residual=checks["control_budget"].value,
    )


def optimize(task):
    """Minimize the voyage time over the control angle.

    Scan of the fixed grid phi_k = 2 pi k / DEFAULT_GRID_POINTS, then
    golden-section refinement to DEFAULT_PHI_TOL around the grid minimum
    of each open half (0, pi) and (pi, 2 pi). The curve can have a corner
    where the orientation branch changes, so refinement never brackets
    across phi in {0, pi}; the grid holds both angles exactly, and their
    scanned voyage times are the boundary candidates.
    """
    ctask = canonicalize(task)
    if ctask.wind.is_zero:
        # no wind: full throttle along the geodesic, no scan needed
        return _assemble(task, ctask, np.pi / 2.0)

    tau = tau_of_phi(ctask, _SCAN_PHIS[:-1]).tau
    half = DEFAULT_GRID_POINTS // 2
    candidates = [
        _refine_half(ctask, tau, 1, half),
        _refine_half(ctask, tau, half + 1, DEFAULT_GRID_POINTS),
        (0.0, tau[0]),
        (np.pi, tau[half]),
    ]
    tau_best = min(c[1] for c in candidates)
    phi_star = min(c[0] for c in candidates if c[1] == tau_best)
    return _assemble(task, ctask, phi_star)
