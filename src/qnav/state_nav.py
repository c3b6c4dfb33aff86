"""Time-optimal state transport under a fixed background Hamiltonian.

Given initial and target qubit states and a background (wind) term that
cannot be switched off, every admissible total Hamiltonian rotates the
Bloch sphere about an equatorial axis of the canonical frame, labelled
by an angle phi. This module computes the admissible angular frequency
omega(phi), the first-passage rotation angle alpha(phi), the voyage
time tau(phi) = alpha/omega, minimizes tau over phi, and assembles the
optimal total and control Hamiltonians back in lab coordinates.
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bloch import (
    CanonicalFrame,
    WindSpec,
    _antipodal,
    _pauli_wind,
    _traceless_wind,
    build_canonical_frame,
)
from .errors import DimensionError
from .linalg import (
    HermitianOperator,
    StateVector,
    pauli_compose,
    require_wind_below_budget,
    split_background,
)
from .minimize import golden_min
from .oracle import checked_control

CONSTRAINT_RESIDUAL_TOL = 1e-10
DEFAULT_GRID_POINTS = 4096
DEFAULT_PHI_TOL = 1e-10
# largest sweep grid: its curve arrays and CSV rows stay in the tens of MB
MAX_SWEEP_POINTS = 1 << 20
# optimize's scan grid with 2 pi appended; the size is a power of two, so
# index DEFAULT_GRID_POINTS // 2 holds pi exactly
_SCAN_PHIS = 2.0 * np.pi * np.arange(DEFAULT_GRID_POINTS + 1) / DEFAULT_GRID_POINTS
# cos and sin of the scan grid, functions of phi alone and so fixed
_SCAN_COS = np.cos(_SCAN_PHIS[:-1])
_SCAN_SIN = np.sin(_SCAN_PHIS[:-1])
for _table in (_SCAN_PHIS, _SCAN_COS, _SCAN_SIN):
    _table.setflags(write=False)
del _table
# below this |sin phi| the two alpha computations are both ~pi but differ
# in rounding structure, so the cross-check is skipped
_ORIENTATION_CHECK_MIN_SIN = 1e-6
_ORIENTATION_CHECK_TOL = 1e-9
# optimize skips a half whose lower bound on tau exceeds the best voyage
# time found by more than this relative margin. The computed curve undercuts
# the closed-form bound by a few ulp at most (p at psi can round above
# hypot(x, y)); near eps -> 1 the computed omega errs by up to 1.7e-4
# relative for p < 0, where it lies far below omega at the bound's p >= 0.
_PRUNE_MARGIN = 1e-3
# the arccos rule's g carries a few ulp, which can lower the computed alpha
# below theta by up to about this over sin(theta) (see _half_bounds)
_ALPHA_ROUNDING = 2e-15

__all__ = [
    "DEFAULT_GRID_POINTS",
    "DEFAULT_PHI_TOL",
    "MAX_SWEEP_POINTS",
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
    """State-transport problem: carry psi_initial to psi_final despite h0.

    A qubit task splits h0 once when built, with split_background, and
    keeps (trace/2, a, eps) of it, a and eps the _pauli_wind of the traceless
    part; canonicalize reads them. Construction holds both the split's
    strength and eps to the budget, so it refuses every background that
    canonicalize's WindSpec would. Larger tasks keep None there: the qubit
    task that solve_embedded builds on their two-state block splits.
    The rest of the preparation is built at most once, on first use, and
    kept read-only on the task. For a qubit task, _canonical holds
    canonicalize's frame, wind and trace bookkeeping. For a larger one,
    _reduction holds detect_and_reduce's SubspaceReduction, and _block the
    qubit task on that block (which keeps its own canonical form) and the
    complement term that solve_embedded adds. Every optimize, sweep and
    solve_embedded on the task reads them; a preparation that raises is not
    kept and raises again on the next call.
    """

    psi_initial: StateVector
    psi_final: StateVector
    h0: HermitianOperator
    _h0_split: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.psi_initial.dim != self.psi_final.dim:
            raise DimensionError(
                f"state dims differ: {self.psi_initial.dim} vs {self.psi_final.dim}"
            )
        if self.h0.dim != self.psi_initial.dim:
            raise DimensionError(
                f"background dim {self.h0.dim} does not match state dim {self.psi_initial.dim}"
            )
        # the budget competes with the wind inside the two-state block,
        # which for larger dims is only known after reduction
        if self.h0.dim == 2:
            trace_half, traceless, _ = split_background(self.h0)
            a, eps = _pauli_wind(traceless)
            require_wind_below_budget(eps)
            object.__setattr__(self, "_h0_split", (trace_half, a, eps))

    @functools.cached_property
    def _canonical(self):
        """canonicalize's CanonicalStateTask; DimensionError unless a qubit task."""
        if self.psi_initial.dim != 2:
            raise DimensionError(
                "direct navigation handles qubit tasks; reduce larger dims first"
            )
        frame = build_canonical_frame(self.psi_initial, self.psi_final)
        trace_half, a, eps = self._h0_split
        return CanonicalStateTask(
            theta=frame.theta,
            frame=frame,
            wind=_traceless_wind(frame, a, eps),
            h0_trace_half=trace_half,
        )

    @functools.cached_property
    def _reduction(self):
        """detect_and_reduce's SubspaceReduction, from subspace._reduce."""
        from .subspace import _reduce  # subspace builds on this module

        return _reduce(self)

    @functools.cached_property
    def _block(self):
        """solve_embedded's qubit block task and complement term, from subspace._block."""
        from .subspace import _block

        return _block(self)


@dataclass(frozen=True, eq=False)
class CanonicalStateTask:
    """Canonicalized problem data: separation, frame, wind, trace bookkeeping.

    optimize's curve constants are built at most once, on first use, and
    kept here: _point is the task's _curve_point and _bounds its
    _half_bounds.
    """

    theta: float
    frame: CanonicalFrame
    wind: WindSpec
    h0_trace_half: float

    @functools.cached_property
    def _point(self):
        return _curve_point(self)

    @functools.cached_property
    def _bounds(self):
        return _half_bounds(self)


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
    """Canonical frame, wind spec and trace bookkeeping for a qubit task.

    Built at most once per task, on first use, and kept on it: every later
    call returns the same CanonicalStateTask, whose frame rotation and wind
    axis are read-only. DimensionError for a larger task and
    DegenerateTaskError for coinciding states are raised on every call.
    """
    return task._canonical


def _axis_xy(wind):
    """In-plane components (x, y) of the canonical wind axis; (0.0, 0.0) without wind.

    The wind's projection on the control axis at phi is p = x cos(phi) +
    y sin(phi). With no wind eps = 0, so p = 0 gives omega = sqrt(2) and the
    residual omega^2 - 2 bit for bit, and no formula needs a branch.
    """
    if wind.is_zero:
        return 0.0, 0.0
    return float(wind.axis[0]), float(wind.axis[1])


def _finite_phi(phi):
    """phi as a float64 array (0-d for a scalar); ValueError on a NaN or infinite entry."""
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("phi must be finite")
    return phi


def _omega(wind, p):
    """omega_of_phi from the projection p = x cos(phi) + y sin(phi)."""
    eps = wind.epsilon
    root = np.sqrt(2.0 * eps * p * p + 2.0 * (1.0 - eps))
    return root + np.sqrt(2.0 * eps) * p


def omega_of_phi(wind, phi):
    """Admissible angular frequency at control angle phi.

    Positive root of the full-throttle constraint
    omega^2 - 2*sqrt(2 eps) p omega - 2(1 - eps) = 0 with
    p = x cos phi + y sin phi; the root product is negative, so exactly
    one root is positive. Accepts scalar or array phi.
    """
    phi = _finite_phi(phi)
    x, y = _axis_xy(wind)
    return _omega(wind, x * np.cos(phi) + y * np.sin(phi))


def rho_of_phi(theta, phi):
    """Angle between the rotation axis and either Bloch vector."""
    phi = _finite_phi(phi)
    return np.arccos(np.clip(np.cos(phi) * np.cos(theta / 2.0), -1.0, 1.0))


def alpha_geometric(theta, phi):
    """First-passage rotation angle from explicit vector geometry.

    Rotates the initial Bloch vector about the equatorial axis at angle
    phi and reads off the signed angle to the target around that axis,
    folded into (0, 2*pi]. Used as an independent cross-check of the
    trigonometric branch rule: it shares only cos(phi) and sin(phi) with
    it, and computes the angle by a different formula. The vectors are
    written out component by component: the axis (cos phi, sin phi, 0),
    its point nearest b_i, the offsets u_i and u_f of both Bloch vectors
    from it, and the triple and dot products that give the signed angle.
    """
    phi = _finite_phi(phi)
    ang = _alpha_geometric(theta, np.cos(phi), np.sin(phi))
    return ang if ang.ndim else float(ang)


def _alpha_geometric(theta, ax, ay):
    """alpha_geometric for ax = cos(phi) and ay = sin(phi); always an array."""
    half = theta / 2.0
    # b_i = (bx, 0, bz) and b_f = (bx, 0, -bz); math matches numpy's cos and sin
    bx = 0.5 * math.cos(half)
    bz = 0.5 * math.sin(half)
    # centre = (axis . b_i) axis; u_i and u_f share their x and y parts
    d = ax * bx
    ux = bx - d * ax
    uy = -(d * ay)
    # (u_i x u_f) . axis, with u_i x u_f = (-2 bz uy, 2 bz ux, 0)
    sin_part = (-2.0 * bz * uy) * ax + (2.0 * bz * ux) * ay
    # u_i . u_f
    cos_part = ux * ux + uy * uy - bz * bz
    ang = np.arctan2(sin_part, cos_part)
    return np.where(ang <= 0.0, ang + 2.0 * np.pi, ang)


def _principal_angle(theta, s):
    """Rotation angle in [0, pi] from the arccos formula, for s = sin(phi).

    No clip is needed: |s^2 - t2| <= s^2 + t2 exactly for t2 = tan(theta/2)^2,
    and rounding is monotone, so the rounded quotient stays in [-1, 1]; 0/0
    gives NaN, which a clip would pass through too.
    """
    t2 = np.tan(theta / 2.0) ** 2
    s2 = s * s
    return np.arccos((s2 - t2) / (s2 + t2))


def _alpha(theta, c, s):
    """alpha_of_phi for c = cos(phi) and s = sin(phi), float64 arrays (maybe 0-d)."""
    if _antipodal(theta):
        # antipodal states: every equatorial rotation needs a half turn
        return np.full(s.shape, np.pi)
    # at s = 0 the principal angle is arccos(-1), exactly pi
    base = _principal_angle(theta, s)
    alpha = np.where(s < 0.0, 2.0 * np.pi - base, base)

    check = np.abs(s) > _ORIENTATION_CHECK_MIN_SIN
    if check.any():
        geo = _alpha_geometric(theta, c, s)
        err = np.abs(np.where(check, alpha - geo, 0.0)).max()
        if err > _ORIENTATION_CHECK_TOL:
            raise ArithmeticError(
                f"orientation branch disagrees with vector geometry by {err:.3e}"
            )
    return alpha


def alpha_of_phi(theta, phi):
    """First-passage rotation angle about the equatorial axis at phi.

    The arccos expression gives the angle in [0, pi]; the rotation
    reaches the target forward for sin phi > 0 and backward otherwise,
    so the first positive angle is its 2*pi complement for sin phi < 0.
    On the boundary sin phi = 0 (or -0.0) the expression is arccos(-1),
    exactly pi for every non-degenerate theta, so it needs no case of its
    own. Checked against alpha_geometric, fed the same cos(phi) and sin(phi).
    """
    phi = _finite_phi(phi)
    alpha = _alpha(theta, np.cos(phi), np.sin(phi))
    return alpha if alpha.ndim else float(alpha)


def _check_omega_residual(wind, p, omega):
    """Check the full-throttle quadratic at omega for the projection p.

    Raises ArithmeticError when its largest residual exceeds
    CONSTRAINT_RESIDUAL_TOL; p and omega are floats or arrays of one shape.
    """
    resid = np.abs(
        omega * omega
        - 2.0 * np.sqrt(2.0 * wind.epsilon) * p * omega
        - 2.0 * (1.0 - wind.epsilon)
    ).max()
    if resid > CONSTRAINT_RESIDUAL_TOL:
        raise ArithmeticError(f"constraint residual {resid:.3e} on the voyage curve")


def _voyage_curve(ctask, phi, c, s):
    """tau_of_phi's checked curve of arrays at phi, given c = cos(phi) and s = sin(phi)."""
    x, y = _axis_xy(ctask.wind)
    p = x * c + y * s
    omega = _omega(ctask.wind, p)
    alpha = _alpha(ctask.theta, c, s)
    _check_omega_residual(ctask.wind, p, omega)
    return VoyageCurve(phi=phi, omega=omega, alpha=alpha, tau=alpha / omega)


def tau_of_phi(ctask, phi):
    """Voyage-time curve at a scalar or an array of control angles.

    Returns VoyageCurve(phi, omega, alpha, tau) and raises ArithmeticError
    when the full-throttle residual exceeds CONSTRAINT_RESIDUAL_TOL or the
    orientation check of alpha_of_phi fails. Like omega_of_phi, rho_of_phi,
    alpha_of_phi and alpha_geometric, it raises ValueError for a NaN or
    infinite phi entry. cos(phi) and sin(phi) are taken once and fed to the
    formulas behind omega_of_phi, alpha_of_phi (with its geometric check)
    and the residual, so omega and alpha equal those public functions bit
    for bit. An array gives, element for element, the floats of one call
    per angle. optimize's scan runs the same checked curve on precomputed
    cos and sin tables of its grid. rho is left to rho_of_phi.
    """
    scalar = np.ndim(phi) == 0
    phi = _finite_phi(phi)
    curve = _voyage_curve(ctask, phi, np.cos(phi), np.sin(phi))
    if scalar:
        phi, omega, alpha = float(phi), float(curve.omega), float(curve.alpha)
        return VoyageCurve(phi=phi, omega=omega, alpha=alpha, tau=alpha / omega)
    return curve


def sweep(task, n_points=DEFAULT_GRID_POINTS):
    """tau_of_phi's VoyageCurve of arrays on the grid phi_k = 2 pi k / n_points.

    n_points is an integer from 16 to MAX_SWEEP_POINTS, else ValueError
    before the grid is allocated.
    """
    try:
        n_points = operator.index(n_points)
    except TypeError:
        raise ValueError(f"n_points must be an integer, got {n_points!r}") from None
    if not 16 <= n_points <= MAX_SWEEP_POINTS:
        raise ValueError(
            f"n_points must be from 16 to MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}, got {n_points}"
        )
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
    if _antipodal(ctask.theta):
        return np.full(phis.shape, np.pi) / omega
    return _principal_angle(ctask.theta, np.sin(phis)) / omega


def _curve_point(ctask):
    """Unchecked scalar curve point: phi -> (omega, tau) at a float angle.

    The per-task constants are computed once; each call then repeats the
    float64 operations of omega_of_phi(wind, phi) and alpha_of_phi(theta,
    phi) in the same order, so omega and tau = alpha/omega equal those
    public functions, and tau_of_phi, bit for bit. math.sin, math.cos and
    math.sqrt stand in for their numpy ufuncs, which they match bit for bit
    (pinned by the tests); arccos and tan stay numpy's, called on floats.
    Neither the orientation cross-check nor the residual check runs here.
    """
    eps = ctask.wind.epsilon
    x, y = _axis_xy(ctask.wind)
    two_eps = 2.0 * eps
    slack = 2.0 * (1.0 - eps)
    gain = math.sqrt(two_eps)
    antipodal = _antipodal(ctask.theta)
    t2 = float(np.tan(ctask.theta / 2.0) ** 2)
    two_pi = 2.0 * np.pi

    def point(phi):
        s = math.sin(phi)
        p = x * math.cos(phi) + y * s
        omega = math.sqrt(two_eps * p * p + slack) + gain * p
        if antipodal:
            return omega, np.pi / omega
        s2 = s * s
        g = (s2 - t2) / (s2 + t2)
        base = float(np.arccos(g))
        alpha = two_pi - base if s < 0.0 else base
        return omega, alpha / omega

    return point


def _half_bounds(ctask):
    """Closed-form lower bounds on tau over the open halves (0, pi) and (pi, 2 pi).

    Each bound is alpha's floor on the half over omega at the largest p
    there, with p = x cos(phi) + y sin(phi) = r cos(phi - psi). The first
    bound holds at phi = 0 too, where alpha = pi:

    - alpha >= theta on (0, pi), since arccos((s^2 - t^2)/(s^2 + t^2)),
      t = tan(theta/2), falls as s^2 = sin(phi)^2 grows to 1 at pi/2. The
      computed g carries a few ulp, which lowers the computed alpha by up to
      about _ALPHA_ROUNDING / sin(theta), more than theta itself near
      theta -> 0, so that much comes off the floor. On (pi, 2 pi),
      alpha = 2 pi - arccos(...) >= pi, exactly so in floating point.
      Antipodal tasks have alpha = pi on both halves.
    - omega rises with p: d omega/dp = sqrt(2 eps)(1 + sqrt(2 eps) p/root)
      > 0, as root > sqrt(2 eps)|p|. On a half, p <= r = hypot(x, y) if psi
      = atan2(y, x) lies in it (y >= 0 for the first half, y <= 0 for the
      second), and p <= |x| otherwise: there y sin(phi) <= 0, so p <= x
      cos(phi).

    Both largest p are >= 0, where omega is computed without cancellation.
    """
    x, y = _axis_xy(ctask.wind)
    r = math.hypot(x, y)
    if _antipodal(ctask.theta):
        first_floor = np.pi
    else:
        first_floor = ctask.theta - _ALPHA_ROUNDING / math.sin(ctask.theta)
    first = first_floor / _omega(ctask.wind, r if y >= 0.0 else abs(x))
    second = np.pi / _omega(ctask.wind, r if y <= 0.0 else abs(x))
    return float(first), float(second)


def _lab_answer(ctask, point, phi_star):
    """Unverified lab-frame answer at the chosen control angle.

    Returns ((phi_star, omega, tau, theta), h_total). omega and tau come
    from point, the task's _curve_point that the refinement evaluates, and
    the full-throttle residual is checked at phi_star. The orientation check
    is not repeated: the search has run it on every angle it can return.
    h_total = a0 I + (omega/2) n . sigma for the lab axis n at phi_star.
    """
    omega, tau = point(phi_star)
    c, s = math.cos(phi_star), math.sin(phi_star)
    x, y = _axis_xy(ctask.wind)
    _check_omega_residual(ctask.wind, x * c + y * s, omega)
    axis_lab = ctask.frame.to_lab([c, s, 0.0])
    h_total = pauli_compose(ctask.h0_trace_half, 0.5 * omega * axis_lab)
    return (float(phi_star), omega, tau, ctask.theta), h_total


def _verified(task, answer, h_total, what):
    """NavigationSolution of answer = (phi_star, omega, tau, theta) and h_total,
    once checked_control passes it for task; a failed check raises
    ArithmeticError naming it, prefixed by what.
    """
    phi_star, omega, tau, theta = answer
    h_control, checks = checked_control(
        h_total, task.h0, tau, what, states=(task.psi_initial, task.psi_final)
    )
    return NavigationSolution(
        phi_star=phi_star,
        omega_star=omega,
        tau_star=tau,
        theta=theta,
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
    scanned voyage times are the boundary candidates. Equal voyage times
    go to the smaller angle: an optimum at pi exactly is returned as the
    first half's refined angle just below pi when its time ties the pi
    candidate's. Without wind the geodesic angle pi/2 is taken, unscanned.

    Each half is scanned as its own slice of the grid, ends included (pi
    lies in both), so every scanned voyage time equals the full scan's bit
    for bit. _half_bounds gives a closed-form lower bound on tau over each
    half, alpha's floor there over omega at the half's largest wind
    projection. The half with the smaller bound is scanned and refined
    first; the other is skipped when its bound exceeds the best voyage time
    found by the relative margin _PRUNE_MARGIN (1e-3), else scanned and
    refined the same way. A skipped half holds no candidate that could win,
    so the answer is the one both halves would give.

    The scan is tau_of_phi's checked curve on slices of the fixed _SCAN_COS
    and _SCAN_SIN tables instead of fresh trig. The orientation check covers
    every angle whose curve value the solver uses: the grid angles of each
    scanned half (exempting, as everywhere, |sin phi| below 1e-6), and
    every angle either refinement evaluated, the returned one included, or
    else pi/2 without wind, in one alpha_of_phi batch. The full-throttle
    residual is checked on the scanned grid angles and again at the
    returned angle on assembly. A skipped half's angles are not evaluated,
    so neither check runs there.

    The answer is built in the lab frame (_answer) and verified once by
    checked_control (_verified); solve_embedded builds a block answer with
    _answer and verifies only the embedded one.
    """
    return _verified(task, *_answer(task), "solution")


def _answer(task):
    """optimize's unverified answer: (answer, h_total) as _lab_answer returns them
    at the control angle found by the search optimize describes.

    The task's one _curve_point (ctask._point) serves the refinement and
    the assembly of every solve. Each half's
    grid minimum among its interior points is bracketed by its two grid
    neighbours; _SCAN_PHIS carries 2 pi after the last grid angle, so both
    exist in either half.
    """
    ctask = canonicalize(task)
    point = ctask._point
    if ctask.wind.is_zero:
        # no wind: full throttle along the geodesic, no scan needed
        phi_star = np.pi / 2.0
        seen = [phi_star]
    else:
        half = DEFAULT_GRID_POINTS // 2
        # scan indices of each half, ends included: pi lies in both
        scans = (slice(0, half + 1), slice(half, DEFAULT_GRID_POINTS))
        seen = []

        def objective(phi):
            seen.append(phi)
            return point(phi)[1]

        bounds = ctask._bounds
        candidates = []
        for k in (0, 1) if bounds[0] <= bounds[1] else (1, 0):
            if candidates and bounds[k] > min(c[1] for c in candidates) * (1.0 + _PRUNE_MARGIN):
                # when the first half is skipped, tau(0) = pi/omega(x) is
                # at least its bound, so the 0 candidate cannot win either
                break
            scan = scans[k]
            tau = _voyage_curve(ctask, _SCAN_PHIS[scan], _SCAN_COS[scan], _SCAN_SIN[scan]).tau
            best = scan.start + 1 + np.argmin(tau[1:half])
            candidates.append(
                golden_min(objective, _SCAN_PHIS[best - 1], _SCAN_PHIS[best + 1], DEFAULT_PHI_TOL)
            )
            if k == 0:
                candidates += [(0.0, tau[0]), (np.pi, tau[half])]
            else:
                candidates.append((np.pi, tau[0]))
        tau_best = min(c[1] for c in candidates)
        phi_star = min(c[0] for c in candidates if c[1] == tau_best)
    alpha_of_phi(ctask.theta, np.asarray(seen))
    return _lab_answer(ctask, point, phi_star)
