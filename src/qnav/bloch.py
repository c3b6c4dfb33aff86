"""Bloch-vector geometry and the canonical two-state frame.

States map to Bloch vectors of radius 1/2. The canonical frame places
the initial and target states symmetrically about the equator in the
xz-plane, with the background axis rotated along.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTaskError, DimensionError
from .linalg import pauli_compose, pauli_decompose, require_wind_below_budget

# below this separation the task is degenerate, and within it of pi antipodal
DEGENERATE_THETA_TOL = 1e-9

__all__ = [
    "DEGENERATE_THETA_TOL",
    "CanonicalFrame",
    "WindSpec",
    "state_to_bloch",
    "angular_separation",
    "distinct_separation",
    "build_canonical_frame",
    "wind_operator",
]


def state_to_bloch(psi):
    """Bloch vector (radius 1/2) of a qubit state; global phase drops out."""
    if psi.dim != 2:
        raise DimensionError(f"Bloch map needs dim 2, got {psi.dim}")
    a, b = psi.amplitudes
    cross = np.conj(a) * b
    return np.array([cross.real, cross.imag, 0.5 * (abs(a) ** 2 - abs(b) ** 2)])


def _overlap_separation(psi_i, psi_f):
    """Overlap <psi_i|psi_f> and the separation 2*arccos|<psi_i|psi_f>|, any dim."""
    overlap = np.vdot(psi_i.amplitudes, psi_f.amplitudes)
    # |overlap| is finite and nonnegative; roundoff can lift it above 1
    r = abs(overlap)
    return overlap, 2.0 * float(np.arccos(1.0 if r > 1.0 else r))


def angular_separation(psi_i, psi_f):
    """Angle between the Bloch vectors of two states, 2*arccos|<psi_i|psi_f>|."""
    if psi_i.dim != 2 or psi_f.dim != 2:
        raise DimensionError("angular separation is defined for qubit states")
    return _overlap_separation(psi_i, psi_f)[1]


def distinct_separation(psi_i, psi_f):
    """Overlap and separation of two states of any dim; DegenerateTaskError if they coincide."""
    overlap, theta = _overlap_separation(psi_i, psi_f)
    if theta < DEGENERATE_THETA_TOL:
        raise DegenerateTaskError(
            f"states coincide (separation {theta:.3e}); tau = 0, no control needed"
        )
    return overlap, theta


def _antipodal(theta):
    """Whether separation theta counts as antipodal, within DEGENERATE_THETA_TOL of pi."""
    return theta >= np.pi - DEGENERATE_THETA_TOL


@dataclass(frozen=True, eq=False)
class CanonicalFrame:
    """Proper rotation from lab Bloch coordinates to the canonical frame.

    Rows of `rotation` are the canonical axes expressed in lab
    coordinates. `antipodal_tiebreak` records that the in-plane axis was
    chosen by the deterministic tie-break because the states are
    (numerically) antipodal and the generic construction degenerates.
    """

    rotation: np.ndarray
    theta: float
    antipodal_tiebreak: bool = False

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float, copy=True)
        if r.shape != (3, 3):
            raise DimensionError(f"rotation must be 3x3, got {r.shape}")
        r.setflags(write=False)
        object.__setattr__(self, "rotation", r)

    def to_canonical(self, v):
        return self.rotation @ np.asarray(v, dtype=float)

    def to_lab(self, v):
        return self.rotation.T @ np.asarray(v, dtype=float)


def _tiebreak_unit_orthogonal(b_hat):
    """Deterministic unit vector orthogonal to b_hat.

    Picks the coordinate axis least aligned with b_hat and removes the
    parallel component.
    """
    k = int(np.argmin(np.abs(b_hat)))
    e = np.zeros(3)
    e[k] = 1.0
    e -= np.dot(e, b_hat) * b_hat
    return e / np.linalg.norm(e)


def _cross(a, b):
    """a x b for 3-vectors, in np.cross's operation order, so bit for bit its result."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def build_canonical_frame(psi_i, psi_f):
    """Frame placing psi_i at 1/2(cos t/2, 0, sin t/2) and psi_f mirrored below.

    Raises DegenerateTaskError when the states coincide. For antipodal
    states the in-plane direction is arbitrary; a deterministic
    tie-break is used and flagged on the returned frame.
    """
    b_i = state_to_bloch(psi_i)
    b_f = state_to_bloch(psi_f)
    _, theta = distinct_separation(psi_i, psi_f)
    z_ax = b_i - b_f
    z_ax = z_ax / np.linalg.norm(z_ax)
    antipodal = _antipodal(theta)
    if antipodal:
        x_ax = _tiebreak_unit_orthogonal(z_ax)
    else:
        x_ax = b_i + b_f
        x_ax = x_ax / np.linalg.norm(x_ax)
        # one Gram-Schmidt pass keeps orthogonality at machine precision
        z_ax -= np.dot(z_ax, x_ax) * x_ax
        z_ax /= np.linalg.norm(z_ax)
    y_ax = _cross(z_ax, x_ax)
    rot = np.array([x_ax, y_ax, z_ax])
    return CanonicalFrame(rotation=rot, theta=float(theta), antipodal_tiebreak=antipodal)


@dataclass(frozen=True, eq=False)
class WindSpec:
    """Background Hamiltonian strength and Bloch axis.

    epsilon is the trace norm tr(h0^2) of the traceless background; it
    must stay strictly below the unit control budget. epsilon == 0 means
    no wind and carries no axis; an axis given with it is still checked.
    """

    epsilon: float
    axis: np.ndarray | None

    def __post_init__(self):
        eps = float(self.epsilon)
        if not eps >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {eps}")
        require_wind_below_budget(eps)
        object.__setattr__(self, "epsilon", eps)
        if self.axis is None:
            if eps != 0.0:
                raise ValueError("nonzero wind needs an axis")
            return
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,):
            raise DimensionError(f"axis must have shape (3,), got {ax.shape}")
        norm = float(np.linalg.norm(ax))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"axis norm {norm!r} deviates from 1 beyond 1e-12")
        ax = ax / norm
        ax.setflags(write=False)
        object.__setattr__(self, "axis", ax if eps != 0.0 else None)

    @property
    def is_zero(self):
        return self.epsilon == 0.0


def _pauli_wind(traceless):
    """(a, eps): the read-only Pauli vector of a traceless 2x2 background and
    its strength eps = 2|a|^2, the rounding of tr(traceless^2) that WindSpec holds."""
    _, a = pauli_decompose(traceless)
    a.setflags(write=False)
    return a, 2.0 * float(a.dot(a))


def _traceless_wind(frame, a, eps):
    """WindSpec of the _pauli_wind (a, eps), its axis in frame's canonical coordinates."""
    if eps == 0.0:
        return WindSpec(epsilon=0.0, axis=None)
    axis_lab = a / np.linalg.norm(a)
    return WindSpec(epsilon=eps, axis=frame.to_canonical(axis_lab))


def wind_operator(wind):
    """Rebuild the traceless 2x2 background sqrt(eps/2) * axis . sigma.

    The identity coefficient -0.0 adds nothing, not even a sign: the bits are
    the sigma sum's unless some sqrt(eps/2) * axis[k] underflows to zero."""
    a = np.zeros(3) if wind.is_zero else np.sqrt(wind.epsilon / 2.0) * wind.axis
    return pauli_compose(-0.0, a)
