"""Complex linear algebra on small dense matrices.

Pauli composition and decomposition, Hermitian and unitary checks,
matrix exponentials of Hermitian generators, eigenphases of unitaries,
the validation of integer log-branch offsets, Hilbert-Schmidt trace
products. Everything here targets dims up to ~8, so eigendecomposition is
used throughout instead of Pade-style schemes.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NotHermitianError, NotUnitaryError, WindTooStrongError

HERMITIAN_DRIFT_TOL = 1e-12
UNITARY_TOL = 1e-10
STATE_NORM_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)
del _m

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "HermitianOperator",
    "StateVector",
    "pauli_compose",
    "pauli_decompose",
    "hs_trace_product",
    "expm_unitary",
    "unitary_eigenphases",
    "require_unitary",
    "require_wind_below_budget",
    "split_background",
    "spectral_span",
]


def _as_square_complex(m, what="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    if a.shape[0] < 2:
        raise DimensionError(f"{what} must have dim >= 2, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian matrix, stored in exactly Hermitian form.

    Construction averages the input with its adjoint and rejects inputs
    whose anti-Hermitian drift exceeds HERMITIAN_DRIFT_TOL, so roundoff
    from upstream arithmetic is absorbed but genuine errors are not.

    The operator decomposes itself at most once: _eigh holds the read-only
    np.linalg.eigh arrays (w, v) of the matrix from their first use, so
    expm_unitary and the oracle's amplitude table share one decomposition.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = _as_square_complex(self.matrix, "Hermitian operator")
        adj = a.conj().T
        drift = np.abs(a - adj).max()
        if drift > HERMITIAN_DRIFT_TOL:
            raise NotHermitianError(
                f"anti-Hermitian drift {drift:.3e} exceeds {HERMITIAN_DRIFT_TOL:.0e}"
            )
        sym = 0.5 * (a + adj)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @cached_property
    def _eigh(self):
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state; renormalized exactly at construction."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).ravel()
        if a.size < 2:
            raise DimensionError(f"state must have dim >= 2, got {a.size}")
        if not np.all(np.isfinite(a)):
            raise ValueError("state contains non-finite amplitudes")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL:.0e}")
        a = a / norm
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self):
        return self.amplitudes.size


def pauli_compose(a0, a):
    """Return a0*I + a[0]*sigma_x + a[1]*sigma_y + a[2]*sigma_z as a HermitianOperator."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise DimensionError(f"coefficient vector must have shape (3,), got {a.shape}")
    a0 = float(a0)
    ax, ay, az = a.tolist()
    # the zero terms ax sigma_x + ay sigma_y put on the diagonal: they set
    # the sign of a zero diagonal entry when a0 is -0.0 and az a zero
    zero = ax * 0.0 + ay * 0.0
    return HermitianOperator(
        np.array([[a0 + (zero + az), ax - 1j * ay], [ax + 1j * ay, a0 + (zero - az)]])
    )


def pauli_decompose(h):
    """Inverse of pauli_compose for 2x2 Hermitian operators.

    Args:
        h: HermitianOperator of dim 2.

    Returns:
        Tuple (a0, a) with a0 the identity coefficient and a the real
        3-vector of Pauli coefficients.
    """
    if h.dim != 2:
        raise DimensionError(f"Pauli decomposition needs dim 2, got {h.dim}")
    m = h.matrix
    a0 = 0.5 * np.real(m[0, 0] + m[1, 1])
    ax = 0.5 * np.real(m[0, 1] + m[1, 0])
    ay = 0.5 * np.imag(m[1, 0] - m[0, 1])
    az = 0.5 * np.real(m[0, 0] - m[1, 1])
    return float(a0), np.array([ax, ay, az])


def hs_trace_product(a, b):
    """Hilbert-Schmidt product Re tr(a b) of two Hermitian operators."""
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch {a.dim} vs {b.dim}")
    t = complex((a.matrix @ b.matrix).trace())
    # tr(AB) is real for Hermitian A, B; a sizeable imaginary part means a bug upstream
    if abs(t.imag) > 1e-12:
        raise ArithmeticError(f"trace product has imaginary part {t.imag:.3e}")
    return t.real


def expm_unitary(h, t):
    """Unitary e^{-i h t} via the eigendecomposition h._eigh of the Hermitian generator."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    w, v = h._eigh
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def require_unitary(u, what="matrix"):
    """Validate unitarity within UNITARY_TOL and return the array."""
    a = _as_square_complex(u, what)
    dev = np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0])))
    if dev > UNITARY_TOL:
        raise NotUnitaryError(f"{what} deviates from unitary by {dev:.3e}")
    return a


def unitary_eigenphases(u):
    """Eigenphases and eigenvectors of a unitary u = e^{-i X}.

    Returns (lam, q) with lam the real eigenphases of X in (-pi, pi]
    sorted ascending (stable sort) and q the matching orthonormal
    eigenvector columns, so that u = q diag(e^{-i lam}) q^dagger.
    Inside an exactly degenerate cluster the basis is arbitrary, so
    branch offsets that differ within a cluster give a generator that
    depends on it.
    """
    a = require_unitary(u)
    w, v = np.linalg.eig(a)
    lam = -np.angle(w)
    lam = np.where(lam <= -np.pi, lam + 2.0 * np.pi, lam)
    order = np.argsort(lam, kind="stable")
    # eig's eigenvectors for (nearly) equal phases need not be orthogonal;
    # those of well-separated phases of a normal matrix already are, so QR
    # of the phase-sorted columns mixes columns only within a cluster
    q, _ = np.linalg.qr(v[:, order])
    return lam[order], q


def _integer_offsets(offsets, n):
    """offsets as an int array of shape (n,).

    DimensionError for another shape; ValueError for an entry that is not
    an integer (operator.index fails), so 0.7 is never truncated to 0.
    """
    raw = np.asarray(offsets)
    if raw.shape != (n,):
        raise DimensionError(f"branch offsets must have length {n}, got shape {raw.shape}")
    try:
        return np.array([operator.index(k) for k in raw.tolist()], dtype=int)
    except TypeError:
        raise ValueError(f"branch offsets must be integers, got {raw.tolist()}") from None


def require_wind_below_budget(strength):
    """Reject a traceless background trace norm that reaches the unit control budget."""
    if strength >= 1.0:
        raise WindTooStrongError(
            f"background trace norm {strength:.6g} reaches the unit control budget"
        )


def split_background(h0):
    """(trace/dim, traceless part, strength tr(traceless^2)) of a background
    whose strength stays below the unit control budget; every task's one split."""
    trace_part = float(np.real(np.trace(h0.matrix))) / h0.dim
    traceless = HermitianOperator(h0.matrix - trace_part * np.eye(h0.dim))
    strength = hs_trace_product(traceless, traceless)
    require_wind_below_budget(strength)
    return trace_part, traceless, strength


def spectral_span(h):
    """Spread max - min of the eigenvalues of a Hermitian operator.

    Computed with its own np.linalg.eigvalsh rather than read off h._eigh:
    the two differ in the last bits for some operators, and the spread sets
    the oracle's default step, so sharing would move the oracle's grid.
    """
    w = np.linalg.eigvalsh(h.matrix)
    return float(w[-1] - w[0])
