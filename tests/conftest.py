"""Shared builders for the test suite."""

import numpy as np
import pytest

from qnav import HermitianOperator, NavigationTask, StateVector, pauli_compose


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _refuse_arange_above(monkeypatch, cap, what):
    """np.arange refusing any length above cap, so a test of the cap fails
    instead of allocating the grid it should refuse."""
    real = np.arange

    def arange(*args, **kwargs):
        if args and np.ndim(args[0]) == 0 and args[0] > cap:
            raise AssertionError(f"np.arange({args[0]}) above the {what}")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)


@pytest.fixture
def capped_arange(monkeypatch):
    """np.arange refusing any length above the oracle's sample cap."""
    from qnav.oracle import MAX_ORACLE_SAMPLES

    _refuse_arange_above(monkeypatch, MAX_ORACLE_SAMPLES, "oracle sample cap")


@pytest.fixture
def capped_sweep_arange(monkeypatch):
    """np.arange refusing any length above sweep's point cap."""
    from qnav.state_nav import MAX_SWEEP_POINTS

    _refuse_arange_above(monkeypatch, MAX_SWEEP_POINTS, "sweep point cap")


def record_calls(monkeypatch, module, name, calls):
    """Wrap module.name so that each call appends (qualified name, first argument) to calls."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((f"{module.__name__}.{name}", args[0] if args else None))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def same_bits(a, b):
    """Equal dtype, shape and bytes: bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def haar_state(rng, dim=2):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(z / np.linalg.norm(z))


def haar_unitary(rng, dim=2):
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def qft(n):
    """The n-level quantum Fourier transform."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def random_traceless_hermitian(rng, dim=2, strength=None):
    """Traceless Hermitian with tr(h^2) = strength (default: leave scale alone)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (z + z.conj().T)
    h -= np.trace(h).real / dim * np.eye(dim)
    if strength is not None:
        cur = np.trace(h @ h).real
        h *= np.sqrt(strength / cur)
    return HermitianOperator(h)


def random_unit_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def symmetric_pair(theta):
    """States at 1/2(cos t/2, 0, +-sin t/2) on the Bloch sphere."""
    psi_i = StateVector([np.cos((np.pi - theta) / 4.0), np.sin((np.pi - theta) / 4.0)])
    psi_f = StateVector([np.cos((np.pi + theta) / 4.0), np.sin((np.pi + theta) / 4.0)])
    return psi_i, psi_f


def wind_from_axis(epsilon, axis):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return pauli_compose(0.0, np.sqrt(epsilon / 2.0) * axis)


def make_task(theta, epsilon, axis):
    psi_i, psi_f = symmetric_pair(theta)
    return NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=wind_from_axis(epsilon, axis))


def benchmark_axis():
    x, y = 0.1, 0.23
    return np.array([x, y, np.sqrt(1.0 - x * x - y * y)])


def benchmark_task():
    """Reference benchmark: x=0.1, y=0.23, eps=0.9, theta=pi/2."""
    return make_task(np.pi / 2.0, 0.9, benchmark_axis())
