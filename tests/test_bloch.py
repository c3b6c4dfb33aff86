import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnav import (
    DegenerateTaskError,
    DimensionError,
    HermitianOperator,
    NavigationTask,
    StateVector,
    WindTooStrongError,
    angular_separation,
    build_canonical_frame,
    state_to_bloch,
    wind_operator,
)
from qnav.bloch import WindSpec, _cross, _norm
from qnav.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from qnav.state_nav import canonicalize

from conftest import (
    benchmark_axis,
    haar_state,
    haar_unitary,
    same_bits,
    symmetric_pair,
    wind_from_axis,
)

angles = st.floats(min_value=0.05, max_value=np.pi - 0.05)
phases = st.floats(min_value=-np.pi, max_value=np.pi)


def test_north_pole():
    b = state_to_bloch(StateVector([1.0, 0.0]))
    assert np.allclose(b, [0.0, 0.0, 0.5], atol=1e-15)


def test_symmetric_pair_bloch_coordinates():
    theta = np.pi / 2.0
    psi_i, psi_f = symmetric_pair(theta)
    half = theta / 2.0
    assert np.allclose(state_to_bloch(psi_i), 0.5 * np.array([np.cos(half), 0.0, np.sin(half)]), atol=1e-15)
    assert np.allclose(state_to_bloch(psi_f), 0.5 * np.array([np.cos(half), 0.0, -np.sin(half)]), atol=1e-15)


@given(theta=angles, gamma=phases)
@settings(max_examples=60, deadline=None)
def test_bloch_phase_invariance(theta, gamma):
    psi, _ = symmetric_pair(theta)
    shifted = StateVector(np.exp(1j * gamma) * psi.amplitudes)
    assert np.allclose(state_to_bloch(shifted), state_to_bloch(psi), atol=1e-14)


def test_bloch_radius_half(rng):
    for _ in range(100):
        b = state_to_bloch(haar_state(rng))
        assert np.linalg.norm(b) == pytest.approx(0.5, abs=1e-12)


def test_angular_separation_trivial_cases():
    psi = StateVector([1.0, 0.0])
    assert angular_separation(psi, psi) == 0.0
    assert angular_separation(psi, StateVector([0.0, 1.0])) == pytest.approx(np.pi)


@given(theta=angles)
@settings(max_examples=60, deadline=None)
def test_angular_separation_matches_construction(theta):
    psi_i, psi_f = symmetric_pair(theta)
    assert angular_separation(psi_i, psi_f) == pytest.approx(theta, abs=1e-12)


def test_angular_separation_symmetric_and_phase_invariant(rng):
    for _ in range(50):
        a, b = haar_state(rng), haar_state(rng)
        s1 = angular_separation(a, b)
        s2 = angular_separation(b, a)
        shifted = StateVector(np.exp(1j * rng.uniform(-np.pi, np.pi)) * b.amplitudes)
        assert s1 == pytest.approx(s2, abs=1e-14)
        assert angular_separation(a, shifted) == pytest.approx(s1, abs=1e-12)


def test_frame_is_identity_for_canonical_pair():
    psi_i, psi_f = symmetric_pair(np.pi / 2.0)
    frame = build_canonical_frame(psi_i, psi_f)
    assert np.allclose(frame.rotation, np.eye(3), atol=1e-10)
    assert frame.theta == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert not frame.antipodal_tiebreak


def test_frame_under_random_rotations(rng):
    """Conjugating the pair by any unitary leaves theta and the frame contract intact."""
    for _ in range(50):
        theta = rng.uniform(0.1, np.pi - 0.1)
        psi_i, psi_f = symmetric_pair(theta)
        u = haar_unitary(rng)
        pi_rot = StateVector(u @ psi_i.amplitudes)
        pf_rot = StateVector(u @ psi_f.amplitudes)
        frame = build_canonical_frame(pi_rot, pf_rot)
        assert frame.theta == pytest.approx(theta, abs=1e-10)
        r = frame.rotation
        assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        half = frame.theta / 2.0
        target_i = 0.5 * np.array([np.cos(half), 0.0, np.sin(half)])
        target_f = 0.5 * np.array([np.cos(half), 0.0, -np.sin(half)])
        assert np.allclose(frame.to_canonical(state_to_bloch(pi_rot)), target_i, atol=1e-10)
        assert np.allclose(frame.to_canonical(state_to_bloch(pf_rot)), target_f, atol=1e-10)


def test_frame_round_trip(rng):
    psi_i, psi_f = symmetric_pair(1.1)
    frame = build_canonical_frame(psi_i, psi_f)
    for _ in range(20):
        v = rng.normal(size=3)
        assert np.allclose(frame.to_lab(frame.to_canonical(v)), v, atol=1e-12)


def test_frame_degenerate_rejected():
    psi = StateVector([0.6, 0.8])
    with pytest.raises(DegenerateTaskError):
        build_canonical_frame(psi, psi)


def test_frame_antipodal_tiebreak_deterministic(rng):
    psi_i = StateVector([1.0, 0.0])
    psi_f = StateVector([0.0, 1.0])
    f1 = build_canonical_frame(psi_i, psi_f)
    f2 = build_canonical_frame(psi_i, psi_f)
    assert f1.antipodal_tiebreak
    assert np.array_equal(f1.rotation, f2.rotation)
    assert f1.theta == pytest.approx(np.pi)
    # the canonical placement still holds, with sin(theta/2) = 1
    assert np.allclose(f1.to_canonical(state_to_bloch(psi_i)), [0.0, 0.0, 0.5], atol=1e-10)
    assert np.allclose(f1.to_canonical(state_to_bloch(psi_f)), [0.0, 0.0, -0.5], atol=1e-10)


def test_component_cross_is_np_cross(rng):
    """The frame's cross product, written out by component, is np.cross to
    the last bit (signed zeros included) over magnitudes 1e-8 to 1e8."""
    n = 10_000
    a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    b = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    # exact zeros and axis-aligned pairs in a few rows
    a[:50, rng.integers(0, 3, size=50)] = 0.0
    b[25:75] = np.eye(3)[rng.integers(0, 3, size=50)]
    for x, y in zip(a, b):
        assert same_bits(_cross(x, y), np.cross(x, y)), (x, y)


def test_norm_is_np_linalg_norm_bitwise(rng):
    """The frame, WindSpec and the wind axis take a 3-vector's length as
    sqrt(v . v), the reduction np.linalg.norm runs for a real 1-D vector:
    the same bits over magnitudes 1e-8 to 1e8, zeros and axis vectors."""
    n = 10_000
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    v[:50, rng.integers(0, 3, size=50)] = 0.0
    v[50:80] = np.eye(3)[rng.integers(0, 3, size=30)] * rng.choice([-1.0, 1.0], size=(30, 1))
    v[80:90] = 0.0
    v[90:100] = np.eye(3)[rng.integers(0, 3, size=10)] * 10.0 ** rng.uniform(-8, 8, size=(10, 1))
    for x in v:
        norm = _norm(x)
        assert type(norm) is float
        assert same_bits(np.float64(norm), np.linalg.norm(x)), x


def test_frame_y_axis_is_np_cross(rng):
    for k in range(50):
        u = haar_unitary(rng)
        theta = np.pi if k % 10 == 0 else rng.uniform(0.05, np.pi - 0.05)
        psi_i, psi_f = symmetric_pair(theta)
        frame = build_canonical_frame(
            StateVector(u @ psi_i.amplitudes), StateVector(u @ psi_f.amplitudes)
        )
        x_ax, y_ax, z_ax = frame.rotation
        assert same_bits(y_ax, np.cross(z_ax, x_ax))


def canonical_wind(psi_i, psi_f, h0):
    """The canonical wind of the qubit task carrying psi_i to psi_f under h0."""
    return canonicalize(NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=h0)).wind


def test_canonical_wind_identity_frame():
    psi_i, psi_f = symmetric_pair(np.pi / 2.0)
    spec = canonical_wind(psi_i, psi_f, wind_from_axis(0.9, benchmark_axis()))
    assert spec.epsilon == pytest.approx(0.9, abs=1e-12)
    assert np.allclose(spec.axis, benchmark_axis(), atol=1e-10)


def test_canonical_wind_preserves_strength_and_spectrum(rng):
    """The wind axis rotates; its strength and eigenvalues cannot change."""
    for _ in range(100):
        theta = rng.uniform(0.1, np.pi - 0.1)
        u = haar_unitary(rng)
        psi_i, psi_f = symmetric_pair(theta)
        eps = rng.uniform(0.05, 0.95)
        h0 = wind_from_axis(eps, rng.normal(size=3))
        psi_i, psi_f = StateVector(u @ psi_i.amplitudes), StateVector(u @ psi_f.amplitudes)
        spec = canonical_wind(psi_i, psi_f, h0)
        assert spec.epsilon == pytest.approx(eps, abs=1e-12)
        recomposed = wind_operator(spec)
        assert np.allclose(
            np.linalg.eigvalsh(recomposed.matrix), np.linalg.eigvalsh(h0.matrix), atol=1e-10
        )


def test_canonical_wind_zero():
    psi_i, psi_f = symmetric_pair(1.0)
    spec = canonical_wind(psi_i, psi_f, HermitianOperator(np.zeros((2, 2))))
    assert spec.is_zero
    assert spec.axis is None


def test_canonical_wind_splits_trace():
    psi_i, psi_f = symmetric_pair(1.0)
    h0 = HermitianOperator(0.7 * np.eye(2) + 0.3 * np.diag([1.0, -1.0]))
    ctask = canonicalize(NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=h0))
    assert ctask.wind.epsilon == pytest.approx(2.0 * 0.3**2, abs=1e-12)
    assert ctask.h0_trace_half == pytest.approx(0.7, abs=1e-15)


SIGNED_AXIS_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 0.3, -0.3, 1.0, -1.0)


def test_wind_operator_is_the_sigma_sum_bytewise(rng):
    """wind_operator has the bytes of s * (x sigma_x + y sigma_y + z sigma_z),
    s = sqrt(eps/2), after symmetrisation, signed zeros included, unless some
    s * axis[k] underflows to zero, where the values are still equal: every
    sign pattern of the special axis entries at three strengths, 2000
    seeded winds with a third of the axis entries zeroed with a random sign,
    and the zero wind."""
    axes = [np.array(entries) for entries in itertools.product(SIGNED_AXIS_ENTRIES, repeat=3)]
    cases = [(eps, v) for v in axes for eps in (5e-324, 1e-300, 0.999999)]
    for _ in range(2_000):
        v = rng.normal(size=3)
        pick = rng.uniform(size=3) < 1.0 / 3.0
        v[pick] = rng.choice([0.0, -0.0], size=int(pick.sum()))
        cases.append((rng.uniform(0.0, 1.0), v))
    # an axis whose squares all underflow has no direction to normalise
    cases = [(eps, v / np.linalg.norm(v)) for eps, v in cases if np.linalg.norm(v) > 0.0]
    underflows = 0
    for eps, axis in cases:
        spec = WindSpec(epsilon=eps, axis=axis)
        s = np.sqrt(spec.epsilon / 2.0)
        x, y, z = spec.axis
        want = HermitianOperator(s * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)).matrix
        got = wind_operator(spec).matrix
        if np.any((s * spec.axis == 0.0) & (spec.axis != 0.0)):
            # a coefficient that underflows to zero drops the sign that the
            # unscaled sum carried into a zero diagonal entry
            underflows += 1
            assert np.array_equal(got, want), (eps, axis)
        else:
            assert same_bits(got, want), (eps, axis)
    assert 0 < underflows < len(cases) // 2
    zero = HermitianOperator(np.zeros((2, 2), dtype=complex))
    assert same_bits(wind_operator(WindSpec(epsilon=0.0, axis=None)).matrix, zero.matrix)


def test_wind_spec_validation():
    with pytest.raises(ValueError):
        WindSpec(epsilon=-0.1, axis=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(WindTooStrongError):
        WindSpec(epsilon=1.2, axis=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        WindSpec(epsilon=0.5, axis=np.array([0.0, 0.0, 2.0]))
    ok = WindSpec(epsilon=0.5, axis=np.array([0.0, 0.0, 1.0]))
    assert not ok.is_zero
    # a zero wind checks a given axis like any other, then carries none
    with pytest.raises(ValueError, match="^axis norm 8.66"):
        WindSpec(epsilon=0.0, axis=np.array([5.0, 5.0, 5.0]))
    with pytest.raises(DimensionError):
        WindSpec(epsilon=0.0, axis=np.array([1.0, 2.0]))
    assert WindSpec(epsilon=0.0, axis=np.array([0.0, 0.0, 1.0])).axis is None
    assert WindSpec(epsilon=0.0, axis=None).axis is None


def test_wind_spec_rejects_nan():
    """A NaN strength or axis fails the same checks as a negative strength or
    a non-unit axis; an infinite strength is still too strong."""
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="^epsilon must be nonnegative, got nan$"):
        WindSpec(epsilon=float("nan"), axis=z)
    with pytest.raises(ValueError, match="^axis norm nan deviates from 1 beyond 1e-12$"):
        WindSpec(epsilon=0.5, axis=np.array([np.nan, 0.0, 1.0]))
    with pytest.raises(WindTooStrongError):
        WindSpec(epsilon=float("inf"), axis=z)
