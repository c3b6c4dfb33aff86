import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnav import (
    DimensionError,
    HermitianOperator,
    NotHermitianError,
    NotUnitaryError,
    StateVector,
    expm_unitary,
    hs_trace_product,
    pauli_compose,
    pauli_decompose,
)
from qnav.bloch import CanonicalFrame, angular_separation, state_to_bloch
from qnav.linalg import (
    HERMITIAN_DRIFT_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    UNITARY_TOL,
    _as_square_complex,
    _integer_offsets,
    spectral_span,
    split_background,
    unitary_eigenphases,
)

from qnav.state_nav import NavigationTask, canonicalize

from conftest import haar_unitary, qft, random_traceless_hermitian, record_calls, same_bits

coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_pauli_compose_zero():
    h = pauli_compose(0.0, [0.0, 0.0, 0.0])
    assert np.array_equal(h.matrix, np.zeros((2, 2)))


def test_pauli_compose_identity():
    h = pauli_compose(1.0, [0.0, 0.0, 0.0])
    assert np.array_equal(h.matrix, np.eye(2))


def test_pauli_compose_benchmark_wind_strength():
    """The benchmark wind has trace norm 0.9 by construction."""
    x, y = 0.1, 0.23
    z = np.sqrt(1.0 - x * x - y * y)
    h0 = pauli_compose(0.0, np.sqrt(0.9 / 2.0) * np.array([x, y, z]))
    assert hs_trace_product(h0, h0) == pytest.approx(0.9, abs=1e-14)


@pytest.mark.parametrize(
    "mat,expected",
    [
        (SIGMA_Z, (0.0, (0.0, 0.0, 1.0))),
        (np.eye(2), (1.0, (0.0, 0.0, 0.0))),
        (SIGMA_X, (0.0, (1.0, 0.0, 0.0))),
    ],
)
def test_pauli_decompose_basis(mat, expected):
    a0, a = pauli_decompose(HermitianOperator(mat))
    assert a0 == pytest.approx(expected[0], abs=1e-15)
    assert np.allclose(a, expected[1], atol=1e-15)


@given(a0=coeff, ax=coeff, ay=coeff, az=coeff)
@settings(max_examples=100, deadline=None)
def test_pauli_roundtrip(a0, ax, ay, az):
    h = pauli_compose(a0, [ax, ay, az])
    b0, b = pauli_decompose(h)
    back = pauli_compose(b0, b)
    assert np.max(np.abs(back.matrix - h.matrix)) <= 1e-14


def test_pauli_decompose_rejects_large_dims():
    h = HermitianOperator(np.eye(3))
    with pytest.raises(DimensionError):
        pauli_decompose(h)


def test_hs_trace_product_pauli_normalization():
    sx = HermitianOperator(SIGMA_X)
    sy = HermitianOperator(SIGMA_Y)
    assert hs_trace_product(sx, sx) == pytest.approx(2.0)
    assert hs_trace_product(sx, sy) == pytest.approx(0.0, abs=1e-15)


def test_hs_trace_product_nonnegative_on_squares(rng):
    for dim in (2, 3, 4):
        for _ in range(50):
            h = random_traceless_hermitian(rng, dim)
            assert hs_trace_product(h, h) >= 0.0


def test_hs_trace_product_dim_mismatch():
    with pytest.raises(DimensionError):
        hs_trace_product(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(3)))


def test_expm_at_zero_time(rng):
    h = random_traceless_hermitian(rng, 3)
    assert np.allclose(expm_unitary(h, 0.0), np.eye(3), atol=1e-15)


def test_expm_half_turn_about_y():
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    u = expm_unitary(h, np.pi / np.sqrt(2.0))
    assert np.allclose(u, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)


def test_expm_inverse_pairs(rng):
    for _ in range(100):
        h = random_traceless_hermitian(rng, 2)
        t = rng.uniform(-5.0, 5.0)
        prod = expm_unitary(h, t) @ expm_unitary(h, -t)
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-10


def expm_qubit_closed_form(h, t):
    """Reference e^{-i h t} for dim 2: phase times cos/sin of the Pauli part."""
    a0, a = pauli_decompose(h)
    t = float(t)
    r = float(np.linalg.norm(a))
    if r == 0.0:
        core = np.eye(2, dtype=complex)
    else:
        n = a / r
        ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
        core = np.cos(r * t) * np.eye(2, dtype=complex) - 1j * np.sin(r * t) * ns
    return np.exp(-1j * a0 * t) * core


def test_expm_closed_form_matches_eigendecomposition(rng):
    # includes a trace part so the closed form's phase factor is exercised
    for _ in range(1000):
        a0 = rng.uniform(-2.0, 2.0)
        a = rng.normal(size=3)
        t = rng.uniform(-4.0, 4.0)
        h = pauli_compose(a0, a)
        direct = expm_qubit_closed_form(h, t)
        eig = expm_unitary(h, t)
        assert np.max(np.abs(direct - eig)) <= 1e-12


def logm_unitary(u, branch_offsets=None):
    """Hermitian X with u = e^{-i X} on an explicit branch, from the exported parts.

    Eigenphases in the principal window (-pi, pi], ascending, each shifted
    by 2*pi*branch_offsets[k] (all zeros by default); NotUnitaryError when
    the result re-exponentiates to u with a residual above UNITARY_TOL.
    The offsets pass the same validation as solve_gate's branch.
    """
    lam, q = unitary_eigenphases(u)
    if branch_offsets is None:
        branch_offsets = np.zeros(lam.size, dtype=int)
    offs = _integer_offsets(branch_offsets, lam.size)
    op = HermitianOperator((q * (lam + 2.0 * np.pi * offs)) @ q.conj().T)
    resid = float(np.max(np.abs(expm_unitary(op, 1.0) - np.asarray(u, dtype=complex))))
    if resid > UNITARY_TOL:
        raise NotUnitaryError(f"log re-exponentiation residual {resid:.3e}")
    return op


def test_logm_identity():
    x = logm_unitary(np.eye(2))
    assert np.max(np.abs(x.matrix)) <= 1e-15


def test_logm_diagonal_principal():
    u = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    x = logm_unitary(u)
    assert np.max(np.abs(x.matrix - 0.3 * SIGMA_Z)) <= 1e-12


@pytest.mark.parametrize("offsets", [(1, 0), (0, 1), (-1, 2)])
def test_logm_branch_offsets_shift_eigenphases(offsets):
    """Offsets add whole turns per ascending eigenphase, re-exponentiation intact."""
    u = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    x = logm_unitary(u, offsets)
    phases = np.sort(np.linalg.eigvalsh(x.matrix))
    expected = np.sort(np.array([-0.3, 0.3]) + 2.0 * np.pi * np.asarray(offsets))
    assert np.allclose(phases, expected, atol=1e-12)
    back = expm_unitary(x, 1.0)
    assert np.max(np.abs(back - u)) <= 1e-10


def test_logm_roundtrip_random(rng):
    for dim in (2, 3, 4):
        for _ in range(30):
            u = haar_unitary(rng, dim)
            x = logm_unitary(u)
            assert np.max(np.abs(expm_unitary(x, 1.0) - u)) <= 1e-10


def assert_eigenphase_contract(u):
    """Ascending phases in (-pi, pi], orthonormal q, and u = q e^{-i lam} q^H."""
    lam, q = unitary_eigenphases(u)
    assert np.all(lam > -np.pi) and np.all(lam <= np.pi)
    assert np.all(np.diff(lam) >= 0.0)
    assert np.max(np.abs(q.conj().T @ q - np.eye(lam.size))) <= 1e-13
    assert np.max(np.abs((q * np.exp(-1j * lam)) @ q.conj().T - u)) <= 1e-13


CNOT = np.eye(4)[[0, 1, 3, 2]]
SWAP = np.eye(4)[[0, 2, 1, 3]]
TOFFOLI = np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
CZ = np.diag([1.0, 1.0, 1.0, -1.0])


def test_logm_eigenphase_window(rng):
    for dim in range(2, 9):
        for _ in range(50):
            assert_eigenphase_contract(haar_unitary(rng, dim))


@pytest.mark.parametrize("gap", [0.0, 1e-15, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("centre", [0.4, np.pi])
def test_eigenphases_degenerate_clusters(gap, centre, rng):
    """A cluster of k phases within gap of centre, the rest spread out; at
    centre pi the cluster straddles the window edge."""
    for n in range(2, 9):
        for k in range(2, n + 1):
            phases = rng.uniform(-np.pi, np.pi, n)
            phases[:k] = centre + gap * rng.standard_normal(k)
            v = haar_unitary(rng, n)
            assert_eigenphase_contract((v * np.exp(-1j * phases)) @ v.conj().T)


@pytest.mark.parametrize(
    "gate", [CNOT, SWAP, TOFFOLI, qft(4), qft(8), ISWAP, CZ],
    ids=["cnot", "swap", "toffoli", "qft4", "qft8", "iswap", "cz"],
)
def test_eigenphases_standard_gates(gate, rng):
    assert_eigenphase_contract(gate)
    for _ in range(10):
        v = haar_unitary(rng, gate.shape[0])
        assert_eigenphase_contract(v @ gate @ v.conj().T)


def test_logm_swap_is_basis_independent(rng):
    """SWAP has phases 0 (three-fold) and pi, so the principal log is pi times
    the antisymmetric projector whatever basis the cluster gets."""
    for _ in range(10):
        v = haar_unitary(rng, 4)
        x = logm_unitary(v @ SWAP @ v.conj().T)
        expected = v @ (0.5 * np.pi * (np.eye(4) - SWAP)) @ v.conj().T
        assert np.max(np.abs(x.matrix - expected)) <= 1e-12


def test_logm_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        logm_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_logm_rejects_bad_offsets():
    with pytest.raises(DimensionError):
        logm_unitary(np.eye(2), (1, 0, 0))


@pytest.mark.parametrize("offsets", [(0.7, -0.7), (1.5, 0.0), (1.0, 0.0), (np.float64(1.0), 0)])
def test_branch_generator_rejects_non_integral_offsets(offsets):
    """Offsets used to be cast with dtype=int, so 0.7 became 0."""
    with pytest.raises(ValueError, match="integers"):
        logm_unitary(np.diag([np.exp(-0.3j), np.exp(0.3j)]), offsets)


def test_branch_generator_takes_numpy_integers():
    u = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    want = logm_unitary(u, (1, -1)).matrix
    for offsets in (np.array([1, -1]), (np.int64(1), np.int8(-1)), [True, -1]):
        assert logm_unitary(u, offsets).matrix.tobytes() == want.tobytes()


def test_hermitian_operator_symmetrizes_small_drift():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5, -1.0]])
    h = HermitianOperator(m)
    assert np.array_equal(h.matrix, h.matrix.conj().T)


def test_hermitian_operator_rejects_large_drift():
    m = np.array([[1.0, 0.5 + 1e-10j], [0.5, -1.0]])
    with pytest.raises(NotHermitianError):
        HermitianOperator(m)


SIGNED_COEFFICIENTS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0)


def sigma_sum_matrix(a0, a):
    """pauli_compose's matrix as written with the Pauli products:
    a0 I + a[0] sigma_x + a[1] sigma_y + a[2] sigma_z."""
    a = np.asarray(a, dtype=float)
    m = float(a0) * np.eye(2, dtype=complex)
    m += a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z
    return m


def test_pauli_compose_is_the_sigma_sum_bytewise(rng):
    """pauli_compose, written entry by entry, has the bytes of the Pauli
    product sum after symmetrisation, signed zeros included: every sign
    pattern of the special values, then 10^4 seeded coefficient sets, a
    third of them special."""
    special = np.array(SIGNED_COEFFICIENTS)
    cases = [np.array(c) for c in itertools.product(SIGNED_COEFFICIENTS[:4] + (0.3, -0.3), repeat=4)]
    for _ in range(10_000):
        c = rng.normal(size=4) * 10.0 ** rng.uniform(-8.0, 8.0, size=4)
        pick = rng.uniform(size=4) < 1.0 / 3.0
        c[pick] = rng.choice(special, size=int(pick.sum()))
        cases.append(c)
    for c in cases:
        want = HermitianOperator(sigma_sum_matrix(c[0], c[1:])).matrix
        assert same_bits(pauli_compose(c[0], c[1:]).matrix, want), c
        assert same_bits(pauli_compose(float(c[0]), c[1:].tolist()).matrix, want), c


def two_adjoint_hermitian(m):
    """HermitianOperator's check and symmetrisation as written before it formed
    the adjoint once: (drift, symmetrised matrix or None when rejected)."""
    a = np.asarray(m, dtype=complex)
    drift = np.abs(a - a.conj().T).max()
    if drift > HERMITIAN_DRIFT_TOL:
        return drift, None
    return drift, 0.5 * (a + a.conj().T)


def test_hermitian_operator_matches_the_two_adjoint_constructor(rng):
    """Bytes and drift verdicts equal the earlier constructor's on seeded
    matrices, with drifts 0, far below, just under, at, just over and far
    above HERMITIAN_DRIFT_TOL."""
    verdicts = set()
    for n in (2, 3, 4, 5):
        for scale in (0.0, 1e-3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1e3):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            skew = w - w.conj().T
            # m - m^H = skew * k, so the drift is k max|skew| up to rounding
            k = scale * HERMITIAN_DRIFT_TOL / np.abs(skew).max()
            m = 0.5 * (z + z.conj().T) + 0.5 * k * skew
            drift, want = two_adjoint_hermitian(m)
            verdicts.add(want is None)
            if want is None:
                with pytest.raises(NotHermitianError) as err:
                    HermitianOperator(m)
                assert str(err.value) == (
                    f"anti-Hermitian drift {drift:.3e} exceeds {HERMITIAN_DRIFT_TOL:.0e}"
                )
            else:
                assert same_bits(HermitianOperator(m).matrix, want)
    assert verdicts == {True, False}


def test_hermitian_operator_rejects_non_square():
    with pytest.raises(DimensionError):
        HermitianOperator(np.zeros((2, 3)))


def test_state_vector_normalizes_exactly():
    s = StateVector([1.0, 1e-13])
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-16)


def test_state_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.5])


def test_state_vector_rejects_nan():
    with pytest.raises(ValueError):
        StateVector([np.nan, 0.0])


def test_split_trace():
    """split_background splits off trace/dim and measures what is left."""
    h = HermitianOperator(np.diag([1.2, 0.8, 1.0]))
    a0, rest, strength = split_background(h)
    assert a0 == pytest.approx(1.0)
    assert np.trace(rest.matrix) == pytest.approx(0.0, abs=1e-15)
    back = rest.matrix + a0 * np.eye(3)
    assert np.allclose(back, h.matrix, atol=1e-15)
    assert strength == pytest.approx(0.08, abs=1e-15)


def test_operator_decomposes_once_read_only(rng, monkeypatch):
    """An operator's eigh is taken on first use, kept, and cannot be written:
    every expm_unitary of it reads the one decomposition."""
    h = random_traceless_hermitian(rng, 3, strength=0.7)
    want_w, want_v = np.linalg.eigh(h.matrix)
    calls = []
    record_calls(monkeypatch, np.linalg, "eigh", calls)
    first = expm_unitary(h, 0.3)
    second = expm_unitary(h, 0.3)
    assert first.tobytes() == second.tobytes()
    assert len(calls) == 1
    w, v = h._eigh
    assert h._eigh[0] is w and h._eigh[1] is v
    assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()
    for a in (w, v):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert len(calls) == 1


def test_spectral_span_keeps_its_own_eigvalsh(rng, monkeypatch):
    """The spread sets the oracle's default step from eigvalsh's values, which
    can differ from eigh's in the last bits, so it never reads the cache."""
    h = random_traceless_hermitian(rng, 4, strength=0.9)
    expm_unitary(h, 1.0)
    w = np.linalg.eigvalsh(h.matrix)
    calls = []
    record_calls(monkeypatch, np.linalg, "eigvalsh", calls)
    assert spectral_span(h) == float(w[-1] - w[0])
    assert len(calls) == 1


E0, E1 = StateVector(np.array([1.0, 0.0, 0.0])), StateVector(np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: canonicalize(NavigationTask(E0, E1, HermitianOperator(np.zeros((3, 3))))),
                     "direct navigation handles qubit tasks; reduce larger dims first", id="canonicalize-dim-3"),
        pytest.param(lambda: state_to_bloch(E0), "Bloch map needs dim 2, got 3", id="bloch-dim-3"),
        pytest.param(lambda: angular_separation(E0, E1), "angular separation is defined for qubit states",
                     id="separation-dim-3"),
        pytest.param(lambda: CanonicalFrame(rotation=np.eye(2), theta=1.0), "rotation must be 3x3, got (2, 2)",
                     id="frame-2x2"),
        pytest.param(lambda: _as_square_complex([[1.0]]), "matrix must have dim >= 2, got 1", id="matrix-1x1"),
        pytest.param(lambda: pauli_compose(0.0, [1.0, 0.0]), "coefficient vector must have shape (3,), got (2,)",
                     id="pauli-length-2"),
    ],
)
def test_qubit_and_matrix_shape_rules_raise_dimension_error(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()
