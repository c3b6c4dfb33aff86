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
    logm_unitary,
    pauli_compose,
    pauli_decompose,
)
from qnav.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    split_trace,
    unitary_eigenphases,
)

from conftest import haar_unitary, random_traceless_hermitian

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


def qft(n):
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


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


def test_hermitian_operator_symmetrizes_small_drift():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5, -1.0]])
    h = HermitianOperator(m)
    assert np.array_equal(h.matrix, h.matrix.conj().T)


def test_hermitian_operator_rejects_large_drift():
    m = np.array([[1.0, 0.5 + 1e-10j], [0.5, -1.0]])
    with pytest.raises(NotHermitianError):
        HermitianOperator(m)


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


def test_split_trace(rng):
    h = HermitianOperator(np.diag([2.0, 0.0, 1.0]))
    a0, rest = split_trace(h)
    assert a0 == pytest.approx(1.0)
    assert np.trace(rest.matrix) == pytest.approx(0.0, abs=1e-15)
    back = rest.matrix + a0 * np.eye(3)
    assert np.allclose(back, h.matrix, atol=1e-15)
