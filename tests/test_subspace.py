from dataclasses import replace

import numpy as np
import pytest

import qnav.linalg
import qnav.state_nav
import qnav.subspace
from qnav import (
    DegenerateTaskError,
    HermitianOperator,
    NavigationTask,
    NotInvariantError,
    StateVector,
    WindTooStrongError,
    detect_and_reduce,
    optimize,
    solve_embedded,
)
from qnav.oracle import require_passed, solution_checks

from conftest import (
    haar_unitary,
    random_traceless_hermitian,
    record_calls,
    same_bits,
    symmetric_pair,
    wind_from_axis,
)


def block_diag(a, b):
    """Square blocks a and b on the diagonal, zeros elsewhere."""
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=np.result_type(a, b))
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0] :, a.shape[0] :] = b
    return out


def embedded_task(n, block_h0, comp_h0):
    """psi_i = e0, psi_f = (e0 + e1)/sqrt(2), background block-diagonal."""
    psi_i = np.zeros(n, dtype=complex)
    psi_i[0] = 1.0
    psi_f = np.zeros(n, dtype=complex)
    psi_f[0] = psi_f[1] = 1.0 / np.sqrt(2.0)
    h0 = HermitianOperator(block_diag(block_h0, comp_h0))
    return NavigationTask(
        psi_initial=StateVector(psi_i), psi_final=StateVector(psi_f), h0=h0
    )


def test_reduction_recovers_plain_block():
    block = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.1]])
    comp = np.array([[1.7, 0.2], [0.2, -0.3]])
    task = embedded_task(4, block, comp)
    red = detect_and_reduce(task)
    assert red.invariance_residual <= 1e-14
    assert np.max(np.abs(red.basis.conj().T @ red.basis - np.eye(2))) <= 1e-14
    assert np.allclose(red.basis[:, 0], task.psi_initial.amplitudes)
    # the whole restricted block, trace included: nothing is split off
    assert np.max(np.abs(red.h0_block.matrix - block)) <= 1e-14
    assert np.trace(red.h0_block.matrix).real == pytest.approx(0.2, abs=1e-14)


def test_embedded_solve_splits_the_block_once(monkeypatch):
    """An n = 3 solve splits one background: the restricted block, handed
    whole to the qubit task, whose construction is the split."""
    block = wind_from_axis(0.6, [0.3, 0.2, 0.9]).matrix + 0.4 * np.eye(2)
    task = embedded_task(3, block, np.array([[1.7]]))
    red = detect_and_reduce(task)
    calls = []
    record_calls(monkeypatch, qnav.state_nav, "split_background", calls)
    record_calls(monkeypatch, qnav.linalg, "split_trace", calls)
    solve_embedded(task)
    assert [name for name, _ in calls] == ["qnav.state_nav.split_background", "qnav.linalg.split_trace"]
    assert all(same_bits(arg.matrix, red.h0_block.matrix) for _, arg in calls)


def test_embedded_solution_structure():
    block = wind_from_axis(0.6, [1.0, 0.0, 0.0]).matrix + 0.1 * np.eye(2)
    comp = np.array([[1.7, 0.2], [0.2, -0.3]])
    task = embedded_task(4, block, comp)
    sol = solve_embedded(task)

    assert sol.fidelity_check >= 1.0 - 1e-9
    assert sol.constraint_residual <= 1e-9
    hc = sol.h_control.matrix
    ht = sol.h_total.matrix
    assert np.max(np.abs(hc[:, 2:])) <= 1e-12
    assert np.max(np.abs(hc[2:, :])) <= 1e-12
    assert np.max(np.abs(ht[2:, 2:] - comp)) <= 1e-12
    assert np.max(np.abs(ht[:2, 2:])) <= 1e-12

    ref = optimize(
        NavigationTask(
            psi_initial=StateVector([1.0, 0.0]),
            psi_final=StateVector([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]),
            h0=HermitianOperator(block),
        )
    )
    assert sol.tau_star == pytest.approx(ref.tau_star, abs=1e-12)
    assert sol.phi_star == pytest.approx(ref.phi_star, abs=1e-8)


def test_qubit_task_defers_to_direct_solver(monkeypatch):
    psi_i, psi_f = symmetric_pair(1.1)
    task = NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=wind_from_axis(0.4, [0.2, 0.9, 0.1]))
    reductions = []
    record_calls(monkeypatch, qnav.subspace, "detect_and_reduce", reductions)
    via_embed = solve_embedded(task)
    assert reductions == []
    direct = optimize(task)
    assert via_embed.tau_star == direct.tau_star
    assert via_embed.phi_star == direct.phi_star
    assert np.array_equal(via_embed.h_total.matrix, direct.h_total.matrix)


def test_coupled_background_is_rejected():
    block = wind_from_axis(0.5, [0.0, 0.0, 1.0]).matrix
    h0 = block_diag(block, np.array([[0.4]]))
    h0[0, 2] = h0[2, 0] = 1e-3
    psi_i = StateVector([1.0, 0.0, 0.0])
    psi_f = StateVector([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0])
    task = NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=HermitianOperator(h0))
    with pytest.raises(NotInvariantError):
        solve_embedded(task)


def test_strong_block_wind_is_rejected_after_reduction():
    """The budget competes with the wind inside the block only; the
    complement can be as large as it likes."""
    task = embedded_task(3, np.diag([0.9, -0.9]), np.array([[1.7]]))
    with pytest.raises(WindTooStrongError):
        solve_embedded(task)
    big_comp = embedded_task(3, np.diag([0.3, -0.3]), np.array([[25.0]]))
    sol = solve_embedded(big_comp)
    assert sol.fidelity_check >= 1.0 - 1e-9


def test_degenerate_embedded_task():
    psi = StateVector([1.0, 0.0, 0.0])
    same = StateVector([np.exp(1j * 0.3), 0.0, 0.0])
    task = NavigationTask(psi_initial=psi, psi_final=same, h0=HermitianOperator(np.eye(3)))
    with pytest.raises(DegenerateTaskError):
        solve_embedded(task)


def test_zero_complement_matches_standalone(rng):
    theta = 1.3
    psi2_i, psi2_f = symmetric_pair(theta)
    h2 = wind_from_axis(0.7, [0.4, 0.5, 0.2])
    ref = optimize(NavigationTask(psi_initial=psi2_i, psi_final=psi2_f, h0=h2))

    psi_i = StateVector(np.concatenate([psi2_i.amplitudes, [0.0]]))
    psi_f = StateVector(np.concatenate([psi2_f.amplitudes, [0.0]]))
    h0 = HermitianOperator(block_diag(h2.matrix, np.zeros((1, 1))))
    sol = solve_embedded(NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=h0))
    assert sol.tau_star == pytest.approx(ref.tau_star, abs=1e-14)
    # phi refinements land within tolerance of each other, not identically,
    # so the assembled operators agree at the sqrt of the time tolerance
    assert np.max(np.abs(sol.h_total.matrix[:2, :2] - ref.h_total.matrix)) <= 1e-6
    assert sol.phi_star == pytest.approx(ref.phi_star, abs=1e-6)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conjugated_invariant_tasks(n, rng):
    """Random problems built to have an invariant block reduce exactly."""
    for _ in range(4):
        v = haar_unitary(rng, n)
        emb, comp_basis = v[:, :2], v[:, 2:]
        theta = float(rng.uniform(0.3, 2.8))
        psi2_i, psi2_f = symmetric_pair(theta)
        h2 = random_traceless_hermitian(rng, strength=float(rng.uniform(0.1, 0.9)))
        h2_full = h2.matrix + 0.3 * np.eye(2)
        m = n - 2
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        comp = 0.5 * (z + z.conj().T)
        h0 = emb @ h2_full @ emb.conj().T + comp_basis @ comp @ comp_basis.conj().T

        task = NavigationTask(
            psi_initial=StateVector(emb @ psi2_i.amplitudes),
            psi_final=StateVector(emb @ psi2_f.amplitudes),
            h0=HermitianOperator(h0),
        )
        red = detect_and_reduce(task)
        assert red.invariance_residual <= 1e-12

        sol = solve_embedded(task)
        ref = optimize(
            NavigationTask(psi_initial=psi2_i, psi_final=psi2_f, h0=HermitianOperator(h2_full))
        )
        assert sol.fidelity_check >= 1.0 - 1e-9
        assert sol.tau_star == pytest.approx(ref.tau_star, abs=1e-11)
        assert np.max(np.abs(sol.h_control.matrix @ comp_basis)) <= 1e-10


def two_check_solve_embedded(task):
    """solve_embedded as written when the block answer was verified too:
    optimize on the block, then the embedded answer's own checks."""
    red = detect_and_reduce(task)
    basis = red.basis
    sol2 = optimize(
        NavigationTask(
            psi_initial=StateVector(np.array([1.0, 0.0], dtype=complex)),
            psi_final=StateVector(basis.conj().T @ task.psi_final.amplitudes),
            h0=red.h0_block,
        )
    )
    comp = np.eye(task.psi_initial.dim) - basis @ basis.conj().T
    h_total = HermitianOperator(
        basis @ sol2.h_total.matrix @ basis.conj().T + comp @ task.h0.matrix @ comp
    )
    h_control = HermitianOperator(h_total.matrix - task.h0.matrix)
    checks = solution_checks(
        h_total, h_control, task.h0, sol2.tau_star, states=(task.psi_initial, task.psi_final)
    )
    require_passed(checks, "embedded")
    return replace(
        sol2,
        h_total=h_total,
        h_control=h_control,
        fidelity_check=checks["fidelity"].value,
        constraint_residual=checks["control_budget"].value,
    )


def invariant_task(rng, n):
    """Seeded n-level task whose two-state block is invariant, with a trace part."""
    v = haar_unitary(rng, n)
    psi2_i, psi2_f = symmetric_pair(float(rng.uniform(0.2, 2.9)))
    h2 = random_traceless_hermitian(rng, strength=float(rng.uniform(0.05, 0.9))).matrix
    z = rng.normal(size=(n - 2, n - 2)) + 1j * rng.normal(size=(n - 2, n - 2))
    h0 = v[:, :2] @ (h2 + rng.uniform(-0.5, 0.5) * np.eye(2)) @ v[:, :2].conj().T
    h0 = h0 + v[:, 2:] @ (0.5 * (z + z.conj().T)) @ v[:, 2:].conj().T
    return NavigationTask(
        psi_initial=StateVector(v[:, :2] @ psi2_i.amplitudes),
        psi_final=StateVector(v[:, :2] @ psi2_f.amplitudes),
        h0=HermitianOperator(h0),
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_embedded_solve_verifies_once(n, rng, monkeypatch):
    """solve_embedded runs solution_checks once, on the embedded answer, and
    returns bit for bit what the two-check path returns: every field and
    the bytes of h_total and h_control."""
    for _ in range(6):
        task = invariant_task(rng, n)
        want = two_check_solve_embedded(task)
        with monkeypatch.context() as mp:
            calls = []
            record_calls(mp, qnav.state_nav, "solution_checks", calls)
            got = solve_embedded(task)
        assert len(calls) == 1
        assert same_bits(calls[0][1].matrix, got.h_total.matrix)
        for name in ("phi_star", "omega_star", "tau_star", "theta", "fidelity_check", "constraint_residual"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(got.h_total.matrix, want.h_total.matrix)
        assert same_bits(got.h_control.matrix, want.h_control.matrix)
