import cmath
import inspect

import numpy as np
import pytest

import qnav.oracle
import qnav.subspace
from qnav import (
    GateTask,
    HermitianOperator,
    NavigationTask,
    StateVector,
    expm_unitary,
    fidelity_curve,
    first_passage,
    gate_mismatch,
    optimize,
    pauli_compose,
    solve_embedded,
    solve_gate,
    tau_of_phi,
)
from qnav.linalg import SIGMA_Y, spectral_span
from qnav.state_nav import canonicalize

from conftest import (
    benchmark_task,
    haar_state,
    haar_unitary,
    make_task,
    random_traceless_hermitian,
    random_unit_axis,
    record_calls,
    same_bits,
    wind_from_axis,
)


def assembled_hamiltonian(ctask, rec):
    axis_lab = ctask.frame.to_lab(np.array([np.cos(rec.phi), np.sin(rec.phi), 0.0]))
    return pauli_compose(ctask.h0_trace_half, 0.5 * rec.omega * axis_lab)


def test_geodesic_rotation_timing():
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    psi_i = StateVector([1.0, 0.0])
    a = 0.4
    psi_f = StateVector([np.cos(a), np.sin(a)])
    res = first_passage(h, psi_i, psi_f)
    assert res.reached
    # the lobe top is quadratic, so the refined position carries
    # sqrt(eps)-level noise even though the bracket is tight
    assert res.t_first == pytest.approx(a * np.sqrt(2.0), abs=1e-7)
    assert res.peak_fidelity >= 1.0 - 1e-9


def test_unreachable_target_reports_honestly():
    axis = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    h = pauli_compose(0.0, 0.7 * axis)
    res = first_passage(h, StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), t_max=100.0)
    assert not res.reached
    assert res.t_first == np.inf
    assert res.peak_fidelity == pytest.approx(0.5, abs=1e-6)


def test_lobes_that_clear_detection_but_never_confirm():
    """Every lobe of this rotation peaks at 1 - 1e-7, above DETECT_THRESHOLD
    and below CONFIRM_THRESHOLD: first_passage refines each of the three
    lobes in turn, skips the rest of each, and reports no passage."""
    d = np.sqrt(1e-7 / (1.0 - 1e-7))
    h = HermitianOperator(0.5 * np.array([[d, 1.0], [1.0, -d]]))
    period = 2.0 * np.pi / spectral_span(h)
    res = first_passage(h, StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), t_max=3.0 * period)
    assert not res.reached
    assert res.t_first == np.inf
    assert qnav.oracle.DETECT_THRESHOLD < res.peak_fidelity < qnav.oracle.CONFIRM_THRESHOLD
    assert res.peak_fidelity == pytest.approx(1.0 - 1e-7, abs=1e-12)


def test_window_ending_inside_an_unconfirmed_lobe():
    """The window stops 1e-4 before the half turn that carries |0> to |1>:
    the last lobe clears DETECT_THRESHOLD and is still climbing when the
    samples run out, so first_passage reports no passage, with the best
    refined peak between the two thresholds."""
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    t_max = np.pi / np.sqrt(2.0) - 1e-4
    res = first_passage(h, StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), t_max=t_max, dt=1e-5)
    assert not res.reached
    assert res.t_first == np.inf
    assert qnav.oracle.DETECT_THRESHOLD < res.peak_fidelity < qnav.oracle.CONFIRM_THRESHOLD
    # the fidelity is sin^2(t / sqrt 2), 1 - delta^2 / 2 at delta before the
    # half turn; the last sample lies within one step dt of t_max
    assert 1e-4**2 / 2.0 <= 1.0 - res.peak_fidelity <= (1e-4 + 1e-5) ** 2 / 2.0


def test_passage_check_gap_and_verdict():
    """passage_check reports no gap and no agreement when nothing confirms,
    and agrees with a solver's time exactly within ORACLE_TIME_TOL."""
    axis = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    h = pauli_compose(0.0, 0.7 * axis)
    res, gap, agrees = qnav.oracle.passage_check(h, StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), 3.0)
    assert (res.reached, gap, agrees) == (False, None, False)
    sol = optimize(benchmark_task())
    task = benchmark_task()
    res, gap, agrees = qnav.oracle.passage_check(sol.h_total, task.psi_initial, task.psi_final, sol.tau_star)
    assert res.reached and agrees
    assert gap == abs(res.t_first - sol.tau_star) <= qnav.oracle.ORACLE_TIME_TOL
    for tau, want in ((res.t_first + 0.9e-6, True), (res.t_first + 1.1e-6, False)):
        assert qnav.oracle.passage_check(sol.h_total, task.psi_initial, task.psi_final, tau)[2] is want


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="ROADMAP item 4: the window's step comes from the full spectral span, "
    "not from the span of the components psi_initial weighs",
)
def test_passage_window_ignores_the_complement_spectrum():
    """The reference subspace task with its complement eigenvalue raised from
    1.7 to 1e5 solves, and its passage should agree. The states never leave
    their block, whose span is 1.59 (about 900 samples), but the step is
    taken from the full span 1e5, and the 5.6e7 samples that needs exceed
    MAX_ORACLE_SAMPLES."""
    s = 1.0 / np.sqrt(2.0)
    task = NavigationTask(
        psi_initial=StateVector([1.0, 0.0, 0.0]),
        psi_final=StateVector([s, s, 0.0]),
        h0=HermitianOperator(np.diag([0.5, -0.5, 1e5])),
    )
    sol = solve_embedded(task)
    assert qnav.oracle.passage_check(sol.h_total, task.psi_initial, task.psi_final, sol.tau_star)[2]


def test_oracle_confirms_navigator_at_many_angles(rng):
    ctask = canonicalize(benchmark_task())
    task = benchmark_task()
    for phi in rng.uniform(0.0, 2.0 * np.pi, size=8):
        rec = tau_of_phi(ctask, float(phi))
        h = assembled_hamiltonian(ctask, rec)
        res = first_passage(h, task.psi_initial, task.psi_final)
        assert res.reached
        assert abs(res.t_first - rec.tau) <= 1e-6


def test_oracle_confirms_navigator_across_winds(rng):
    for _ in range(6):
        task = make_task(
            float(rng.uniform(0.2, np.pi - 0.2)),
            float(rng.uniform(0.05, 0.95)),
            random_unit_axis(rng),
        )
        ctask = canonicalize(task)
        rec = tau_of_phi(ctask, float(rng.uniform(0.0, 2.0 * np.pi)))
        h = assembled_hamiltonian(ctask, rec)
        res = first_passage(h, task.psi_initial, task.psi_final)
        assert res.reached
        assert abs(res.t_first - rec.tau) <= 1e-6


def test_passage_is_periodic():
    ctask = canonicalize(benchmark_task())
    task = benchmark_task()
    rec = tau_of_phi(ctask, 1.1)
    h = assembled_hamiltonian(ctask, rec)
    res = first_passage(h, task.psi_initial, task.psi_final)
    assert res.reached
    period = 2.0 * np.pi / rec.omega
    u = expm_unitary(h, res.t_first + period)
    fid = abs(np.vdot(task.psi_final.amplitudes, u @ task.psi_initial.amplitudes)) ** 2
    assert fid >= 1.0 - 1e-9


def test_refinement_is_grid_independent():
    ctask = canonicalize(benchmark_task())
    task = benchmark_task()
    rec = tau_of_phi(ctask, 2.0)
    h = assembled_hamiltonian(ctask, rec)
    coarse = first_passage(h, task.psi_initial, task.psi_final)
    fine = first_passage(h, task.psi_initial, task.psi_final, dt=np.pi * 5e-4 / rec.omega)
    assert coarse.reached and fine.reached
    assert abs(coarse.t_first - fine.t_first) <= 1e-6


def test_curve_endpoints_and_bounds():
    task = make_task(1.2, 0.5, [0.0, 0.0, 1.0])
    ctask = canonicalize(task)
    rec = tau_of_phi(ctask, 0.7)
    h = assembled_hamiltonian(ctask, rec)
    t, f = fidelity_curve(h, task.psi_initial, task.psi_final)
    assert t[0] == 0.0
    assert f[0] == pytest.approx(np.cos(0.6) ** 2, abs=1e-12)
    assert np.max(f) <= 1.0 + 1e-12
    assert np.min(f) >= -1e-12


def test_single_sample_grid():
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    res = first_passage(h, StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), t_max=0.5, dt=1.0)
    assert not res.reached
    assert res.t_first == np.inf
    assert res.peak_fidelity == pytest.approx(0.0, abs=1e-12)


def test_bad_grid_settings():
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    psi = StateVector([1.0, 0.0])
    with pytest.raises(ValueError):
        fidelity_curve(h, psi, psi, t_max=-1.0)
    with pytest.raises(ValueError):
        fidelity_curve(h, psi, psi, dt=0.0)


@pytest.mark.parametrize("t_max, dt", [(1.0, 1e-12), (1e3, 1e-9), (np.inf, 1e-3)])
def test_oracle_refuses_grids_above_the_sample_cap(capped_arange, t_max, dt):
    """t_max/dt far above MAX_ORACLE_SAMPLES raises ValueError naming n and
    the cap before any sample is allocated."""
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    psi_i, psi_f = StateVector([1.0, 0.0]), StateVector([0.0, 1.0])
    with pytest.raises(ValueError, match=r"n = \S+ samples .* MAX_ORACLE_SAMPLES = 10000000"):
        first_passage(h, psi_i, psi_f, t_max=t_max, dt=dt)
    with pytest.raises(ValueError, match="MAX_ORACLE_SAMPLES"):
        fidelity_curve(h, psi_i, psi_f, t_max=t_max, dt=dt)


def test_oracle_sample_cap_boundary(monkeypatch):
    """n = floor(t_max/dt) + 1 samples: exactly the cap passes, one more raises."""
    monkeypatch.setattr(qnav.oracle, "MAX_ORACLE_SAMPLES", 1000)
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    psi = StateVector([1.0, 0.0])
    dt = 1.0 / 1024.0
    t, _ = fidelity_curve(h, psi, psi, t_max=999 * dt, dt=dt)
    assert t.size == 1000
    with pytest.raises(ValueError, match="n = 1001 samples"):
        fidelity_curve(h, psi, psi, t_max=1000 * dt, dt=dt)


def test_zero_generator_defaults():
    h = HermitianOperator(np.zeros((2, 2)))
    t, f = fidelity_curve(h, StateVector([1.0, 0.0]), StateVector([1.0, 0.0]))
    assert np.allclose(f, 1.0)
    res = first_passage(h, StateVector([1.0, 0.0]), StateVector([0.0, 1.0]))
    assert not res.reached


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fidelity_curve_is_the_matrix_vector_formulation(rng, n):
    """Summing eigencomponents elementwise gives |exp(-i t w) @ table|^2 to a
    few ulp of max(f, 1), whatever rounding the BLAS kernel behind @ does."""
    for _ in range(5):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = HermitianOperator(0.5 * (z + z.conj().T))
        psi_i, psi_f = haar_state(rng, n), haar_state(rng, n)
        t, f = fidelity_curve(h, psi_i, psi_f)
        w, v = np.linalg.eigh(h.matrix)
        table = np.conj(v.conj().T @ psi_f.amplitudes) * (v.conj().T @ psi_i.amplitudes)
        expected = np.abs(np.exp(-1j * np.outer(t, w)) @ table) ** 2
        assert t.size > 1000
        ulp = np.finfo(float).eps * np.maximum(expected, 1.0)
        assert np.all(np.abs(f - expected) <= 4 * ulp)


def test_first_passage_decomposes_once(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(1)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    res = first_passage(h, StateVector([1.0, 0.0]), StateVector([np.cos(0.4), np.sin(0.4)]))
    assert res.reached
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_refine_peak_is_bitwise_the_per_step_product(rng, monkeypatch, n):
    """The peak refinement forms -1j*w once and binds table.dot; its
    objective must still give the bits of the per-step amplitude
    np.dot(table, exp(-1j * w * t)), which table.dot reproduces."""
    searches = []
    real = qnav.oracle.golden_min

    def spy(f, lo, hi, xtol):
        searches.append((f, lo, hi, xtol))
        return real(f, lo, hi, xtol)

    monkeypatch.setattr(qnav.oracle, "golden_min", spy)
    h = random_traceless_hermitian(rng, n, strength=1.0)
    psi_i, psi_f = haar_state(rng, n), haar_state(rng, n)
    t, f = fidelity_curve(h, psi_i, psi_f)
    w, table = qnav.oracle._amplitude_table(h, psi_i, psi_f)
    j = int(np.argmax(f[1:-1])) + 1
    t_peak, f_peak = qnav.oracle._refine_peak(w, table, t[j - 1], t[j + 1])

    def neg_f(s):
        return -abs(np.dot(table, np.exp(-1j * w * s))) ** 2

    ((objective, lo, hi, xtol),) = searches
    probes = np.linspace(lo, hi, 65)
    assert [objective(s) for s in probes] == [neg_f(s) for s in probes]
    for s in probes:
        phases = np.exp(-1j * w * s)
        assert table.dot(phases).tobytes() == np.dot(table, phases).tobytes()
    t_ref, neg_ref = real(neg_f, lo, hi, xtol)
    assert (t_peak, f_peak) == (float(t_ref), float(-neg_ref))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_curve_samples_are_the_complex_exponential_sum_bitwise(rng, n):
    """fidelity_curve writes cos and -sin into one complex buffer per eigencomponent;
    its samples must be those of the complex-exponential sum
    table[0] e^{-i w_0 t} + table[1] e^{-i w_1 t} + ... byte for byte, on
    the default grid and on one reaching far out in w t."""
    for t_max in (None, 100.0):
        h = random_traceless_hermitian(rng, n, strength=rng.uniform(0.1, 3.0))
        h = HermitianOperator(h.matrix + rng.uniform(-2.0, 2.0) * np.eye(n))
        psi_i, psi_f = haar_state(rng, n), haar_state(rng, n)
        t, f = fidelity_curve(h, psi_i, psi_f, t_max)
        w, table = qnav.oracle._amplitude_table(h, psi_i, psi_f)
        amp = table[0] * np.exp(-1j * (t * w[0]))
        for wk, ck in zip(w[1:], table[1:]):
            amp += ck * np.exp(-1j * (t * wk))
        assert t.size > 1000
        assert same_bits(f, np.abs(amp) ** 2)


def test_cmath_exp_is_numpy_exp_bitwise(rng):
    """The peak objective takes cmath.exp(m * t) for each rate m of -1j * w
    where numpy took np.exp(-1j * w * t): the two must agree to the last bit
    on this platform's libm and numpy."""
    w = np.concatenate([rng.uniform(-5.0, 5.0, size=200), [0.0, -0.0]])
    rates = (-1j * w).tolist()
    for t in np.concatenate([rng.uniform(0.0, 200.0, size=250), [0.0]]).tolist():
        assert same_bits(np.array([cmath.exp(m * t) for m in rates]), np.exp(-1j * w * t)), t


def test_checks_and_passage_share_one_decomposition(monkeypatch):
    """solution_checks and first_passage read one eigh of h_total: the
    fidelity check's propagator and the oracle's amplitude table."""
    sol = optimize(benchmark_task())
    task = benchmark_task()
    h_total = HermitianOperator(sol.h_total.matrix)
    calls = []
    record_calls(monkeypatch, np.linalg, "eigh", calls)
    checks = qnav.oracle.solution_checks(
        h_total, sol.h_control, task.h0, sol.tau_star, states=(task.psi_initial, task.psi_final)
    )
    res = first_passage(h_total, task.psi_initial, task.psi_final)
    assert checks["fidelity"].value == sol.fidelity_check
    assert res.reached
    assert len(calls) == 1


def test_first_passage_skips_the_span_when_both_steps_are_given(monkeypatch):
    h = HermitianOperator(SIGMA_Y / np.sqrt(2.0))
    psi_i, psi_f = StateVector([1.0, 0.0]), StateVector([np.cos(0.4), np.sin(0.4)])
    # dt as _default_steps derives it from the spectral span
    defaulted = first_passage(h, psi_i, psi_f, t_max=2.0)
    dt = qnav.oracle._sample_step(spectral_span(h))
    calls = []
    real = qnav.oracle.spectral_span
    monkeypatch.setattr(qnav.oracle, "spectral_span", lambda m: calls.append(1) or real(m))
    given = first_passage(h, psi_i, psi_f, t_max=2.0, dt=dt)
    assert calls == []
    assert given == defaulted
    assert given.reached
    first_passage(h, psi_i, psi_f, t_max=2.0)
    assert calls == [1]


def test_gate_mismatch_round_trip(rng):
    h = HermitianOperator(0.3 * SIGMA_Y + 0.2 * np.eye(2))
    u_i = haar_unitary(rng)
    t, gamma = 1.7, 0.45
    u_f = np.exp(1j * gamma) * (expm_unitary(h, t) @ u_i)
    assert gate_mismatch(h, u_i, u_f, t, gamma) <= 1e-14
    expected = 1e-3 * np.max(np.abs(u_f))
    assert gate_mismatch(h, u_i, u_f, t, gamma + 1e-3) == pytest.approx(expected, rel=1e-2)


def test_oracle_does_not_import_the_navigator():
    """The oracle must stay an outside check on the closed forms."""
    src = inspect.getsource(qnav.oracle)
    for name in ("state_nav", "gate_nav", "subspace", "bloch"):
        assert name not in src


# check name -> (oracle bound, a value no solution can meet)
UNMEETABLE = {
    "control_budget": ("BUDGET_TOL", -1.0),
    "control_traceless": ("TRACELESS_TOL", -1.0),
    "decomposition": ("DECOMP_TOL", -1.0),
    "fidelity": ("CONFIRM_THRESHOLD", 2.0),
    "gate_relation": ("GATE_RELATION_TOL", -1.0),
}
SOLVER_CHECKS = [
    (solver, check)
    for solver, last in (
        ("optimize", "fidelity"),
        ("solve_embedded", "fidelity"),
        ("solve_gate", "gate_relation"),
    )
    for check in ("control_budget", "control_traceless", "decomposition", last)
]


@pytest.mark.parametrize("solver, check", SOLVER_CHECKS)
def test_solvers_raise_naming_the_failed_check(monkeypatch, solver, check):
    """With one bound made unmeetable, each solver raises from the shared
    checks and names that check and no other."""
    bound, value = UNMEETABLE[check]

    def tighten():
        monkeypatch.setattr(qnav.oracle, bound, value)

    if solver == "optimize":
        tighten()
        prefix, solve = "solution", lambda: optimize(benchmark_task())
    elif solver == "solve_gate":
        tighten()
        task = GateTask(
            u_initial=np.eye(2),
            u_final=haar_unitary(np.random.default_rng(3)),
            h0=wind_from_axis(0.3, [0.0, 0.6, 0.8]),
        )
        prefix, solve = "gate", lambda: solve_gate(task)
    else:
        # the qubit block's answer is not verified, so the embedded
        # solution's own checks are the ones that raise
        tighten()
        h0 = np.zeros((3, 3), dtype=complex)
        h0[:2, :2] = wind_from_axis(0.4, [0.6, 0.0, 0.8]).matrix
        h0[2, 2] = 0.3
        task = NavigationTask(
            psi_initial=StateVector([1.0, 0.0, 0.0]),
            psi_final=StateVector(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)),
            h0=HermitianOperator(h0),
        )
        prefix, solve = "embedded", lambda: solve_embedded(task)

    with pytest.raises(ArithmeticError, match=f"^{prefix} verification failed: ") as err:
        solve()
    message = str(err.value)
    assert check in message
    assert not any(other in message for other in UNMEETABLE if other != check)
