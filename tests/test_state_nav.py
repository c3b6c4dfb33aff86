import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnav import (
    DegenerateTaskError,
    HermitianOperator,
    NavigationTask,
    StateVector,
    WindTooStrongError,
    alpha_of_phi,
    expm_unitary,
    omega_of_phi,
    optimize,
    pauli_decompose,
    rho_of_phi,
    sweep,
    tau_of_phi,
)
from qnav import state_nav
from qnav.bloch import WindSpec
from qnav.state_nav import (
    DEFAULT_GRID_POINTS,
    _refine_objective,
    alpha_geometric,
    canonicalize,
    principal_voyage_time,
)

from conftest import (
    benchmark_task,
    haar_unitary,
    make_task,
    random_unit_axis,
    symmetric_pair,
    wind_from_axis,
)

# frozen from an oracle-confirmed run (first passage agrees to 4e-9)
BENCH_PHI_STAR = 0.4365912652846225 * np.pi
BENCH_TAU_STAR = 1.7990361665516603

eps_st = st.floats(min_value=0.01, max_value=0.95)
theta_st = st.floats(min_value=0.1, max_value=np.pi - 0.1)
phi_st = st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True)


def canonical_ctask(theta, epsilon, axis):
    return canonicalize(make_task(theta, epsilon, axis))


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_omega_constant_for_z_wind(eps):
    """A wind along z has no equatorial component, so omega loses its phi dependence."""
    wind = WindSpec(epsilon=eps, axis=np.array([0.0, 0.0, 1.0]))
    phis = np.linspace(0.0, 2.0 * np.pi, 50)
    assert np.allclose(omega_of_phi(wind, phis), np.sqrt(2.0 * (1.0 - eps)), atol=1e-14)


def test_omega_satisfies_quadratic_at_benchmark():
    ctask = canonical_ctask(np.pi / 2.0, 0.9, [0.1, 0.23, np.sqrt(1 - 0.1**2 - 0.23**2)])
    phi = 0.44 * np.pi
    w = float(omega_of_phi(ctask.wind, phi))
    x, y, _ = ctask.wind.axis
    p = x * np.cos(phi) + y * np.sin(phi)
    resid = w * w - 2.0 * np.sqrt(2.0 * 0.9) * p * w - 2.0 * (1.0 - 0.9)
    assert abs(resid) <= 1e-12


@given(eps=eps_st, phi=phi_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_omega_positive_root(eps, phi, seed):
    axis = random_unit_axis(np.random.default_rng(seed))
    wind = WindSpec(epsilon=eps, axis=axis)
    w = float(omega_of_phi(wind, phi))
    assert w > 0.0
    x, y, _ = wind.axis
    p = x * np.cos(phi) + y * np.sin(phi)
    resid = w * w - 2.0 * np.sqrt(2.0 * eps) * p * w - 2.0 * (1.0 - eps)
    assert abs(resid) <= 1e-10


def test_rho_trivial_cases():
    assert rho_of_phi(1.3, np.pi / 2.0) == pytest.approx(np.pi / 2.0)
    assert rho_of_phi(1.3, 0.0) == pytest.approx(0.65)
    for phi in np.linspace(0.0, 2.0 * np.pi, 17):
        assert rho_of_phi(np.pi, phi) == pytest.approx(np.pi / 2.0)


def test_alpha_trivial_cases():
    assert alpha_of_phi(np.pi / 2.0, np.pi / 2.0) == pytest.approx(np.pi / 2.0)
    assert alpha_of_phi(np.pi / 2.0, 3.0 * np.pi / 2.0) == pytest.approx(3.0 * np.pi / 2.0)
    for theta in (0.3, 1.2, 2.8):
        assert alpha_of_phi(theta, np.pi) == pytest.approx(np.pi)
        assert alpha_of_phi(theta, 0.0) == pytest.approx(np.pi)


def test_alpha_antipodal_is_half_turn():
    phis = np.linspace(0.0, 2.0 * np.pi, 33)
    assert np.allclose(alpha_of_phi(np.pi, phis), np.pi)


def test_alpha_orientation_consistency(rng):
    """Branch rule against explicit rotation geometry, in bulk."""
    n = 100_000
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    mask = np.abs(np.sin(phi)) > 1e-6
    for theta in rng.uniform(0.05, np.pi - 0.05, size=8):
        err = alpha_of_phi(theta, phi) - alpha_geometric(theta, phi)
        assert np.max(np.abs(err[mask])) <= 1e-10


def stacked_alpha_geometric(theta, phi):
    """alpha_geometric as once written, on stacked 3-vectors with np.cross and einsum."""
    phi = np.asarray(phi, dtype=float)
    half = theta / 2.0
    b_i = 0.5 * np.array([np.cos(half), 0.0, np.sin(half)])
    b_f = 0.5 * np.array([np.cos(half), 0.0, -np.sin(half)])
    axis = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    center = (axis @ b_i)[..., None] * axis
    u_i = b_i - center
    u_f = b_f - center
    sin_part = np.einsum("...k,...k->...", np.cross(u_i, u_f), axis)
    cos_part = np.einsum("...k,...k->...", u_i, u_f)
    ang = np.arctan2(sin_part, cos_part)
    return np.where(ang <= 0.0, ang + 2.0 * np.pi, ang)


def test_alpha_geometric_components_match_stacked_vectors(rng):
    """The component-wise geometry is the stacked construction to within 4 ulp,
    across theta in (1e-8, pi - 1e-8) and inside both defect bands."""
    phi = np.concatenate(
        [rng.uniform(0.0, 2.0 * np.pi, size=100_000), [0.0, np.pi / 2.0, np.pi, 1.5 * np.pi]]
    )
    thetas = np.concatenate(
        [
            [1e-8, np.pi - 1e-8],
            rng.uniform(1e-8, np.pi - 1e-8, size=6),
            np.exp(rng.uniform(np.log(1e-8), np.log(2e-3), size=3)),
            np.pi - np.exp(rng.uniform(np.log(1e-6), np.log(0.08), size=3)),
        ]
    )
    for theta in thetas:
        new = alpha_geometric(theta, phi)
        old = stacked_alpha_geometric(theta, phi)
        ulps = np.abs(new - old) / np.spacing(old)
        assert np.max(ulps) <= 4.0, theta


def test_alpha_geometric_scalar_is_float():
    assert type(alpha_geometric(1.1, 0.7)) is float
    assert type(alpha_geometric(1.1, np.float64(4.0))) is float
    assert alpha_geometric(1.1, 0.7) == alpha_geometric(1.1, np.array([0.7]))[0]


def test_scan_cross_checks_every_grid_angle(monkeypatch):
    """Perturb the geometry at one grid angle of the losing half: only the
    orientation check of the grid scan sees it, and it raises."""
    task = benchmark_task()
    grid = 2.0 * np.pi * np.arange(DEFAULT_GRID_POINTS) / DEFAULT_GRID_POINTS
    target = grid[3 * DEFAULT_GRID_POINTS // 4]
    real = state_nav.alpha_geometric

    def geo(theta, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.asarray(real(theta, phi)) + np.where(phi == target, 1e-6, 0.0)
        return out if out.ndim else float(out)

    monkeypatch.setattr(state_nav, "alpha_geometric", geo)
    with pytest.raises(ArithmeticError, match="orientation branch disagrees"):
        optimize(task)


def test_tau_z_wind_closed_form():
    theta, eps = 1.1, 0.4
    ctask = canonical_ctask(theta, eps, [0.0, 0.0, 1.0])
    rec = tau_of_phi(ctask, np.pi / 2.0)
    assert rec.tau == pytest.approx(theta / np.sqrt(2.0 * (1.0 - eps)), abs=1e-12)


def test_tau_no_wind_geodesic():
    theta = 1.1
    psi_i, psi_f = symmetric_pair(theta)
    task = NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=HermitianOperator(np.zeros((2, 2))))
    ctask = canonicalize(task)
    rec = tau_of_phi(ctask, np.pi / 2.0)
    assert rec.tau == pytest.approx(theta / np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_tau_of_phi_scalar_and_array_forms(eps):
    """Floats for one angle, arrays of phi's shape for an array of angles."""
    ctask = canonicalize(make_task(1.1, eps, [0.3, 0.4, np.sqrt(0.75)]))
    single = tau_of_phi(ctask, np.float64(0.7))
    assert all(type(field) is float for field in single)
    phis = np.linspace(0.0, 2.0 * np.pi, 12).reshape(3, 4)
    curve = tau_of_phi(ctask, phis)
    assert all(isinstance(field, np.ndarray) and field.shape == (3, 4) for field in curve)
    assert np.array_equal(curve.phi, phis)
    assert np.array_equal(curve.tau, curve.alpha / curve.omega)
    # one trig pass, yet the public formulas to the last bit
    assert np.array_equal(curve.omega, omega_of_phi(ctask.wind, phis))
    assert np.array_equal(curve.alpha, alpha_of_phi(ctask.theta, phis))


def test_optimize_computes_no_rho(monkeypatch):
    def refuse(theta, phi):
        raise AssertionError("rho_of_phi called")

    monkeypatch.setattr(state_nav, "rho_of_phi", refuse)
    assert optimize(benchmark_task()).tau_star > 0.0


@given(eps=eps_st, theta=theta_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sweep_records_satisfy_invariants(eps, theta, seed):
    axis = random_unit_axis(np.random.default_rng(seed))
    task = make_task(theta, eps, axis)
    curve = sweep(task, 64)
    rho = rho_of_phi(canonicalize(task).theta, curve.phi)
    assert np.all(np.abs(curve.omega * curve.tau - curve.alpha) <= 1e-10)
    assert np.all(curve.omega > 0.0)
    assert np.all((0.0 < curve.alpha) & (curve.alpha <= 2.0 * np.pi))
    assert np.all((0.0 <= rho) & (rho <= np.pi))


def test_sweep_grid_placement():
    task = benchmark_task()
    curve = sweep(task, 16)
    assert all(field.shape == (16,) for field in curve)
    phis = curve.phi.tolist()
    assert phis == sorted(phis)
    assert phis[0] == 0.0
    assert phis[1] == pytest.approx(2.0 * np.pi / 16.0)


def test_sweep_rejects_small_grids():
    with pytest.raises(ValueError):
        sweep(benchmark_task(), 15)


def test_sweep_benchmark_argmin_location():
    curve = sweep(benchmark_task(), 4096)
    phi_min = curve.phi[np.argmin(curve.tau)]
    assert 0.43 * np.pi <= phi_min <= 0.45 * np.pi


def test_sweep_z_wind_argmin_at_geodesic_angle():
    curve = sweep(make_task(1.3, 0.5, [0.0, 0.0, 1.0]), 4096)
    assert np.ptp(curve.omega) <= 1e-12
    phi_min = curve.phi[np.argmin(curve.tau)]
    assert phi_min == pytest.approx(np.pi / 2.0, abs=2.0 * np.pi / 4096)


def test_first_passage_curve_smooth_where_principal_curve_kinks():
    """The first-passage time is analytic at phi = pi; only the principal
    arccos diagnostic has a corner there. The discrete second difference
    makes the contrast explicit."""
    ctask = canonicalize(benchmark_task())
    n = 4096
    phis = 2.0 * np.pi * np.arange(n) / n
    i = n // 2
    first = np.array([tau_of_phi(ctask, p).tau for p in phis[i - 2 : i + 3]])
    principal = principal_voyage_time(ctask, phis[i - 2 : i + 3])
    h = phis[1] - phis[0]

    d2_first = abs(first[3] - 2.0 * first[2] + first[1]) / h**2
    d2_principal = abs(principal[3] - 2.0 * principal[2] + principal[1]) / h**2
    # curvature scale away from the join, for comparison
    d2_ref = abs(first[2] - 2.0 * first[1] + first[0]) / h**2
    assert d2_first <= 10.0 * max(d2_ref, 1.0)
    assert d2_principal > 100.0 * max(d2_ref, 1.0)

    slope_left = (first[2] - first[1]) / h
    slope_right = (first[3] - first[2]) / h
    assert slope_left * slope_right > 0.0
    assert abs(slope_left - slope_right) <= 0.1 * abs(slope_left)


def test_optimize_benchmark_frozen_values():
    sol = optimize(benchmark_task())
    assert 0.43 * np.pi <= sol.phi_star <= 0.45 * np.pi
    assert sol.phi_star == pytest.approx(BENCH_PHI_STAR, abs=1e-8)
    assert sol.tau_star == pytest.approx(BENCH_TAU_STAR, abs=1e-11)
    assert sol.fidelity_check >= 1.0 - 1e-9
    assert sol.constraint_residual <= 1e-9
    assert abs(np.trace(sol.h_control.matrix)) <= 1e-10


def test_optimize_reaches_target_exactly():
    sol = optimize(benchmark_task())
    task = benchmark_task()
    u = expm_unitary(sol.h_total, sol.tau_star)
    final = u @ task.psi_initial.amplitudes
    fid = abs(np.vdot(task.psi_final.amplitudes, final)) ** 2
    assert fid >= 1.0 - 1e-9


def test_optimize_z_wind():
    theta, eps = 1.3, 0.5
    sol = optimize(make_task(theta, eps, [0.0, 0.0, 1.0]))
    assert sol.phi_star == pytest.approx(np.pi / 2.0, abs=1e-6)
    assert sol.tau_star == pytest.approx(theta / np.sqrt(2.0 * (1.0 - eps)), abs=1e-10)


def test_optimize_no_wind():
    theta = np.pi / 2.0
    psi_i, psi_f = symmetric_pair(theta)
    task = NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=HermitianOperator(np.zeros((2, 2))))
    sol = optimize(task)
    assert sol.tau_star == pytest.approx((np.pi / 2.0) / np.sqrt(2.0), abs=1e-10)
    assert sol.phi_star == pytest.approx(np.pi / 2.0, abs=1e-8)


def test_optimize_tailwind_beats_no_wind():
    theta = np.pi / 2.0
    sol = optimize(make_task(theta, 0.5, [0.0, 1.0, 0.0]))
    assert sol.tau_star < (np.pi / 2.0) / np.sqrt(2.0) - 1e-3


def test_optimize_antipodal_states():
    """Antipodal targets need a half turn whatever the angle, so the best
    angle is the one with the most tailwind."""
    eps = 0.6
    axis = np.array([0.6, 0.64, 0.48])
    axis /= np.linalg.norm(axis)
    task = NavigationTask(
        psi_initial=StateVector([1.0, 0.0]),
        psi_final=StateVector([0.0, 1.0]),
        h0=wind_from_axis(eps, axis),
    )
    sol = optimize(task)
    ctask = canonicalize(task)
    x, y, _ = ctask.wind.axis
    best_phi = np.arctan2(y, x) % (2.0 * np.pi)
    assert sol.phi_star == pytest.approx(best_phi, abs=1e-6)
    assert sol.tau_star == pytest.approx(np.pi / float(omega_of_phi(ctask.wind, best_phi)), abs=1e-10)


def test_optimize_lab_frame_task(rng):
    """A task posed in arbitrary lab coordinates solves just as well."""
    theta, eps = 1.0, 0.7
    u = haar_unitary(rng)
    psi_i, psi_f = symmetric_pair(theta)
    h0 = wind_from_axis(eps, rng.normal(size=3))
    task = NavigationTask(
        psi_initial=StateVector(u @ psi_i.amplitudes),
        psi_final=StateVector(u @ psi_f.amplitudes),
        h0=HermitianOperator(u @ h0.matrix @ u.conj().T),
    )
    sol = optimize(task)
    assert sol.fidelity_check >= 1.0 - 1e-9
    assert sol.constraint_residual <= 1e-9


def test_optimize_handles_trace_part():
    theta, eps = 1.0, 0.5
    psi_i, psi_f = symmetric_pair(theta)
    h0 = HermitianOperator(0.8 * np.eye(2) + wind_from_axis(eps, [0.0, 0.0, 1.0]).matrix)
    task = NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=h0)
    sol = optimize(task)
    assert abs(np.trace(sol.h_control.matrix)) <= 1e-10
    assert np.trace(sol.h_total.matrix).real == pytest.approx(1.6, abs=1e-12)
    assert sol.tau_star == pytest.approx(theta / np.sqrt(2.0 * (1.0 - eps)), abs=1e-10)


def test_optimize_grid_optimality_spot_checks(rng):
    for _ in range(5):
        task = make_task(
            rng.uniform(0.1, np.pi - 0.1), rng.uniform(0.05, 0.95), random_unit_axis(rng)
        )
        sol = optimize(task)
        best_grid = np.min(sweep(task, 10_000).tau)
        assert sol.tau_star <= best_grid + 1e-9


def test_mirror_x_reflects_optimum():
    """Flipping the equatorial wind component x reflects the best angle
    about pi/2 and leaves the best time unchanged."""
    x, y = 0.1, 0.23
    z = np.sqrt(1.0 - x * x - y * y)
    sol_a = optimize(make_task(np.pi / 2.0, 0.9, [x, y, z]))
    sol_b = optimize(make_task(np.pi / 2.0, 0.9, [-x, y, z]))
    assert sol_b.tau_star == pytest.approx(sol_a.tau_star, abs=1e-8)
    assert sol_b.phi_star == pytest.approx((np.pi - sol_a.phi_star) % (2.0 * np.pi), abs=1e-6)


def test_mirror_y_with_swapped_endpoints():
    """Flipping y is a symmetry only together with swapping the endpoint
    states. The swapped task rebuilds its frame with both z and y axes
    negated, so the canonical label and the voyage time come back equal
    while the lab-frame operators are exact y-mirrors."""
    x, y = 0.1, 0.23
    z = np.sqrt(1.0 - x * x - y * y)
    theta = np.pi / 2.0
    sol_a = optimize(make_task(theta, 0.9, [x, y, z]))
    psi_i, psi_f = symmetric_pair(theta)
    swapped = NavigationTask(
        psi_initial=psi_f, psi_final=psi_i, h0=wind_from_axis(0.9, [x, -y, z])
    )
    sol_b = optimize(swapped)
    assert sol_b.tau_star == pytest.approx(sol_a.tau_star, abs=1e-10)
    assert sol_b.phi_star == pytest.approx(sol_a.phi_star, abs=1e-8)
    mirror = np.array([1.0, -1.0, 1.0])
    for field in ("h_control", "h_total"):
        _, v_a = pauli_decompose(getattr(sol_a, field))
        _, v_b = pauli_decompose(getattr(sol_b, field))
        assert np.max(np.abs(v_b - mirror * v_a)) <= 1e-10


def test_mirror_y_alone_is_not_a_first_passage_symmetry():
    """Without the endpoint swap the reflected problem rotates the long
    way around and genuinely takes longer; this pins the asymmetry."""
    x, y = 0.1, 0.23
    z = np.sqrt(1.0 - x * x - y * y)
    sol_a = optimize(make_task(np.pi / 2.0, 0.9, [x, y, z]))
    sol_b = optimize(make_task(np.pi / 2.0, 0.9, [x, -y, z]))
    assert sol_b.tau_star > sol_a.tau_star + 1.0


def test_refine_objective_matches_public_formulas_bitwise(rng):
    """The hoisted scalar objective is alpha_of_phi / omega_of_phi to the last bit,
    in both halves and within 1e-6 of the joins at 0 and pi, and so is
    tau_of_phi, for one angle and for the whole array at once: optimize
    compares grid, refined and boundary taus."""
    thetas = list(rng.uniform(0.05, np.pi - 0.05, size=30)) + [0.05, np.pi - 0.05, np.pi]
    for theta in thetas:
        ctask = canonical_ctask(theta, rng.uniform(0.01, 0.99), random_unit_axis(rng))
        near = rng.uniform(0.0, 1e-6, size=8)
        phis = np.concatenate(
            [
                rng.uniform(0.0, np.pi, size=20),
                rng.uniform(np.pi, 2.0 * np.pi, size=20),
                near,
                np.pi - near,
                np.pi + near,
                2.0 * np.pi - near,
                [0.0, np.pi],
            ]
        )
        seen = []
        objective = _refine_objective(ctask, seen)
        curve = tau_of_phi(ctask, phis)
        assert np.array_equal(curve.omega, omega_of_phi(ctask.wind, phis)), theta
        assert np.array_equal(curve.alpha, alpha_of_phi(ctask.theta, phis)), theta
        for k, phi in enumerate(map(float, phis)):
            expected = float(alpha_of_phi(ctask.theta, phi)) / float(omega_of_phi(ctask.wind, phi))
            assert objective(phi) == expected, (theta, phi)
            single = tau_of_phi(ctask, phi)
            assert single.tau == expected, (theta, phi)
            assert (curve.omega[k], curve.alpha[k], curve.tau[k]) == single[1:], (theta, phi)
        assert seen == [float(p) for p in phis]


def test_optimize_cross_checks_every_refined_angle(monkeypatch):
    """Perturb the geometry at off-grid angles of the losing half only: the
    grid scan, the boundary candidates and the assembled optimum (in the
    first half) never see it, so only the batched check of the golden
    evaluations can raise."""
    task = benchmark_task()
    grid = 2.0 * np.pi * np.arange(DEFAULT_GRID_POINTS) / DEFAULT_GRID_POINTS
    real = state_nav.alpha_geometric

    def perturbed(shift):
        def geo(theta, phi):
            phi = np.asarray(phi, dtype=float)
            off = (phi > np.pi) & ~np.isin(phi, grid)
            out = np.asarray(real(theta, phi)) + np.where(off, shift, 0.0)
            return out if out.ndim else float(out)

        return geo

    monkeypatch.setattr(state_nav, "alpha_geometric", perturbed(1e-10))
    assert optimize(task).phi_star < np.pi
    monkeypatch.setattr(state_nav, "alpha_geometric", perturbed(1e-6))
    with pytest.raises(ArithmeticError, match="orientation branch disagrees"):
        optimize(task)


def test_scan_grid_holds_zero_and_pi_exactly(rng):
    """optimize reads its boundary candidates off the scan, so the fixed
    grid must hold 0 and pi exactly; a size that misses pi fails here."""
    n = DEFAULT_GRID_POINTS
    grid = state_nav._SCAN_PHIS
    assert grid.size == n + 1
    assert grid[0] == 0.0
    assert grid[n // 2] == np.pi
    assert grid[n] == 2.0 * np.pi
    tasks = [benchmark_task(), make_task(np.pi - 0.2, 0.7, [0.0, 1.0, 0.0])]
    tasks += [make_task(rng.uniform(0.1, 3.0), rng.uniform(0.0, 0.9), random_unit_axis(rng)) for _ in range(5)]
    for task in tasks:
        ctask = canonicalize(task)
        curve = tau_of_phi(ctask, grid[:-1])
        assert np.array_equal(curve.phi, sweep(task).phi)
        assert curve.tau[0] == tau_of_phi(ctask, 0.0).tau
        assert curve.tau[n // 2] == tau_of_phi(ctask, np.pi).tau


def test_antipodal_optimum_is_the_zero_candidate():
    """Antipodal states with the canonical wind along +x: tau = pi/omega is
    least at phi = 0 exactly, which only the boundary candidate reaches."""
    task = make_task(np.pi, 0.5, [0.0, 1.0, 0.0])
    ctask = canonicalize(task)
    np.testing.assert_allclose(ctask.wind.axis, [1.0, 0.0, 0.0], atol=1e-15)
    sol = optimize(task)
    assert sol.phi_star == 0.0
    assert sol.tau_star == tau_of_phi(ctask, 0.0).tau


def test_optimize_degenerate_task():
    psi = StateVector([0.6, 0.8])
    task = NavigationTask(psi_initial=psi, psi_final=psi, h0=wind_from_axis(0.5, [0, 0, 1.0]))
    with pytest.raises(DegenerateTaskError):
        optimize(task)


def test_task_rejects_strong_wind():
    psi_i, psi_f = symmetric_pair(1.0)
    with pytest.raises(WindTooStrongError):
        NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=wind_from_axis(1.1, [0, 0, 1.0]))
