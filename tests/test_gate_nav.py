import functools
import itertools
import math

import numpy as np
import pytest

import qnav.gate_nav
import qnav.linalg
import qnav.state_nav
from qnav import (
    DimensionError,
    GateTask,
    HermitianOperator,
    NavigationTask,
    NoOpGateError,
    NotUnitaryError,
    StateVector,
    WindTooStrongError,
    angular_separation,
    branch_survey,
    expm_unitary,
    gate_mismatch,
    optimize,
    solve_gate,
    solve_gate_min_branch,
)
from qnav.gate_nav import (
    _OFFSET_CACHE_ENTRIES,
    _OFFSET_CACHE_MAX_BYTES,
    _OFFSET_CACHE_MAX_CELLS,
    MAX_BRANCH_CANDIDATES,
    NOOP_TRACE_TOL,
    _cached_offset_table,
    _canonical_phases,
    _offset_table,
)
from qnav.linalg import SIGMA_X, SIGMA_Z, hs_trace_product, split_background

from conftest import (
    haar_state,
    haar_unitary,
    qft,
    random_traceless_hermitian,
    record_calls,
    same_bits,
    wind_from_axis,
)


def z_rotation(beta):
    return np.diag([np.exp(-1j * beta), np.exp(1j * beta)]).astype(complex)


def gate_task(u_final, h0, u_initial=None):
    ui = np.eye(u_final.shape[0], dtype=complex) if u_initial is None else u_initial
    return GateTask(u_initial=ui, u_final=u_final, h0=h0)


def test_no_wind_time_is_generator_norm():
    beta = 0.9
    task = gate_task(z_rotation(beta), HermitianOperator(np.zeros((2, 2))))
    sol = solve_gate(task)
    assert sol.voyage_time == pytest.approx(np.sqrt(2.0) * beta, abs=1e-12)
    assert sol.branch == (0, 0)


@pytest.mark.parametrize("beta", [0.3, 0.8, 2.5])
@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_tailwind_closed_form(beta, eps):
    """Wind aligned with the rotation axis shortens the voyage by 1/(1+sqrt(eps))."""
    task = gate_task(z_rotation(beta), wind_from_axis(eps, [0.0, 0.0, 1.0]))
    sol = solve_gate(task)
    assert sol.voyage_time == pytest.approx(np.sqrt(2.0) * beta / (1.0 + np.sqrt(eps)), abs=1e-10)
    assert sol.gate_residual <= 1e-9


def test_headwind_long_way_round_is_faster():
    """Against a headwind the non-principal branch rotates the other way
    and turns the wind into a tailwind."""
    beta, eps = np.pi - 0.1, 0.5
    h0 = HermitianOperator(-np.sqrt(eps / 2.0) * SIGMA_Z)
    task = gate_task(z_rotation(beta), h0)
    principal = solve_gate(task)
    assert principal.voyage_time == pytest.approx(
        np.sqrt(2.0) * beta / (1.0 - np.sqrt(eps)), abs=1e-10
    )
    best = solve_gate_min_branch(task, 2)
    assert best.voyage_time < principal.voyage_time
    assert best.voyage_time == pytest.approx(
        np.sqrt(2.0) * (2.0 * np.pi - beta) / (1.0 + np.sqrt(eps)), abs=1e-10
    )
    assert best.branch == (1, -1)


def test_identity_gate_needs_nonzero_branch():
    task = gate_task(np.eye(2, dtype=complex), wind_from_axis(0.5, [0.0, 0.0, 1.0]))
    with pytest.raises(NoOpGateError):
        solve_gate(task)
    assert branch_survey(task, 0) == []
    with pytest.raises(NoOpGateError):
        solve_gate_min_branch(task, 0)
    best = solve_gate_min_branch(task, 1)
    assert best.voyage_time == pytest.approx(4.0 * np.pi * (np.sqrt(2.0) - 1.0), abs=1e-10)
    assert best.branch == (1, -1)


def test_branch_validation():
    task = gate_task(z_rotation(0.4), wind_from_axis(0.2, [1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        solve_gate(task, branch=(1, 0))
    with pytest.raises(DimensionError):
        solve_gate(task, branch=(1, -1, 0))
    with pytest.raises(ValueError):
        branch_survey(task, -1)
    with pytest.raises(ValueError):
        solve_gate_min_branch(task, -1)


@pytest.mark.parametrize(
    "branch", [(0.7, -0.7), (1.5, -1.5), (1.0, -1.0), ("1", "-1"), (np.float64(1.0), 0)]
)
def test_non_integral_branch_rejected_before_decomposition(monkeypatch, branch):
    """A fractional offset used to be truncated, so (0.7, -0.7) solved and
    reported branch (0, 0); every non-integer entry now raises, before the
    relation is decomposed."""
    task = gate_task(z_rotation(0.4), wind_from_axis(0.2, [1.0, 0.0, 0.0]))

    def refuse(u):
        raise AssertionError("decomposed an invalid branch")

    monkeypatch.setattr(qnav.gate_nav, "unitary_eigenphases", refuse)
    with pytest.raises(ValueError, match="integers"):
        solve_gate(task, branch)
    with pytest.raises(ValueError, match="sum to zero"):
        solve_gate(task, (1, 0))


def test_numpy_integer_branch_accepted():
    task = gate_task(z_rotation(0.4), wind_from_axis(0.2, [1.0, 0.0, 0.0]))
    plain = solve_gate(task, (1, -1))
    branches = (np.array([1, -1]), (np.int64(1), np.int32(-1)), (np.int64(1), np.int8(-1)), [True, -1])
    for branch in branches:
        sol = solve_gate(task, branch)
        assert sol.branch == (1, -1)
        assert all(type(k) is int for k in sol.branch)
        assert sol.voyage_time == plain.voyage_time
        assert same_bits(sol.generator.matrix, plain.generator.matrix)


def test_branch_survey_matches_full_solver(rng):
    """Every survey row is the voyage time solve_gate gives on its branch,
    bit for bit, on a qubit rotation and on Haar gates of n = 2 to 4."""
    tasks = [gate_task(z_rotation(0.7), wind_from_axis(0.4, [0.3, 0.5, 0.8]))]
    tasks += [
        GateTask(haar_unitary(rng, n), haar_unitary(rng, n), random_traceless_hermitian(rng, n, 0.5))
        for n in (2, 3, 4)
        for _ in range(2)
    ]
    assert len(branch_survey(tasks[0], 2)) == 5
    for task in tasks:
        survey = branch_survey(task, 2)
        for branch, t_fast in survey:
            assert sum(branch) == 0
            assert solve_gate(task, branch).voyage_time == t_fast
        assert solve_gate_min_branch(task, 2).voyage_time == min(t for _, t in survey)


def test_tailwind_alignment_monotonicity():
    """Tilting the wind toward the rotation axis only ever helps."""
    beta, eps = 1.2, 0.6
    rel = z_rotation(beta)
    times = []
    for chi in np.linspace(np.pi / 2.0, 0.0, 25):
        h0 = HermitianOperator(np.sqrt(eps / 2.0) * (np.sin(chi) * SIGMA_X + np.cos(chi) * SIGMA_Z))
        times.append(solve_gate(gate_task(rel, h0)).voyage_time)
    assert np.all(np.diff(times) < 0.0)


def test_random_qubit_gates_verify(rng):
    for _ in range(20):
        task = GateTask(
            u_initial=haar_unitary(rng),
            u_final=haar_unitary(rng),
            h0=random_traceless_hermitian(rng, strength=0.5),
        )
        sol = solve_gate(task)
        assert sol.gate_residual <= 1e-9
        assert abs(np.trace(sol.h_control.matrix)) <= 1e-10
        outside = gate_mismatch(
            sol.h_total, task.u_initial, task.u_final, sol.voyage_time, sol.global_phase
        )
        assert outside <= 1e-9


def test_generator_reexponentiates_with_global_phase(rng):
    task = GateTask(
        u_initial=haar_unitary(rng),
        u_final=haar_unitary(rng),
        h0=random_traceless_hermitian(rng, strength=0.3),
    )
    sol = solve_gate(task)
    prop = expm_unitary(sol.generator, 1.0)
    resid = np.max(np.abs(np.exp(1j * sol.global_phase) * (prop @ task.u_initial) - task.u_final))
    assert resid <= 1e-9


def test_traceful_background_phase_bookkeeping(rng):
    h0 = HermitianOperator(0.4 * np.eye(2) + wind_from_axis(0.5, [1.0, 0.0, 0.0]).matrix)
    task = GateTask(u_initial=haar_unitary(rng), u_final=haar_unitary(rng), h0=h0)
    sol = solve_gate(task)
    assert sol.gate_residual <= 1e-9
    assert np.trace(sol.h_total.matrix).real == pytest.approx(0.8, abs=1e-12)
    bare = gate_mismatch(sol.h_total, task.u_initial, task.u_final, sol.voyage_time, 0.0)
    phased = gate_mismatch(
        sol.h_total, task.u_initial, task.u_final, sol.voyage_time, sol.global_phase
    )
    assert phased <= 1e-9
    assert bare > 1e-3


def test_qutrit_gate(rng):
    task = GateTask(
        u_initial=haar_unitary(rng, 3),
        u_final=haar_unitary(rng, 3),
        h0=random_traceless_hermitian(rng, 3, strength=0.3),
    )
    sol = solve_gate(task)
    assert sol.gate_residual <= 1e-9
    assert abs(np.trace(sol.generator.matrix)) <= 1e-9
    best = solve_gate_min_branch(task, 1)
    assert best.voyage_time <= sol.voyage_time + 1e-12
    assert sum(best.branch) == 0


def test_gate_time_bounds_state_time(rng):
    """A gate implementation transports every state pair it induces, so
    the state-optimal time can never exceed the gate time."""
    checked = 0
    while checked < 15:
        u = haar_unitary(rng)
        h0 = random_traceless_hermitian(rng, strength=float(rng.uniform(0.05, 0.9)))
        psi = haar_state(rng)
        phi = StateVector(u @ psi.amplitudes)
        if angular_separation(psi, phi) < 0.2:
            continue
        gate_sol = solve_gate(gate_task(u, h0))
        state_sol = optimize(NavigationTask(psi_initial=psi, psi_final=phi, h0=h0))
        assert state_sol.tau_star <= gate_sol.voyage_time + 1e-8
        checked += 1


def test_task_validation(rng):
    good = haar_unitary(rng)
    with pytest.raises(NotUnitaryError):
        GateTask(u_initial=good, u_final=good * 1.01, h0=HermitianOperator(np.zeros((2, 2))))
    with pytest.raises(DimensionError):
        GateTask(u_initial=good, u_final=haar_unitary(rng, 3), h0=HermitianOperator(np.zeros((2, 2))))
    with pytest.raises(DimensionError):
        GateTask(u_initial=good, u_final=haar_unitary(rng), h0=HermitianOperator(np.zeros((3, 3))))
    with pytest.raises(WindTooStrongError):
        GateTask(u_initial=good, u_final=haar_unitary(rng), h0=wind_from_axis(1.2, [0.0, 0.0, 1.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_strong_wind_is_too_strong_at_any_scale(rng, n):
    """A background far above the budget is refused as too strong: the
    imaginary rounding of its strength tr(h0^2), which grows with the
    entries, is not taken for a bug."""
    for scale in (1e2, 1e4, 1e6, 1e8):
        for _ in range(20):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h0 = HermitianOperator(scale * 0.5 * (z + z.conj().T))
            with pytest.raises(WindTooStrongError):
                gate_task(haar_unitary(rng, n), h0)


def test_task_freezes_inputs(rng):
    src = haar_unitary(rng)
    task = gate_task(src.copy(), wind_from_axis(0.3, [0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        task.u_final[0, 0] = 0.0
    src[0, 0] = 123.0  # caller keeps ownership of the original
    assert task.u_final[0, 0] != 123.0


def per_branch_survey(task, max_offset):
    """The survey as one scalar evaluation per offset vector: the reference
    that the batched branch_survey must match bit for bit."""
    lam, q, _ = _canonical_phases(task)
    _, h0_traceless, _ = split_background(task.h0)
    weights = np.real(np.einsum("ij,ik,kj->j", q.conj(), h0_traceless.matrix, q))
    c = 1.0 - hs_trace_product(h0_traceless, h0_traceless)
    rng = range(-max_offset, max_offset + 1)
    out = []
    for head in itertools.product(rng, repeat=task.dim - 1):
        last = -sum(head)
        if not -max_offset <= last <= max_offset:
            continue
        branch = head + (last,)
        phases = lam + 2.0 * math.pi * np.asarray(branch, dtype=float)
        b = float(np.dot(phases, phases))
        if b <= NOOP_TRACE_TOL:
            continue
        a = float(np.dot(phases, weights))
        out.append((branch, b / (math.sqrt(a * a + c * b) + a)))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_batched_survey_is_bitwise_the_per_branch_loop(rng, n):
    for max_offset in range(4):
        task = GateTask(
            u_initial=haar_unitary(rng, n),
            u_final=haar_unitary(rng, n),
            h0=random_traceless_hermitian(rng, n, strength=float(rng.uniform(0.0, 0.9))),
        )
        reference = per_branch_survey(task, max_offset)
        survey = branch_survey(task, max_offset)
        assert survey == reference
        # plain Python numbers, as the CLI's JSON branch table needs
        assert all(type(k) is int for branch, _ in survey for k in branch)
        assert all(type(t) is float for _, t in survey)
        best_branch = min(reference, key=lambda bt: bt[1])[0]
        best = solve_gate_min_branch(task, max_offset)
        full = solve_gate(task, best_branch)
        assert best.branch == full.branch == best_branch
        for field in ("voyage_time", "global_phase", "gate_residual", "constraint_residual"):
            assert getattr(best, field) == getattr(full, field)
        for field in ("h_total", "h_control", "generator"):
            assert getattr(best, field).matrix.tobytes() == getattr(full, field).matrix.tobytes()


def test_windless_identity_tie_goes_to_smallest_branch():
    task = gate_task(np.eye(2, dtype=complex), HermitianOperator(np.zeros((2, 2))))
    times = dict(branch_survey(task, 1))
    assert times[(-1, 1)] == times[(1, -1)]
    assert solve_gate_min_branch(task, 1).branch == (-1, 1)


def test_min_branch_decomposes_once(rng, monkeypatch):
    """solve_gate, branch_survey and solve_gate_min_branch on one task read
    the task's one decomposition of the gate relation."""
    calls = []
    record_calls(monkeypatch, qnav.gate_nav, "unitary_eigenphases", calls)
    task = GateTask(
        u_initial=haar_unitary(rng, 3),
        u_final=haar_unitary(rng, 3),
        h0=random_traceless_hermitian(rng, 3, strength=0.4),
    )
    solve_gate(task)
    branch_survey(task, 2)
    solve_gate_min_branch(task, 2)
    assert len(calls) == 1


def _solution_bytes(sol):
    """Every field of a GateSolution, matrices as their bytes."""
    return {
        name: value.matrix.tobytes() if isinstance(value, HermitianOperator) else value
        for name, value in vars(sol).items()
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relation_cache_cannot_go_stale(rng, n):
    """A repeated search on one task answers what the first search on a
    fresh task of the same matrices answers, bit for bit; the cached
    decomposition is read-only."""
    for max_offset in (1, 2, 3):
        build = functools.partial(
            GateTask,
            u_initial=haar_unitary(rng, n),
            u_final=haar_unitary(rng, n),
            h0=random_traceless_hermitian(rng, n, strength=float(rng.uniform(0.0, 0.9))),
        )
        task = build()
        first = _solution_bytes(solve_gate_min_branch(task, max_offset))
        survey = branch_survey(task, max_offset)
        assert _solution_bytes(solve_gate_min_branch(task, max_offset)) == first
        assert branch_survey(task, max_offset) == survey
        assert branch_survey(build(), max_offset) == survey
        assert _solution_bytes(solve_gate_min_branch(build(), max_offset)) == first
        for cached in task._relation:
            if isinstance(cached, np.ndarray):
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0] = 1.0


def _conjugated_times(rng, gate, max_offset, strength=0.4, count=12):
    """Voyage time of one gate task and of count Haar conjugates V g V^H
    with the wind conjugated alike: each is the same task in another basis."""
    n = gate.shape[0]
    h = random_traceless_hermitian(rng, n, strength).matrix
    times = []
    for v in [np.eye(n)] + [haar_unitary(rng, n) for _ in range(count)]:
        task = gate_task(v @ gate @ v.conj().T, HermitianOperator(v @ h @ v.conj().T))
        times.append(solve_gate_min_branch(task, max_offset).voyage_time)
    return times


CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


# the identity's eigenphases form one cluster, whose basis item 11 would take from the wind
_BASIS_CHOICE = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: inside a degenerate eigenphase cluster the "
    "eigenbasis is whatever eig and QR return, so a = tr(h0 X) and T "
    "depend on the basis the task is written in",
)


@pytest.mark.parametrize("max_offset", [1, 2])
@pytest.mark.parametrize(
    "gate",
    [
        "pauli_x",
        "cnot",
        "haar3",
        pytest.param("identity2", marks=_BASIS_CHOICE),
        pytest.param("identity3", marks=_BASIS_CHOICE),
    ],
)
def test_voyage_time_is_basis_covariant(rng, gate, max_offset):
    """The voyage time is a property of the task, not of the basis it is
    written in."""
    gate = {
        "pauli_x": SIGMA_X,
        "cnot": CNOT,
        "haar3": haar_unitary(rng, 3),
        "identity2": np.eye(2, dtype=complex),
        "identity3": np.eye(3, dtype=complex),
    }[gate]
    times = _conjugated_times(rng, gate, max_offset)
    np.testing.assert_allclose(times, times[0], rtol=1e-12, atol=0.0)


def test_min_branch_and_mismatch_share_one_decomposition(rng, monkeypatch):
    """The solve's gate check and a second gate_mismatch of its h_total read
    one eigh: the operator keeps its decomposition."""
    task = GateTask(
        u_initial=haar_unitary(rng, 3),
        u_final=haar_unitary(rng, 3),
        h0=random_traceless_hermitian(rng, 3, strength=0.4),
    )
    calls = []
    record_calls(monkeypatch, np.linalg, "eigh", calls)
    sol = solve_gate_min_branch(task, 2)
    again = gate_mismatch(sol.h_total, task.u_initial, task.u_final, sol.voyage_time, sol.global_phase)
    assert again == sol.gate_residual
    assert len(calls) == 1


@pytest.mark.parametrize("n, max_offset", [(8, 50), (11, np.int64(50))])
def test_branch_box_bounded_before_allocation(rng, monkeypatch, n, max_offset):
    """(2*50+1)^(n-1) offset vectors would not fit in memory; the search
    refuses before decomposing the relation or building the table. At n = 11 the
    box size overflows int64, so a numpy offset must not be multiplied out
    as one."""
    box = 101 ** (n - 1)
    assert box > MAX_BRANCH_CANDIDATES >= 100 * 7**4

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the bound check")

    task = GateTask(
        u_initial=haar_unitary(rng, n),
        u_final=haar_unitary(rng, n),
        h0=random_traceless_hermitian(rng, n, strength=0.3),
    )
    _offset_table(3, 1)
    cached = _cached_offset_table.cache_info()
    monkeypatch.setattr(qnav.gate_nav, "unitary_eigenphases", refuse)
    monkeypatch.setattr(np, "indices", refuse)
    for search in (branch_survey, solve_gate_min_branch):
        with pytest.raises(ValueError, match=str(box)):
            search(task, max_offset)
    assert _cached_offset_table.cache_info() == cached


def test_solves_read_the_split_of_construction(rng, monkeypatch):
    """Tasks split their background when they are built, through
    linalg.split_background; solving, surveying and optimizing an already
    built task splits nothing again."""
    calls = []
    gate = GateTask(
        u_initial=haar_unitary(rng, 3),
        u_final=haar_unitary(rng, 3),
        h0=HermitianOperator(0.2 * np.eye(3) + random_traceless_hermitian(rng, 3, strength=0.4).matrix),
    )
    state = NavigationTask(
        psi_initial=haar_state(rng),
        psi_final=haar_state(rng),
        h0=HermitianOperator(0.3 * np.eye(2) + random_traceless_hermitian(rng, strength=0.5).matrix),
    )
    record_calls(monkeypatch, qnav.gate_nav, "split_background", calls)
    record_calls(monkeypatch, qnav.state_nav, "split_background", calls)
    solve_gate(gate)
    solve_gate_min_branch(gate, 2)
    branch_survey(gate, 2)
    optimize(state)
    assert calls == []
    # the counters are live: building a task is the split
    GateTask(u_initial=gate.u_initial, u_final=gate.u_final, h0=gate.h0)
    NavigationTask(psi_initial=state.psi_initial, psi_final=state.psi_final, h0=state.h0)
    assert [name for name, _ in calls] == [
        "qnav.gate_nav.split_background",
        "qnav.state_nav.split_background",
    ]


def _zero_sum_rows(n, max_offset):
    """The offset table as one lexicographic product loop."""
    rng = range(-max_offset, max_offset + 1)
    return [row for row in itertools.product(rng, repeat=n) if sum(row) == 0]


def test_offset_tables_built_once_and_read_only():
    """Every key of a batch over n = 2..5, max_offset = 1..3 stays cached at
    once when walked in a fixed cycle, and each table is the loop's rows."""
    keys = [(n, m) for n in range(2, 6) for m in range(1, 4)]
    _cached_offset_table.cache_clear()
    first = [_offset_table(n, m) for n, m in keys]
    for (n, m), table in zip(keys, first):
        assert table.tolist() == [list(row) for row in _zero_sum_rows(n, m)]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 7
        assert _offset_table(n, m) is table
    info = _cached_offset_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (12, 12, 12)
    assert sum(table.nbytes for table in first) < 90_000


def test_offset_table_int_and_numpy_keys_share_an_entry():
    _cached_offset_table.cache_clear()
    table = _offset_table(3, 2)
    for n, m in [(np.int64(3), np.int64(2)), (3, np.int32(2)), (np.int64(3), 2)]:
        assert _offset_table(n, m) is table
    assert _cached_offset_table.cache_info().currsize == 1


def test_offset_cache_memory_bound():
    """At most _OFFSET_CACHE_ENTRIES tables of at most _OFFSET_CACHE_MAX_CELLS
    int64 entries each are kept: 4 MiB in all, as the docstring states.
    Larger tables are built per call and never kept."""
    assert _OFFSET_CACHE_MAX_BYTES == 4 << 20
    assert _OFFSET_CACHE_MAX_BYTES == _OFFSET_CACHE_ENTRIES * _OFFSET_CACHE_MAX_CELLS * 8
    per_entry = _OFFSET_CACHE_MAX_BYTES // _OFFSET_CACHE_ENTRIES
    _cached_offset_table.cache_clear()
    largest = {}
    for n in range(2, 17):
        m = 0
        while (2 * m + 3) ** (n - 1) * n <= _OFFSET_CACHE_MAX_CELLS:
            m += 1
        largest[n] = m
        assert _offset_table(n, m).nbytes <= per_entry
    for m in range(2 * _OFFSET_CACHE_ENTRIES):
        _offset_table(2, m)
    full = _cached_offset_table.cache_info()
    assert full.currsize == _OFFSET_CACHE_ENTRIES
    for n in range(2, 9):
        big = _offset_table(n, largest[n] + 1)
        assert big is not _offset_table(n, largest[n] + 1)
        assert not big.flags.writeable
    assert _cached_offset_table.cache_info() == full


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


@pytest.mark.parametrize("gate", [SWAP, SIGMA_X], ids=["swap", "pauli_x"])
def test_det_minus_one_conjugations_pick_one_coset(rng, gate):
    """V g V^H with the wind conjugated alike is the same task in another
    basis. det = -1 makes angle(det) land on +pi or -pi by the roundoff in
    its imaginary part; both must give one coset, so one voyage time and
    one branch."""
    n = gate.shape[0]
    h = random_traceless_hermitian(rng, n, 0.4).matrix
    sides, times, branches = set(), [], set()
    for _ in range(24):
        v = haar_unitary(rng, n)
        task = gate_task(v @ gate @ v.conj().T, HermitianOperator(v @ h @ v.conj().T))
        sides.add(float(np.sign(np.angle(np.linalg.det(task.u_final)))))
        sol = solve_gate_min_branch(task, 1)
        times.append(sol.voyage_time)
        branches.add(tuple(sol.branch))
    assert sides == {-1.0, 1.0}
    assert len(branches) == 1
    np.testing.assert_allclose(times, times[0], rtol=1e-9)


@pytest.mark.parametrize(
    "gate, wraps", [(qft(8), -1), (-np.eye(2), 1)], ids=["qft8", "minus_identity"]
)
def test_canonical_phases_shift_the_ends_of_the_sorted_phases(rng, monkeypatch, gate, wraps):
    """Two gates with tied eigenphases whose zero-sum shift is nonzero: in 10
    Haar bases the canonical phases are unitary_eigenphases' ascending phases
    with 2 pi taken off the last wraps (or put on the first -wraps), bit for bit."""
    n = gate.shape[0]
    raw = []
    real = qnav.gate_nav.unitary_eigenphases

    def spy(u):
        lam, q = real(u)
        raw.append(lam.copy())
        return lam, q

    monkeypatch.setattr(qnav.gate_nav, "unitary_eigenphases", spy)
    for _ in range(10):
        v = haar_unitary(rng, n)
        raw.clear()
        task = gate_task(v @ gate @ v.conj().T, HermitianOperator(np.zeros((n, n))))
        lam, _, _ = _canonical_phases(task)
        (want,) = raw
        assert round(float(np.sum(want)) / (2.0 * math.pi)) == wraps
        if wraps > 0:
            want[n - wraps :] -= 2.0 * math.pi
        else:
            want[:-wraps] += 2.0 * math.pi
        assert want.tobytes() == lam.tobytes()
