"""Seeded inputs, timed ops and correctness gates for the three workloads.

An op is one CLI call (``cli_mix``) or one solve plus its independent check
(``state_batch``, ``gate_batch``). Every timed op must pass its gate; any
exception or failed check raises ``GateFailure`` and fails the run.

State tasks fail in three known-defect bands, measured with the checks
below (theta is the Bloch separation, eps the wind strength):

- ``near_antipodal``, ``pi - theta`` below ~0.09: the scalar branch
  cross-check in ``state_nav.alpha_of_phi`` raises ``ArithmeticError``.
- ``small_theta``, theta below ~1e-7: the separation is lost to ``arccos``
  rounding (``DegenerateTaskError``) or the branch check raises.
- ``strong_wind``, eps above ~0.9: the oracle's passage time drifts from the
  solver's ``tau_star`` as eps grows, and past 0.95 it is more than the
  CLI's 1e-6 away for some tasks (``oracle_disagrees``), most often at small
  theta. Below 0.9 the largest gap seen in 6000 tasks was 4e-7.

Timed state tasks are drawn outside the bands with a margin (``in_band``), so
a run's failure count is 0 and a single failure is a regression.
``known_defects`` runs a fixed, seeded set of tasks inside the bands after
the timed ops and reports how each ended, so the defects stay visible.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"

FIDELITY_MIN = 1.0 - 1e-9
ORACLE_TIME_TOL = 1e-6
GATE_MISMATCH_MAX = 1e-9
# known-defect bands with a margin: timed tasks keep pi - theta and theta
# at or above the first two and eps below the third
NEAR_ANTIPODAL_BAND = 0.15
SMALL_THETA_BAND = 1e-2
STRONG_WIND_BAND = 0.9
DEFECT_PROBE_TASKS = 8  # per band and run
SWEEP_POINTS = 4096
SWEEP_HEADER = "phi,omega,rho,alpha,tau"

# state_batch slots per cycle of 20: 60% Haar pairs, the rest edge cases,
# each edge case just outside its known-defect band
STATE_CYCLE = (
    ("haar",) * 12
    + ("strong_wind",) * 2
    + ("small_theta",) * 2
    + ("near_antipodal",)
    + ("subspace3",) * 2
    + ("subspace4",)
)
GATE_CYCLE = tuple((n, m) for n in range(2, 6) for m in range(1, 4))
CLI_CYCLE = ("solve_state", "solve_state_no_oracle", "solve_subspace", "solve_gate", "sweep", "verify")
STATE_POOL_CYCLES = 50
GATE_POOL_CYCLES = 50
CLI_TASKS = 4
CLI_TIMEOUT_S = 120


class GateFailure(RuntimeError):
    """An op produced a wrong answer or failed outside every known band."""


@dataclass
class Outcome:
    seconds: float


def import_qnav():
    """Import qnav from the checkout's src tree, or exit when it is absent."""
    if not (SRC / "qnav" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qnav package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qnav
    import qnav.cli
    import qnav.gate_nav
    import qnav.linalg
    import qnav.oracle
    import qnav.state_nav
    import qnav.subspace
    import qnav.taskio

    return qnav


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------- generation


def _haar_unitary(rng, n):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _haar_pair(rng):
    """Haar-random qubit pair, redrawn while it lies in a known-defect band."""
    while True:
        a, b = (_haar_unitary(rng, 2)[:, 0] for _ in range(2))
        theta = 2.0 * math.acos(min(1.0, abs(complex(np.vdot(a, b)))))
        if not in_band(theta):
            return a, b, theta


def _pair_at(rng, theta):
    """Qubit states at Bloch separation theta, in a Haar-random frame."""
    u = _haar_unitary(rng, 2)
    a = [math.cos((math.pi - theta) / 4.0), math.sin((math.pi - theta) / 4.0)]
    b = [math.cos((math.pi + theta) / 4.0), math.sin((math.pi + theta) / 4.0)]
    return u @ a, u @ b, theta


def _unit_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _qubit_wind(rng, eps):
    """a0 I + sqrt(eps/2) axis.sigma as a 2x2 matrix."""
    x, y, z = math.sqrt(eps / 2.0) * _unit_axis(rng)
    a0 = rng.uniform(-0.5, 0.5)
    return np.array([[a0 + z, x - 1j * y], [x + 1j * y, a0 - z]])


def _traceless_hermitian(rng, n, strength):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (z + z.conj().T)
    h -= np.trace(h).real / n * np.eye(n)
    return h * math.sqrt(strength / np.trace(h @ h).real)


def _block_invariant(rng, n, pair):
    """States and background on C^n whose two-state block is invariant."""
    v = _haar_unitary(rng, n)
    a, b, theta = pair
    eps = rng.uniform(0.0, STRONG_WIND_BAND)
    h = np.zeros((n, n), dtype=complex)
    h[:2, :2] = _qubit_wind(rng, eps)
    h[2:, 2:] = _traceless_hermitian(rng, n - 2, 1.0) if n > 3 else rng.uniform(-1.0, 1.0)
    return v[:, :2] @ a, v[:, :2] @ b, v @ h @ v.conj().T, theta, eps


def in_band(theta):
    """Whether a separation lies in a known-defect band of theta."""
    return math.pi - theta < NEAR_ANTIPODAL_BAND or theta < SMALL_THETA_BAND


@dataclass
class StateItem:
    kind: str
    theta: float
    eps: float
    task: object


@dataclass
class GateItem:
    n: int
    max_offset: int
    task: object


def _stratified(rng, n):
    """n uniform draws on [0, 1), one in each of n equal strata, in random order."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


def _state_item(q, rng, kind, u):
    """One state task; u in [0, 1) places an edge case within its range.

    Timed edge kinds, each just outside its band: ``strong_wind`` (eps from
    0.8 to 0.9), ``small_theta`` (theta from 1e-2 to 3e-2), ``near_antipodal``
    (pi - theta from 0.15 to 0.3). The ``defect_*`` kinds lie inside the
    bands and are used by ``known_defects`` only: pi - theta from 1e-6 to
    0.08, theta from 1e-8 to 2e-3, and 1 - eps from 1e-12 to 1e-1.
    """
    if kind.startswith("subspace"):
        a, b, h0, theta, eps = _block_invariant(rng, int(kind[-1]), _haar_pair(rng))
    else:
        if kind == "small_theta":
            a, b, theta = _pair_at(rng, _log_uniform(SMALL_THETA_BAND, 3e-2, u))
        elif kind == "near_antipodal":
            a, b, theta = _pair_at(rng, math.pi - _log_uniform(NEAR_ANTIPODAL_BAND, 0.3, u))
        elif kind == "defect_small_theta":
            a, b, theta = _pair_at(rng, _log_uniform(1e-8, 2e-3, u))
        elif kind == "defect_near_antipodal":
            a, b, theta = _pair_at(rng, math.pi - _log_uniform(1e-6, 0.08, u))
        else:
            a, b, theta = _haar_pair(rng)
        if kind == "strong_wind":
            eps = 0.8 + (STRONG_WIND_BAND - 0.8) * u
        elif kind == "defect_strong_wind":
            eps = 1.0 - _log_uniform(1e-12, 1.0 - STRONG_WIND_BAND, u)
        else:
            eps = rng.uniform(0.0, STRONG_WIND_BAND)
        h0 = _qubit_wind(rng, eps)
    task = q.state_nav.NavigationTask(
        psi_initial=q.linalg.StateVector(a),
        psi_final=q.linalg.StateVector(b),
        h0=q.linalg.HermitianOperator(h0),
    )
    return StateItem(kind=kind, theta=theta, eps=eps, task=task)


def _gate_item(q, rng, n, max_offset):
    h0 = _traceless_hermitian(rng, n, rng.uniform(0.0, 0.9)) + rng.uniform(-0.5, 0.5) * np.eye(n)
    task = q.gate_nav.GateTask(
        u_initial=_haar_unitary(rng, n),
        u_final=_haar_unitary(rng, n),
        h0=q.linalg.HermitianOperator(h0),
    )
    return GateItem(n=n, max_offset=max_offset, task=task)


# ----------------------------------------------------------------- workloads


def _fidelity(h, tau, psi_i, psi_f):
    """|<psi_f| e^{-i h tau} |psi_i>|^2 by direct eigendecomposition."""
    w, v = np.linalg.eigh(h)
    out = v @ (np.exp(-1j * w * tau) * (v.conj().T @ psi_i))
    return float(abs(np.vdot(psi_f, out)) ** 2)


@dataclass
class StateBatch:
    """Warm in-process optimize / solve_embedded, each checked by the oracle."""

    q: object
    items: list
    cycle = len(STATE_CYCLE)

    @classmethod
    def build(cls, q, seed, workdir):
        rng = np.random.default_rng(seed)
        # stratified edge-case magnitudes cover each range evenly on every seed
        u = {
            kind: iter(_stratified(rng, STATE_POOL_CYCLES * STATE_CYCLE.count(kind)))
            for kind in sorted(set(STATE_CYCLE))
        }
        items = [
            _state_item(q, rng, kind, next(u[kind])) for _ in range(STATE_POOL_CYCLES) for kind in STATE_CYCLE
        ]
        return cls(q=q, items=items)

    def meta(self, item):
        return {}

    def run(self, item):
        t0 = time.perf_counter()
        problem = solve_and_check_state(self.q, item)
        elapsed = time.perf_counter() - t0
        if problem:
            raise GateFailure(f"{item.kind} theta={item.theta!r} eps={item.eps!r}: {problem}")
        return Outcome(elapsed)


def solve_and_check_state(q, item):
    """Solve one state task and check it; None if it passes, else what went wrong.

    A fidelity below FIDELITY_MIN is a wrong answer and raises GateFailure
    at once; an exception or an oracle disagreement is returned.
    """
    task = item.task
    try:
        if task.psi_initial.dim == 2:
            sol = q.state_nav.optimize(task)
        else:
            sol = q.subspace.solve_embedded(task)
        # the same oracle window as the CLI's oracle block
        span = q.linalg.spectral_span(sol.h_total)
        dt = math.pi * 1e-3 / span if span > 1e-12 else None
        t_max = 1.5 * sol.tau_star + (10.0 * dt if dt else 1.0)
        passage = q.oracle.first_passage(sol.h_total, task.psi_initial, task.psi_final, t_max=t_max, dt=dt)
        fid = _fidelity(sol.h_total.matrix, sol.tau_star, task.psi_initial.amplitudes, task.psi_final.amplitudes)
    except (ArithmeticError, q.errors.QnavError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if fid < FIDELITY_MIN:
        raise GateFailure(f"{item.kind} theta={item.theta!r} eps={item.eps!r}: fidelity {fid!r}")
    gap = abs(passage.t_first - sol.tau_star)
    if not (passage.reached and gap <= ORACLE_TIME_TOL):
        return f"oracle_disagrees: gap {gap!r}"
    return None


def known_defects(q, seed):
    """Outcome counts of DEFECT_PROBE_TASKS seeded tasks in each known-defect band.

    Not timed and not counted as failed ops: the bands are known defects of
    the state solver, kept in view here. A wrong answer still fails the run.
    """
    rng = np.random.default_rng([seed, 1])
    counts = {}
    for kind in ("defect_near_antipodal", "defect_small_theta", "defect_strong_wind"):
        for u in _stratified(rng, DEFECT_PROBE_TASKS):
            problem = solve_and_check_state(q, _state_item(q, rng, kind, u))
            label = f"{kind.removeprefix('defect_')}:{problem.split(':')[0] if problem else 'pass'}"
            counts[label] = counts.get(label, 0) + 1
    return dict(sorted(counts.items()))


@dataclass
class GateBatch:
    """Warm in-process solve_gate_min_branch, each checked by gate_mismatch."""

    q: object
    items: list
    cycle = len(GATE_CYCLE)

    @classmethod
    def build(cls, q, seed, workdir):
        rng = np.random.default_rng(seed)
        items = [_gate_item(q, rng, n, m) for _ in range(GATE_POOL_CYCLES) for n, m in GATE_CYCLE]
        return cls(q=q, items=items)

    def meta(self, item):
        return {"n": item.n}

    def run(self, item):
        q = self.q
        task = item.task
        t0 = time.perf_counter()
        try:
            sol = q.gate_nav.solve_gate_min_branch(task, item.max_offset)
            mismatch = q.oracle.gate_mismatch(
                sol.h_total, task.u_initial, task.u_final, sol.voyage_time, sol.global_phase
            )
        except (ArithmeticError, q.errors.QnavError) as exc:
            raise GateFailure(f"gate n={item.n} max_offset={item.max_offset}: {exc!r}") from exc
        elapsed = time.perf_counter() - t0
        if not mismatch <= GATE_MISMATCH_MAX:
            raise GateFailure(f"gate n={item.n} max_offset={item.max_offset}: mismatch {mismatch!r}")
        return Outcome(elapsed)


@dataclass
class CliItem:
    command: str
    argv: list


@dataclass
class CliMix:
    """A fixed cycle of `python -m qnav` calls on seeded task files.

    ``run`` pays a fresh interpreter per call. ``run_inprocess`` calls
    ``qnav.cli.main`` with the same arguments; the traced run uses it so
    spans can be taken inside the call.
    """

    q: object
    items: list
    cycle = len(CLI_CYCLE)

    @classmethod
    def build(cls, q, seed, workdir):
        rng = np.random.default_rng(seed)
        pairs = q.taskio.complex_pairs
        matrix = q.taskio.matrix_pairs
        workdir = Path(workdir)
        rows = []
        for k in range(CLI_TASKS):
            # theta away from both known-failure bands, which state_batch covers
            a, b, _ = _pair_at(rng, rng.uniform(0.2, math.pi - 0.2))
            state = workdir / f"state{k}.json"
            _write(state, {
                "mode": "state",
                "psi_initial": pairs(a),
                "psi_final": pairs(b),
                "wind": {"epsilon": rng.uniform(0.0, STRONG_WIND_BAND), "axis": _unit_axis(rng).tolist()},
            })
            a3, b3, h3, _, _ = _block_invariant(rng, 3, _pair_at(rng, rng.uniform(0.2, math.pi - 0.2)))
            sub = workdir / f"subspace{k}.json"
            _write(sub, {
                "mode": "subspace",
                "psi_initial": pairs(a3),
                "psi_final": pairs(b3),
                "wind": {"matrix": matrix(h3)},
            })
            gate = workdir / f"gate{k}.json"
            _write(gate, {
                "mode": "gate",
                "u_initial": matrix(_haar_unitary(rng, 2)),
                "u_final": matrix(_haar_unitary(rng, 2)),
                "wind": {"epsilon": rng.uniform(0.0, 0.9), "axis": _unit_axis(rng).tolist()},
            })
            result = workdir / f"result{k}.json"
            if q.cli.main(["solve-state", str(state), "--out", str(result)]) != 0:
                raise GateFailure(f"cli_mix setup: solve-state {state.name} failed")
            rows.append({
                "solve_state": ["solve-state", str(state)],
                "solve_state_no_oracle": ["solve-state", str(state), "--no-oracle"],
                "solve_subspace": ["solve-state", str(sub)],
                "solve_gate": ["solve-gate", str(gate), "--max-branch", "2"],
                "sweep": ["sweep", str(state), "--points", str(SWEEP_POINTS)],
                "verify": ["verify", str(result), str(state)],
            })
        items = [CliItem(command=c, argv=row[c]) for row in rows for c in CLI_CYCLE]
        return cls(q=q, items=items)

    def meta(self, item):
        return {"command": item.argv[0].replace("-", "_")}

    def run(self, item):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qnav", *item.argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0
        check_cli_output(item, proc.returncode, proc.stdout)
        return Outcome(elapsed)

    def run_inprocess(self, item):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.q.cli.main(list(item.argv))
        elapsed = time.perf_counter() - t0
        check_cli_output(item, code, buf.getvalue())
        return Outcome(elapsed)


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def check_cli_output(item, code, out):
    """Gate one CLI call on its exit code and the content it printed."""
    what = f"{item.command} {' '.join(Path(a).name for a in item.argv[1:])}"
    if code != 0:
        raise GateFailure(f"cli {what}: exit code {code}, expected 0")
    if item.command == "sweep":
        lines = out.splitlines()
        if not lines or lines[0] != SWEEP_HEADER or len(lines) != SWEEP_POINTS + 1:
            raise GateFailure(f"cli {what}: bad CSV ({len(lines)} lines)")
        return
    if item.command == "verify":
        if not out.endswith("verify: PASS\n"):
            raise GateFailure(f"cli {what}: {out.strip().splitlines()[-1:]}")
        return
    try:
        doc = json.loads(out)
        if item.command == "solve_gate":
            ok = doc["gate_residual"] <= GATE_MISMATCH_MAX and doc["branch_table"]
        elif item.command == "solve_state_no_oracle":
            ok = doc["fidelity"] >= FIDELITY_MIN and doc["oracle"] == {"enabled": False}
        else:
            ok = doc["fidelity"] >= FIDELITY_MIN and doc["oracle"]["agrees"] is True
    except (ValueError, KeyError, TypeError) as exc:
        raise GateFailure(f"cli {what}: unreadable output ({exc!r})") from exc
    if not ok:
        raise GateFailure(f"cli {what}: output fails its gate")


WORKLOADS = {"cli_mix": CliMix, "state_batch": StateBatch, "gate_batch": GateBatch}


def setup(q, name, seed, workdir):
    """Inputs for one workload plus one warm-up pass over a cycle."""
    workload = WORKLOADS[name].build(q, seed, workdir)
    warm = getattr(workload, "run_inprocess", workload.run)
    for item in workload.items[: workload.cycle]:
        warm(item)
    return workload


# ------------------------------------------------------- reference digests

REFERENCE_CALLS = {
    "solve-state": ["solve-state", "state.json"],
    "solve-state-no-oracle": ["solve-state", "state.json", "--no-oracle"],
    "solve-state-subspace": ["solve-state", "subspace.json"],
    "solve-gate": ["solve-gate", "gate.json", "--max-branch", "2"],
    "sweep": ["sweep", "state.json", "--points", str(SWEEP_POINTS)],
    "verify": ["verify", "{result}", "state.json"],
}


def reference_digests(q, workdir):
    """sha256 of the CLI output for each reference task, run in-process."""
    result = Path(workdir) / "reference-result.json"
    with contextlib.redirect_stdout(io.StringIO()):
        q.cli.main(["solve-state", str(REFERENCE / "state.json"), "--out", str(result)])
    digests = {}
    for name, argv in REFERENCE_CALLS.items():
        args = [argv[0]] + [
            str(result) if a == "{result}" else str(REFERENCE / a) if a.endswith(".json") else a
            for a in argv[1:]
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            q.cli.main(args)
        digests[name] = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    return digests


def check_reference_digests(q, workdir):
    expected = json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))
    got = reference_digests(q, workdir)
    bad = sorted(k for k in expected if got.get(k) != expected[k])
    if bad:
        raise GateFailure(f"reference output changed for: {', '.join(bad)}")
