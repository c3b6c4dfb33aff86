import importlib.util
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

import qnav
import qnav.cli
import qnav.gate_nav
import qnav.oracle
import qnav.subspace
from qnav.cli import main
from qnav.linalg import HermitianOperator, StateVector, spectral_span
from qnav.state_nav import MAX_SWEEP_POINTS, canonicalize, rho_of_phi, sweep
from qnav.taskio import complex_pairs, load_task, matrix_pairs

from conftest import (
    benchmark_axis,
    haar_unitary,
    qft,
    random_traceless_hermitian,
    record_calls,
    symmetric_pair,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def state_doc(theta=np.pi / 2.0, epsilon=0.9, axis=None, **extra):
    psi_i, psi_f = symmetric_pair(theta)
    doc = {
        "mode": "state",
        "psi_initial": complex_pairs(psi_i.amplitudes),
        "psi_final": complex_pairs(psi_f.amplitudes),
        "wind": {"epsilon": epsilon, "axis": list(benchmark_axis() if axis is None else axis)},
    }
    doc.update(extra)
    return doc


def gate_doc(beta=0.8, epsilon=0.5, **extra):
    u_f = np.diag([np.exp(-1j * beta), np.exp(1j * beta)])
    doc = {
        "mode": "gate",
        "u_initial": matrix_pairs(np.eye(2)),
        "u_final": matrix_pairs(u_f),
        "wind": {"epsilon": epsilon, "axis": [0.0, 0.0, 1.0]},
    }
    doc.update(extra)
    return doc


def subspace_doc():
    """Block wind on span{e0, e1} of a three-level system."""
    block = np.sqrt(0.25) * np.array([[1.0, 0.0], [0.0, -1.0]])
    h0 = np.zeros((3, 3))
    h0[:2, :2] = block
    h0[2, 2] = 1.7
    s = 1.0 / np.sqrt(2.0)
    return {
        "mode": "subspace",
        "psi_initial": complex_pairs([1.0, 0.0, 0.0]),
        "psi_final": complex_pairs([s, s, 0.0]),
        "wind": {"matrix": matrix_pairs(h0)},
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_state_benchmark(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc())
    code, out = run(capsys, ["solve-state", task])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "state"
    assert doc["meta"]["tool"] == "qnav"
    assert 0.43 * np.pi <= doc["phi_star"] <= 0.45 * np.pi
    assert doc["fidelity"] >= 1.0 - 1e-9
    assert doc["constraint_residual"] <= 1e-9
    assert doc["oracle"]["enabled"] is True
    assert doc["oracle"]["agrees"] is True
    assert doc["oracle"]["time_gap"] <= 1e-6
    h_total = np.asarray(doc["h_total"], dtype=float)
    assert h_total.shape == (2, 2, 2)


def test_solve_state_deterministic_output(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc())
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve-state", task, "--out", str(out_a)]) == 0
    assert main(["solve-state", task, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().endswith(b"\n")


def test_solve_state_oracle_opt_out(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc())
    code, out = run(capsys, ["solve-state", task, "--no-oracle"])
    assert code == 0
    assert json.loads(out)["oracle"] == {"enabled": False}


def test_no_oracle_flag_is_the_one_oracle_switch(tmp_path, capsys):
    """A task file may still say "oracle": true, and any other value exits 2;
    --no-oracle alone turns the oracle off, and --oracle does not parse."""
    off = write_json(tmp_path / "off.json", state_doc(oracle=False))
    assert main(["solve-state", off]) == 2
    assert capsys.readouterr().err == (
        "error: oracle may only be true in a task file; pass --no-oracle to skip it\n"
    )
    on = write_json(tmp_path / "on.json", state_doc(oracle=True))
    code, out = run(capsys, ["solve-state", on])
    assert code == 0
    assert json.loads(out)["oracle"]["agrees"] is True
    code, out = run(capsys, ["solve-state", on, "--no-oracle"])
    assert code == 0
    assert json.loads(out)["oracle"] == {"enabled": False}
    with pytest.raises(SystemExit) as exc:
        main(["solve-state", on, "--oracle"])
    assert exc.value.code == 2


def test_grid_precedence(tmp_path, capsys):
    """The scan is fixed: a task file may name the fixed settings, and the
    CLI has no flag to change them."""
    plain = write_json(tmp_path / "plain.json", state_doc())
    fixed = write_json(
        tmp_path / "fixed.json", state_doc(optimizer={"grid_points": 4096, "tol": 1e-10})
    )
    code, out = run(capsys, ["solve-state", fixed])
    assert code == 0
    assert 0.43 * np.pi <= json.loads(out)["phi_star"] <= 0.45 * np.pi
    assert out == run(capsys, ["solve-state", plain])[1]
    for flag in (["--grid", "128"], ["--tol", "1e-12"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve-state", plain, *flag])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid_points", 0),
        ("tol", 0.0),
        ("grid_points", 8),
        ("grid_points", -1),
        ("grid_points", 8192),
        ("tol", 1e-12),
        ("tol", None),
        ("grid", 4096),
    ],
)
def test_optimizer_block_other_than_fixed_is_rejected(tmp_path, capsys, key, value):
    task = write_json(tmp_path / "t.json", state_doc(optimizer={key: value}))
    assert main(["solve-state", task]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: optimizer.{key} is " in captured.err


def test_sweep_csv_contract(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc())
    out_path = tmp_path / "curve.csv"
    assert main(["sweep", task, "--points", "16", "--out", str(out_path)]) == 0
    capsys.readouterr()
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == "phi,omega,rho,alpha,tau"
    assert len(lines) == 17
    # each field is the library's value formatted with .16e, rho included
    nav_task = load_task(task).task
    curve = sweep(nav_task, 16)
    rho = rho_of_phi(canonicalize(nav_task).theta, curve.phi)
    expected = np.column_stack([curve.phi, curve.omega, rho, curve.alpha, curve.tau])
    for line, row in zip(lines[1:], expected):
        fields = line.split(",")
        assert len(fields) == 5
        assert fields == [format(v, ".16e") for v in row]
        values = [float(x) for x in fields]
        assert abs(values[1] * values[4] - values[3]) <= 1e-9
    assert main(["sweep", task, "--points", "16", "--out", str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == raw


def test_sweep_rejects_bad_inputs(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc())
    code, _ = run(capsys, ["sweep", task, "--points", "8"])
    assert code == 2
    gate = write_json(tmp_path / "g.json", gate_doc())
    code, _ = run(capsys, ["sweep", gate])
    assert code == 2
    sub = write_json(tmp_path / "s.json", subspace_doc())
    code, _ = run(capsys, ["sweep", sub])
    assert code == 2


@pytest.mark.parametrize("points", [MAX_SWEEP_POINTS + 1, 10**12])
def test_sweep_point_cap_exits_two(tmp_path, capsys, capped_sweep_arange, points):
    task = write_json(tmp_path / "t.json", state_doc())
    assert main(["sweep", task, "--points", str(points)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}" in captured.err


def test_solve_gate_closed_form(tmp_path, capsys):
    task = write_json(tmp_path / "g.json", gate_doc(beta=0.8, epsilon=0.5))
    code, out = run(capsys, ["solve-gate", task])
    assert code == 0
    doc = json.loads(out)
    expected = np.sqrt(2.0) * 0.8 / (1.0 + np.sqrt(0.5))
    assert doc["voyage_time"] == pytest.approx(expected, abs=1e-10)
    assert doc["branch"] == [0, 0]
    assert doc["gate_residual"] <= 1e-9
    assert "branch_table" not in doc


def test_solve_gate_branch_table(tmp_path, capsys):
    task = write_json(tmp_path / "g.json", gate_doc())
    code, out = run(capsys, ["solve-gate", task, "--max-branch", "1"])
    assert code == 0
    doc = json.loads(out)
    table = doc["branch_table"]
    assert len(table) == 3
    times = [row["voyage_time"] for row in table]
    assert times == sorted(times)
    assert doc["voyage_time"] == pytest.approx(times[0], abs=1e-12)
    assert all(sum(row["branch"]) == 0 for row in table)
    code, _ = run(capsys, ["solve-gate", task, "--max-branch", "-1"])
    assert code == 2


def test_solve_gate_answer_is_its_first_branch_table_row(tmp_path, capsys):
    """solve-gate --max-branch prints the branch and voyage time of its
    table's first row exactly: the answer and the table read one survey."""
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        for k in range(5):
            doc = {
                "mode": "gate",
                "u_initial": matrix_pairs(haar_unitary(rng, n)),
                "u_final": matrix_pairs(haar_unitary(rng, n)),
                "wind": {"matrix": matrix_pairs(random_traceless_hermitian(rng, n, 0.5).matrix)},
            }
            task = write_json(tmp_path / f"g{n}_{k}.json", doc)
            code, out = run(capsys, ["solve-gate", task, "--max-branch", "2"])
            assert code == 0
            doc = json.loads(out)
            first = doc["branch_table"][0]
            assert (doc["branch"], doc["voyage_time"]) == (first["branch"], first["voyage_time"])


def test_solve_gate_branch_box_too_large(tmp_path, capsys):
    task = write_json(tmp_path / "g.json", gate_doc())
    code = main(["solve-gate", task, "--max-branch", "600000"])
    assert code == 2
    assert "1200001" in capsys.readouterr().err


def test_identity_gate_exit_paths(tmp_path, capsys):
    doc = gate_doc()
    doc["u_final"] = matrix_pairs(np.eye(2))
    task = write_json(tmp_path / "g.json", doc)
    assert main(["solve-gate", task]) == 5
    assert capsys.readouterr().err == (
        "error: gate relation is the identity on every branch with |offset| <= 0\n"
    )
    code, out = run(capsys, ["solve-gate", task, "--max-branch", "1"])
    assert code == 0
    assert json.loads(out)["voyage_time"] == pytest.approx(
        4.0 * np.pi * (np.sqrt(2.0) - 1.0), abs=1e-9
    )


def test_solve_gate_takes_one_path_with_solve_gate_bytes(tmp_path, capsys, monkeypatch):
    """solve-gate without --max-branch solves through solve_gate_min_branch
    alone and prints, byte for byte, what solve_gate's answer prints: on the
    reference gate, -I (tied phases), and Haar gates of n = 2 to 4."""
    rng = np.random.default_rng(19)
    minus_identity = gate_doc()
    minus_identity["u_final"] = matrix_pairs(-np.eye(2))
    tasks = [str(REFERENCE / "gate.json"), write_json(tmp_path / "minus_i.json", minus_identity)]
    for n in (2, 3, 4):
        doc = {
            "mode": "gate",
            "u_initial": matrix_pairs(np.eye(n)),
            "u_final": matrix_pairs(haar_unitary(rng, n)),
            "wind": {"matrix": matrix_pairs(random_traceless_hermitian(rng, n, 0.4).matrix)},
        }
        tasks.append(write_json(tmp_path / f"haar{n}.json", doc))
    for task in tasks:
        calls = []
        with monkeypatch.context() as mp:
            record_calls(mp, qnav.cli, "solve_gate_min_branch", calls)
            once = run(capsys, ["solve-gate", task])
        assert once[0] == 0
        assert [name for name, _ in calls] == ["qnav.cli.solve_gate_min_branch"]
        with monkeypatch.context() as mp:
            mp.setattr(qnav.cli, "solve_gate_min_branch", lambda t, m: qnav.gate_nav.solve_gate(t))
            assert run(capsys, ["solve-gate", task]) == once


def test_solve_gate_branch_table_decomposes_once(capsys, monkeypatch):
    """solve-gate --max-branch solves through solve_gate_min_branch and lists
    its branch table through branch_survey; both read the task's one
    decomposition of the gate relation."""
    calls = []
    record_calls(monkeypatch, qnav.gate_nav, "unitary_eigenphases", calls)
    code, out = run(capsys, ["solve-gate", str(REFERENCE / "gate.json"), "--max-branch", "2"])
    assert code == 0
    assert json.loads(out)["branch_table"]
    assert len(calls) == 1


def test_subspace_solve_is_traced_as_embed(capsys):
    """solve-state solves a subspace task through solve_embedded, so the
    benchmark's tracer (perfbench/tracing.py, only read) records a
    subspace.embed span and, since the oracle samples through
    fidelity_curve, its sample count; the traced call prints what the
    untraced one prints. Entering instrument looks up every name the tracer
    wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", REFERENCE.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    argv = ["solve-state", str(REFERENCE / "subspace.json")]
    untraced = run(capsys, argv)
    tracer = tracing.Tracer()
    with tracing.instrument(qnav, tracer):
        traced = run(capsys, argv)
    assert traced == untraced
    assert untraced[0] == 0
    assert "subspace.embed" in [name for _, name, _, _, _ in tracer.spans]
    assert tracer.counts["oracle.samples"] > 0


def test_subspace_solve_state_reduces_once(capsys, monkeypatch):
    """solve-state on a subspace task reads invariance_residual off the
    reduction that solve_embedded solves on: the reduction's work, its one
    distinct_separation, runs once."""
    calls = []
    record_calls(monkeypatch, qnav.subspace, "distinct_separation", calls)
    code, _ = run(capsys, ["solve-state", str(REFERENCE / "subspace.json")])
    assert code == 0
    assert len(calls) == 1


def test_subspace_pipeline(tmp_path, capsys):
    task = write_json(tmp_path / "s.json", subspace_doc())
    result = tmp_path / "r.json"
    assert main(["solve-state", task, "--out", str(result)]) == 0
    capsys.readouterr()
    doc = json.loads(result.read_text())
    assert doc["mode"] == "subspace"
    assert doc["subspace"]["dim"] == 3
    assert doc["subspace"]["invariance_residual"] <= 1e-12
    assert doc["oracle"]["agrees"] is True
    assert np.asarray(doc["h_total"], dtype=float).shape == (3, 3, 2)

    code, out = run(capsys, ["verify", str(result), task])
    assert code == 0
    assert "verify: PASS" in out


def test_reference_tasks_solve_and_verify(tmp_path, capsys):
    """The three reference tasks solve, the oracle agrees on the two transport
    answers (solve-state exits 0 either way), verify passes each result, and
    the reference sweep prints its header and 4096 rows."""
    for name, command in (("state", ["solve-state"]), ("subspace", ["solve-state"]),
                          ("gate", ["solve-gate", "--max-branch", "2"])):
        task = str(REFERENCE / f"{name}.json")
        result = tmp_path / f"{name}-result.json"
        assert main([command[0], task, *command[1:], "--out", str(result)]) == 0
        if name != "gate":
            assert json.loads(result.read_text())["oracle"]["agrees"] is True
        code, out = run(capsys, ["verify", str(result), task])
        assert (code, out.splitlines()[-1]) == (0, "verify: PASS")
    curve = tmp_path / "sweep.csv"
    assert main(["sweep", str(REFERENCE / "state.json"), "--points", "4096", "--out", str(curve)]) == 0
    lines = curve.read_text(encoding="utf-8").splitlines()
    assert (lines[0], len(lines)) == ("phi,omega,rho,alpha,tau", 4097)


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc())
    result = tmp_path / "r.json"
    assert main(["solve-state", task, "--out", str(result)]) == 0
    capsys.readouterr()

    code, out = run(capsys, ["verify", str(result), task])
    assert code == 0
    for name in ("hermitian", "control_budget", "control_traceless", "decomposition", "fidelity"):
        assert f"{name}: PASS" in out
    assert "verify: PASS" in out

    doc = json.loads(result.read_text())
    scaled = np.asarray(doc["h_control"], dtype=float) * 1.001
    doc["h_control"] = scaled.tolist()
    tampered = write_json(tmp_path / "bad.json", doc)
    code, out = run(capsys, ["verify", tampered, task])
    assert code == 1
    assert "control_budget: FAIL" in out
    assert "verify: FAIL" in out

    doc = json.loads(result.read_text())
    doc["tau_star"] = doc["tau_star"] / 2.0
    slow = write_json(tmp_path / "slow.json", doc)
    code, out = run(capsys, ["verify", slow, task])
    assert code == 1
    assert "fidelity: FAIL" in out


def written_out_verify_lines(doc, task, time_key):
    """verify's check lines for result doc against a state or gate task, its
    rule written out: the largest anti-Hermitian drift of the two matrices
    against 1e-10, then solution_checks on their Hermitian parts."""
    raw = [np.asarray(doc[k], dtype=float) for k in ("h_total", "h_control")]
    raw = [m[:, :, 0] + 1j * m[:, :, 1] for m in raw]
    drift = max(float(np.max(np.abs(m - m.conj().T))) for m in raw)
    h_total, h_control = (HermitianOperator(0.5 * (m + m.conj().T)) for m in raw)
    if "global_phase" in doc:
        target = {"gate": (task.u_initial, task.u_final, doc["global_phase"])}
    else:
        target = {"states": (task.psi_initial, task.psi_final)}
    checks = qnav.oracle.solution_checks(h_total, h_control, task.h0, doc[time_key], **target)
    lines = [("hermitian", drift <= 1e-10, f"drift {drift:.3e}")]
    lines += [(name, c.passed, c.detail) for name, c in checks.items()]
    return "".join(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n" for name, ok, detail in lines)


def test_verify_lines_are_the_written_out_rule(tmp_path, capsys):
    """verify prints, through the oracle's result_checks, the lines of the
    written-out rule on a clean, a drifted and a tampered result, of a state
    and of a gate task."""
    state = write_json(tmp_path / "t.json", state_doc())
    gate = write_json(tmp_path / "g.json", gate_doc())
    for task, command, time_key in ((state, "solve-state", "tau_star"), (gate, "solve-gate", "voyage_time")):
        result = tmp_path / "r.json"
        assert main([command, task, "--out", str(result)]) == 0
        clean = json.loads(result.read_text())
        drifted = json.loads(result.read_text())
        drifted["h_total"][0][1][1] += 1e-8
        tampered = json.loads(result.read_text())
        tampered["h_control"] = (np.asarray(tampered["h_control"]) * 1.001).tolist()
        for doc, want_code in ((clean, 0), (drifted, 1), (tampered, 1)):
            code, out = run(capsys, ["verify", write_json(tmp_path / "v.json", doc), task])
            lines = written_out_verify_lines(doc, load_task(task).task, time_key)
            assert (code, out) == (want_code, lines + f"verify: {'PASS' if code == 0 else 'FAIL'}\n")


def test_verify_gate_result(tmp_path, capsys):
    task = write_json(tmp_path / "g.json", gate_doc())
    result = tmp_path / "r.json"
    assert main(["solve-gate", task, "--out", str(result)]) == 0
    capsys.readouterr()
    code, out = run(capsys, ["verify", str(result), task])
    assert code == 0
    for name in ("control_budget", "control_traceless", "decomposition", "gate_relation"):
        assert f"{name}: PASS" in out

    doc = json.loads(result.read_text())
    doc["global_phase"] = doc["global_phase"] + 0.2
    bad = write_json(tmp_path / "bad.json", doc)
    code, out = run(capsys, ["verify", bad, task])
    assert code == 1
    assert "gate_relation: FAIL" in out


@pytest.mark.parametrize("bad_time", [float("inf"), float("nan")])
def test_verify_gate_rejects_non_finite_time(tmp_path, capsys, bad_time):
    task = write_json(tmp_path / "g.json", gate_doc())
    result = tmp_path / "r.json"
    assert main(["solve-gate", task, "--out", str(result)]) == 0
    capsys.readouterr()
    doc = json.loads(result.read_text())
    doc["voyage_time"] = bad_time
    code = main(["verify", write_json(tmp_path / "bad.json", doc), task])
    assert code == 2
    assert "time must be finite" in capsys.readouterr().err


def test_verify_rejects_h_control_of_wrong_dim(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc())
    result = tmp_path / "r.json"
    assert main(["solve-state", task, "--out", str(result)]) == 0
    capsys.readouterr()
    doc = json.loads(result.read_text())
    doc["h_control"] = matrix_pairs(np.eye(3) / np.sqrt(3.0))
    code = main(["verify", write_json(tmp_path / "bad.json", doc), task])
    assert code == 2
    assert "result dim 3 does not match task dim 2" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["h_total", "h_control"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_verify_refuses_a_non_finite_matrix_before_any_arithmetic(tmp_path, capsys, key, value):
    """A result matrix entry of Infinity or NaN exits 2 with the one error
    line: no numpy warning (an error under this suite's filterwarnings)."""
    task = write_json(tmp_path / "t.json", state_doc())
    result = tmp_path / "r.json"
    assert main(["solve-state", task, "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    doc[key][0][1][0] = value
    code = main(["verify", write_json(tmp_path / "bad.json", doc), task])
    assert (code, capsys.readouterr().err) == (2, "error: Hermitian operator contains non-finite entries\n")


def test_import_loads_no_dependency_but_numpy():
    """A fresh interpreter that imports qnav loads no third-party package but numpy."""
    src = str(Path(qnav.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import qnav, qnav.cli; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(*sorted(n for n in new - set(sys.stdlib_module_names) if not n.startswith('_')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["numpy", "qnav"]


def test_import_is_lazy():
    """import qnav loads no submodule and no numpy; each export resolves on access."""
    src = str(Path(qnav.__file__).resolve().parents[1])
    probe = (
        "import json, sys, qnav; "
        "print(json.dumps([sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qnav.')), "
        "sorted(set(qnav.__all__) - set(dir(qnav)))]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded, not_listed = json.loads(done.stdout)
    assert loaded == []
    assert not_listed == []

    exported = [name for name in qnav.__all__ if name != "__version__"]
    assert len(exported) == 37
    for name in exported:
        value = getattr(qnav, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    star = {}
    exec("from qnav import *", star)
    assert set(qnav.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        qnav.no_such_name


BLAS_THREADS_PROBE = """
import ctypes, json, os
import qnav.__main__
maps = open("/proc/self/maps").read() if os.path.exists("/proc/self/maps") else ""
threads = {}
for lib in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln}):
    dll = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(dll, sym, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads[lib] = fn()
            break
print(json.dumps({"env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
                  "threads": threads}))
"""


def run_with_thread_env(argv, **preset):
    """A fresh interpreter with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS as preset only."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(Path(qnav.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_main_runs_blas_on_one_thread():
    report = json.loads(run_with_thread_env(["-c", BLAS_THREADS_PROBE]))
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
    if not report["threads"]:
        pytest.skip("no OpenBLAS library mapped in this process")
    assert set(report["threads"].values()) == {1}, report["threads"]


@pytest.mark.parametrize(
    "preset", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}], ids=["openblas", "omp"]
)
def test_main_keeps_a_preset_thread_setting(preset):
    report = json.loads(run_with_thread_env(["-c", BLAS_THREADS_PROBE], **preset))
    assert report["env"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None} | preset


def test_main_output_does_not_depend_on_blas_threads():
    task = str(Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "state.json")
    argv = ["-m", "qnav", "solve-state", task]
    assert run_with_thread_env(argv) == run_with_thread_env(argv, OPENBLAS_NUM_THREADS="2")


GC_PROBE = """
import gc, json, sys
if sys.argv[1] == "off":
    gc.disable()
if sys.argv[1] == "failed":
    sys.modules["qnav.cli"] = None  # makes `from .cli import main` raise ImportError
before = gc.isenabled()
try:
    import qnav.__main__
except ImportError:
    pass
print(json.dumps({"before": before, "after": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


@pytest.mark.parametrize("case", ["on", "off", "failed"])
def test_entry_point_leaves_the_collector_as_found(case):
    """qnav.__main__ freezes the import-time heap and restores gc.isenabled(),
    also when its import of the CLI fails."""
    report = json.loads(run_with_thread_env(["-c", GC_PROBE, case]))
    assert report["before"] is report["after"] is (case != "off")
    assert (report["frozen"] > 0) is (case != "failed")


@pytest.mark.parametrize(
    "argv",
    [["solve-state", str(REFERENCE / "state.json")],
     ["solve-gate", str(REFERENCE / "gate.json"), "--max-branch", "2"]],
    ids=["solve-state", "solve-gate"],
)
def test_entry_paths_print_the_same_bytes(argv, capsys):
    """python -m qnav in a fresh interpreter and main() in this one agree byte for byte."""
    code, out = run(capsys, argv)
    assert code == 0
    assert run_with_thread_env(["-m", "qnav", *argv]) == out.encode()


def test_exit_code_wind_too_strong(tmp_path, capsys):
    task = write_json(tmp_path / "t.json", state_doc(epsilon=1.2))
    code, _ = run(capsys, ["solve-state", task])
    assert code == 3


def test_large_gate_wind_matrix_exits_three(tmp_path, capsys):
    """A three-level gate wind with entries near 1e4 is too strong (exit 3),
    not an internal verification failure from its strength's rounding."""
    z = np.random.default_rng(0).normal(size=(3, 3, 2)) @ [1.0, 1j]
    h0 = 1e4 * 0.5 * (z + z.conj().T)
    doc = gate_doc(u_initial=matrix_pairs(np.eye(3)), u_final=matrix_pairs(qft(3)))
    doc["wind"] = {"matrix": matrix_pairs(h0)}
    assert main(["solve-gate", write_json(tmp_path / "g.json", doc)]) == 3
    assert "reaches the unit control budget" in capsys.readouterr().err


def test_nan_wind_is_a_wind_error(tmp_path, capsys):
    """"epsilon": NaN (which json reads) or a NaN axis is refused as a wind
    error with exit 2; "epsilon": Infinity is still too strong, exit 3."""
    cases = [
        (state_doc(epsilon=float("nan")), 2, "error: wind: epsilon must be nonnegative, got nan\n"),
        (state_doc(axis=[float("nan"), 0.0, 1.0]), 2, "error: wind: axis norm nan deviates from 1 beyond 1e-12\n"),
        (state_doc(epsilon=float("inf")), 3, "error: background trace norm inf reaches the unit control budget\n"),
    ]
    for k, (doc, want_code, want_err) in enumerate(cases):
        code = main(["solve-state", write_json(tmp_path / f"t{k}.json", doc)])
        assert (code, capsys.readouterr().err) == (want_code, want_err)


def written_out_oracle_window(h_total, tau_star):
    """(t_max, dt) of the CLI's oracle block, its arithmetic written out."""
    span = spectral_span(h_total)
    dt = math.pi * 1e-3 / span if span > 1e-12 else None
    return 1.5 * tau_star + (10.0 * dt if dt else 1.0), dt


def test_oracle_block_window_is_the_written_out_rule(monkeypatch, capsys):
    """The (t_max, dt) that _oracle_block hands first_passage, through the
    oracle's passage_check, equal the written-out window bit for bit: on the
    reference state and subspace tasks (the gate task takes no oracle block),
    and with dt = None on a flat spectrum."""
    calls = []
    real = qnav.oracle.first_passage

    def spy(h, psi_i, psi_f, t_max=None, dt=None):
        calls.append((h, t_max, dt))
        return real(h, psi_i, psi_f, t_max=t_max, dt=dt)

    def bits(window):
        return [None if x is None else float(x).hex() for x in window]

    monkeypatch.setattr(qnav.oracle, "first_passage", spy)
    for name in ("state.json", "subspace.json"):
        code, out = run(capsys, ["solve-state", str(REFERENCE / name)])
        assert code == 0
        (h, t_max, dt), = calls
        assert dt is not None
        assert bits((t_max, dt)) == bits(written_out_oracle_window(h, json.loads(out)["tau_star"]))
        calls.clear()

    flat = HermitianOperator(0.3 * np.eye(2))
    psi = StateVector([1.0, 0.0])
    qnav.cli._oracle_block(
        SimpleNamespace(h_total=flat, tau_star=0.7), SimpleNamespace(psi_initial=psi, psi_final=psi)
    )
    (_, t_max, dt), = calls
    assert dt is None
    assert bits((t_max, dt)) == bits(written_out_oracle_window(flat, 0.7))


def test_solver_verification_failure_exits_one(monkeypatch, tmp_path, capsys):
    """A solver's ArithmeticError, here a failed budget check, exits 1 with
    the internal-verification prefix."""
    monkeypatch.setattr(qnav.oracle, "BUDGET_TOL", -1.0)
    assert main(["solve-state", write_json(tmp_path / "t.json", state_doc())]) == 1
    assert capsys.readouterr().err.startswith(
        "error: internal verification failed: solution verification failed: control_budget"
    )


def test_exit_code_degenerate(tmp_path, capsys):
    doc = state_doc()
    doc["psi_final"] = doc["psi_initial"]
    task = write_json(tmp_path / "t.json", doc)
    code, _ = run(capsys, ["solve-state", task])
    assert code == 4


def test_exit_code_invalid_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(capsys, ["solve-state", missing])[0] == 2

    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json", encoding="utf-8")
    assert run(capsys, ["solve-state", str(not_json)])[0] == 2

    both = state_doc()
    both["wind"]["matrix"] = matrix_pairs(np.eye(2))
    assert run(capsys, ["solve-state", write_json(tmp_path / "w.json", both)])[0] == 2

    gate = write_json(tmp_path / "g.json", gate_doc())
    assert run(capsys, ["solve-state", gate])[0] == 2
    state = write_json(tmp_path / "s.json", state_doc())
    assert run(capsys, ["solve-gate", state])[0] == 2

    non_herm = state_doc()
    non_herm["wind"] = {"matrix": matrix_pairs(np.array([[0.0, 1.0], [0.0, 0.0]]))}
    assert run(capsys, ["solve-state", write_json(tmp_path / "nh.json", non_herm)])[0] == 2

    eps_for_dim3 = subspace_doc()
    eps_for_dim3["wind"] = {"epsilon": 0.5, "axis": [0.0, 0.0, 1.0]}
    assert run(capsys, ["solve-state", write_json(tmp_path / "e3.json", eps_for_dim3)])[0] == 2

    bad_oracle = state_doc(oracle="yes")
    assert run(capsys, ["solve-state", write_json(tmp_path / "o.json", bad_oracle)])[0] == 2

    coupled = subspace_doc()
    m = np.zeros((3, 3))
    m[:2, :2] = np.sqrt(0.25) * np.diag([1.0, -1.0])
    m[0, 2] = m[2, 0] = 1e-3
    coupled["wind"] = {"matrix": matrix_pairs(m)}
    assert run(capsys, ["solve-state", write_json(tmp_path / "c.json", coupled)])[0] == 2


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def array_error(obj):
    """numpy's message for obj read as an array of floats."""
    try:
        np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{obj!r} converted")


def edit_result(**changes):
    """Result edit replacing keys; a value of None removes the key."""

    def edit(doc):
        doc = dict(doc, **changes)
        return {k: v for k, v in doc.items() if v is not None}

    return edit


def geodesic(doc):
    """Result edit that changes nothing and asserts the windless answer phi* = pi/2."""
    assert doc["phi_star"] == math.pi / 2.0
    return doc


QUTRIT = complex_pairs([1.0, 0.0, 0.0])
ZEROS3 = matrix_pairs(np.zeros((3, 3)))
NAN = float("nan")


@pytest.mark.parametrize(
    "command, task_doc, result_edit, want_code, want_error",
    [
        pytest.param("solve-state", state_doc(mode="qutrit"), None, 2,
                     "mode must be one of ('state', 'gate', 'subspace'), got 'qutrit'", id="mode"),
        pytest.param("solve-state", gate_doc(), None, 2, "gate tasks go through solve-gate", id="state-on-gate"),
        pytest.param("solve-gate", state_doc(), None, 2, "solve-gate needs a gate task", id="gate-on-state"),
        pytest.param("sweep", subspace_doc(), None, 2, "sweep needs a state task", id="sweep-on-subspace"),
        pytest.param("solve-state", without(state_doc(), "psi_final"), None, 2,
                     "state task needs psi_final", id="lacks-psi-final"),
        pytest.param("solve-state", state_doc(psi_initial=[["a", 0.0], [1.0, 0.0]]), None, 2,
                     f"psi_initial: expected [re, im] pairs ({array_error([['a', 0.0], [1.0, 0.0]])})",
                     id="psi-not-numbers"),
        pytest.param("solve-state", state_doc(psi_initial=[["0.9238795325112867", False], [0.3826834323650898, 0.0]]),
                     None, 2, 'psi_initial: expected a number, got "0.9238795325112867"', id="psi-numeric-text"),
        pytest.param("solve-state", state_doc(psi_initial=[[0.9238795325112867, False], [0.3826834323650898, 0.0]]),
                     None, 2, "psi_initial: expected a number, got false", id="psi-bool"),
        pytest.param("solve-state", state_doc(psi_initial=[[10**400, 0.0], [0.0, 0.0]]), None, 2,
                     "psi_initial: expected [re, im] pairs (int too large to convert to float)", id="psi-huge-int"),
        pytest.param("solve-state", state_doc(psi_initial=[1.0, 0.0]), None, 2,
                     "psi_initial: expected a list of [re, im] pairs, got shape (2,)", id="psi-not-pairs"),
        pytest.param("solve-state", state_doc(psi_final=QUTRIT), None, 2,
                     "state task: state dims differ: 2 vs 3", id="state-dims-2-vs-3"),
        pytest.param("solve-state", state_doc(psi_initial=QUTRIT), None, 2,
                     "state mode is the qubit path (dim 2), got dim 3; use subspace mode for larger dims",
                     id="state-mode-dims-3-vs-2"),
        pytest.param("solve-state", dict(subspace_doc(), mode="state"), None, 2,
                     "state mode is the qubit path (dim 2), got dim 3; use subspace mode for larger dims",
                     id="state-mode-dim-3"),
        pytest.param("solve-state", state_doc(psi_initial=complex_pairs([1.0, 1.0])), None, 2,
                     "states: state norm 1.4142135623730951 deviates from 1 beyond 1e-12", id="state-norm"),
        pytest.param("solve-state", dict(subspace_doc(), psi_initial=[[1.0, 0.0]], psi_final=[[1.0, 0.0]]),
                     None, 2, "states: state must have dim >= 2, got 1", id="subspace-dim-1"),
        pytest.param("solve-state", without(state_doc(), "wind"), None, 2, "state task needs wind",
                     id="lacks-wind"),
        pytest.param("solve-state", state_doc(wind=[0.5]), None, 2, "wind must be an object", id="wind-not-object"),
        pytest.param("solve-state", state_doc(orcale=False), None, 2, "orcale is not a key of a state task",
                     id="unknown-key"),
        pytest.param("solve-gate", gate_doc(oracle=False, psi_initial=QUTRIT), None, 2,
                     "psi_initial is not a key of a gate task", id="state-key-on-gate"),
        pytest.param("solve-state", dict(subspace_doc(), wind=dict(subspace_doc()["wind"], axis=[0.0, 0.0, 1.0])),
                     None, 2, "wind.axis does not go with wind.matrix", id="matrix-wind-with-axis"),
        pytest.param("solve-state", state_doc(wind={"epsilon": 0.5, "axsi": [0.0, 0.0, 1.0]}), None, 2,
                     "wind.axsi does not go with wind.epsilon", id="epsilon-wind-unknown-key"),
        pytest.param("solve-state", state_doc(wind={}), None, 2,
                     "wind must carry exactly one of (epsilon, axis) or matrix", id="wind-neither-form"),
        pytest.param("solve-state", state_doc(wind={"matrix": "none"}), None, 2,
                     f"wind.matrix: expected nested [re, im] pairs ({array_error('none')})",
                     id="wind-matrix-not-numbers"),
        pytest.param("solve-state", state_doc(wind={"matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [None, 0.0]]]}),
                     None, 2, "wind.matrix: expected a number, got null", id="wind-matrix-null"),
        pytest.param("solve-state", state_doc(wind={"matrix": [[[0.0, 0.0], [0.0, 0.0]]]}), None, 2,
                     "wind.matrix: expected a square matrix of [re, im] pairs, got shape (1, 2, 2)",
                     id="wind-matrix-not-square"),
        pytest.param("solve-state", state_doc(wind={"matrix": matrix_pairs(np.full((2, 2), NAN))}), None, 2,
                     "wind.matrix: Hermitian operator contains non-finite entries", id="wind-matrix-nan"),
        pytest.param("solve-state", state_doc(wind={"matrix": ZEROS3}), None, 2,
                     "state task: background dim 3 does not match state dim 2", id="wind-matrix-dim-3-on-qubit"),
        pytest.param("solve-gate", gate_doc(wind={"matrix": ZEROS3}), None, 2,
                     "gate task: background dim 3 does not match gate dim 2", id="wind-matrix-dim-3-on-gate"),
        pytest.param("solve-state", dict(subspace_doc(), wind={"epsilon": 0.5, "axis": [0.0, 0.0, 1.0]}),
                     None, 2, "wind as (epsilon, axis) is a qubit form; give a matrix for larger dims",
                     id="epsilon-form-on-dim-3"),
        pytest.param("solve-state", state_doc(epsilon="strong"), None, 2,
                     'wind.epsilon: expected a number, got "strong"', id="epsilon-not-number"),
        pytest.param("solve-state", state_doc(epsilon="0.9"), None, 2,
                     'wind.epsilon: expected a number, got "0.9"', id="epsilon-numeric-text"),
        pytest.param("solve-state", state_doc(epsilon=False), None, 2,
                     "wind.epsilon: expected a number, got false", id="epsilon-bool"),
        pytest.param("solve-state", state_doc(epsilon=10**400), None, 2,
                     "wind.epsilon: int too large to convert to float", id="epsilon-huge-int"),
        pytest.param("solve-state", state_doc(axis=[True, False, False]), None, 2,
                     "wind.axis: expected a number, got true", id="axis-bool"),
        pytest.param("solve-state", state_doc(axis="z"), None, 2,
                     f"wind.axis: expected a list of 3 numbers ({array_error('z')})", id="axis-not-numbers"),
        pytest.param("solve-state", state_doc(wind={"epsilon": 0.5}), None, 2,
                     "wind: nonzero wind needs an axis", id="epsilon-without-axis"),
        pytest.param("solve-state", state_doc(wind={"epsilon": NAN}), None, 2,
                     "wind: epsilon must be nonnegative, got nan", id="nan-epsilon-without-axis"),
        pytest.param("solve-state", state_doc(wind={"epsilon": -0.5}), None, 2,
                     "wind: epsilon must be nonnegative, got -0.5", id="negative-epsilon-without-axis"),
        pytest.param("solve-state", state_doc(wind={"epsilon": 1.5}), None, 3,
                     "background trace norm 1.5 reaches the unit control budget", id="strong-epsilon-without-axis"),
        pytest.param("solve-state", state_doc(epsilon=-0.5), None, 2,
                     "wind: epsilon must be nonnegative, got -0.5", id="negative-epsilon"),
        pytest.param("solve-state", state_doc(axis=[0.0, 1.0]), None, 2,
                     "wind: axis must have shape (3,), got (2,)", id="axis-shape"),
        pytest.param("solve-state", state_doc(wind={"epsilon": 0, "axis": [5.0, 5.0, 5.0]}), None, 2,
                     "wind: axis norm 8.660254037844387 deviates from 1 beyond 1e-12", id="zero-wind-axis-norm"),
        pytest.param("solve-state", state_doc(wind={"epsilon": 0, "axis": [1.0, 2.0]}), None, 2,
                     "wind: axis must have shape (3,), got (2,)", id="zero-wind-axis-shape"),
        pytest.param("solve-gate", without(gate_doc(), "u_final"), None, 2, "gate task needs u_final",
                     id="lacks-u-final"),
        pytest.param("solve-gate", gate_doc(u_initial="eye"), None, 2,
                     f"u_initial: expected nested [re, im] pairs ({array_error('eye')})", id="u-not-numbers"),
        pytest.param("solve-gate", gate_doc(u_initial=[[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]), None, 2,
                     'u_initial: expected a number, got "1"', id="u-numeric-text"),
        pytest.param("solve-gate", gate_doc(u_initial=[[1.0, 0.0], [0.0, 1.0]]), None, 2,
                     "u_initial: expected a square matrix of [re, im] pairs, got shape (2, 2)",
                     id="u-not-square"),
        pytest.param("solve-gate", gate_doc(u_initial=matrix_pairs(np.full((2, 2), NAN))), None, 2,
                     "gate task: u_initial contains non-finite entries", id="u-nan"),
        pytest.param("solve-gate", gate_doc(u_final=matrix_pairs(np.eye(3))), None, 2,
                     "gate task: unitary dims differ: (2, 2) vs (3, 3)", id="gate-dims-differ"),
        pytest.param("solve-state", state_doc(optimizer=[]), None, 2, "optimizer must be an object",
                     id="optimizer-not-object"),
        pytest.param("solve-state", state_doc(oracle="yes"), None, 2,
                     "oracle may only be true in a task file; pass --no-oracle to skip it", id="oracle-not-boolean"),
        pytest.param("solve-state --out missing/r.json", state_doc(), None, 2,
                     "cannot write output file: [Errno 2] No such file or directory: 'missing/r.json'",
                     id="solve-state-out-unwritable"),
        pytest.param("sweep --out missing/r.csv", state_doc(), None, 2,
                     "cannot write output file: [Errno 2] No such file or directory: 'missing/r.csv'",
                     id="sweep-out-unwritable"),
        pytest.param("solve-gate --out missing/r.json", gate_doc(), None, 2,
                     "cannot write output file: [Errno 2] No such file or directory: 'missing/r.json'",
                     id="solve-gate-out-unwritable"),
        pytest.param("verify", state_doc(), edit_result(mode="gate"), 2,
                     "result mode 'gate' does not match task mode 'state'", id="result-mode"),
        pytest.param("verify", state_doc(), edit_result(h_total=None), 2, "result lacks h_total",
                     id="result-lacks-h-total"),
        pytest.param("verify", state_doc(), edit_result(h_control="x"), 2,
                     f"h_control: expected nested [re, im] pairs ({array_error('x')})", id="result-h-not-numbers"),
        pytest.param("verify", state_doc(), edit_result(tau_star=None), 2, "result lacks tau_star",
                     id="result-lacks-tau-star"),
        pytest.param("verify", state_doc(), edit_result(tau_star="soon"), 2,
                     'result tau_star: expected a number, got "soon"', id="result-tau-star-text"),
        pytest.param("verify", state_doc(), edit_result(tau_star="1.5"), 2,
                     'result tau_star: expected a number, got "1.5"', id="result-tau-star-numeric-text"),
        pytest.param("verify", state_doc(), edit_result(h_total=[[["0.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
                     2, 'h_total: expected a number, got "0.0"', id="result-h-numeric-text"),
        pytest.param("verify", gate_doc(), edit_result(global_phase=None), 2, "result lacks global_phase",
                     id="result-lacks-global-phase"),
        pytest.param("verify", gate_doc(), edit_result(voyage_time=[1.0]), 2,
                     "result voyage_time: expected a number, got [1.0]", id="result-voyage-time-list"),
        pytest.param("verify", gate_doc(), edit_result(global_phase=False), 2,
                     "result global_phase: expected a number, got false", id="result-global-phase-bool"),
        pytest.param("verify", gate_doc(), edit_result(global_phase=NAN), 2, "global phase must be finite",
                     id="result-global-phase-nan"),
        pytest.param("verify", gate_doc(), edit_result(global_phase=math.inf), 2, "global phase must be finite",
                     id="result-global-phase-inf"),
        pytest.param("verify", state_doc(wind={"epsilon": 0}), geodesic, 0, None, id="zero-epsilon-wind"),
    ],
)
def test_task_and_result_file_errors(tmp_path, capsys, monkeypatch, command, task_doc, result_edit, want_code,
                                    want_error):
    """Exit code and stderr, byte for byte, of a CLI call on a malformed task
    or result file, or with an --out path (relative to tmp_path) that cannot
    be written. A verify row first solves its task, then edits the result;
    the one row that exits 0 also passes verify."""
    monkeypatch.chdir(tmp_path)
    command, *flags = command.split()
    task = write_json(tmp_path / "t.json", task_doc)
    if command == "verify":
        result = tmp_path / "r.json"
        solver = "solve-gate" if task_doc["mode"] == "gate" else "solve-state"
        assert main([solver, task, "--out", str(result)]) == 0
        doc = result_edit(json.loads(result.read_text()))
        argv = ["verify", write_json(tmp_path / "edited.json", doc), task]
    else:
        argv = [command, task, *flags]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (want_code, "" if want_error is None else f"error: {want_error}\n")
    assert captured.out.endswith("verify: PASS\n") if code == 0 else captured.out == ""


def test_oracle_sample_cap_exits_two(tmp_path, capsys, capped_arange):
    """A complement eigenvalue of 1e6 widens the spectral span, so the oracle
    grid would need ~5.6e8 samples: solve-state refuses it with exit 2
    instead of allocating gigabytes, and still solves with --no-oracle."""
    doc = subspace_doc()
    h0 = np.zeros((3, 3))
    h0[:2, :2] = np.sqrt(0.25) * np.diag([1.0, -1.0])
    h0[2, 2] = 1e6
    doc["wind"] = {"matrix": matrix_pairs(h0)}
    task = write_json(tmp_path / "wide.json", doc)
    assert main(["solve-state", task]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_ORACLE_SAMPLES = 10000000" in captured.err
    code, out = run(capsys, ["solve-state", task, "--no-oracle"])
    assert code == 0
    assert json.loads(out)["oracle"] == {"enabled": False}


def _os_error_text(path):
    try:
        open(path, encoding="utf-8")
    except OSError as exc:
        return str(exc)
    raise AssertionError(f"{path} opened")


def _json_error_text(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parsed")


@pytest.mark.parametrize("kind", ["task", "result"])
@pytest.mark.parametrize("fault", ["missing", "not_json", "not_object"])
def test_unreadable_json_files_exit_two(tmp_path, capsys, kind, fault):
    """Task and result files share one reader; each of its three errors is
    pinned byte for byte for both kinds of file."""
    bad = tmp_path / f"{kind}.json"
    if fault == "missing":
        expected = f"cannot read {kind} file: {_os_error_text(bad)}"
    elif fault == "not_json":
        bad.write_text("{oops", encoding="utf-8")
        expected = f"{kind} file is not valid JSON: {_json_error_text('{oops')}"
    else:
        bad.write_text("[1, 2]", encoding="utf-8")
        expected = f"{kind} file must hold a JSON object"
    task = write_json(tmp_path / "t.json", state_doc())
    argv = ["solve-state", str(bad)] if kind == "task" else ["verify", str(bad), task]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"


def test_verify_mode_mismatch(tmp_path, capsys):
    state = write_json(tmp_path / "t.json", state_doc())
    result = tmp_path / "r.json"
    assert main(["solve-state", state, "--out", str(result)]) == 0
    capsys.readouterr()
    gate = write_json(tmp_path / "g.json", gate_doc())
    code, _ = run(capsys, ["verify", str(result), gate])
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qnav" in capsys.readouterr().out


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
