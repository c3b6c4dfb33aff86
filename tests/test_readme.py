"""README's examples run as written."""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qnav import NavigationTask, optimize
from qnav.cli import main
from qnav.oracle import ORACLE_TIME_TOL

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, lang):
    """The first ```lang block in README's section under `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_solves_the_benchmark_task():
    """The Library use block prints phi_star / pi, tau_star and the oracle's
    t_first of the benchmark task, and its tau_star is optimize's on a fresh
    task of the same inputs."""
    ns = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(readme_block("Library use", "python"), ns)
    phi_over_pi, tau, t_first = (float(x) for x in out.getvalue().split())
    assert phi_over_pi == pytest.approx(0.4365912652846225, abs=1e-8 / np.pi)
    assert tau == pytest.approx(1.7990361665516603, abs=1e-11)
    assert abs(t_first - tau) <= ORACLE_TIME_TOL
    task = ns["task"]
    fresh = NavigationTask(psi_initial=task.psi_initial, psi_final=task.psi_final, h0=task.h0)
    assert ns["sol"].tau_star == tau == optimize(fresh).tau_star


def test_state_task_file_example_solves(tmp_path, capsys):
    """README's state task file solves through solve-state, and the oracle agrees."""
    path = tmp_path / "task.json"
    path.write_text(readme_block("CLI", "json"), encoding="utf-8")
    assert main(["solve-state", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["agrees"] is True
