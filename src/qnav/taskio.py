"""Task file parsing and result serialization.

Task files are JSON. Complex numbers are [re, im] pairs and matrices
are row-major nested lists of pairs, so files stay language-neutral.
A file holds "mode", the keys _TASK_KEYS gives that mode, and at most
the legacy "optimizer" and "oracle". The wind is {"epsilon", "axis"} or
an explicit Hermitian {"matrix"}: exactly one form, and nothing else.
"""

import json
from dataclasses import dataclass

import numpy as np

from .bloch import WindSpec, wind_operator
from .errors import DimensionError, NotHermitianError, TaskFileError
from .gate_nav import GateTask
from .linalg import HermitianOperator, StateVector
from .state_nav import DEFAULT_GRID_POINTS, DEFAULT_PHI_TOL, NavigationTask

# each mode's required keys, in the order their absence is reported
_TASK_KEYS = {
    "state": ("psi_initial", "psi_final", "wind"),
    "gate": ("u_initial", "u_final", "wind"),
    "subspace": ("psi_initial", "psi_final", "wind"),
}
# the optimizer's scan and tolerance are fixed; a task file may still name them
_FIXED_OPTIMIZER = {"grid_points": DEFAULT_GRID_POINTS, "tol": DEFAULT_PHI_TOL}

__all__ = [
    "LoadedTask",
    "read_json_object",
    "load_task",
    "complex_pairs",
    "matrix_pairs",
    "parse_complex_vector",
    "parse_complex_matrix",
    "dumps_result",
]


@dataclass(frozen=True, eq=False)
class LoadedTask:
    """Parsed task and its mode."""

    mode: str
    task: object


def complex_pairs(vec):
    """Complex vector as a list of [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def matrix_pairs(mat):
    """Complex matrix as row-major nested [re, im] pairs."""
    return [complex_pairs(row) for row in np.asarray(mat, dtype=complex)]


def _json_number(value, what):
    """value as a float if it is a JSON number, else TaskFileError; a bool
    or a numeric string such as "0.9" is not one, though float() takes both."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TaskFileError(f"{what}: expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise TaskFileError(f"{what}: {exc}") from exc


def _json_array(obj, what, expected):
    """obj as a float array whose every entry is a JSON number, else
    TaskFileError; expected names the shape wanted, for the message."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TaskFileError(f"{what}: expected {expected} ({exc})") from exc
    entries = [obj]
    for _ in range(arr.ndim):
        entries = [x for item in entries for x in item]
    for x in entries:
        _json_number(x, what)
    return arr


def parse_complex_vector(obj, what):
    arr = _json_array(obj, what, "[re, im] pairs")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise TaskFileError(f"{what}: expected a list of [re, im] pairs, got shape {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]


def parse_complex_matrix(obj, what):
    arr = _json_array(obj, what, "nested [re, im] pairs")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise TaskFileError(
            f"{what}: expected a square matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _parse_wind(wind, dim):
    """Background operator from the wind block, honoring both forms."""
    if not isinstance(wind, dict):
        raise TaskFileError("wind must be an object")
    has_matrix = "matrix" in wind
    if ("epsilon" in wind) == has_matrix:
        raise TaskFileError("wind must carry exactly one of (epsilon, axis) or matrix")
    extra = sorted(wind.keys() - ({"matrix"} if has_matrix else {"epsilon", "axis"}))
    if extra:
        raise TaskFileError(f"wind.{extra[0]} does not go with wind.{'matrix' if has_matrix else 'epsilon'}")
    if has_matrix:
        m = parse_complex_matrix(wind["matrix"], "wind.matrix")
        try:
            return HermitianOperator(m)
        except (NotHermitianError, DimensionError, ValueError) as exc:
            raise TaskFileError(f"wind.matrix: {exc}") from exc
    if dim != 2:
        raise TaskFileError(
            "wind as (epsilon, axis) is a qubit form; give a matrix for larger dims"
        )
    eps = _json_number(wind["epsilon"], "wind.epsilon")
    axis = wind.get("axis")
    if axis is not None:
        axis = _json_array(axis, "wind.axis", "a list of 3 numbers")
    try:
        spec = WindSpec(epsilon=eps, axis=axis)
    except (ValueError, DimensionError) as exc:
        # wind too strong deliberately not caught: that is its own exit path
        raise TaskFileError(f"wind: {exc}") from exc
    return wind_operator(spec)


def _parse_states(doc, mode):
    psi_i = parse_complex_vector(doc["psi_initial"], "psi_initial")
    psi_f = parse_complex_vector(doc["psi_final"], "psi_final")
    if mode == "state" and psi_i.size != 2:
        raise TaskFileError(
            f"state mode is the qubit path (dim 2), got dim {psi_i.size}; "
            "use subspace mode for larger dims"
        )
    try:
        return StateVector(psi_i), StateVector(psi_f)
    except (ValueError, DimensionError) as exc:
        raise TaskFileError(f"states: {exc}") from exc


def read_json_object(path, kind):
    """The JSON object in a file, else TaskFileError naming the file's kind,
    "task" or "result"."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise TaskFileError(f"cannot read {kind} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TaskFileError(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TaskFileError(f"{kind} file must hold a JSON object")
    return doc


def load_task(path):
    """Parse and validate a task file.

    Errors of the file itself raise TaskFileError; physical
    inadmissibility (wind at or above the budget, coinciding states)
    raises the corresponding solver error untouched.
    """
    doc = read_json_object(path, "task")
    mode = doc.get("mode")
    if mode not in _TASK_KEYS:
        raise TaskFileError(f"mode must be one of {tuple(_TASK_KEYS)}, got {mode!r}")
    for key in _TASK_KEYS[mode]:
        if key not in doc:
            raise TaskFileError(f"{mode} task needs {key}")
    extra = sorted(doc.keys() - {"mode", "optimizer", "oracle", *_TASK_KEYS[mode]})
    if extra:
        raise TaskFileError(f"{extra[0]} is not a key of a {mode} task")
    optimizer = doc.get("optimizer", {})
    if not isinstance(optimizer, dict):
        raise TaskFileError("optimizer must be an object")
    for key, value in optimizer.items():
        if key not in _FIXED_OPTIMIZER:
            raise TaskFileError(f"optimizer.{key} is not a setting")
        if value != _FIXED_OPTIMIZER[key]:
            raise TaskFileError(f"optimizer.{key} is fixed at {_FIXED_OPTIMIZER[key]!r}, got {value!r}")
    if doc.get("oracle", True) is not True:
        raise TaskFileError("oracle may only be true in a task file; pass --no-oracle to skip it")

    if mode == "gate":
        u_i = parse_complex_matrix(doc["u_initial"], "u_initial")
        u_f = parse_complex_matrix(doc["u_final"], "u_final")
        h0 = _parse_wind(doc["wind"], u_i.shape[0])
        try:
            task = GateTask(u_initial=u_i, u_final=u_f, h0=h0)
        except (DimensionError, ValueError) as exc:
            raise TaskFileError(f"gate task: {exc}") from exc
    else:
        psi_i, psi_f = _parse_states(doc, mode)
        h0 = _parse_wind(doc["wind"], psi_i.dim)
        try:
            task = NavigationTask(psi_initial=psi_i, psi_final=psi_f, h0=h0)
        except DimensionError as exc:
            raise TaskFileError(f"{mode} task: {exc}") from exc
    return LoadedTask(mode=mode, task=task)


def dumps_result(doc):
    """Deterministic JSON text for a result document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
