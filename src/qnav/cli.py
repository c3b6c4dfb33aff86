"""Command-line front end.

Subcommands: solve-state (state and subspace tasks), sweep (voyage-time
CSV over the control angle), solve-gate, and verify (recheck a result
document against its task). Results are deterministic JSON; the only
non-payload block is `meta` with the tool version.

Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 wind too
strong, 4 degenerate task, 5 no-op gate.
"""

import argparse
import sys

from . import __version__
from .bloch import angular_separation
from .errors import (
    DegenerateTaskError,
    DimensionError,
    NoOpGateError,
    NotHermitianError,
    NotInvariantError,
    NotUnitaryError,
    TaskFileError,
    WindTooStrongError,
)
from .gate_nav import branch_survey, solve_gate_min_branch
from .oracle import passage_check, result_checks
from .state_nav import DEFAULT_GRID_POINTS, rho_of_phi, sweep
from .subspace import detect_and_reduce, solve_embedded
from .taskio import (
    dumps_result,
    load_task,
    matrix_pairs,
    parse_complex_matrix,
    read_json_object,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_WIND_TOO_STRONG = 3
EXIT_DEGENERATE = 4
EXIT_NOOP_GATE = 5
# (exception types, exit code): an error exits with the first row it matches
_EXIT_CODES = (
    ((TaskFileError, NotUnitaryError, NotHermitianError, DimensionError), EXIT_INVALID_INPUT),
    ((NotInvariantError, ValueError), EXIT_INVALID_INPUT),
    ((WindTooStrongError,), EXIT_WIND_TOO_STRONG),
    ((DegenerateTaskError,), EXIT_DEGENERATE),
    ((NoOpGateError,), EXIT_NOOP_GATE),
    ((ArithmeticError,), EXIT_VERIFY_FAILED),
)

__all__ = ["build_parser", "main"]


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _meta():
    return {"tool": "qnav", "version": __version__}


def _oracle_enabled(args, loaded):
    if args.oracle is not None:
        return args.oracle
    if loaded.oracle is not None:
        return loaded.oracle
    return True


def _oracle_block(solution, task):
    """Independent first-passage cross-check of a transport solution."""
    result, gap, agrees = passage_check(
        solution.h_total, task.psi_initial, task.psi_final, solution.tau_star
    )
    return {
        "enabled": True,
        "t_first": result.t_first if result.reached else None,
        "peak_fidelity": result.peak_fidelity,
        "reached": result.reached,
        "time_gap": gap,
        "agrees": agrees,
    }


def cmd_solve_state(args):
    loaded = load_task(args.task)
    if loaded.mode == "gate":
        raise TaskFileError("gate tasks go through solve-gate")
    task = loaded.task

    doc = {"mode": loaded.mode, "meta": _meta()}
    if loaded.mode == "subspace":
        doc["subspace"] = {
            "dim": task.psi_initial.dim,
            "invariance_residual": detect_and_reduce(task).invariance_residual,
        }
    solution = solve_embedded(task)

    doc.update(
        {
            "phi_star": solution.phi_star,
            "omega_star": solution.omega_star,
            "tau_star": solution.tau_star,
            "theta": solution.theta,
            "h_total": matrix_pairs(solution.h_total.matrix),
            "h_control": matrix_pairs(solution.h_control.matrix),
            "fidelity": solution.fidelity_check,
            "constraint_residual": solution.constraint_residual,
        }
    )
    if _oracle_enabled(args, loaded):
        doc["oracle"] = _oracle_block(solution, task)
    else:
        doc["oracle"] = {"enabled": False}
    _emit(dumps_result(doc), args.out)
    return EXIT_OK


def cmd_sweep(args):
    loaded = load_task(args.task)
    if loaded.mode != "state":
        raise TaskFileError("sweep needs a state task")
    task = loaded.task
    curve = sweep(task, n_points=args.points)
    rho = rho_of_phi(angular_separation(task.psi_initial, task.psi_final), curve.phi)
    columns = (curve.phi, curve.omega, rho, curve.alpha, curve.tau)
    rows = ["%.16e,%.16e,%.16e,%.16e,%.16e\n" % row for row in zip(*(c.tolist() for c in columns))]
    _emit("phi,omega,rho,alpha,tau\n" + "".join(rows), args.out)
    return EXIT_OK


def cmd_solve_gate(args):
    loaded = load_task(args.task)
    if loaded.mode != "gate":
        raise TaskFileError("solve-gate needs a gate task")
    task = loaded.task
    if args.max_branch < 0:
        raise TaskFileError(f"--max-branch must be >= 0, got {args.max_branch}")
    solution = solve_gate_min_branch(task, args.max_branch)

    doc = {
        "mode": "gate",
        "meta": _meta(),
        "voyage_time": solution.voyage_time,
        "branch": list(solution.branch),
        "global_phase": solution.global_phase,
        "generator": matrix_pairs(solution.generator.matrix),
        "h_total": matrix_pairs(solution.h_total.matrix),
        "h_control": matrix_pairs(solution.h_control.matrix),
        "gate_residual": solution.gate_residual,
        "constraint_residual": solution.constraint_residual,
    }
    if args.max_branch > 0:
        table = sorted(branch_survey(task, args.max_branch), key=lambda bt: (bt[1], bt[0]))
        doc["branch_table"] = [
            {"branch": list(branch), "voyage_time": t} for branch, t in table
        ]
    _emit(dumps_result(doc), args.out)
    return EXIT_OK


def _result_matrix(doc, key):
    if key not in doc:
        raise TaskFileError(f"result lacks {key}")
    return parse_complex_matrix(doc[key], key)


def _result_float(doc, key):
    if key not in doc:
        raise TaskFileError(f"result lacks {key}")
    try:
        return float(doc[key])
    except (TypeError, ValueError) as exc:
        raise TaskFileError(f"result {key}: {exc}") from exc


def cmd_verify(args):
    result = read_json_object(args.result, "result")
    loaded = load_task(args.task)
    mode = result.get("mode")
    if mode != loaded.mode:
        raise TaskFileError(
            f"result mode {mode!r} does not match task mode {loaded.mode!r}"
        )
    h_total = _result_matrix(result, "h_total")
    h_control = _result_matrix(result, "h_control")
    task = loaded.task
    for m in (h_total, h_control):
        if m.shape[0] != task.h0.dim:
            raise TaskFileError(f"result dim {m.shape[0]} does not match task dim {task.h0.dim}")
    if mode == "gate":
        t = _result_float(result, "voyage_time")
        target = {"gate": (task.u_initial, task.u_final, _result_float(result, "global_phase"))}
    else:
        t = _result_float(result, "tau_star")
        target = {"states": (task.psi_initial, task.psi_final)}
    checks = result_checks(h_total, h_control, task.h0, t, **target)

    all_ok = all(c.passed for c in checks.values())
    for name, c in checks.items():
        sys.stdout.write(f"{name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})\n")
    sys.stdout.write(f"verify: {'PASS' if all_ok else 'FAIL'}\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qnav",
        description="Time-optimal Hamiltonians for qubit transport under a background drift.",
    )
    parser.add_argument("--version", action="version", version=f"qnav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("solve-state", help="solve a state or subspace task")
    p_state.add_argument("task", help="task file (JSON)")
    p_state.add_argument(
        "--oracle",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="cross-check the result by direct evolution (default on)",
    )
    p_state.add_argument("--out", default=None, help="write the result here instead of stdout")
    p_state.set_defaults(func=cmd_solve_state)

    p_sweep = sub.add_parser("sweep", help="voyage-time curve over the control angle")
    p_sweep.add_argument("task", help="task file (JSON)")
    p_sweep.add_argument("--points", type=int, default=DEFAULT_GRID_POINTS)
    p_sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gate = sub.add_parser("solve-gate", help="solve a gate task")
    p_gate.add_argument("task", help="task file (JSON)")
    p_gate.add_argument(
        "--max-branch",
        type=int,
        default=0,
        help="enumerate log branches up to this offset (0: principal only)",
    )
    p_gate.add_argument("--out", default=None, help="write the result here instead of stdout")
    p_gate.set_defaults(func=cmd_solve_gate)

    p_verify = sub.add_parser("verify", help="recheck a result document against its task")
    p_verify.add_argument("result", help="result file (JSON)")
    p_verify.add_argument("task", help="task file (JSON)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
        prefix = "internal verification failed: " if code == EXIT_VERIFY_FAILED else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
