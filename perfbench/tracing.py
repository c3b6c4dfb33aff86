"""Spans and counters recorded around qnav's public names, from outside.

``instrument`` replaces each traced function in every qnav module namespace
that holds it (``qnav.state_nav.golden_min``, ``qnav.cli.optimize``, ...)
with a wrapper and restores the originals on exit. The program's code is not
touched. Spans stay in memory until the run ends; a span's self time is its
duration minus the time covered by its direct children.
"""

import contextlib
import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np

NAMESPACES = ("cli", "state_nav", "subspace", "gate_nav", "oracle", "taskio", "linalg", "bloch")


class Tracer:
    def __init__(self):
        self.spans = []  # [op, name, parent index, start ns, end ns]
        self.counts = Counter()
        self.op_meta = []
        self._stack = []

    @contextlib.contextmanager
    def op(self, name, meta):
        """Root span of one op; meta tags the op for per-group metrics."""
        self.op_meta.append(meta)
        with self.span(name):
            yield

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.op_meta) - 1, name, parent, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self):
        """Self time of every span, aligned with self.spans."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps([op, name, parent, start, end - start]) + "\n")


def _span(tracer, name, fn, after=None):
    """Wrapper timing fn as span `name` (None: no span) and passing its result to `after`."""

    def wrapper(*args, **kwargs):
        if name is None:
            out = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                out = fn(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    return wrapper


def _golden(tracer, fn, span_name, count_key=None):
    """golden_min wrapper counting calls and objective evaluations."""

    def wrapper(f, *args, **kwargs):
        tracer.counts["minimize.golden_calls"] += 1
        if count_key:
            tracer.counts[count_key] += 1

        def counted(x):
            tracer.counts["minimize.evals"] += 1
            return f(x)

        if span_name is None:
            return fn(counted, *args, **kwargs)
        with tracer.span(span_name):
            return fn(counted, *args, **kwargs)

    return wrapper


def _phi_split(tracer, fn, scalar_key):
    """Array-valued calls are the grid scan; scalar ones are only counted."""

    def wrapper(a, phi):
        if np.ndim(phi):
            with tracer.span("state_nav.scan"):
                return fn(a, phi)
        if scalar_key:
            tracer.counts[scalar_key] += 1
        return fn(a, phi)

    return wrapper


def _wrappers(q, tracer):
    """Wrapper per traced function, and per (namespace, name) where it differs."""
    counts = tracer.counts
    by_function = {
        q.cli.main: _span(tracer, "cli.main", q.cli.main),
        q.state_nav.optimize: _span(tracer, "state_nav.optimize", q.state_nav.optimize),
        q.state_nav.sweep: _span(tracer, "state_nav.sweep", q.state_nav.sweep),
        q.state_nav.canonicalize: _span(tracer, "bloch.canonicalize", q.state_nav.canonicalize),
        q.subspace.detect_and_reduce: _span(tracer, "subspace.detect", q.subspace.detect_and_reduce),
        q.subspace.solve_embedded: _span(tracer, "subspace.embed", q.subspace.solve_embedded),
        q.oracle.first_passage: _span(tracer, "oracle.first_passage", q.oracle.first_passage),
        q.oracle.gate_mismatch: _span(tracer, "oracle.gate_mismatch", q.oracle.gate_mismatch),
        q.oracle.fidelity_curve: _span(
            tracer, None, q.oracle.fidelity_curve,
            after=lambda out: counts.update({"oracle.samples": len(out[0]), "oracle.curves": 1}),
        ),
        q.gate_nav.solve_gate: _span(tracer, "gate_nav.solve_gate", q.gate_nav.solve_gate),
        q.gate_nav.solve_gate_min_branch: _span(
            tracer, "gate_nav.min_branch", q.gate_nav.solve_gate_min_branch
        ),
        q.gate_nav.branch_survey: _span(
            tracer, "gate_nav.branch_survey", q.gate_nav.branch_survey,
            after=lambda out: counts.update({"gate_nav.branches": len(out), "gate_nav.surveys": 1}),
        ),
        q.linalg.unitary_eigenphases: _span(
            tracer, "linalg.eigenphases", q.linalg.unitary_eigenphases
        ),
        q.linalg.expm_unitary: _span(
            tracer, "linalg.expm", q.linalg.expm_unitary,
            after=lambda out: counts.update({"linalg.expm_calls": 1}),
        ),
        q.taskio.load_task: _span(tracer, "taskio.load_task", q.taskio.load_task),
        q.taskio.dumps_result: _span(
            tracer, "taskio.dumps_result", q.taskio.dumps_result,
            after=lambda out: counts.update({"taskio.result_bytes": len(out.encode()), "taskio.dumps": 1}),
        ),
    }
    by_site = {
        ("state_nav", "golden_min"): _golden(tracer, q.state_nav.golden_min, "state_nav.refine"),
        ("oracle", "golden_min"): _golden(tracer, q.oracle.golden_min, None, "oracle.lobe_refines"),
        ("state_nav", "alpha_of_phi"): _phi_split(
            tracer, q.state_nav.alpha_of_phi, "state_nav.refine_evals"
        ),
        ("state_nav", "omega_of_phi"): _phi_split(tracer, q.state_nav.omega_of_phi, None),
    }
    return by_function, by_site


@contextlib.contextmanager
def instrument(q, tracer):
    """Install the wrappers in every qnav namespace; restore on exit."""
    by_function, by_site = _wrappers(q, tracer)
    saved = []
    for ns in NAMESPACES:
        module = getattr(q, ns)
        for name, value in list(vars(module).items()):
            wrapper = by_site.get((ns, name))
            if wrapper is None and callable(value):
                wrapper = by_function.get(value)
            if wrapper is not None:
                saved.append((module, name, value))
                setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def _ms(ns):
    return ns / 1e6


def layer_metrics(tracer):
    """Per-layer figures from the recorded spans and counts.

    ``*_ms`` figures are mean self time per op over all traced ops, so that
    they add up to the op time; ``cli.main_ms.*`` and the ``.nK`` figures are
    means over the ops of that subcommand or dimension.
    """
    n_ops = max(len(tracer.op_meta), 1)
    c = tracer.counts
    self_by_name = defaultdict(int)
    main_by_cmd = defaultdict(int)
    by_n = defaultdict(int)
    for (op, name, parent, _, _), own in zip(tracer.spans, tracer.self_ns()):
        self_by_name[name] += own
        meta = tracer.op_meta[op]
        if name == "cli.main":
            main_by_cmd[meta["command"]] += own
        if "n" in meta:
            if name.startswith("linalg."):
                by_n[("linalg", meta["n"])] += own
            elif name == "gate_nav.branch_survey":
                by_n[("survey", meta["n"])] += own
    ops_by_cmd = Counter(m.get("command") for m in tracer.op_meta)
    ops_by_n = Counter(m.get("n") for m in tracer.op_meta)

    def per_op(name):
        return _ms(self_by_name[name]) / n_ops

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {
        "taskio.load_task_ms": per_op("taskio.load_task"),
        "taskio.dumps_result_ms": per_op("taskio.dumps_result"),
        "taskio.result_bytes": ratio("taskio.result_bytes", "taskio.dumps"),
        "bloch.canonicalize_ms": per_op("bloch.canonicalize"),
        "state_nav.optimize_ms": per_op("state_nav.optimize"),
        "state_nav.scan_ms": per_op("state_nav.scan"),
        "state_nav.refine_ms": per_op("state_nav.refine"),
        "state_nav.refine_evals": c["state_nav.refine_evals"] / n_ops,
        "state_nav.sweep_ms": per_op("state_nav.sweep"),
        "minimize.golden_calls": c["minimize.golden_calls"] / n_ops,
        "minimize.evals_per_call": ratio("minimize.evals", "minimize.golden_calls"),
        "subspace.detect_ms": per_op("subspace.detect"),
        "subspace.embed_self_ms": per_op("subspace.embed"),
        "oracle.first_passage_ms": per_op("oracle.first_passage"),
        "oracle.samples": ratio("oracle.samples", "oracle.curves"),
        "oracle.lobe_refines": c["oracle.lobe_refines"] / n_ops,
        "oracle.gate_mismatch_ms": per_op("oracle.gate_mismatch"),
        "gate_nav.branch_survey_ms": per_op("gate_nav.branch_survey"),
        "gate_nav.branches_evaluated": ratio("gate_nav.branches", "gate_nav.surveys"),
        "gate_nav.useful_ratio": ratio("gate_nav.surveys", "gate_nav.branches"),
        "gate_nav.solve_gate_ms": per_op("gate_nav.solve_gate"),
        "gate_nav.min_branch_ms": per_op("gate_nav.min_branch"),
        "linalg.eigenphases_ms": per_op("linalg.eigenphases"),
        "linalg.expm_calls": c["linalg.expm_calls"] / n_ops,
        "linalg.expm_ms": per_op("linalg.expm"),
    }
    for cmd in ("solve_state", "solve_gate", "sweep", "verify"):
        k = ops_by_cmd[cmd]
        out[f"cli.main_ms.{cmd}"] = _ms(main_by_cmd[cmd]) / k if k else 0.0
    for n in range(2, 6):
        k = ops_by_n[n]
        out[f"linalg.self_ms.n{n}"] = _ms(by_n[("linalg", n)]) / k if k else 0.0
        out[f"gate_nav.branch_survey_ms.n{n}"] = _ms(by_n[("survey", n)]) / k if k else 0.0
    return out
