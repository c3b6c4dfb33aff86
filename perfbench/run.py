"""qnav benchmark: one workload, one seed, one timed run.

Usage:
    python3 perfbench/run.py --workload {cli_mix,state_batch,gate_batch} \
        --seed N --seconds S --trace {0,1}

One process drives one closed-loop caller: the next op starts when the last
one has returned. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs every op twice, once plain and once
with spans recorded around qnav's public names, and reports the per-layer
metrics plus the tracing overhead. After the ops it runs the known-defect
probe (workloads.known_defects) and reports its outcome counts. It prints a
readable report, then as its last line one JSON object {correct, attempted,
failed, metrics}. A failed correctness gate stops the run, prints
"correct": false with the failing op counted in "failed", and exits with
code 1. Full records (environment, sample counts, known-defect counts,
spans) go to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 5
MAX_BLOCKS = 8
MIN_BLOCK_OPS = 50
IMPORT_REPEATS = 5
# each import step timed inside one fresh interpreter, after the steps before it
IMPORT_STEPS = """
import json, time
t = [time.perf_counter()]
import numpy
t.append(time.perf_counter())
import scipy.linalg
t.append(time.perf_counter())
import qnav
t.append(time.perf_counter())
print(json.dumps([b - a for a, b in zip(t, t[1:])]))
"""


def load_spec():
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tally:
    """Ops started so far; an op that fails its gate ends the run."""

    def __init__(self):
        self.attempted = 0

    def next_index(self, items):
        self.attempted += 1
        return (self.attempted - 1) % len(items)


def measure_setup(name, seed, workdir):
    """Median wall time of fresh interpreters that import, build inputs and warm up."""
    walls = []
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), str(workdir / f"probe{r}")],
            cwd=wl.ROOT, check=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def block_figures(marks, latencies, a, b):
    """End-to-end figures of ops [a, b); marks[i] is (wall, cpu) before op i."""
    n = b - a
    lat = sorted(latencies[a:b])
    return {
        "ops_per_s": n / (marks[b][0] - marks[a][0]),
        "op_ms_p50": 1e3 * nearest_rank(lat, 0.50),
        "op_ms_p90": 1e3 * nearest_rank(lat, 0.90),
        "cpu_ms_per_op": 1e3 * (marks[b][1] - marks[a][1]) / n,
    }


def timed_run(q, args, workdir, tally):
    """End-to-end metrics with tracing off; returns {name: (value, samples)}.

    The ops are cut into up to MAX_BLOCKS consecutive blocks of at least
    MIN_BLOCK_OPS ops, and each figure is the median of its per-block
    values, so that a few seconds of interference from outside do not set
    the result.
    """
    workload = wl.setup(q, args.workload, args.seed, workdir)
    setup_s = measure_setup(args.workload, args.seed, workdir)
    items = workload.items
    latencies = []
    marks = [(time.perf_counter(), time.process_time() + children_cpu_s())]
    t_end = marks[0][0] + args.seconds
    while marks[-1][0] < t_end:
        latencies.append(workload.run(items[tally.next_index(items)]).seconds)
        marks.append((time.perf_counter(), time.process_time() + children_cpu_s()))
    n = tally.attempted
    blocks = max(1, min(MAX_BLOCKS, n // MIN_BLOCK_OPS))
    cuts = [n * k // blocks for k in range(blocks + 1)]
    per_block = [block_figures(marks, latencies, a, b) for a, b in zip(cuts, cuts[1:])]
    samples = f"{n} ops, {blocks} blocks"
    out = {k: (statistics.median(f[k] for f in per_block), samples) for k in per_block[0]}
    out["setup_s"] = (setup_s, f"{SETUP_REPEATS} interpreters")
    return out


def import_probes():
    """Median cost of a bare interpreter and of each import step after it."""
    bare, steps = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=wl.ROOT, check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_STEPS], cwd=wl.ROOT, env=wl.child_env(),
            check=True, timeout=60, capture_output=True, text=True,
        )
        steps.append(json.loads(proc.stdout))
    med = [1e3 * statistics.median(col) for col in zip(*steps)]
    return {
        "import.python_ms": 1e3 * statistics.median(bare),
        "import.numpy_ms": med[0],
        "import.scipy_ms": med[1],
        "import.qnav_ms": med[2],
    }


def traced_run(q, args, workdir, tally):
    """Per-layer metrics; each op runs plain and traced, in alternating order."""
    metrics = import_probes()
    workload = wl.setup(q, args.workload, args.seed, workdir)
    run_op = getattr(workload, "run_inprocess", workload.run)
    tracer = tracing.Tracer()

    def traced(item):
        with tracing.instrument(q, tracer), tracer.op("op", workload.meta(item)):
            return run_op(item)

    plain_s = traced_s = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        item = workload.items[tally.next_index(workload.items)]
        if tally.attempted % 2:
            plain, with_trace = run_op(item), traced(item)
        else:
            with_trace, plain = traced(item), run_op(item)
        plain_s += plain.seconds
        traced_s += with_trace.seconds
    metrics.update(tracing.layer_metrics(tracer))
    metrics["trace.untraced_op_ms"] = 1e3 * plain_s / tally.attempted
    metrics["trace.traced_op_ms"] = 1e3 * traced_s / tally.attempted
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return {k: (v, f"{tally.attempted} ops") for k, v in metrics.items()}


# ------------------------------------------------------------- environment


def openblas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln})
    found = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(lib).name] = fn()
                break
    return found


def source_digest():
    h = hashlib.sha256()
    for path in sorted((wl.SRC / "qnav").rglob("*.py")):
        h.update(str(path.relative_to(wl.SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (wl.ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def environment(args, tally):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": tally.attempted,
    }


# -------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description="qnav benchmark (one run)")
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    q = wl.import_qnav()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    defects = None
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        measured = (traced_run if args.trace else timed_run)(q, args, workdir, tally)
        wl.check_reference_digests(q, workdir)
        defects = wl.known_defects(q, args.seed)
        error = None
    except wl.GateFailure as exc:
        measured, error = {}, str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, tally)
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    if error is None:
        names = {m["name"] for m in wanted}
        if set(measured) != names:
            raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(set(measured) ^ names)}")
        for m in wanted:
            value, samples = measured[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<8} ({samples})")
    print("known_defects " + json.dumps(defects))
    correct = error is None
    if not correct:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        metrics = {}
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": 0 if correct else 1,
        "metrics": metrics,
    }
    record = dict(result, env=env, known_defects=defects, error=error)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
