"""dieumod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
detail object with provenance, sample counts and per-task times.

--trace 0  End-to-end metrics.  Set-up (import, towers, lazy caches, inputs)
           is timed in this process and again in fresh interpreters, and the
           median is reported.  Then passes over the workload's fixed input
           repeat until S seconds are spent (three passes at least).  run_s
           is the sum over tasks (one item each) of each task's fastest time
           over the passes, and the latency percentiles are taken over those
           fastest times.  The median latency is on the detail line only: on
           verify it is the 7th of 13 criteria and jumps between criteria.
           Every time of --trace 0 is read from refclock.RefClock: seconds
           at a fixed reference speed of the host, so that other tenants
           slowing the host do not show as a slower program.  The wall
           seconds and the host's mean speed are on the detail line.
--trace 1  Per-layer metrics.  Wrappers around each layer's public functions
           record spans during set-up and one traced pass; one untraced pass
           before it gives the tracing overhead.  S is not used.  The spans
           are written to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

from refclock import RefClock

# One thread per process, as the workloads are defined.  Otherwise numpy's
# OpenBLAS starts a worker thread on import, and on a 2-vCPU host that
# thread start made the import time swing by a factor of two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7   # set-up samples per run: this process plus fresh interpreters
MIN_PASSES = 3      # passes per run at least: each fastest time is over three samples
WORKLOADS = ("invariants", "verify")  # built in workloads.py

END_TO_END_UNITS = {
    "run_s": "s", "items_per_s": "1/s", "latency_p99_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def build_tasks(name, seed, size):
    """Import dieumod and build the workload."""
    import workloads
    return workloads.build(name, seed, size)


def timed_setup(name, seed, size):
    """build_tasks under a RefClock; returns (tasks, clock)."""
    with RefClock() as clock:
        tasks = build_tasks(name, seed, size)
    return tasks, clock


def setup_in_fresh_interpreter(name, seed, size):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--size", size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


PassResult = namedtuple("PassResult", "seconds task_s failed")


def run_pass(tasks, tracer=None, clock=None):
    """One pass over every task; outputs are checked after the clock stops.
    Times are wall seconds, or RefClock seconds when a clock is given."""
    now = time.perf_counter if clock is None else clock.mark
    outputs, task_s = [], []
    t0 = prev = now()
    for i, task in enumerate(tasks):
        try:
            if tracer is None:
                out = task.call()
            else:
                tracer.item_id = i
                out = tracer.span("bench.item", task.call)
        except Exception as exc:  # an item that raises counts as failed
            out = exc
        t = now()
        task_s.append(t - prev)
        prev = t
        outputs.append(out)
    seconds = prev - t0
    failed = sum(isinstance(out, Exception) or not task.check(out)
                 for task, out in zip(tasks, outputs))
    return PassResult(seconds, task_s, failed)


def host_record():
    import numpy
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def per_task_min(passes):
    """Fastest time of each task over the passes."""
    return [min(col) for col in zip(*(p.task_s for p in passes))]


def by_label(tasks, values):
    out = {}
    for task, v in zip(tasks, values):
        out[task.label] = out.get(task.label, 0.0) + v
    return out


def measure(name, seed, seconds, size):
    tasks, setup_clock = timed_setup(name, seed, size)
    setup = [setup_clock.elapsed] + [setup_in_fresh_interpreter(name, seed, size)
                                     for _ in range(SETUP_REPEATS - 1)]
    passes = []
    start = time.perf_counter()
    with RefClock() as clock:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(tasks, clock=clock))
    # Besides the slow phases RefClock takes out, single reference samples
    # are noisy; the fastest of several passes of each task is steadier
    # than a median over the passes.
    task_s = per_task_min(passes)
    lat = sorted(task_s)
    run_s = sum(task_s)
    items = len(tasks)
    attempted = items * len(passes)
    failed = sum(p.failed for p in passes)
    values = {
        "run_s": run_s,
        "items_per_s": items / run_s,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "size": size,
        "trace": 0, "host": host_record(), "passes": len(passes),
        "items_per_pass": items, "latency_samples": len(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "failed_ratio": failed / attempted, "setup_samples_s": setup,
        "pass_s": [p.seconds for p in passes],
        "wall_timed_s": clock.wall_s, "ref_samples": clock.samples,
        "host_speed": clock.elapsed / clock.wall_s,
        "task_min_s_by_label": by_label(tasks, task_s),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return detail, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def traced(name, seed, size):
    import dieumod  # noqa: F401  the wrappers patch the loaded modules
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tasks = tracer.span("bench.setup", build_tasks, name, seed, size)
    tracer.uninstall()
    plain = run_pass(tasks)
    tracer.install()
    try:
        traced_pass = run_pass(tasks, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics(traced_pass.seconds, plain.seconds)
    span_file = OUT_DIR / f"spans-{name}-seed{seed}-{size}.npz"
    tracer.write(span_file)
    items = len(tasks)
    attempted = 2 * items
    failed = plain.failed + traced_pass.failed
    detail = {
        "workload": name, "seed": seed, "size": size, "trace": 1,
        "host": host_record(), "spans": len(tracer.start),
        "span_file": str(span_file.relative_to(ROOT)),
        "items_per_pass": items, "failed_ratio": failed / attempted,
        "overhead_ratio": traced_pass.seconds / plain.seconds,
    }
    units = {n: u for n, u, _ in tracing.metric_specs()}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return detail, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small is the harness self-test input size")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up samples)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dieumod" / "__init__.py").is_file():
        print(f"dieumod sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed, args.size)[1].elapsed}))
        return 0
    if args.trace:
        detail, result = traced(args.workload, args.seed, args.size)
    else:
        detail, result = measure(args.workload, args.seed, args.seconds, args.size)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
