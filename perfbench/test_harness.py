"""Self-test of the benchmark harness at the smallest input size.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every end-to-end metric of BENCHMARK.json is printed with its
unit, that a wrong expected value makes the failed count nonzero, that the
traced run's call counts repeat exactly for a fixed seed, and that the
reference clock counts only the work between its samples.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    result = run_cli("--workload", name, "--seed", "1", "--seconds", "0.1",
                     "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_expected_value_is_counted_as_failed():
    tasks = workloads.build("invariants", seed=1, size="small")
    assert run.run_pass(tasks).failed == 0
    task = tasks[0]
    task.check = lambda out: out[0]["a_number"] == -1
    assert run.run_pass(tasks).failed == 1


def test_traced_run_reports_every_layer_metric_and_repeats_its_counts():
    args = ("--workload", "invariants", "--seed", "3", "--trace", "1")
    first, second = run_cli(*args), run_cli(*args)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["invariants.invariant_report.calls"] > 0
    assert first["correct"] and second["correct"]


def test_reference_clock_counts_work_between_samples_and_restores_sigalrm():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        a = clock.mark()
        end = time.perf_counter() + 8 * refclock.PERIOD_S
        while time.perf_counter() < end:   # the timer samples in here
            pass
        b = clock.mark()
    assert signal.getsignal(signal.SIGALRM) == before
    assert 0 < b - a <= clock.elapsed
    assert clock.samples > 4 and 0 < clock.wall_s
