"""Import time of the `dieumod` modules on the CLI's start-up path.

    python3 tools/importtime.py [RUNS]      # RUNS defaults to 5

Runs RUNS fresh interpreters, each `python -X importtime -c "import
dieumod.verify, dieumod.cli"` with `src` first on PYTHONPATH, and prints
each `dieumod` module's median self and cumulative import time in
milliseconds, and the median total, the time of the whole import
statement.  The environment is passed on as it is, so under
PYTHONDONTWRITEBYTECODE every run compiles the package again.  The lazy
`dieumod.hecke` (numpy) is not on that path.  Standard library only.
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATEMENT = "import dieumod.verify, dieumod.cli"


def parse(stderr):
    """({module: (self_us, cumulative_us)} of the `dieumod` modules, total_us)
    from one `-X importtime` report.  The total sums the cumulative times
    of the outermost `dieumod` imports, which hold every import they cause."""
    modules, total = {}, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        if module == "dieumod" or module.startswith("dieumod."):
            modules[module] = (int(self_us), int(cumulative_us))
            if name[1:3] != "  ":  # not indented: imported by the statement itself
                total += int(cumulative_us)
    return modules, total


def run_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", STATEMENT],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return parse(proc.stderr)


def main(argv):
    runs = int(argv[1]) if len(argv) > 1 else 5
    if runs < 1:
        sys.exit("RUNS must be at least 1")
    samples = [run_once() for _ in range(runs)]
    names = sorted({name for modules, _ in samples for name in modules})
    print(f"{STATEMENT}: median of {runs} run(s), ms")
    print(f"{'module':<20} {'self':>8} {'cumulative':>11}")
    for name in names:
        times = [modules[name] for modules, _ in samples if name in modules]
        self_ms = statistics.median(t[0] for t in times) / 1000
        cumulative_ms = statistics.median(t[1] for t in times) / 1000
        print(f"{name:<20} {self_ms:>8.2f} {cumulative_ms:>11.2f}")
    print(f"{'total':<20} {'':>8} {statistics.median(t for _, t in samples) / 1000:>11.2f}")


if __name__ == "__main__":
    main(sys.argv)
