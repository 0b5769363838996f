"""The start-up path: `dieumod.verify` and `dieumod.cli` import without
dataclasses, inspect or numpy, and `tools/importtime.py` reports every
module on that path."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH_MODULES = {"dieumod", "dieumod.cli", "dieumod.families", "dieumod.fppoly",
                "dieumod.invariants", "dieumod.modp", "dieumod.modules", "dieumod.strata",
                "dieumod.verify", "dieumod.wittring"}


def test_start_up_imports_no_dataclasses_inspect_or_numpy():
    code = ("import sys, dieumod.verify, dieumod.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def load_importtime():
    spec = importlib.util.spec_from_file_location("importtime", ROOT / "tools" / "importtime.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_importtime_lists_every_module_but_hecke(capsys):
    importtime = load_importtime()
    importtime.main(["importtime.py", "1"])
    lines = capsys.readouterr().out.splitlines()
    listed = {line.split()[0] for line in lines[2:-1]}
    assert listed == PATH_MODULES
    assert lines[-1].split()[0] == "total" and float(lines[-1].split()[1]) > 0
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:-1]}
    assert all(0 <= self_ms <= cumulative for self_ms, cumulative in rows.values())


def test_importtime_parse():
    importtime = load_importtime()
    report = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        100 | site\n"
              "import time:        20 |         20 |         math\n"
              "import time:       300 |        320 |       dieumod.wittring\n"
              "import time:        50 |        370 |   dieumod\n"
              "import time:        40 |        410 | dieumod.verify\n"
              "import time:        30 |         30 | dieumod.cli\n")
    modules, total = importtime.parse(report)
    assert modules == {"dieumod.wittring": (300, 320), "dieumod": (50, 370),
                       "dieumod.verify": (40, 410), "dieumod.cli": (30, 30)}
    assert total == 410 + 30  # the outermost imports only
