"""`tools/kernelcount.py` counts the packed kernel's calls per verify
criterion."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lists_every_criterion():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "kernelcount.py"),
                           "--scale", "0.01", "--seed", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["id", "_ram_pack", "_ram_reduce", "mat_product",
                              "teichmuller_power", "copies", "zeros"]
    table = {row.split()[0]: [int(x) for x in row.split()[1:]] for row in rows}
    assert list(table) == [str(i) for i in range(1, 14)] + ["all"]
    assert all(len(counts) == 6 for counts in table.values())
    assert table["all"] == [sum(table[str(i)][k] for i in range(1, 14)) for k in range(6)]
    # criterion 7 builds deformation fibers: chains with copies, on the kernel
    assert min(table["7"]) > 0
