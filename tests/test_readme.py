"""The README library quickstart runs and prints what its comments say."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def squeeze(text):
    return "".join(text.split())


def test_quickstart_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]
    comments = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(comments) == 3
    assert squeeze(lines[0]) == squeeze(comments[0]) == "((0,2),(0,2))((0,2),(0,0))"
    assert squeeze(lines[1]) == squeeze(comments[1]) == "s(2)"
    # the third comment is prose about the pi-swap module's flags
    assert comments[2] == "not Rapoport, yet superspecial and supersingular"
    flags = ast.literal_eval(lines[2])
    assert not flags["rapoport"] and flags["superspecial"] and flags["supersingular"]
