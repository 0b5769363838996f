"""Byte-identical command-line JSON for fixed inputs and seeds.

Each family is built with `construct` on three towers and, when that
succeeds, piped into `invariants --method oracle`; `sample-deform` runs on
two towers with a fixed seed.  A family that does not exist on a tower is
recorded with its exit code and error object.

Regenerate the golden file (only when the output is meant to change) with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import io
import json
import sys
from pathlib import Path

from dieumod.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

TOWERS = (
    ("--p", "3", "--f", "2", "--e", "2", "--ext", "2", "--precision", "8"),
    ("--p", "5", "--f", "1", "--e", "2", "--ext", "2"),
    ("--p", "2", "--f", "3", "--e", "3", "--ext", "1", "--precision", "24"),
)

FAMILIES = (
    (("--family", "ordinary"),) * 3,
    (("--family", "slope", "--a", "1"),
     ("--family", "slope", "--a", "1"),
     ("--family", "slope", "--a", "4")),
    (("--family", "normal", "--tau", "0,1", "--avals", "1,2"),
     ("--family", "normal", "--tau", "0", "--cjson", '{"0": [[1, 2], [3, 4]]}'),
     ("--family", "normal", "--tau", "0,2", "--cjson",
      '{"0": [[1, 1], [1], [0, 1]], "2": [0, [1, 1, 1]]}')),
    (("--family", "superspecial", "--e1", "1", "--e2", "1"),
     ("--family", "superspecial", "--variant", "rapoport"),
     ("--family", "superspecial", "--e1", "1", "--e2", "2")),
    (("--family", "nonrapoport"),) * 3,
)

CONSTRUCT = [("construct",) + tower + family[k]
             for family in FAMILIES for k, tower in enumerate(TOWERS)]

SAMPLE_DEFORM = [
    ("sample-deform", "--p", "3", "--f", "2", "--e", "2", "--ext", "2",
     "--tau", "0,1", "--target", "2,1", "--trials", "12", "--seed", "7"),
    ("sample-deform", "--p", "2", "--f", "2", "--e", "3", "--ext", "2",
     "--tau", "0", "--target", "1,0", "--trials", "12", "--seed", "11"),
]


def run(argv, stdin=None):
    """(exit code, stdout) of one in-process CLI call."""
    out, old_out, old_in = io.StringIO(), sys.stdout, sys.stdin
    sys.stdout = out
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = main(list(argv))
    finally:
        sys.stdout, sys.stdin = old_out, old_in
    return code, out.getvalue()


def record():
    """Every golden case: construct (then invariants) and sample-deform."""
    cases = []
    for argv in CONSTRUCT:
        code, module = run(argv)
        invariants = None
        if code == 0:
            inv_code, inv_out = run(
                ("invariants", "--module", "-", "--method", "oracle"), stdin=module)
            invariants = {"exit": inv_code, "stdout": inv_out}
        cases.append({"argv": list(argv), "exit": code, "stdout": module,
                      "invariants": invariants})
    for argv in SAMPLE_DEFORM:
        code, out = run(argv)
        cases.append({"argv": list(argv), "exit": code, "stdout": out,
                      "invariants": None})
    return cases


def test_cli_output_is_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    fresh = record()
    assert [c["argv"] for c in fresh] == [c["argv"] for c in golden]
    for new, old in zip(fresh, golden):
        assert new == old, new["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
