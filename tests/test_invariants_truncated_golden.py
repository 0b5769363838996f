"""Byte-identical invariants of truncated-precision modules.

The CLI golden file holds only family modules, whose entries all carry full
precision.  The dual of a module is built through p * A^(-1) =
pi^(e-v) * adj(A) * u^(-1), det A = pi^v u.  The pi-shift is exact for
v <= e, and only the division by the det's unit part u spends certified
digits, so `M.dual()` of each CLI golden family gives entries of lower
precision.  For each one the golden file records `invariant_report` and
both Newton methods, or the error that each raised.

Regenerate the golden file (only when the output is meant to change) with

    PYTHONPATH=src python3 tests/test_invariants_truncated_golden.py
"""

import json
import sys
from pathlib import Path

from dieumod import DModule, DomainError, PrecisionError
from dieumod import invariants as inv

sys.path.insert(0, str(Path(__file__).parent))
from test_cli_golden import CONSTRUCT, run  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "invariants_truncated_golden.json"


def error_of(exc):
    if isinstance(exc, PrecisionError):
        return {"error": "precision", "lower_bound": str(exc.lower_bound)}
    return {"error": exc.code}


def outcome(fn, *args):
    """JSON form of fn(*args), or of the error it raised."""
    try:
        out = fn(*args)
    except (PrecisionError, DomainError) as exc:
        return error_of(exc)
    return out if isinstance(out, dict) else out.to_json()


def record():
    """One case per CLI golden construct call that builds a module."""
    cases = []
    for argv in CONSTRUCT:
        code, out = run(argv)
        if code:
            continue
        try:
            D = DModule.from_json(json.loads(out)).dual()
        except (PrecisionError, DomainError) as exc:
            cases.append({"argv": list(argv), "dual": error_of(exc)})
            continue
        cases.append({
            "argv": list(argv),
            "dual": {"precisions": sorted({x.prec for A in D.matrices
                                           for row in A for x in row})},
            "report": outcome(inv.invariant_report, D),
            "fast": outcome(inv.newton_point, D, "fast"),
            "oracle": outcome(inv.newton_point, D, "oracle"),
        })
    return cases


def test_dual_invariants_are_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    fresh = record()
    assert [c["argv"] for c in fresh] == [c["argv"] for c in golden]
    for new, old in zip(fresh, golden):
        assert new == old, new["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
