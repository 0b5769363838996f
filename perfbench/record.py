"""Record the expected outputs that have no independent closed form: the
case count of each verify criterion at the benchmark's fixed scales and
seed, after checking that every criterion passed.

Run from the repository root:  python3 perfbench/record.py
It rewrites perfbench/expected.json.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from dieumod import verify as vf  # noqa: E402


def record_verify():
    out = {}
    for scale in wl.VERIFY_SCALE.values():
        rep = vf.run_criteria(vf.SUITES["all"], seed=wl.VERIFY_SEED, scale=scale)
        if not rep["passed"]:
            raise SystemExit(f"verify fails at scale {scale}; nothing recorded")
        out[str(scale)] = {str(c["id"]): c["cases"] for c in rep["checks"]}
    return out


def main():
    expected = {"verify": record_verify()}
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
