"""Byte-identical Hecke probe reports for fixed inputs.

`probe_report` at p = 3 over the whole Grassmannian, at p = 3 and at p = 5
in the chart, and the `dieumod hecke --p 101` size-guard error object.  The
verify golden file keeps only the counts of criterion 9; this one also pins
the echelon forms outside the chart and the extra variety points.  The
reports come out the same when no residue-field power can be formed: the
probe's field tables read `modp.log_table` alone.

Regenerate the golden file (only when the output is meant to change) with

    PYTHONPATH=src python3 tests/test_hecke_golden.py
"""

import json
from pathlib import Path

from dieumod import modp
from dieumod.hecke import probe_report
from dieumod.modp import FqElem, ResidueField
from test_cli_golden import run

GOLDEN = Path(__file__).parent / "data" / "hecke_golden.json"

REPORTS = ((3, True), (3, False), (5, False))


def record():
    cases = [{"p": p, "full_grassmannian": full,
              "report": probe_report(p, full_grassmannian=full)}
             for p, full in REPORTS]
    code, out = run(("hecke", "--p", "101"))
    cases.append({"argv": ["hecke", "--p", "101"], "exit": code, "stdout": out})
    return cases


def test_hecke_output_is_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    fresh = json.loads(json.dumps(record()))
    assert len(fresh) == len(golden)
    for new, old in zip(fresh, golden):
        assert new == old, {k: v for k, v in old.items() if k != "report"}


def test_reports_form_no_residue_field_power(monkeypatch):
    def refuse(*args):
        raise AssertionError("the probe formed a residue-field power")
    monkeypatch.setattr(ResidueField, "gen_pow", refuse)
    monkeypatch.setattr(FqElem, "coeffs", property(refuse))
    modp.log_table.cache_clear()  # built again under the patches
    golden = json.loads(GOLDEN.read_text())
    for (p, full), old in zip(REPORTS, golden):
        assert json.loads(json.dumps(probe_report(p, full_grassmannian=full))) == old["report"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
