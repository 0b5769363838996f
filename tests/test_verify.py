"""The criterion registry behind `dieumod verify` and its byte-identical
command-line output."""

from pathlib import Path

from dieumod import verify
from dieumod.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all_0.01.json"


def test_every_criterion_in_exactly_one_suite():
    suites = [ids for name, ids in verify.SUITES.items() if name != "all"]
    for cid in range(1, 14):
        assert sum(ids.count(cid) for ids in suites) == 1, cid
    assert sorted(verify.CRITERIA) == list(range(1, 14))


def test_all_suite_order():
    assert verify.SUITES["all"] == (13, 1, 2, 3, 4, 5, 10, 11, 12, 6, 7, 8, 9)


def test_registered_report(monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", {})
    monkeypatch.setattr(verify, "SUITES", {})

    @verify.criterion(98, "demo", "no cases", "passes only with a case")
    def empty(check, seed, scale):
        pass

    @verify.criterion(99, "demo", "demo name", "demo description")
    def body(check, seed, scale):
        check(True, ok=True)
        check(False, ok=False, n=seed)
        return {"scale_seen": scale}

    assert verify.SUITES == {"demo": (98, 99)}
    assert not verify.CRITERIA[98]()["passed"]
    assert verify.CRITERIA[99](seed=4, scale=0.5) == {
        "id": 99, "suite": "demo", "name": "demo name",
        "description": "demo description", "cases": 2, "passed": False,
        "failures": [{"ok": False, "n": 4}], "scale_seen": 0.5}


def test_run_criteria_looks_up_at_call_time(monkeypatch):
    monkeypatch.setitem(verify.CRITERIA, 10, lambda seed, scale: {"passed": seed == 3})
    assert verify.run_criteria([10], seed=3)["checks"] == [{"passed": True}]


def test_tower_is_shared():
    t = verify.tower(3, 2, 1, ext=2)
    assert verify.tower(3, 2, 1, ext=2) is t
    assert verify.tower(3, 2, 1, ext=2, slack=20) is not t


def test_verify_all_output_is_byte_identical(capsys):
    assert main(["verify", "--suite", "all", "--scale", "0.01", "--seed", "0"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_nonordinary_locus_lifts_each_coordinate_once(monkeypatch):
    # criterion 7 builds its two fibers per case from one set of lifts: one
    # Teichmuller lift per coordinate of the first fiber (T**k for a leading
    # coordinate, `teichmuller` of a residue element for the others), none
    # for the second; a `teichmuller_power` inside `teichmuller` is the same
    # lift
    from dieumod import CoeffTower, families

    sizes, lifts, inside = [], [], []
    specialize = families.deform_specialize
    teichmuller, power = CoeffTower.teichmuller, CoeffTower.teichmuller_power

    def counting_specialize(base, target, asg):
        sizes.append(len(asg))
        return specialize(base, target, asg)

    def counting_teichmuller(tower, a):
        lifts.append("teichmuller")
        inside.append(a)
        try:
            return teichmuller(tower, a)
        finally:
            inside.pop()

    def counting_power(tower, k):
        if not inside:
            lifts.append("power")
        return power(tower, k)

    monkeypatch.setattr(families, "deform_specialize", counting_specialize)
    monkeypatch.setattr(CoeffTower, "teichmuller", counting_teichmuller)
    monkeypatch.setattr(CoeffTower, "teichmuller_power", counting_power)
    report = verify.CRITERIA[7](seed=0, scale=0.02)
    assert report["passed"]
    assert sizes[::2] == sizes[1::2] and len(lifts) == sum(sizes[::2]) > 0
    assert "power" in lifts and "teichmuller" in lifts
