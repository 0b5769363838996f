import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dieumod import DModule, a_type
from dieumod.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_then_invariants_pipe(capsys, tmp_path):
    code, out = run_cli(capsys, "construct", "--family", "slope", "--a", "1",
                        "--p", "3", "--f", "2", "--e", "1", "--ext", "1")
    assert code == 0
    path = tmp_path / "m.json"
    path.write_text(out)
    code, out = run_cli(capsys, "invariants", "--module", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["flags"]["supersingular"] is True
    assert rep["newton"]["index_num"] == 1


def test_deterministic_output(capsys):
    args = ("construct", "--family", "normal", "--tau", "0", "--avals", "1",
            "--p", "3", "--f", "2", "--e", "2")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_poset_json_and_dot(capsys):
    code, out = run_cli(capsys, "poset", "--e", "1", "--f", "4")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 16
    code, out = run_cli(capsys, "poset", "--e", "1", "--f", "2",
                        "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_hecke_subcommand(capsys):
    code, out = run_cli(capsys, "hecke", "--p", "3", "--s", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["enumerated"] == 33 and rep["count_matches"]


def test_sample_deform_subcommand(capsys):
    code, out = run_cli(capsys, "sample-deform", "--p", "3", "--f", "2",
                        "--e", "1", "--ext", "4", "--tau", "0",
                        "--target", "1,0", "--trials", "10", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["trials"] == 10 and sum(rep["slope_histogram"].values()) == 10


def test_seed_flag_wins_over_env(capsys, monkeypatch):
    monkeypatch.setenv("DIEUMOD_SEED", "4")
    args = ("sample-deform", "--p", "3", "--f", "2", "--e", "1", "--ext", "4",
            "--tau", "0", "--target", "1,0", "--trials", "5")
    _, out_env = run_cli(capsys, *args)
    _, out_flag = run_cli(capsys, *args, "--seed", "4")
    assert json.loads(out_env) == json.loads(out_flag)


def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DIEUMOD_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["poset", "--e", "1", "--f", "2"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_domain_error_yields_json_and_exit_1(capsys):
    code, out = run_cli(capsys, "construct", "--family", "slope", "--a", "9",
                        "--p", "3", "--f", "2", "--e", "1")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "bad-shape"


def test_malformed_module_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "invariants", "--module", str(path))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-input"


def _one_by_two_slot(data):
    data["matrices"][0] = data["matrices"][0][:1]
    return data


def _string_coefficient(data):
    data["matrices"][0][0][0] = ["1"]
    return data


def _short_delta(data):
    data["delta"] = []
    return data


def _zero_det(data):
    data["matrices"][0][1][1] = 0
    return data


def _precisions(precs):
    def mutate(data):
        data["precisions"] = precs
        return data
    return mutate


@pytest.mark.parametrize("mutate,code", [
    (_one_by_two_slot, "bad-input"),
    (lambda data: [], "bad-input"),
    (_string_coefficient, "bad-input"),
    (_short_delta, "bad-shape"),
    (_zero_det, "precision"),
    (_precisions({"matrices": [[[4, 3], [3, 3]]], "delta": [3]}), "bad-input"),
    (_precisions({"matrices": [[[3, 3], [3, 3]]]}), "bad-input"),
], ids=["1x2-slot-matrix", "top-level-list", "string-coefficient", "short-delta",
        "zero-det", "precision-above-eN", "no-delta-precisions"])
def test_malformed_module_shapes(capsys, tmp_path, mutate, code):
    _, out = run_cli(capsys, "construct", "--family", "ordinary", "--p", "3",
                     "--f", "1", "--e", "1")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(json.loads(out))))
    exit_code, out = run_cli(capsys, "invariants", "--module", str(path))
    assert exit_code == 1
    assert json.loads(out)["error"]["code"] == code


@pytest.mark.parametrize("argv,code", [
    (("sample-deform", "--f", "2", "--tau", "1", "--target", "0"), "bad-shape"),
    (("construct", "--family", "normal", "--tau", "0", "--cjson", "[1]"), "bad-input"),
    (("construct", "--family", "normal", "--tau", "0", "--cjson", '{"0": ["x"]}'),
     "bad-input"),
    (("verify", "--suite", "slopes", "--scale", "inf"), "bad-input"),
    (("verify", "--suite", "slopes", "--scale", "nan"), "bad-input"),
    (("verify", "--suite", "slopes", "--scale", "0"), "bad-input"),
    (("verify", "--suite", "slopes", "--scale", "-1"), "bad-input"),
    # finite, but the sample count 500 * scale overflows to inf
    (("verify", "--suite", "arith", "--scale", "1e308"), "bad-input"),
    (("sample-deform", "--f", "2", "--tau", "0", "--target", "1,0", "--trials", "-5"),
     "bad-shape"),
    # a repeated slot would keep only its last a-value
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "0,0", "--avals", "1,2"), "usage"),
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "0,0", "--avals", "2,1"), "usage"),
    # a slot outside 0..f-1 would alias slot (tau mod f) of the family
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "2", "--avals", "1"), "usage"),
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "0,2", "--avals", "1,2"), "usage"),
    # the same slot checks with the coefficient map of --cjson
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "2", "--cjson", '{"2": 1}'), "usage"),
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "0,2", "--cjson", '{"0": 1, "2": 1}'), "usage"),
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "1,1", "--cjson", '{"1": 1}'), "usage"),
    # --cjson keys that are not the --tau slots
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "0", "--cjson", '{"1": 1}'), "usage"),
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "0,1", "--cjson", '{"0": 1}'), "usage"),
    (("construct", "--family", "normal", "--p", "3", "--f", "2", "--e", "2",
      "--tau", "1", "--cjson", '{"1": 1, "01": 2}'), "usage"),
    # a --cjson key that is no slot number
    (("construct", "--family", "normal", "--tau", "0", "--cjson", '{"x": 1}'), "usage"),
], ids=["short-target", "cjson-list", "cjson-string-coefficient", "scale-inf",
        "scale-nan", "scale-zero", "scale-negative", "scale-overflows-count",
        "negative-trials", "repeated-tau", "repeated-tau-swapped", "tau-out-of-range",
        "tau-aliasing", "cjson-tau-out-of-range", "cjson-tau-aliasing",
        "cjson-repeated-tau", "cjson-key-not-in-tau", "cjson-missing-key",
        "cjson-repeated-key", "cjson-non-integer-key"])
def test_malformed_arguments(capsys, argv, code):
    exit_code, out = run_cli(capsys, *argv)
    assert exit_code == 1
    assert json.loads(out)["error"]["code"] == code


def test_deeply_nested_json_is_bad_input(capsys, tmp_path):
    # json descends one stack frame per level: the RecursionError is answered
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (("invariants", "--module", str(path)),
                 ("construct", "--family", "normal", "--tau", "0",
                  "--cjson", '{"0": ' + deep[50000:150000] + "}")):
        exit_code, out = run_cli(capsys, *argv)
        assert exit_code == 1
        assert json.loads(out) == {"error": {"code": "bad-input",
                                             "message": "JSON input nests too deeply"}}


@pytest.mark.parametrize("tau,values,slot", [
    ("2", "1", 2), ("0,2", "1,2", 2), ("-1", "1", -1), ("1,3", "1,1", 3),
    ("2", '{"2": 1}', 2), ("0,2", '{"0": 1, "2": 1}', 2), ("3,1", '{"1": 1}', 3)])
def test_out_of_range_tau_slot_is_named(capsys, tau, values, slot):
    # values: the --avals list, or the --cjson map when it is a JSON object
    option = "--cjson" if values.startswith("{") else "--avals"
    exit_code, out = run_cli(capsys, "construct", "--family", "normal", "--p", "3",
                             "--f", "2", "--e", "2", "--tau", tau, option, values)
    assert exit_code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "usage"
    assert error["message"] == f"--tau slot {slot} is out of range 0..1"


@pytest.mark.parametrize("avals,bad", [("0", 0), ("3", 3), ("-1", -1), ("1,0", 0)])
def test_out_of_range_aval_is_named(capsys, avals, bad):
    # an a-value is ord(c * pi) for the slot's c = pi^(a-1), so it lies in 1..e
    tau = ",".join(str(i) for i in range(len(avals.split(","))))
    exit_code, out = run_cli(capsys, "construct", "--family", "normal", "--p", "3",
                             "--f", "2", "--e", "2", "--tau", tau, "--avals", avals)
    assert exit_code == 1
    assert json.loads(out)["error"] == {
        "code": "usage", "message": f"--avals value {bad} is out of range 1..2"}


@pytest.mark.parametrize("avals", ["1", "2"])
def test_avals_give_the_a_type(capsys, avals):
    exit_code, out = run_cli(capsys, "construct", "--family", "normal", "--p", "3",
                             "--f", "1", "--e", "2", "--tau", "0", "--avals", avals)
    assert exit_code == 0
    assert a_type(DModule.from_json(json.loads(out))).pairs == ((0, int(avals)),)


@pytest.mark.parametrize("tau,values,message", [
    ("0,0", ("--avals", "1,2"), "--tau repeats slot 0"),
    ("1,1", ("--cjson", '{"1": 1}'), "--tau repeats slot 1"),
    ("0", ("--cjson", '{"1": 1}'), "--cjson slots [1] differ from the --tau slots [0]"),
    ("0,1", ("--cjson", '{"1": 1}'), "--cjson slots [1] differ from the --tau slots [0, 1]"),
    ("1", ("--cjson", '{"1": 1, "01": 2}'),
     "--cjson slots [1, 1] differ from the --tau slots [1]"),
    ("0", ("--cjson", '{"x": 1}'), "--cjson key 'x' is not a slot number")])
def test_bad_slot_maps_are_named(capsys, tau, values, message):
    exit_code, out = run_cli(capsys, "construct", "--family", "normal", "--p", "3",
                             "--f", "2", "--e", "2", "--tau", tau, *values)
    assert exit_code == 1
    assert json.loads(out)["error"] == {"code": "usage", "message": message}


@pytest.mark.parametrize("tau,message", [
    ("3", "--tau slot 3 is out of range 0..1"), ("2", "--tau slot 2 is out of range 0..1"),
    ("-1", "--tau slot -1 is out of range 0..1"), ("0,2", "--tau slot 2 is out of range 0..1"),
    ("1,1", "--tau repeats slot 1"), ("0,1,0", "--tau repeats slot 0")],
    ids=["3", "2", "-1", "0,2", "1,1", "0,1,0"])
def test_sample_deform_checks_tau_as_construct_does(capsys, tau, message):
    # a slot past f - 1 used to alias slot (tau mod f), and a repeat to collapse
    error = {"error": {"code": "usage", "message": message}}
    avals = ",".join("1" for _ in tau.split(","))
    for argv in (("sample-deform", "--tau", tau, "--target", "1,0", "--trials", "2"),
                 ("construct", "--family", "normal", "--tau", tau, "--avals", avals)):
        exit_code, out = run_cli(capsys, *argv, "--p", "3", "--f", "2")
        assert exit_code == 1 and json.loads(out) == error, argv


@pytest.mark.parametrize("p", ["2", "3", "5"])
def test_oracle_answers_the_top_of_its_bracket(capsys, tmp_path, p):
    # g = 4: the oracle runs out of digits with certified bound s(2) = s(g/2),
    # which is the index
    exit_code, out = run_cli(capsys, "construct", "--p", p, "--f", "2", "--e", "2",
                             "--family", "normal", "--tau", "0", "--avals", "2")
    assert exit_code == 0
    path = tmp_path / "m.json"
    path.write_text(out)
    exit_code, out = run_cli(capsys, "invariants", "--module", str(path), "--method", "oracle")
    assert exit_code == 0
    report = json.loads(out)
    assert report["newton_oracle"] == report["newton"]
    assert (report["newton"]["index_num"], report["newton"]["index_den"]) == (2, 1)


def test_sample_deform_on_degree_one_tower(capsys):
    # d = f * ext = 1: Teichmuller lifts of sampled units need T mod the modulus
    code, out = run_cli(capsys, "sample-deform", "--p", "5", "--f", "1", "--e", "2",
                        "--ext", "1", "--tau", "0", "--target", "0", "--trials", "3")
    assert code == 0
    assert json.loads(out)["slope_histogram"] == {"0": 3}


def test_usage_error_exit_2(capsys):
    try:
        main(["frobnicate"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("unknown subcommand must exit 2")


def test_verify_scaled_suite(capsys):
    code = main(["verify", "--suite", "hecke", "--scale", "1.0"])
    captured = capsys.readouterr()
    assert code == 0
    rep = json.loads(captured.out)
    assert rep["passed"] and rep["checks"][0]["id"] == 9
    assert "pass" in captured.err


def test_verify_status_lines_carry_elapsed_seconds(capsys):
    # one stderr line per criterion, in report order, with its case count and
    # wall time; stdout is the byte-identical report
    code = main(["verify", "--suite", "all", "--scale", "0.01", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    golden = Path(__file__).parent / "data" / "verify_all_0.01.json"
    assert captured.out == golden.read_text()
    lines = captured.err.splitlines()
    checks = json.loads(captured.out)["checks"]
    assert len(lines) == len(checks) == 13
    for line, check in zip(lines, checks):
        m = re.fullmatch(r"\[pass\] (.+) \((\d+) cases, (\d+\.\d{3}) s\)", line)
        assert m, line
        assert (m[1], int(m[2])) == (check["name"], check["cases"])
        assert 0 <= float(m[3]) < 60


def test_closed_stdout_exits_1_without_traceback():
    # the reader takes 10 bytes of a 4.5 MB poset and closes the pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "dieumod.cli", "poset", "--e", "3", "--f", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert json.loads(err)["error"]["code"] == "broken-pipe"
