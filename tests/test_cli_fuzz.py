"""The CLI contract under fuzzing.

Any argv of `construct`, `poset`, `sample-deform` and `hecke` (small ints,
empty and malformed lists, bad --cjson), and any one-point mutation of a
module JSON fed to `invariants --method fast|oracle`, must exit 0, or 1 with
a JSON error object, or 2 through argparse, and raise nothing else.  Towers
stay tiny (p <= 5, f, e, ext <= 3), and the Hecke size caps admit only the
p = 3, s = 1 search, so the whole file runs in a few seconds.
"""

import contextlib
import copy
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from dieumod.cli import main
from dieumod.families import normal_form, ordinary_module, slope_family
from dieumod.wittring import CoeffTower
import dieumod.hecke

INTS = st.integers(-1, 3).map(str)
LISTS = st.sampled_from(["", "0", "1", "0,1", "1,0", "1,1", "2,2", ",", "0,,1", "a",
                         " 1 , 0 ", "-1", "9", "0,1,2"])
CJSON = st.sampled_from(['{"0": [[1, 0]]}', '{"1": [1]}', '{"0": [[1], [0, 1]]}', "[1]",
                         '{"0": ["x"]}', "{", '{"a": [1]}', '{"0": 1}', "null", "{}",
                         '{"0": [[1, 2, 3, 4, 5]]}', '{"0": [true]}'])
SIZES = st.sampled_from(["1", "1", "2", "2", "3", "0", "-1"])  # mostly valid
TOWER = {"p": st.sampled_from(["2", "3", "3", "5", "4", "0"]),
         "f": SIZES, "e": SIZES, "ext": SIZES, "precision": st.integers(-1, 5).map(str)}
# appended last, so it overrides an earlier value: a malformed or unknown
# flag, or (mostly) nothing
JUNK = st.sampled_from([[]] * 18 + [["--f", "x"], ["--e", ""], ["--trials", "1.5"],
                                   ["--bogus"], ["--p"], ["--format", "x"]])


def flags(command, required, **optional):
    """argv of `command`: every required option and a random subset of the
    optional ones as `--name value`, then a JUNK tail."""
    pairs = st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [command] + [x for name, value in d.items() for x in (f"--{name}", value)])
    return st.tuples(pairs, JUNK).map(lambda t: t[0] + t[1])


HECKE_P = st.sampled_from(["2", "3", "4", "5", "9"])


def hecke(required, **optional):
    """`hecke` argv from `flags`, with or without --full-grassmannian."""
    return st.tuples(flags("hecke", required, **optional),
                     st.sampled_from([[], ["--full-grassmannian"]])).map(lambda t: t[0] + t[1])


COMMANDS = (
    flags("construct", {"family": st.sampled_from(["ordinary", "slope", "normal",
                                                   "superspecial", "nonrapoport"])},
          **TOWER, a=INTS, tau=LISTS, avals=LISTS, cjson=CJSON, e1=INTS, e2=INTS,
          variant=st.sampled_from(["rapoport", "general"]))
    | flags("poset", {"e": INTS, "f": INTS}, format=st.sampled_from(["json", "dot"]),
            **{"size-cap": st.integers(-1, 100).map(str)})
    | flags("sample-deform", {"tau": LISTS, "target": LISTS}, **TOWER,
            trials=st.integers(-2, 3).map(str))
    # a cap of at most 10^5 refuses every search but p = 3, s = 1 (q^4 = 6561)
    | hecke({"size-cap": st.integers(-1, 10 ** 5).map(str)}, p=HECKE_P,
            s=st.integers(-1, 1).map(str))
    # a 4000-digit cap only with s >= 1600, where every search is refused
    | hecke({"size-cap": st.just(str(10 ** 4000)), "s": st.integers(1600, 10 ** 7).map(str)},
            p=HECKE_P)
)


def assert_contract(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, exc.code)
        return
    finally:
        sys.stdin = saved
    assert code in (0, 1), (argv, code)
    if code == 1:
        error = json.loads(out.getvalue())["error"]
        assert isinstance(error["code"], str) and isinstance(error["message"], str)


@settings(max_examples=300, deadline=None)
@given(COMMANDS)
def test_argv_keeps_the_exit_contract(argv):
    assert_contract(argv)


def _modules():
    t = CoeffTower(3, 2, 1, 1)
    return [slope_family(t, 1).to_json(),
            ordinary_module(CoeffTower(2, 1, 2, 2)).to_json(),
            normal_form(CoeffTower(3, 1, 2, 2), (0,), {0: CoeffTower(3, 1, 2, 2).pi_pow(1)}
                        ).to_json()]


MODULES = _modules()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.just(1.5)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, action, value):
    if not path:
        return value
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if action == "delete":
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_module_keeps_the_exit_contract(data):
    # one replaced or deleted node of a valid module JSON (never two, so a
    # mutated size cannot meet a missing modulus and build a large field),
    # or the valid text cut short
    doc = copy.deepcopy(data.draw(st.sampled_from(MODULES)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    action = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if action == "truncate":
        text = json.dumps(doc)
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        text = json.dumps(_mutate(doc, path, action, data.draw(JSON_VALUES)))
    method = data.draw(st.sampled_from(["fast", "oracle"]))
    assert_contract(["invariants", "--module", "-", "--method", method], text)


@pytest.mark.parametrize("key, value", [("N", 10 ** 6), ("e", 10 ** 4), ("ext", 10 ** 3),
                                        ("p", 604462909807314587353439), ("p", 2 ** 9689 - 1),
                                        ("p", 1031)])
def test_huge_tower_is_refused_before_set_up(key, value):
    # a module JSON whose tower would compute p ** N, pad e coefficients,
    # test a huge p for primality, factor p^d - 1 (p an 80-bit safe prime)
    # or search p candidate moduli without bound: the size guard answers
    # first, with a JSON error object
    doc = copy.deepcopy(MODULES[0])
    doc["tower"][key] = value
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            code = main(["invariants", "--module", "-"])
    finally:
        sys.stdin = saved
    assert code == 1
    assert json.loads(out.getvalue())["error"]["code"] == "size-guard"



@pytest.mark.parametrize("argv", [("hecke", "--p", "3", "--s", "2000"),
                                  ("hecke", "--p", "3", "--s", "4000000"),
                                  ("hecke", "--p", str(10 ** 4000 + 1)),
                                  ("poset", "--e", "1", "--f", "20000"),
                                  ("hecke", "--p", "3", "--s", "1600",
                                   "--size-cap", str(10 ** 4000)),
                                  ("poset", "--e", "2", "--f", "14000",
                                   "--size-cap", str(10 ** 4250)),
                                  ("hecke", "--p", "3", "--s", "6",
                                   "--size-cap", str(10 ** 23))],
                         ids=["hecke-s2000", "hecke-s4e6", "hecke-long-p", "poset-f20000",
                              "hecke-s1600-huge-cap", "poset-f14000-huge-cap",
                              "hecke-s6-field-above-2^16"])
def test_huge_search_is_refused_at_once(argv, monkeypatch):
    # a search count too long to write in decimal (q^4 = 3^16000, 2^20000
    # poset elements), or one that would test a 4001-digit p for primality
    # or form q = 3^8000000 first: the size guard answers from bit lengths.
    # Under a cap of 2^64 or more the Hecke field bound q <= 2^16 still
    # decides from bit lengths (q = 3^3200); the poset count 3^14000 is
    # then named as a power of two, not in decimal.  A cap of 10^23 admits
    # the q^4 chart points of q = 3^12, but that field has no log table:
    # no field table may be built for any of these
    def no_tables(p, r):
        raise AssertionError("SmallField built for a refused search")
    monkeypatch.setattr(dieumod.hecke, "SmallField", no_tables)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(out.getvalue())["error"]["code"] == "size-guard"
