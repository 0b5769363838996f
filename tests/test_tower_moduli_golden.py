"""The coefficient towers' set-up data, pinned.

Every invariant is computed in a tower W_N(F_{p^d})[pi], so the moduli and
Frobenius maps must not drift when the set-up code changes.  The golden
file holds:

* `smallest_primitive(p, d)` for p in {2, 3, 5, 7, 11} and d <= 16;
* `teichmuller_modulus` of each of those with p^d <= 11^9, at N in
  {1, 2, 9};
* the irreducible and the primitive monic polynomials of a few small
  degrees, as indices n = sum(c_j * p^j) over the lower coefficients: the
  irreducible ones by the Rabin test of `polyref` (list arithmetic, no
  packed kernel), the primitive ones by `is_primitive` over every candidate;
* the modulus and the sigma^n images of the basis x^j (every n < d) of a
  few towers, the criterion-8 tower CoeffTower(3, 4, 2, 4, 5) among them.

Before the golden data are recomputed, each golden `smallest_primitive`
must pass `is_primitive` and every candidate of a smaller index must fail
it, so a broken primitivity test or `power` fails at once instead of
sending `smallest_primitive` on a search through up to p^d candidates.

Regenerate the golden file (only when the output is meant to change) with

    PYTHONPATH=src python3 tests/test_tower_moduli_golden.py
"""

import json
from pathlib import Path

from dieumod import CoeffTower, fppoly
from polyref import is_irreducible

GOLDEN = Path(__file__).parent / "data" / "tower_moduli_golden.json"

PRIMES = (2, 3, 5, 7, 11)
MAX_D = 16
LIFT_BOUND = 11 ** 9
LIFT_PRECISIONS = (1, 2, 9)
ALL_MONIC = ((2, 1), (2, 4), (2, 6), (3, 2), (3, 4), (5, 3), (7, 2), (11, 2))
TOWERS = ((2, 1, 1, 1, 3), (2, 3, 3, 1, 24), (3, 2, 2, 2, 8), (5, 1, 2, 2, 2),
          (7, 3, 1, 1, 5), (11, 2, 2, 1, 3), (3, 4, 2, 4, 5))


def monic(p, d, n):
    coeffs = []
    for _ in range(d):
        n, c = divmod(n, p)
        coeffs.append(c)
    return coeffs + [1]


def record():
    primitive = {f"{p},{d}": list(fppoly.smallest_primitive(p, d))
                 for p in PRIMES for d in range(1, MAX_D + 1)}
    lifts = {f"{p},{d},{N}": list(fppoly.teichmuller_modulus(list(mu), p, N))
             for p in PRIMES for d in range(1, MAX_D + 1)
             if p ** d <= LIFT_BOUND
             for mu in [fppoly.smallest_primitive(p, d)] for N in LIFT_PRECISIONS}
    tests = {}
    for p, d in ALL_MONIC:
        polys = [monic(p, d, n) for n in range(p ** d)]
        tests[f"{p},{d}"] = {
            "irreducible": [n for n, f in enumerate(polys) if is_irreducible(f, p)],
            "primitive": [n for n, f in enumerate(polys) if fppoly.is_primitive(f, p)]}
    towers = []
    for p, f, e, ext, N in TOWERS:
        t = CoeffTower(p, f, e, ext, N)
        basis = [t.witt([0] * j + [1]) for j in range(t.d)]
        towers.append({
            "tower": [p, f, e, ext, N], "modulus": list(t.modulus),
            "sigma": [[list(x.sigma(n).coeffs) for x in basis] for n in range(1, t.d)]})
    return {"smallest_primitive": primitive, "teichmuller_modulus": lifts,
            "all_monic": tests, "towers": towers}


def index(p, f):
    return sum(c * p ** j for j, c in enumerate(f[:-1]))


def test_tower_set_up_is_unchanged():
    golden = json.loads(GOLDEN.read_text())
    smallest = {tuple(map(int, k.split(","))): f
                for k, f in golden["smallest_primitive"].items()}
    for (p, d), f in smallest.items():
        assert fppoly.is_primitive(f, p), ("golden modulus rejected", p, d)
    for (p, d), f in smallest.items():
        for n in range(index(p, f)):
            assert not fppoly.is_primitive(monic(p, d, n), p), ("smaller accepted", p, d, n)
    fresh = json.loads(json.dumps(record()))
    for key in ("smallest_primitive", "teichmuller_modulus", "all_monic"):
        assert fresh[key].keys() == golden[key].keys(), key
        for k, v in golden[key].items():
            assert fresh[key][k] == v, (key, k)
    assert len(fresh["towers"]) == len(golden["towers"])
    for new, old in zip(fresh["towers"], golden["towers"]):
        assert new == old, old["tower"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record()) + "\n")
