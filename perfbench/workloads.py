"""The benchmark workloads and their independent output checks.

A workload is built from a seed during set-up (towers, lazy caches, input
modules) and is then a fixed list of tasks, one item each.  One pass runs
every task once, in order, as a closed loop with a single caller.  `check`
compares a task's output with an expected value obtained without the code
path under test, or recorded in expected.json at the commit that defined
the benchmark.

Why each workload exists (the same lines are in BENCHMARK.json):
  invariants  nearly all work in invariants, modules and modp (repeated Lie
              and a-type passes, p*A^-1, Smith form, oracle doublings) with
              Witt arithmetic at large N; no tower building in the timed phase.
  verify      all 13 criteria of `dieumod verify --suite all`: tower rebuilds
              and Teichmuller sampling at d up to 16 (criterion 8), the
              n!-term determinant (criterion 12), the Hecke probe (criterion
              9), so every layer is timed on it.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from dieumod import CoeffTower
from dieumod import families as fam
from dieumod import invariants as inv
from dieumod import verify as vf

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# invariants: towers (p, f, e) with g <= 8, d = 2f <= 8, and oracle slack 8
INV_TOWERS = [(3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 4, 1), (3, 1, 2), (3, 2, 2),
              (3, 3, 2), (3, 4, 2), (3, 2, 3), (5, 1, 2), (5, 2, 2), (5, 3, 1),
              (5, 4, 1), (5, 2, 4)]
INV_EXT = 2
INV_SLACK = 8
INV_KINDS = ("slope", "normal", "normal", "superspecial-rapoport",
             "superspecial-general")
INV_ROUNDS = {"full": 15, "small": 1}   # 15 * 71 = 1065 items, >= 1000 for p99
NONRAPOPORT_FLAGS = {"rapoport": False, "dp": True, "ordinary": False,
                     "supersingular": True, "superspecial": True}

# verify: one fixed scale and seed, the CLI default seed
VERIFY_SCALE = {"full": 0.05, "small": 0.01}
VERIFY_SEED = 0


class Task:
    """One item of timed work: `call()` returns the output and `check(out)`
    says whether it is right."""

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def build(name, seed, size="full"):
    """The task list of workload `name` for `seed`; size is "full" or "small"."""
    return {"invariants": build_invariants, "verify": build_verify}[name](seed, size)


def warm_tower(tower):
    """Fill the lazy Frobenius maps, so the timed phase never pays for them."""
    gen = tower.ram(tower.witt_gen())
    for n in range(tower.d):
        gen.sigma(n)
    return tower


# -- invariants ---------------------------------------------------------------

def slack_tower(p, f, e, ext, slack):
    """Tower with precision for `slack`-fold twisted powers, as verify uses."""
    g = e * f
    N = max(-(-(g + 2) // e), -(-(slack * g + 2) // e))
    return CoeffTower(p, f, e, ext, N)


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ram_valuation(x):
    """pi-adic valuation read off the stored digits: the monomials T^l pi^j
    have distinct valuations e*v_p + j, so no ring arithmetic is needed."""
    t = x.tower
    vals = [t.e * _vp(c, t.p) + j
            for j, w in enumerate(x.coeffs) for c in w.coeffs if c]
    return min(vals) if vals else None


def invariants_item(M):
    """What `dieumod invariants --method oracle` computes."""
    report = inv.invariant_report(M)
    oracle = None
    if M.det_sum == M.g:
        oracle = inv.newton_point(M, "oracle").index
    return report, oracle


def _newton_index(report):
    n = report["newton"]
    return Fraction(n["index_num"], n["index_den"])


def _inv_task(label, M, check):
    return Task(label, lambda: invariants_item(M), check)


def build_invariants(seed, size):
    rng = random.Random(seed)
    towers = [warm_tower(slack_tower(p, f, e, INV_EXT, INV_SLACK))
              for p, f, e in INV_TOWERS]
    templates = [(t, kind) for t in towers for kind in INV_KINDS]
    templates.append((next(t for t in towers if (t.p, t.f, t.e) == (5, 1, 2)),
                      "nonrapoport"))
    tasks = []
    seen = {}
    for _ in range(INV_ROUNDS[size]):
        for tower, kind in templates:
            n = seen[tower, kind] = seen.get((tower, kind), -1) + 1
            tasks.append(_invariants_template(rng, tower, kind, n))
    return tasks


def _invariants_template(rng, tower, kind, n):
    """The n-th module of this kind on this tower.  Shapes (slope index,
    a-index, pi-power, exponents) cycle with n so every seed gives the same
    mix of work; the seed draws the ramified coefficients."""
    e, f, g = tower.e, tower.f, tower.g
    label = f"{kind}@{tower.p},{f},{e}"
    if kind == "slope":
        choices = [a for a in range(g // 2 + 1)
                   if 2 * (a // e) + 1 <= f or (2 * (a // e) == f and a % e == 0)]
        a = choices[n % len(choices)]
        M = fam.slope_family(tower, a)

        def check(out):
            report, oracle = out
            return _newton_index(report) == a and oracle == a
        return _inv_task(label, M, check)
    if kind == "normal":
        mask = n % 2 ** f
        tau = tuple(i for i in range(f) if mask >> i & 1)
        c, avals = {}, {}
        for i in tau:
            r, k = tower.random_ram(rng), (n + i) % (e + 1)
            c[i] = r * tower.pi_pow(k)
            v = ram_valuation(r)
            avals[i] = e if v is None else min(e, v + k + 1)  # ord(c_i * pi)
        M = fam.normal_form(tower, tau, c)
        a_pairs = [[0, avals.get(i, 0)] for i in range(f)]
        lie = [[0, e]] * f

        def check(out):
            report, _ = out
            return report["a_type"] == a_pairs and report["lie_type"] == lie
        return _inv_task(label, M, check)
    if kind == "superspecial-rapoport":
        M = fam.superspecial(tower, variant="rapoport")
    elif kind == "superspecial-general":
        e1 = n % (e + 1)
        M = fam.superspecial(tower, e1, e - e1, "general")
    elif kind == "nonrapoport":
        M = fam.nonrapoport_module(tower)
        return _inv_task(label, M, lambda out: out[0]["flags"] == NONRAPOPORT_FLAGS)
    else:
        raise ValueError(kind)
    return _inv_task(label, M, lambda out: out[0]["a_number"] == g)


# -- verify -------------------------------------------------------------------

def build_verify(seed, size):
    """Fixed scale and seed: the output is then compared with the recorded
    case counts, whatever the benchmark seed."""
    scale = VERIFY_SCALE[size]
    cases = json.loads(EXPECTED_PATH.read_text())["verify"][str(scale)]
    tasks = []
    for cid in vf.SUITES["all"]:
        def call(cid=cid):
            return vf.run_criteria([cid], seed=VERIFY_SEED, scale=scale)

        def check(out, cid=cid):
            c = out["checks"][0]
            return out["passed"] and c["passed"] and c["cases"] == cases[str(cid)]
        tasks.append(Task(f"c{cid:02d}", call, check))
    return tasks
