"""Verification suites: every closed-form result the library implements is
re-derived here by an independent route (exhaustive enumeration, doubling
oracles, brute-force spans, symbolic evaluation) and compared exactly.

Suites (grouped for the command line): arith, slopes, strata, deform, hecke.
`run_criteria` executes any subset and returns a machine-readable report;
each entry carries a short description of the mathematical fact it checks.
Criteria are registered with the `criterion` decorator.
"""

import functools
import math
import random
import time
from fractions import Fraction
from itertools import product

from .wittring import CoeffTower, DomainError, min_N
from . import invariants as inv
from . import strata
from . import families as fam

CRITERIA = {}
SUITES = {}


@functools.cache
def tower(p, f, e, ext=1, slack=0):
    """Shared tower with enough precision for `slack`-fold iterated twisted powers."""
    return CoeffTower(p, f, e, ext, min_N(e * f, e, slack))


def criterion(cid, suite, name, description):
    """Register a criterion body as CRITERIA[cid] and append cid to SUITES[suite].

    The body is called as body(check, seed, scale) and calls
    check(ok, **failure_info) once per case; it returns a dict of extra
    report fields, or None.  The registered function takes (seed, scale) and
    returns the full report, which passes when there was a case and no
    failure.
    """
    def register(body):
        @functools.wraps(body)
        def run(seed=0, scale=1.0):
            failures = []
            cases = 0

            def check(ok, /, **info):
                nonlocal cases
                cases += 1
                if not ok:
                    failures.append(info)

            extra = body(check, seed, scale) or {}
            return {"id": cid, "suite": suite, "name": name, "description": description,
                    "cases": cases, "passed": cases > 0 and not failures,
                    "failures": failures[:5], **extra}
        CRITERIA[cid] = run
        SUITES[suite] = SUITES.get(suite, ()) + (cid,)
        return run
    return register


def _scaled(n, scale):
    if not math.isfinite(n * scale):
        raise DomainError("bad-input", f"sample count {n} * scale {scale} is not finite")
    return max(1, int(round(n * scale)))


def _random_unit(tw, rng):
    """Teichmuller lift of a random residue unit, as a ramified element."""
    return tw.ram(tw.teichmuller_power(rng.randrange(tw.q - 1)))


# --------------------------------------------------------------------------
# criterion 1: the slope-realizing family hits every admissible index
# --------------------------------------------------------------------------

@criterion(1, "slopes", "slope family realizes every admissible Newton index",
           "for g = e*f <= 8 the explicit family with parameter a "
           "has Newton index a, fast and oracle methods agreeing")
def criterion_slope_family(check, seed, scale):
    for e in (1, 2, 3):
        for f in (1, 2, 3, 4):
            g = e * f
            if g > 8:
                continue
            tw = tower(3, f, e, slack=20)
            for a in range(g // 2 + 1):
                M = fam.slope_family(tw, a)
                fast = inv.newton_point(M, "fast").index
                oracle = inv.newton_point(M, "oracle").index
                check(fast == oracle == a,
                      e=e, f=f, a=a, fast=str(fast), oracle=str(oracle))


# --------------------------------------------------------------------------
# criteria 2/3: one- and two-slot normal form slope formulas
# --------------------------------------------------------------------------

@criterion(2, "slopes", "one-slot slope formula",
           "reduced a-number one: Newton index = "
           "min(g/2, valuation of the Frobenius coefficient)")
def criterion_t1_formula(check, seed, scale):
    rng = random.Random(seed)
    for _ in range(_scaled(200, scale)):
        p = rng.choice((3, 5))
        f = rng.choice((1, 2, 3))
        e = rng.choice((1, 2, 3))
        g = e * f
        tw = tower(p, f, e, ext=2)
        w = rng.randrange(1, 2 * g + 1)  # valuation of the Frobenius coefficient
        if rng.random() < 0.1:
            c0, w = tw.zero(), None  # coefficient zero: supersingular
        else:
            c0 = _random_unit(tw, rng).mul_pi(w - 1)
        slot = rng.randrange(f)
        M = fam.normal_form(tw, (slot,), {slot: c0})
        expected = Fraction(g, 2) if w is None else min(Fraction(g, 2), Fraction(w))
        got = inv.newton_point(M, "fast").index
        check(got == expected,
              p=p, f=f, e=e, w=w, got=str(got), expected=str(expected))


@criterion(3, "slopes", "two-slot slope formula",
           "reduced a-number two: Newton index = "
           "min(g/2, ord(u1*u2 + pi^(e*l2))) in the gap convention")
def criterion_t2_formula(check, seed, scale):
    rng = random.Random(seed)
    for _ in range(_scaled(200, scale)):
        f = rng.choice((2, 3, 4))
        e = rng.choice((1, 2, 3))
        g = e * f
        tw = tower(3, f, e, ext=2)
        n1 = rng.randrange(f)
        n2 = (n1 + rng.randrange(1, f)) % f
        n1, n2 = min(n1, n2), max(n1, n2)

        def coeff():
            if rng.random() < 0.2:
                return tw.zero()
            w = rng.randrange(1, g + 2)
            return _random_unit(tw, rng).mul_pi(w - 1)

        c = {n1: coeff(), n2: coeff()}
        M = fam.normal_form(tw, (n1, n2), c)
        entries = M.family["entries"]
        h = n2 - n1
        if h <= f - h:
            u1, u2, l2 = entries[n1].sigma(h), entries[n2], h
        else:
            u1, u2, l2 = entries[n2].sigma(f - h), entries[n1], f - h
        # the tower has e*N >= g + 2 > g/2 (`min_N`), so a value that vanishes
        # to working precision has ord_lower() = e*N and min(g/2, .) = g/2
        val = (u1 * u2 + tw.pi_pow(e * l2)).ord_lower()
        expected = min(Fraction(g, 2), Fraction(val))
        got = inv.newton_point(M, "fast").index
        check(got == expected,
              f=f, e=e, tau=[n1, n2], got=str(got), expected=str(expected))


# --------------------------------------------------------------------------
# criterion 4: vanishing coefficients, exhaustive over the a-index
# --------------------------------------------------------------------------

@criterion(4, "slopes", "vanishing-coefficient slope formula, exhaustive",
           "zero Frobenius coefficients: odd a-index count gives the "
           "supersingular point, even gives min of the alternating "
           "gap sums; all a-indices for f <= 5, e <= 2")
def criterion_degenerate_coeffs(check, seed, scale):
    for e in (1, 2):
        for f in range(1, 6):
            g = e * f
            tw = tower(3, f, e, ext=2)
            for mask in range(1, 2 ** f):
                tau = tuple(i for i in range(f) if mask >> i & 1)
                t = len(tau)
                M = fam.normal_form(tw, tau, {i: tw.zero() for i in tau})
                if t % 2:
                    expected = Fraction(g, 2)
                else:
                    gaps = [tau[i] - tau[i - 1] for i in range(1, t)] + [tau[0] - tau[-1] + f]
                    # gaps listed as l_2..l_t, l_1; recover the alternating sums
                    ls = [gaps[-1]] + gaps[:-1]
                    odd = sum(ls[i] for i in range(0, t, 2))
                    even = sum(ls[i] for i in range(1, t, 2))
                    expected = Fraction(min(e * even, e * odd))
                got = inv.newton_point(M, "fast").index
                check(got == expected,
                      e=e, f=f, tau=list(tau), got=str(got), expected=str(expected))


# --------------------------------------------------------------------------
# criterion 5: spaced lower bound
# --------------------------------------------------------------------------

def _random_spaced_atype(rng, e, f):
    while True:
        a = [0] * f
        for i in range(f):
            if rng.random() < 0.5:
                a[i] = rng.randrange(1, e + 1)
        for i in range(f):
            if a[i] and a[(i + 1) % f]:
                a[(i + 1) % f] = 0
        if any(a) and strata.is_spaced(a):
            return tuple(a)


@criterion(5, "slopes", "spaced a-types bound the Newton index below",
           "a spaced a-type forces Newton index >= min(g/2, |a|)")
def criterion_spaced_bound(check, seed, scale):
    rng = random.Random(seed)
    for _ in range(_scaled(500, scale)):
        e = rng.choice((1, 2, 3))
        f = rng.choice((2, 3, 4))
        g = e * f
        a = _random_spaced_atype(rng, e, f)
        tw = tower(3, f, e, ext=2)
        tau = tuple(i for i in range(f) if a[i])
        c = {i: _random_unit(tw, rng).mul_pi(a[i] - 1) for i in tau}
        M = fam.normal_form(tw, tau, c)
        got = inv.newton_point(M, "fast").index
        check(got >= min(Fraction(g, 2), Fraction(sum(a))),
              e=e, f=f, a=list(a), got=str(got))


# --------------------------------------------------------------------------
# criteria 6/7/8: deformation strata
# --------------------------------------------------------------------------

@criterion(6, "deform", "Newton strata cut out by vanishing deformation coordinates",
           "one-slot base: zeroing the first m flattened coordinates "
           "and making the next a unit puts the fiber exactly on s(m)")
def criterion_deformation_strata(check, seed, scale):
    for e in (1, 2, 3):
        for f in range(1, 7):
            g = e * f
            if g > 6:
                continue
            tw = tower(3, f, e, ext=2, slack=20)
            base = fam.normal_form(tw, (0,), {0: tw.zero()})
            for m in inv.admissible_indices(g):
                # zero the first ceil(m) flattened coordinates, unit next
                k_unit = int(m) if m.denominator == 1 else -(-m.numerator // m.denominator)
                assignment = {}
                for i in range(f):
                    for j in range(e):
                        k = e * i + j
                        assignment[(i, j)] = tw.witt_one() if k == k_unit else tw.witt_zero()
                M = fam.deform_specialize(base, (0,) * f, assignment)
                fast = inv.newton_point(M, "fast").index
                oracle = inv.newton_point(M, "oracle").index
                check(fast == oracle == m,
                      e=e, f=f, m=str(m), fast=str(fast), oracle=str(oracle))


@criterion(7, "deform", "non-ordinary locus is the product of leading coordinates",
           "all leading deformation coordinates nonzero on the "
           "a-index gives an ordinary fiber; zeroing any single one "
           "leaves the ordinary locus")
def criterion_nonordinary_locus(check, seed, scale):
    rng = random.Random(seed)
    per_tau = _scaled(50, scale)
    for e in (1, 2):
        for f in range(1, 5):
            tw = tower(3, f, e, ext=2)
            F = tw.residue_field
            for mask in range(1, 2 ** f):
                tau = tuple(i for i in range(f) if mask >> i & 1)
                base = fam.normal_form(tw, tau, {i: tw.zero() for i in tau})
                for _ in range(per_tau):
                    # both fibers are built from one set of Teichmuller lifts
                    lifts = {(i, j): (tw.teichmuller_power(rng.randrange(tw.q - 1))
                                      if j == 0 and i in tau
                                      else tw.teichmuller(F.random(rng)))
                             for i in range(f) for j in range(e)}
                    M = fam.deform_specialize(base, (0,) * f, lifts)
                    check(inv.newton_point(M, "fast").is_ordinary,
                          e=e, f=f, tau=list(tau), kind="should be ordinary")
                    i0 = rng.choice(tau)
                    M2 = fam.deform_specialize(base, (0,) * f,
                                               {**lifts, (i0, 0): tw.witt_zero()})
                    check(not inv.newton_point(M2, "fast").is_ordinary,
                          e=e, f=f, tau=list(tau), kind="should not be ordinary")


@criterion(8, "deform", "generic fibers over a spaced stratum sit on s(|a|)",
           "random unit specializations over a spaced target "
           "a-type give Newton index |a| in at least 99% of trials")
def criterion_spaced_density(check, seed, scale):
    rng = random.Random(seed)
    trials = _scaled(100, scale)
    for e in (1, 2):
        for f in (2, 3, 4):
            g = e * f
            tw = tower(3, f, e, ext=4)
            for a in product(range(e + 1), repeat=f):
                if not any(a) or not strata.is_spaced(a):
                    continue
                tau = tuple(i for i in range(f) if a[i])
                expected = min(Fraction(g, 2), Fraction(sum(a)))
                hist = fam.sample_deform(tw, tau, a, trials, rng)["slope_histogram"]
                hits = hist.get(str(expected), 0)
                check(hits >= math.ceil(0.99 * trials),
                      e=e, f=f, a=list(a), hits=hits, trials=trials)


# --------------------------------------------------------------------------
# criterion 9: the Hecke probe
# --------------------------------------------------------------------------

@criterion(9, "hecke", "stable-plane enumeration matches the closed-form chart",
           "raw enumeration count 1 + (p+1)(q-1), all chart "
           "equations hold, p+1 lines through the origin, and the "
           "extra variety points sit on t1 = t2 = 0")
def criterion_hecke(check, seed, scale):
    from . import hecke as hk  # numpy loads with the probe only
    counts = {}
    for p in (3, 5):
        rep = hk.probe_report(p, 1, full_grassmannian=(p == 3))
        counts[p] = rep["enumerated"]
        check(rep["count_matches"] and rep["all_chart_equations_hold"]
              and rep["displayed_polynomials_hold"]
              and rep["lines_through_origin"] == rep["expected_lines"]
              and rep["parametrization_matches"]
              and rep["extra_points_on_t1_t2_zero"]
              and rep["variety_point_count"] == rep["q"] + (p + 1) * (rep["q"] - 1),
              **{k: v for k, v in rep.items() if k != "extra_variety_points"})
    return {"counts": counts}


# --------------------------------------------------------------------------
# criterion 10: the non-Rapoport superspecial point
# --------------------------------------------------------------------------

@criterion(10, "slopes", "pi-swap module: superspecial but not Rapoport",
           "F X = pi Y, F Y = pi X at e = 2: Lie type {1,1}, "
           "a-type {1,1}, supersingular, superspecial, pairing present")
def criterion_nonrapoport(check, seed, scale):
    M = fam.nonrapoport_module(tower(5, 1, 2, ext=2, slack=4))
    flags = inv.classify(M)
    L = inv.lie_type(M)
    a = inv.a_type(M)
    expected_flags = {"rapoport": False, "dp": True, "ordinary": False,
                      "supersingular": True, "superspecial": True}
    check(flags == expected_flags and L.pairs == ((1, 1),) and a.pairs == ((1, 1),)
          and M.delta is not None,
          flags=flags, lie=L.pairs, a=a.pairs)


# --------------------------------------------------------------------------
# criterion 11: the formula suite
# --------------------------------------------------------------------------

def _random_lie_type(rng):
    """(e, f, pairs): f sorted exponent pairs in [0, e] with budget e*f."""
    e = rng.randrange(1, 4)
    f = rng.randrange(1, 5)
    while True:
        pairs = [tuple(sorted((rng.randrange(e + 1), rng.randrange(e + 1))))
                 for _ in range(f)]
        if sum(x + y for x, y in pairs) == e * f:
            return e, f, pairs


@criterion(11, "strata", "dimension, degree, table and duality formulas",
           "stratum dimensions, deformation dimensions, polarization "
           "degree exponents, Newton codimensions, superspecial "
           "tables, and duality formulas against constructed duals")
def criterion_formulas(check, seed, scale):
    rng = random.Random(seed)

    # stratum dimensions across small posets
    for e, f in ((1, 4), (2, 2), (3, 2), (2, 3)):
        P = strata.atype_poset(e, f)
        g = e * f
        for a, r in P.records.items():
            check(r.dim == g - sum(a), label="stratum dimension", a=list(a))
            check(r.lam == strata.spaced_bound_exhaustive(a),
                  label="lambda by down-set scan", a=list(a))
            check(r.lam <= sum(a), label="lambda below the total", a=list(a))
            check((r.generic_slope_exact is not None) == r.spaced,
                  label="exact generic slope exactly on spaced types", a=list(a))
        for a, b in P.cover_edges():
            ra, rb = P.records[a], P.records[b]
            check(ra.dim == rb.dim + 1, label="cover edges drop dimension by one")
            check(ra.lam <= rb.lam, label="lambda monotone")
        check(P.records[(0,) * f].dim == g, label="top stratum has dimension g")
        check(P.records[(e,) * f].dim == 0, label="superspecial stratum is 0-dimensional")
        check(len(P.elements) == (e + 1) ** f, label="poset cardinality")

    # Lie-type stratum dimension and deformation dimensions, frozen examples
    check(strata.dp_stratum_dim([(0, 2), (0, 2)], 2, 2) == 4,
          label="split locus dimension g")
    check(strata.dp_stratum_dim([(1, 1)], 2, 1) == 0,
          label="balanced e=2 point is isolated")
    check(strata.dp_stratum_dim([(0, 2), (1, 1)], 2, 2) == 2,
          label="mixed Lie stratum dim")
    d = strata.deformation_dims([(1, 1)], 2, 1)
    check(d["dp"] == 4 and d["polarized"] == 3,
          label="deformation dimensions at e=2 balanced")
    d = strata.deformation_dims([(0, 2), (0, 2)], 2, 2)
    check(d == {"unrestricted": 4, "dp": 4, "polarized": 4, "dp_consistent": True},
          label="deformation dimensions in the split case equal g")
    d = strata.deformation_dims([(0, 1), (0, 1)], 1, 2)
    check(d["polarized"] == 2, label="polarized deformation dimension g at e=1")

    # random Lie types with the exponent budget: polarized = g iff split type
    for _ in range(_scaled(200, scale)):
        e, f, pairs = _random_lie_type(rng)
        d = strata.deformation_dims(pairs, e, f)
        split = all(pr == (0, e) for pr in pairs)
        check((d["polarized"] == e * f) == split,
              label="polarized dimension g characterizes the split locus", pairs=pairs)

    # polarization degree exponent
    check(strata.polarization_degree_exponent([(1, 2), (0, 1)], 2, 2, normalize=False) == 2,
          label="degree exponent, two slots")
    check(strata.polarization_degree_exponent([(1, 1), (0, 1), (0, 0)], 1, 3,
                                              normalize=False) == 4,
          label="degree exponent, three slots")
    for _ in range(_scaled(100, scale)):
        e, f, pairs = _random_lie_type(rng)
        D = strata.polarization_degree_exponent(pairs, e, f, normalize=True)
        check(D >= 0 and D % 2 == 0,
              label="normalized exponent is a nonnegative even integer")
        if all(x + y == e for x, y in pairs):
            check(D == 0, label="balanced Lie types are separably polarizable")

    # Newton stratum codimension
    for g in range(1, 9):
        for m in inv.admissible_indices(g):
            check(strata.newton_stratum_codim(g, m) == -(-m.numerator // m.denominator),
                  label="codimension is the ceiling")
    check(strata.newton_stratum_codim(5, Fraction(5, 2)) == 3, label="half-integer ceiling")

    # superspecial tables
    check(strata.superspecial_types(3, 1) == [((0, 3),), ((1, 2),)], label="table e=3 f=1")
    check(strata.superspecial_types(2, 1) == [((0, 2),), ((1, 1),)], label="table e=2 f=1")
    check(len(strata.superspecial_types(1, 2)) == 2, label="table e=1 f=2 has two classes")
    for e, f in ((1, 2), (2, 2), (2, 4), (3, 2)):
        for pat in strata.superspecial_types(e, f):
            for i in range(f):
                x, y = pat[i]
                nx, ny = pat[(i + 1) % f]
                check({nx, ny} == {e - x, e - y} or (f % 2 == 1 and (nx, ny) == (x, y)),
                      label="alternating rule in the table", pattern=pat)

    # duality formulas against the constructed dual module
    checked_duals = 0
    while checked_duals < _scaled(100, scale):
        e = rng.randrange(1, 4)
        f = rng.randrange(1, 4)
        tw = tower(3, f, e, ext=2, slack=2)
        kind = rng.randrange(3)
        if kind == 0:
            mask = rng.randrange(2 ** f)
            tau = tuple(i for i in range(f) if mask >> i & 1)
            c = {}
            for i in tau:
                w = rng.randrange(0, e + 2)
                unit = _random_unit(tw, rng)
                c[i] = tw.zero() if rng.random() < 0.2 else unit.mul_pi(w)
            M = fam.normal_form(tw, tau, c)
        elif kind == 1:
            M = fam.slope_family(tw, rng.randrange(0, e * f // 2 + 1))
        else:
            if f % 2:
                e1 = rng.randrange(e + 1)
                M = fam.superspecial(tw, e1, e - e1, "general")
            else:
                M = fam.superspecial(tw, variant="rapoport")
        if M.delta is None:
            continue
        L, a_ = inv.lie_type(M), inv.a_type(M)
        Ld, ad = inv.dual_invariants(L, a_)
        D = M.dual()
        check(inv.lie_type(D).pairs == Ld.pairs, label="dual Lie type formula",
              pairs=L.pairs)
        check(inv.a_type(D).pairs == ad.pairs, label="dual a-type formula",
              pairs=a_.pairs)
        DD = D.dual()
        check(inv.lie_type(DD).pairs == L.pairs and inv.a_type(DD).pairs == a_.pairs,
              label="double dual restores the invariants")
        checked_duals += 1

    # a-type bounds on the same random modules
    for _ in range(_scaled(100, scale)):
        e = rng.randrange(1, 4)
        f = rng.randrange(1, 4)
        tw = tower(3, f, e, ext=2, slack=2)
        mask = rng.randrange(2 ** f)
        tau = tuple(i for i in range(f) if mask >> i & 1)
        c = {i: tw.random_ram(rng).mul_pi(rng.randrange(e + 1)) for i in tau}
        M = fam.normal_form(tw, tau, c)
        L, a_ = inv.lie_type(M), inv.a_type(M)
        for (a1, (lo, hi)), (x, y) in zip(inv.a_type_bounds(L), a_.pairs):
            check(x == a1 and lo <= y <= hi, label="a-type lies within the Lie-type bounds",
                  lie=L.pairs, a=a_.pairs)


# --------------------------------------------------------------------------
# criterion 12: the banded determinant identity
# --------------------------------------------------------------------------

@criterion(12, "strata", "banded determinant identity over square-zero entries",
           "det(U + N) = Y_1^n + sum Tr_{k-1}(N) U_{1,k} for n <= 6 "
           "and every block split, on random square-zero evaluations")
def criterion_det_identity(check, seed, scale):
    trials = _scaled(100, scale)
    rng = random.Random(seed)
    for n in range(1, 7):
        for m1 in range(n):  # m1 = 0: no block split
            rep = strata.verify_det_identity(n, m1 or None, trials=trials, rng=rng)
            check(rep["ok"], **rep)


# --------------------------------------------------------------------------
# criterion 13: the arithmetic kernel
# --------------------------------------------------------------------------

@criterion(13, "arith", "arithmetic kernel axioms",
           "ring axioms, Frobenius homomorphism and order, "
           "valuation rules, Teichmuller properties, randomized")
def criterion_arith(check, seed, scale):
    rng = random.Random(seed)
    n_rounds = _scaled(500, scale)
    for tw in (tower(3, 2, 2), tower(3, 1, 3, ext=2), tower(5, 2, 1, ext=2), tower(7, 1, 2)):
        check(tw.pi().ord_pi() == 1, label="pi has valuation 1")
        check(tw.ram(tw.p).ord_pi() == tw.e, label="p has valuation e")
        full = tw.pi_precision
        for _ in range(n_rounds):
            a, b, c = (tw.random_ram(rng) for _ in range(3))
            check((a + b) + c == a + (b + c), label="addition associativity")
            check((a * b) * c == a * (b * c), label="multiplication associativity")
            check(a * (b + c) == a * b + a * c, label="distributivity")
            check(a * b == b * a, label="commutativity")
            n = rng.randrange(-2, 3)
            check(a.sigma(n) * b.sigma(n) == (a * b).sigma(n),
                  label="Frobenius is multiplicative")
            check(a.sigma(n) + b.sigma(n) == (a + b).sigma(n), label="Frobenius is additive")
            check(a.sigma(tw.d) == a, label="Frobenius has order f*ext")
            va, vb = a.ord_lower(), b.ord_lower()
            if a and b and va + vb < full:
                check((a * b).ord_pi() == a.ord_pi() + b.ord_pi(),
                      label="valuation is additive")
            if a + b:
                check((a + b).ord_pi() >= min(va, vb), label="ultrametric inequality")
            x, y = tw.residue_field.random(rng), tw.residue_field.random(rng)
            check(tw.teichmuller(x * y) == tw.teichmuller(x) * tw.teichmuller(y),
                  label="Teichmuller lift is multiplicative")
            check(tw.teichmuller(x).residue() == x,
                  label="Teichmuller lift is a section of reduction")
            w = tw.random_witt(rng)
            check(tw.teichmuller(w.residue().frob()) == tw.teichmuller(w.residue()).sigma(),
                  label="Frobenius matches the residue Frobenius on Teichmuller points")


SUITES["all"] = sum((SUITES[s] for s in ("arith", "slopes", "strata", "deform", "hecke")), ())


def run_criteria(ids, seed=0, scale=1.0, progress=None):
    """Run the criteria `ids` in order; `progress(check, elapsed_s)`, when
    given, is called as each one finishes, with its report and wall time."""
    checks = []
    for i in ids:
        start = time.perf_counter()
        checks.append(CRITERIA[i](seed=seed, scale=scale))
        if progress is not None:
            progress(checks[-1], time.perf_counter() - start)
    return {"seed": seed, "scale": scale,
            "passed": all(c["passed"] for c in checks),
            "checks": checks}
