import json
import random
from collections import Counter
from types import SimpleNamespace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dieumod import (
    DModule, DomainError, PrecisionError, lie_type, a_type, a_index, newton_point, classify,
    a_type_bounds, dual_invariants, admissible_indices,
    invariant_report, LieType, AType, NewtonPoint,
)
from dieumod import families as fam
from dieumod import invariants as inv
from dieumod import modp
from dieumod.modules import mat_sigma
from dieumod.wittring import CoeffTower, RamElem
import atyperef
import chainref
from conftest import mat_mul, random_unit, tower


class TestLieType:
    def test_ordinary(self):
        t = tower(3, 2, 2, ext=2)
        M = fam.ordinary_module(t)
        L = lie_type(M)
        assert L.pairs == ((0, 2), (0, 2)) and L.is_rapoport and L.is_dp

    def test_pi_swap(self):
        t = tower(5, 1, 2, ext=2)
        M = fam.nonrapoport_module(t)
        L = lie_type(M)
        assert L.pairs == ((1, 1),) and not L.is_rapoport and L.is_dp

    def test_superspecial_odd_f_constant(self):
        t = tower(3, 3, 3, ext=2)
        M = fam.superspecial(t, 1, 2, "general")
        assert lie_type(M).pairs == ((1, 2),) * 3
        assert a_type(M).pairs == ((1, 2),) * 3

    def test_total_is_g(self, rng):
        for e, f in ((1, 3), (2, 2), (3, 1)):
            t = tower(3, f, e, ext=2)
            mask = rng.randrange(2 ** f)
            tau = tuple(i for i in range(f) if mask >> i & 1)
            M = fam.normal_form(t, tau, {i: t.random_ram(rng) for i in tau})
            assert lie_type(M).total == e * f


class TestAType:
    def test_ordinary_zero(self):
        t = tower(3, 2, 2, ext=2)
        a = a_type(fam.ordinary_module(t))
        assert a.pairs == ((0, 0), (0, 0)) and a.a_number == 0
        assert a.rapoport_form == (0, 0)

    def test_pi_swap_superspecial(self):
        t = tower(5, 1, 2, ext=2)
        a = a_type(fam.nonrapoport_module(t))
        assert a.pairs == ((1, 1),) and a.a_number == 2
        assert a.rapoport_form is None

    @pytest.mark.parametrize("w", [1, 2])
    def test_normal_form_value(self, w):
        # slot value is min(e, valuation of coefficient * pi)
        t = tower(3, 1, 3, ext=2)
        M = fam.normal_form(t, (0,), {0: t.pi_pow(w - 1)})
        a = a_type(M)
        assert a.rapoport_form == (min(3, w),)
        assert a.a_number == min(3, w)

    def test_brute_force_dimensions(self, rng):
        # independent route at f = 1, ext = 1 (k = F_p, everything linear):
        # build F and V as 2e x 2e matrices over F_p on the basis
        # pi^j X, pi^j Y of M/pM and compare ranks with the divisor data
        p, e = 3, 2
        t = tower(p, 1, e)
        for _ in range(12):
            w = rng.randrange(0, e + 2)
            c = t.random_ram(rng) * t.pi_pow(w) if rng.random() < .8 else t.zero()
            M = fam.normal_form(t, (0,), {0: c})
            fbar = M.fbar_matrix(0)
            vbar = M.vbar_matrix(0)

            def as_linear(mat2):
                # m/pM has basis X, piX, ..., pi^(e-1)X, Y, ..., pi^(e-1)Y
                rows = []
                for blk, src in ((0, 0), (1, 1)):
                    for j in range(e):
                        row = [0] * (2 * e)
                        for tgt in range(2):
                            poly = mat2[src][tgt]
                            for k, coeff in enumerate(poly.coeffs):
                                if j + k < e and coeff:
                                    row[tgt * e + j + k] = coeff.coeffs[0]
                        rows.append(row)
                return rows

            def rank(rows):
                rows = [r[:] for r in rows if any(r)]
                rk, col = 0, 0
                while rows and col < 2 * e:
                    piv = next((i for i, r in enumerate(rows) if r[col] % p), None)
                    if piv is None:
                        col += 1
                        continue
                    r0 = rows.pop(piv)
                    inv = pow(r0[col], -1, p)
                    r0 = [x * inv % p for x in r0]
                    rows = [[(x - r[col] * y) % p for x, y in zip(r, r0)] for r in rows]
                    rk += 1
                    col += 1
                return rk

            lie_dim = 2 * e - rank(as_linear(vbar))
            a_dim = 2 * e - rank(as_linear(fbar) + as_linear(vbar))
            L, a = lie_type(M), a_type(M)
            assert sum(L.pairs[0]) == lie_dim
            assert a.a_number == a_dim


class TestAIndex:
    def test_ordinary(self):
        t = tower(3, 2, 2, ext=2)
        assert a_index(fam.ordinary_module(t)) == ((), 0, 0)

    def test_two_marked_slots(self):
        t = tower(3, 4, 1, ext=2)
        M = fam.normal_form(t, (0, 2), {0: t.zero(), 2: t.zero()})
        tau, tcount, reduced = a_index(M)
        assert tau == (0, 2) and tcount == 2 and reduced == 2

    def test_refused_off_rapoport(self):
        t = tower(5, 1, 2, ext=2)
        with pytest.raises(DomainError, match="Rapoport"):
            a_index(fam.nonrapoport_module(t))


class TestNewton:
    def test_admissible_indices(self):
        assert admissible_indices(4) == [0, 1, 2]
        assert admissible_indices(5) == [0, 1, 2, Fraction(5, 2)]
        assert admissible_indices(1) == [0, Fraction(1, 2)]

    def test_sequence_symmetry(self):
        for g in (2, 3, 5, 6):
            for i in admissible_indices(g):
                seq = NewtonPoint(g, i).sequence
                assert len(seq) == 2 * g
                assert sorted(1 - s for s in seq) == sorted(seq)

    def test_fast_oracle_agree_across_families(self, rng):
        t = tower(3, 2, 2, ext=2, slack=20)
        mods = [
            fam.ordinary_module(t),
            fam.normal_form(t, (0,), {0: t.pi()}),
            fam.normal_form(t, (0, 1), {0: t.zero(), 1: t.random_ram(rng)}),
            fam.superspecial(t, variant="rapoport"),
            fam.slope_family(t, 1),
        ]
        for M in mods:
            assert newton_point(M, "fast").index == newton_point(M, "oracle").index

    def test_budget_required(self):
        t = tower(3, 1, 2, slack=2)
        M = DModule(t, [[[t.pi_pow(2), t.zero()], [t.zero(), t.pi_pow(2)]]],
                    None, "general")
        with pytest.raises(DomainError, match="budget"):
            newton_point(M)


class TestIntegerNewtonArithmetic:
    """The Newton point's flags and JSON run on the index's numerator and
    denominator; they must equal their Fraction definitions everywhere."""

    def test_every_index_matches_the_fraction_definitions(self):
        for g in range(1, 17):
            for index in admissible_indices(g):
                P = NewtonPoint(g, index)
                lam = index / g
                assert P.sequence == (lam,) * g + (1 - lam,) * g
                data = P.to_json()
                assert data == {
                    "index_num": index.numerator,
                    "index_den": index.denominator,
                    "sequence": [[s.numerator, s.denominator] for s in P.sequence],
                }
                assert len({id(pair) for pair in data["sequence"]}) == 2 * g
                assert P.is_ordinary == (index == 0)
                assert P.is_supersingular == (2 * index == g)

    def test_int_index_is_kept_as_a_fraction(self):
        P = NewtonPoint(4, 1)
        assert type(P.index) is Fraction
        assert P.sequence[0] == Fraction(1, 4)
        assert all(type(s) is Fraction for s in P.sequence)
        Q = NewtonPoint(4, Fraction(1))
        assert P == Q and P.to_json() == Q.to_json() and repr(P) == "s(1)"

    @pytest.mark.parametrize("index", [0.5, 1.0, "1", True, None])
    def test_other_index_types_are_refused(self, index):
        with pytest.raises(DomainError) as exc:
            NewtonPoint(4, index)
        assert exc.value.code == "bad-slope"

    def test_a_number_is_the_pair_sum_and_not_a_field(self):
        # not a field: no constructor argument, and outside equality, the
        # hash, the repr and the pickled form
        with pytest.raises(TypeError):
            AType(3, ((0, 1),), 1)
        for pairs in (((0, 0),), ((0, 1), (1, 2)), ((2, 3), (0, 0), (1, 1))):
            a, b = AType(3, pairs), AType(3, pairs)
            assert a.a_number == sum(x + y for x, y in pairs)
            assert a == b and hash(a) == hash(b) == hash((3, pairs))
            assert repr(a) == f"AType(e=3, pairs={pairs!r})"
            assert a.__reduce__() == (AType, (3, pairs))
            assert a.to_json()["a_number"] == a.a_number

    def test_inconsistent_refusals_keep_their_messages(self):
        L = LieType(1, ((0, 1), (0, 1)))
        with pytest.raises(DomainError) as exc:
            inv._flags(SimpleNamespace(g=2), L, AType(1, ((0, 1), (0, 0))),
                       NewtonPoint(2, Fraction(0)))
        assert exc.value.code == "inconsistent"
        assert str(exc.value) == ("a-number 1 with Newton point s(0): "
                                  "a-number 0 iff ordinary fails")
        assert exc.value.info == {"a_number": 1, "newton": {
            "index_num": 0, "index_den": 1, "sequence": [[0, 1]] * 2 + [[1, 1]] * 2}}
        with pytest.raises(DomainError) as exc:
            inv._flags(SimpleNamespace(g=4), L, AType(1, ((1, 1), (1, 1))),
                       NewtonPoint(4, Fraction(1)))
        assert exc.value.code == "inconsistent"
        assert str(exc.value) == ("a-number g = 4 with Newton point s(1): "
                                  "superspecial implies supersingular fails")
        assert exc.value.info == {"a_number": 4, "newton": {
            "index_num": 1, "index_den": 1, "sequence": [[1, 4]] * 4 + [[3, 4]] * 4}}


class TestClassify:
    def test_ordinary_flags(self):
        t = tower(3, 2, 2, ext=2)
        flags = classify(fam.ordinary_module(t))
        assert flags == {"rapoport": True, "dp": True, "ordinary": True,
                         "supersingular": False, "superspecial": False}

    def test_pi_swap_flags(self):
        t = tower(5, 1, 2, ext=2)
        flags = classify(fam.nonrapoport_module(t))
        assert flags == {"rapoport": False, "dp": True, "ordinary": False,
                         "supersingular": True, "superspecial": True}

    def test_superspecial_builder_flags(self):
        t = tower(3, 3, 2, ext=2)
        flags = classify(fam.superspecial(t, variant="rapoport"))
        assert flags["rapoport"] and flags["dp"]
        assert flags["supersingular"] and flags["superspecial"]

    def test_consistency_invariants(self, rng):
        t = tower(3, 3, 1, ext=2)
        for _ in range(25):
            mask = rng.randrange(8)
            tau = tuple(i for i in range(3) if mask >> i & 1)
            M = fam.normal_form(t, tau, {i: t.random_ram(rng) for i in tau})
            flags = classify(M)
            a = a_type(M)
            if flags["superspecial"]:
                assert flags["supersingular"]
            if flags["ordinary"]:
                assert a.a_number == 0
            if flags["rapoport"]:
                assert flags["dp"]


class TestBoundsAndDuality:
    def test_bounds_rapoport(self):
        L = LieType(2, ((0, 2), (0, 2)))
        assert a_type_bounds(L) == [(0, (0, 2)), (0, (0, 2))]

    def test_bounds_worked_example(self):
        L = LieType(3, ((1, 2),))
        assert a_type_bounds(L) == [(1, (1, 2))]

    def test_bounds_contain_superspecial_odd_f(self):
        # the superspecial value {e1, e2} has forced first component e1 and
        # sits inside [min(e1, e2), e2]; the Lie type alone cannot pin a2
        L = LieType(3, ((1, 2), (1, 2), (1, 2)))
        for a1, (lo, hi) in a_type_bounds(L):
            assert a1 == 1 and lo <= 2 <= hi

    def test_atype_within_bounds(self, rng):
        for e, f in ((2, 2), (3, 1), (1, 4)):
            t = tower(3, f, e, ext=2)
            for _ in range(10):
                mask = rng.randrange(2 ** f)
                tau = tuple(i for i in range(f) if mask >> i & 1)
                M = fam.normal_form(t, tau, {i: t.random_ram(rng) for i in tau})
                L, a = lie_type(M), a_type(M)
                for (a1, (lo, hi)), (x, y) in zip(a_type_bounds(L), a.pairs):
                    assert x == a1 and lo <= y <= hi

    def test_dual_invariants_pi_swap(self):
        L, a = LieType(2, ((1, 1),)), AType(2, ((1, 1),))
        Ld, ad = dual_invariants(L, a)
        assert Ld.pairs == ((1, 1),) and ad.pairs == ((1, 1),)

    def test_dual_invariants_ordinary(self):
        L, a = LieType(2, ((0, 2),)), AType(2, ((0, 0),))
        Ld, ad = dual_invariants(L, a)
        assert Ld.pairs == ((0, 2),) and ad.pairs == ((0, 0),)

    def test_dual_invariants_superspecial_e3(self):
        L, a = LieType(3, ((1, 2),)), AType(3, ((1, 2),))
        Ld, ad = dual_invariants(L, a)
        assert Ld.pairs == ((1, 2),) and ad.pairs == ((1, 2),)


def test_invariant_report_shape():
    t = tower(3, 2, 1, ext=2)
    M = fam.normal_form(t, (0,), {0: t.zero()})
    rep = invariant_report(M)
    assert rep["a_index"] == [0]
    assert rep["reduced_a_number"] == 1
    assert rep["newton"]["index_num"] == 1
    assert rep["flags"]["supersingular"]


def _single_pass_cases(rng):
    cases = [fam.nonrapoport_module(tower(5, 1, 2, ext=2))]
    for f, e in ((1, 2), (2, 2), (3, 1), (4, 1)):
        t = tower(3, f, e, ext=2)
        cases.append(fam.normal_form(t, (0,), {0: t.random_ram(rng)}))
        cases.append(fam.ordinary_module(t))
    return cases


def test_invariant_report_reduces_once(monkeypatch, rng):
    # a report reads the mod-p invariants off valuations: no reduction mod p,
    # no Smith form or rank, no pi-division, at most 8 ramified products per
    # slot (the mixed minors of the a-type) and one Newton point; every field
    # equals the invariant computed on its own
    calls = Counter()
    newton_depth = [0]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if not newton_depth[0]:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def newton(*args, **kwargs):
        calls["newton"] += 1
        newton_depth[0] += 1
        try:
            return newton_point(*args, **kwargs)
        finally:
            newton_depth[0] -= 1

    for owner, name in ((DModule, "vbar_matrix"), (DModule, "fbar_matrix"),
                        (modp, "smith_exponents"), (modp, "mat_rank_over_field"),
                        (RamElem, "div_pi"), (RamElem, "__mul__")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    monkeypatch.setattr(inv, "newton_point", newton)
    assert not [v for v in vars(inv).values() if getattr(v, "__module__", "") == modp.__name__]
    for M in _single_pass_cases(rng):
        calls.clear()
        rep = invariant_report(M)
        assert set(calls) <= {"__mul__", "newton"} and calls["newton"] == 1
        assert calls["__mul__"] <= 8 * M.f
        calls.clear()
        L = lie_type(M)
        assert not calls
        a = a_type(M)
        assert set(calls) <= {"__mul__"} and calls["__mul__"] <= 8 * M.f
        assert rep["lie_type"] == L.to_json()
        assert rep["a_type"] == a.to_json()["pairs"] and rep["a_number"] == a.a_number
        assert rep["flags"] == classify(M)
        if L.is_rapoport:
            tau, _, reduced = a_index(M)
            assert rep["a_index"] == list(tau) and rep["reduced_a_number"] == reduced
        else:
            assert rep["a_index"] is None and rep["reduced_a_number"] is None


# -- the read-off against the chain-ring route ---------------------------------
#
# The chain-ring route reduces Fbar and Vbar mod p and takes Smith exponents
# over k[pi]/(pi^e) and ranks over the residue field.  It is independent of
# the valuation read-off in invariants.py and stays as the reference.

def chain_ring_invariants(M):
    """(Lie pairs, a-type pairs, reduced a-number) by Smith reduction mod p."""
    e, f = M.e, M.f
    vbar = [M.vbar_matrix((i + 1) % f) for i in range(f)]
    rows = [M.fbar_matrix(i) + v for i, v in enumerate(vbar)]
    lie = tuple(tuple(modp.smith_exponents(r, e)) for r in vbar)
    at = tuple(tuple(modp.smith_exponents(r, e)) for r in rows)
    reduced = sum(2 - modp.mat_rank_over_field([[x.constant() for x in row] for row in r])
                  for r in rows)
    return lie, at, reduced


def read_off_invariants(M):
    L, a = lie_type(M), a_type(M)
    reduced = a_index(M)[2] if L.is_rapoport else sum((x > 0) + (y > 0) for x, y in a.pairs)
    return L.pairs, a.pairs, reduced


def answer(route, M):
    try:
        return route(M)
    except PrecisionError:
        return None


# towers at the precision-policy minimum, so that duals carry truncated entries
READ_OFF_SHAPES = [(p, f, e, ext) for p in (2, 3, 5) for e in (1, 2, 3, 4)
                   for f in (1, 2, 3) for ext in (1, 2) if e * f <= 6]
KINDS = ("normal", "slope", "superspecial", "superspecial-general", "random")


def family_module(t, kind, rng):
    e, f, g = t.e, t.f, t.g
    if kind == "normal":
        tau = tuple(i for i in range(f) if rng.random() < .5)
        return fam.normal_form(t, tau, {i: t.random_ram(rng) * t.pi_pow(rng.randrange(e + 1))
                                        for i in tau})
    if kind == "slope":
        return fam.slope_family(t, rng.randrange(g // 2 + 1))
    if kind == "superspecial":
        return fam.superspecial(t, variant="rapoport")
    if kind == "superspecial-general":
        e1 = rng.randrange(e + 1)
        return fam.superspecial(t, e1, e - e1 if f % 2 else rng.randrange(e + 1), "general")
    # a general-mode module with unrelated slot valuations
    while True:
        mats = [[[t.random_ram(rng) * t.pi_pow(rng.randrange(e + 1)) for _ in range(2)]
                 for _ in range(2)] for _ in range(f)]
        try:
            return DModule(t, mats, None, "general")
        except (DomainError, PrecisionError):
            continue


def base_change(M, rng):
    """The same module in the basis P_i of each slot, P_i = upper * lower
    unitriangular * unit diagonal: A'[i] = sigma(P_(i-1)) A[i] P_i^(-1)."""
    t, f = M.tower, M.f
    Ps, Pinvs = [], []
    for _ in range(f):
        u, l = t.random_ram(rng), t.random_ram(rng)
        d1, d2 = random_unit(t, rng), random_unit(t, rng)
        U, L, D = ((t.one(), u), (t.zero(), t.one())), ((t.one(), t.zero()), (l, t.one())), \
            ((d1, t.zero()), (t.zero(), d2))
        Ps.append(mat_mul(mat_mul(U, L), D))
        Dinv = ((d1.inverse(), t.zero()), (t.zero(), d2.inverse()))
        Pinvs.append(mat_mul(mat_mul(Dinv, ((t.one(), t.zero()), (-l, t.one()))),
                             ((t.one(), -u), (t.zero(), t.one()))))
    mats = [mat_mul(mat_mul(mat_sigma(Ps[(i - 1) % f], 1), M.matrices[i]), Pinvs[i])
            for i in range(f)]
    return DModule(t, mats, None, M.mode)


def is_exact(M):
    return all(x.prec == M.tower.pi_precision for A in M.matrices for row in A for x in row)


def base_changed(M, rng):
    """base_change(M, rng), or None when M has truncated entries (a dual)
    and the changed presentation's determinant is no longer certified: the
    outcome of building it, PrecisionError included."""
    try:
        return base_change(M, rng)
    except PrecisionError:
        assert not is_exact(M)
        return None


@st.composite
def modules(draw):
    """(module, seeded rng): a family or general-mode module, possibly its
    dual (truncated precision at the policy minimum)."""
    t = tower(*draw(st.sampled_from(READ_OFF_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    M = family_module(t, draw(st.sampled_from(KINDS)), rng)
    if draw(st.booleans()):
        try:
            M = M.dual()
        except (DomainError, PrecisionError):
            pass  # non-unit pairing scalars: keep M
    return M, rng


class TestReadOffReference:
    @settings(max_examples=300, deadline=None)
    @given(modules())
    def test_matches_chain_ring_route(self, case):
        M, rng = case
        B = base_changed(M, rng)  # another presentation of the same module
        exact = is_exact(M)
        got = read_off_invariants(M) if exact else answer(read_off_invariants, M)
        for X in (M, B):
            ref = None if X is None else answer(chain_ring_invariants, X)
            assert ref is None or ref == got
        if B is not None:
            got_b = read_off_invariants(B) if exact else answer(read_off_invariants, B)
            assert got_b is None or got is None or got_b == got


def truncated(M, rng, low=False, delta=False):
    """M with random entries known only to a random number of pi-adic digits
    (at most e + 1 if `low`), with its pairing scalars truncated alike if
    `delta` and dropped otherwise, or None when that presentation no longer
    validates."""
    t = M.tower
    top = t.e + 1 if low else t.pi_precision

    def cut(x):
        return RamElem(t, x.coeffs, rng.randrange(1, top + 1)) if rng.random() < .5 else x

    mats = [[[cut(x) for x in row] for row in A] for A in M.matrices]
    scalars = [cut(d) for d in M.delta] if delta and M.delta is not None else None
    try:
        return DModule(t, mats, scalars, M.mode)
    except (DomainError, PrecisionError):
        return None


class TestReadOffPrecision:
    def test_uncertified_mixed_minor_raises(self):
        # normal form at the policy minimum (e*N = 4) whose entry c*pi is
        # known only mod pi: the mixed minor sigma(c*pi) has cap 2 but is
        # certified only >= 1, and the a-type is (0, 1) or (0, 2) depending
        # on the lost digit
        t = tower(3, 1, 2)
        assert t.pi_precision == 4
        M = fam.normal_form(t, (0,), {0: t.zero()})
        (x, one), (pe, z) = M.matrices[0]
        T = DModule(t, [[[RamElem(t, x.coeffs, 1), one], [pe, z]]])
        assert lie_type(T).pairs == ((0, 2),)
        with pytest.raises(PrecisionError) as exc:
            a_type(T)
        assert exc.value.lower_bound == 1 and exc.value.bound_kind == "valuation"
        with pytest.raises(PrecisionError):
            chain_ring_invariants(T)
        # one more certified digit reaches the cap: a-type (0, 2)
        T2 = DModule(t, [[[RamElem(t, x.coeffs, 2), one], [pe, z]]])
        assert a_type(T2).pairs == ((0, 2),) == chain_ring_invariants(T2)[1]

    def test_uncertified_entry_minimum_raises(self):
        # A[0] = [[a, pi^2], [pi^2, 0]] with a known only mod pi: det -pi^4 is
        # certified, but the minimum entry valuation is 1 or 2 with the lost
        # digit, and so is the Lie pair (0, 2) or (1, 1)
        t = tower(3, 1, 3)
        pi2, z = t.pi_pow(2), t.zero()
        T = DModule(t, [[[RamElem(t, z.coeffs, 1), pi2], [pi2, z]]], None, "general")
        assert T.det_orders == [4] and T.entry_orders == [None]
        with pytest.raises(PrecisionError) as exc:
            lie_type(T)
        assert exc.value.lower_bound == 1 and exc.value.bound_kind == "valuation"
        with pytest.raises(PrecisionError):
            chain_ring_invariants(T)

    @settings(max_examples=150, deadline=None)
    @given(modules())
    def test_answers_where_chain_ring_answers(self, case):
        M, rng = case
        T = truncated(M, rng)
        if T is None:
            return
        got = answer(read_off_invariants, T)
        ref = answer(chain_ring_invariants, T)
        if ref is not None:
            assert got == ref
        if got is not None:
            # certified: the untruncated module is one completion of T
            assert got == read_off_invariants(M)


def entries(M):
    return [x for A in M.matrices for row in A for x in row] + list(M.delta or ())


def report_or_bound(M):
    try:
        return invariant_report(M)
    except PrecisionError as exc:
        return "precision", exc.lower_bound


class TestRoundTrips:
    # property versions of tests/test_modules.py's TestSerialization and
    # test_double_dual_invariants
    @settings(max_examples=200, deadline=None)
    @given(modules(), st.booleans())
    def test_json_round_trip(self, case, truncate):
        # full-precision presentations, duals at the policy minimum, and
        # presentations with truncated matrix and pairing entries
        M, rng = case
        if truncate:
            M = truncated(M, rng, delta=True) or M
        for data in (M.to_json(), json.loads(M.dumps())):
            R = DModule.from_json(data)
            assert R.dumps() == M.dumps()
            assert [x.prec for x in entries(R)] == [x.prec for x in entries(M)]
            assert report_or_bound(R) == report_or_bound(M)

    @settings(max_examples=100, deadline=None)
    @given(modules())
    def test_double_dual_keeps_invariants(self, case):
        M, _ = case

        def invariants(X):
            return (lie_type(X).pairs, a_type(X).pairs,
                    newton_point(X) if X.det_sum == X.g else None)

        try:
            want = invariants(M)
            D = M.dual().dual()
        except DomainError as exc:
            # no dual pairing without unit pairing scalars
            assert exc.code == "non-unit"
            return
        except PrecisionError:
            # among others, a dual det of valuation 2e - v >= eN, a zero of
            # O/pi^(eN) (see `RamElem.ord_pi`)
            return
        got = answer(invariants, D)
        assert got is None or got == want


# -- the a-type's valuation route against the product route --------------------
#
# `atyperef._a_pair` forms every mixed minor in the ring; `invariants._a_pair`
# reads it off entry valuations and multiplies only on a tie.  Both must give
# the same pair, or raise PrecisionError with the same bound.

ATYPE_SHAPES = [(p, f, e, ext) for p in (2, 3, 5) for e in (1, 2, 3)
                for f in (1, 2, 3, 4) for ext in (1, 2) if p ** (f * ext) < 2 ** 20]


def _sparse_entry(t, rng):
    """Zero, a pi-power, or a unit or random element times a pi-power."""
    k = rng.randrange(t.e + 2)
    kind = rng.randrange(4)
    if kind == 0:
        return t.zero()
    if kind == 1:
        return t.pi_pow(k)
    return (random_unit(t, rng) if kind == 2 else t.random_ram(rng)) * t.pi_pow(k)


def sparse_module(t, rng):
    """A general-mode module, half of whose entries are zeros or pi-powers."""
    while True:
        mats = [[[_sparse_entry(t, rng) for _ in range(2)] for _ in range(2)]
                for _ in range(t.f)]
        try:
            return DModule(t, mats, None, "general")
        except (DomainError, PrecisionError):
            continue


def slot_answers(route, M):
    out = []
    for i in range(M.f):
        try:
            out.append(route(M, i))
        except PrecisionError as exc:
            out.append(("precision", exc.lower_bound))
    return out


@st.composite
def atype_modules(draw):
    """A family, sparse or random module on a small tower, possibly in
    another basis, possibly dual, possibly with truncated entries."""
    t = tower(*draw(st.sampled_from(ATYPE_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(KINDS + ("sparse", "sparse")))
    M = sparse_module(t, rng) if kind == "sparse" else family_module(t, kind, rng)
    if draw(st.booleans()):
        M = base_change(M, rng)
    if draw(st.booleans()):
        try:
            M = M.dual()
        except (DomainError, PrecisionError):
            pass
    if draw(st.booleans()):
        M = truncated(M, rng, low=draw(st.booleans())) or M
    return M


class TestATypeRoutes:
    @settings(max_examples=400, deadline=None)
    @given(atype_modules())
    def test_valuation_route_matches_product_route(self, M):
        assert slot_answers(inv._a_pair, M) == slot_answers(atyperef._a_pair, M)

    @pytest.mark.parametrize("e", [2, 3])
    def test_truncated_zero_products(self, e):
        # A[0] = [[c, 1], [pi^e, z]] with c = z = 0 known to pa and pb digits:
        # the mixed minor sigma(c) c + pi^e is certified only >= min(e, 2 pa),
        # the precision of a product of two uncertified zeros
        t = tower(3, 1, e)
        zero = t.zero().coeffs
        seen = set()
        for pa in range(1, t.pi_precision + 1):
            for pb in range(1, t.pi_precision + 1):
                mats = [[[RamElem(t, zero, pa), t.one()],
                         [t.pi_pow(e), RamElem(t, zero, pb)]]]
                try:
                    M = DModule(t, mats, None, "general")
                except (DomainError, PrecisionError):
                    continue
                want = slot_answers(atyperef._a_pair, M)
                assert slot_answers(inv._a_pair, M) == want
                seen.add(want[0][0])
        assert seen == {0, "precision"}

    def test_products_only_on_ties(self, rng, monkeypatch):
        # the families decide every mixed minor from valuations; normal forms
        # and base changes may multiply, by one `pair_sum` of the packed
        # forms, but only the two terms of a tie below precision
        families, normal_forms = [], []
        for p, f, e, ext in ((3, 1, 1, 2), (3, 2, 2, 2), (3, 3, 2, 2), (3, 4, 1, 2),
                             (5, 2, 4, 2), (2, 3, 1, 1), (5, 1, 2, 1)):
            t = tower(p, f, e, ext)
            families.append(fam.superspecial(t, variant="rapoport"))
            families += [fam.superspecial(t, e1, e - e1, "general") for e1 in range(e + 1)]
            families += [fam.slope_family(t, a) for a in range(t.g // 2 + 1)
                         if 2 * (a // e) + 1 <= f or (2 * (a // e) == f and a % e == 0)]
            for n in range(8):
                tau = tuple(i for i in range(f) if n >> i & 1)
                normal_forms.append(fam.normal_form(
                    t, tau, {i: t.random_ram(rng) * t.pi_pow(n % (e + 1)) for i in tau}))
        normal_forms += [base_change(M, rng) for M in normal_forms]
        sums = []
        pair_sum = CoeffTower.pair_sum

        def counting(t, P, Q, pairs, *signs):
            out = pair_sum(t, P, Q, pairs, *signs)
            # the valuation of each product's stored terms, and the sum's precision
            sums.append(([P.ords[i] + Q.ords[j] for i, j in pairs], out[1]))
            return out

        monkeypatch.setattr(CoeffTower, "pair_sum", counting)
        for M in families:
            a_type(M)
            assert not sums, M
        ties = 0
        for M in normal_forms:
            sums.clear()
            a_type(M)
            for (v1, v2), prec in sums:
                assert v1 == v2 < prec
            ties += len(sums)
        assert ties


class TestStoredValuations:
    """`DModule.__init__` keeps each entry's `_repr_ord` in the `ords` of
    its packed form, and the a-type reads it there."""

    @settings(max_examples=150, deadline=None)
    @given(modules())
    def test_match_the_entries(self, case):
        M, rng = case
        presentations = [M, base_changed(M, rng), truncated(M, rng),
                         truncated(M, rng, low=True, delta=True)]
        try:
            presentations.append(M.dual())
        except (DomainError, PrecisionError):
            pass  # non-unit pairing scalars
        presentations += [DModule.from_json(json.loads(X.dumps()))
                          for X in presentations if X is not None]
        for X in presentations:
            if X is None:
                continue
            assert len(X.packed_matrices) == X.f
            for A, P in zip(X.matrices, X.packed_matrices):
                assert P.ords == tuple(x._repr_ord() for row in A for x in row)

    def test_reports_read_no_entry_valuation(self, rng, monkeypatch):
        # a_type and invariant_report take no valuation of an entry; a
        # family's a-type takes none at all (the Newton trace and the
        # minors of ties are new elements, not entries)
        modules = []
        for p, f, e, ext in ((3, 1, 1, 2), (3, 2, 2, 2), (3, 3, 2, 2), (3, 4, 1, 2),
                             (5, 2, 4, 2), (2, 3, 1, 1), (5, 1, 2, 1)):
            t = tower(p, f, e, ext)
            for kind in KINDS:
                M = family_module(t, kind, rng)
                modules += [(kind, M), ("base-changed", base_change(M, rng))]
        seen = []
        repr_ord = RamElem._repr_ord

        def counting(x):
            seen.append(x)
            return repr_ord(x)

        monkeypatch.setattr(RamElem, "_repr_ord", counting)
        for kind, M in modules:
            entries = {id(x) for A in M.matrices for row in A for x in row}
            seen.clear()
            answer(a_type, M)
            if kind in ("slope", "superspecial", "superspecial-general"):
                assert not seen, M
            try:
                answer(invariant_report, M)
            except DomainError as exc:
                # the fast Newton trace is not a base-change invariant when
                # ext > 1, and `_flags` refuses a report whose Newton point
                # contradicts its a-number; the reads before it still count
                assert exc.code == "inconsistent" and kind == "base-changed", M
            assert not [x for x in seen if id(x) in entries], M


# -- the packed twisted-power chain against the RamElem chain ------------------
#
# `chainref` holds the chain as it was before it ran packed: every link an
# entrywise RamElem product, m_n read with `ord_lower`, the trace B00 + B11.
# At ext = 3 sigma^(f n) is the identity for no n, so every doubling twists.

CHAIN_SHAPES = [(p, f, e, ext) for p in (2, 3, 5) for e in (1, 2, 3) for f in (1, 2, 3, 4)
                for ext in (1, 2, 3, 4) if p ** (f * ext) < 2 ** 24]


@st.composite
def chain_modules(draw):
    """A family, sparse or random module at the policy precision or with
    room for a few doublings, possibly in another basis, possibly with
    truncated entries."""
    t = tower(*draw(st.sampled_from(CHAIN_SHAPES)), slack=draw(st.sampled_from((0, 4))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(KINDS + ("sparse", "sparse")))
    M = sparse_module(t, rng) if kind == "sparse" else family_module(t, kind, rng)
    if draw(st.booleans()):
        M = base_change(M, rng)
    if draw(st.booleans()):
        M = truncated(M, rng, low=draw(st.booleans())) or M
    return M


def steps_or_bound(steps):
    """The (n, m_n) a doubling chain yields, then its PrecisionError bound."""
    out = []
    try:
        for step in steps:
            out.append(step)
    except PrecisionError as exc:
        out.append(("precision", exc.lower_bound))
    return out


def value_or_bound(route, *args):
    try:
        return route(*args)
    except PrecisionError as exc:
        return ("precision", exc.lower_bound)


def rotated(M, b):
    """M with its slots renumbered i -> i - b: slot 0 of the result is slot
    b of M, so its F^f on slot 0 is that of M on slot b."""
    f = M.f
    delta = None if M.delta is None else [M.delta[(i + b) % f] for i in range(f)]
    return DModule(M.tower, [M.matrices[(i + b) % f] for i in range(f)], delta, M.mode)


class TestChainRoutes:
    @settings(max_examples=300, deadline=None)
    @given(chain_modules())
    def test_packed_chain_matches_ramelem_chain(self, M):
        for b in range(M.f):
            # the packed chain reads slot 0, so slot b is slot 0 of a
            # renumbered module; RamElem == compares precisions too
            R = rotated(M, b)
            assert R.twisted_power() == chainref.twisted_power(M, b)
            assert steps_or_bound(R.min_valuation_doublings(3)) == \
                steps_or_bound(chainref.min_valuation_doublings(M, 3, b))
        assert value_or_bound(inv._newton_fast, M) == value_or_bound(chainref._newton_fast, M)


# -- consistency guards ----------------------------------------------------------
#
# `_flags` refuses a report whose Newton point contradicts its a-number:
# a-number 0 iff ordinary, and superspecial implies supersingular.  The fast
# Newton trace is not a base-change invariant when ext > 1, so base changes
# (and the duals of base-changed modules) are where a report can contradict
# itself.

GUARD_SHAPES = [(p, f, e, ext) for p in (2, 3, 5) for e in (1, 2, 3) for f in (1, 2, 3)
                for ext in (1, 2, 3, 4) if p ** (f * ext) < 2 ** 16]


def fiber(t, rng):
    """A deformation fiber of a normal form over a random target a-type."""
    e, f = t.e, t.f
    r = {i: rng.randrange(e) for i in range(f) if rng.random() < .5}
    base = fam.normal_form(t, tuple(r), {i: t.pi_pow(k) for i, k in r.items()})
    # a^(i) of the base is r_i + 1 on tau, 0 elsewhere
    target = tuple(rng.randrange(r[i] + 2) if i in r else 0 for i in range(f))
    F = t.residue_field
    asg = {(i, j): F.random(rng) for i in range(f) for j in range(target[i], e)}
    return fam.deform_specialize(base, target, asg)


def consistent_or_refused(M):
    """The report's flags satisfy both relations, or the report is refused
    (inconsistent, or not certified); classify agrees with the report."""
    try:
        report = invariant_report(M)
    except PrecisionError:
        return "precision"
    except DomainError as exc:
        assert exc.code == "inconsistent", exc
        with pytest.raises(DomainError, match="fails$"):
            classify(M)
        return "inconsistent"
    flags = report["flags"]
    if flags is not None:
        assert (report["a_number"] == 0) == flags["ordinary"], report
        assert flags["supersingular"] or report["a_number"] != M.g, report
        assert flags["superspecial"] == (report["a_number"] == M.g)
        assert classify(M) == flags
    return "consistent"


@st.composite
def guard_modules(draw):
    t = tower(*draw(st.sampled_from(GUARD_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(("normal", "slope", "superspecial", "superspecial-general",
                                 "fiber")))
    M = fiber(t, rng) if kind == "fiber" else family_module(t, kind, rng)
    for _ in range(draw(st.integers(0, 2))):
        M = base_change(M, rng)
    if draw(st.booleans()):
        try:
            M = M.dual()
        except (DomainError, PrecisionError):
            pass  # non-unit pairing scalars, or p * A^(-1) short of digits: keep M
    return M


class TestConsistencyGuards:
    @settings(max_examples=200, deadline=None)
    @given(guard_modules())
    def test_reports_are_consistent_or_refused(self, M):
        consistent_or_refused(M)

    def test_dual_has_the_same_newton_index(self):
        # duality reflects the slopes, lambda -> 1 - lambda, and the Newton
        # polygon lambda^g (1 - lambda)^g is symmetric: a module and its dual
        # share the index whenever both answer (the families and fibers as
        # built, no base change)
        rng = random.Random(7)
        kinds = ("normal", "slope", "superspecial", "superspecial-general", "fiber")
        agreed, differ = Counter(), []
        for shape in GUARD_SHAPES:
            t = tower(*shape)
            for kind in kinds:
                for _ in range(3):
                    M = fiber(t, rng) if kind == "fiber" else family_module(t, kind, rng)
                    try:
                        D = M.dual()
                        pair = newton_point(M).index, newton_point(D).index
                    except PrecisionError:
                        continue
                    except DomainError as exc:  # non-unit pairing scalars
                        assert exc.code == "non-unit", exc
                        continue
                    if pair[0] == pair[1]:
                        agreed[kind] += 1
                    else:
                        differ.append((shape, kind, pair))
        assert not differ
        assert set(agreed) == set(kinds), agreed

    def test_base_changed_slope_families(self):
        # slope families with ext = 2, every admissible a, three base changes
        # each: the fast route reads a wrong Newton point on six of the 57
        # modules, all on the e = 2 towers, and the guard refuses exactly those
        rng = random.Random(5)
        refused, wrong = [], []
        for p, f, e in ((3, 2, 1), (3, 3, 1), (3, 2, 2), (5, 2, 1), (3, 4, 1), (2, 3, 1),
                        (5, 3, 1), (2, 2, 2)):
            t = tower(p, f, e, ext=2)
            for a in range(e * f // 2 + 1):
                try:
                    M = fam.slope_family(t, a)
                except DomainError:
                    continue
                for _ in range(3):
                    B = base_change(M, rng)
                    seen = consistent_or_refused(B)
                    if seen == "inconsistent":
                        refused.append((p, f, e, a))
                    if seen == "consistent" and newton_point(B).index != a:
                        wrong.append((p, f, e, a))
        assert not wrong
        assert sorted(refused) == [(2, 2, 2, 1)] * 2 + [(3, 2, 2, 0)] + [(3, 2, 2, 1)] * 3


@st.composite
def normal_families(draw):
    """(tower shape, tau, a-values) of a normal-form family at the policy
    precision, c_i = pi^(a_i - 1) on each slot i of tau."""
    shape = draw(st.sampled_from(READ_OFF_SHAPES))
    tau = tuple(i for i in range(shape[1]) if draw(st.booleans()))
    return shape, tau, tuple(draw(st.integers(1, shape[2])) for _ in tau)


def normal_family(shape, tau, avals):
    t = tower(*shape)
    return fam.normal_form(t, tau, {i: t.pi_pow(a - 1) for i, a in zip(tau, avals)})


class TestOracleTop:
    """When the oracle runs out of digits, the certified bound it has still
    brackets the index; at g/2, the top of S(g), that bracket is the index."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_top_bracket_is_the_answer(self, p):
        # construct --p P --f 2 --e 2 --family normal --tau 0 --avals 2 (g = 4)
        M = normal_family((p, 2, 2, 2), (0,), (2,))
        assert newton_point(M, "oracle") == newton_point(M, "fast") == NewtonPoint(4, 2)

    @settings(max_examples=150, deadline=None)
    @given(normal_families())
    @example(((3, 1, 4, 1), (0,), (2,)))
    @example(((2, 2, 3, 1), (0, 1), (2, 1)))
    def test_refusals_lie_below_the_top(self, case):
        M = normal_family(*case)
        try:
            s = newton_point(M, "oracle")
        except PrecisionError as exc:
            assert 2 * exc.lower_bound < M.g and exc.bound_kind == "index"
        else:
            assert s == newton_point(M, "fast")
