from collections import Counter
from fractions import Fraction

import pytest

from dieumod import (
    DModule, DomainError, lie_type, a_type, a_index, newton_point, classify,
    a_type_bounds, dual_invariants, admissible_indices, slope_point,
    invariant_report, LieType, AType,
)
from dieumod import families as fam
from dieumod import invariants as inv
from conftest import tower


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
                seq = slope_point(g, i).sequence
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
    # one reduction mod p (f Fbar and f Vbar matrices) and one Newton point
    # per report; every field equals the invariant computed on its own
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DModule, "vbar_matrix", counting("vbar", DModule.vbar_matrix))
    monkeypatch.setattr(DModule, "fbar_matrix", counting("fbar", DModule.fbar_matrix))
    monkeypatch.setattr(inv, "newton_point", counting("newton", inv.newton_point))
    for M in _single_pass_cases(rng):
        calls.clear()
        rep = invariant_report(M)
        assert calls == {"vbar": M.f, "fbar": M.f, "newton": 1}
        calls.clear()
        L = lie_type(M)
        assert calls == {"vbar": M.f}
        a = a_type(M)
        assert rep["lie_type"] == L.to_json()
        assert rep["a_type"] == a.to_json()["pairs"] and rep["a_number"] == a.a_number
        assert rep["flags"] == classify(M)
        if L.is_rapoport:
            tau, _, reduced = a_index(M)
            assert rep["a_index"] == list(tau) and rep["reduced_a_number"] == reduced
        else:
            assert rep["a_index"] is None and rep["reduced_a_number"] is None
