import json
import operator
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from dieumod import CoeffTower, DomainError, PrecisionError, INF
from dieumod.wittring import PackedMatrix, RamElem, WittElem
from dieumod import DModule, families as fam
from dieumod import fppoly, modp
from conftest import mat_mul, random_unit, tower
from polyref import is_irreducible, pdivmod
from chainref import mat_mul as entrywise_mat_mul
import divpiref
import inverseref
import teichref


class TestTowerConstruction:
    def test_degree_one_base(self):
        t = CoeffTower(5, 1, 2, 1, 4)
        # f*ext = 1: the Witt ring is Z/5^4 itself, modulus T - tau
        assert t.d == 1
        assert len(t.modulus) == 2

    def test_primitive_polynomial_shared_by_degree(self):
        mu = fppoly.smallest_primitive(5, 2)
        assert isinstance(mu, tuple)
        before = fppoly.smallest_primitive.cache_info().misses
        towers = [CoeffTower(5, 2, 1, 1, 4), CoeffTower(5, 2, 1, 1, 6),
                  CoeffTower(5, 1, 2, 2, 3)]
        assert fppoly.smallest_primitive.cache_info().misses == before
        assert all(list(t.residue_field.mu) == list(mu) for t in towers)

    def test_modulus_is_primitive_mod_p(self):
        t = tower(3, 2, 1)
        mu = [c % 3 for c in t.modulus]
        assert is_irreducible(mu, 3)
        assert fppoly.is_primitive(mu, 3)

    def test_modulus_divides_circle_polynomial_literally(self):
        # independent of the powmod shortcut: actual polynomial division
        t = tower(3, 2, 1)
        m = 3 ** t.N
        f = [0] * (t.q - 1) + [1]
        f[0] = m - 1  # T^(q-1) - 1
        _, r = pdivmod(f, list(t.modulus), m)
        assert r == []

    def test_root_is_teichmuller(self):
        t = tower(3, 2, 1)
        T = t.witt_gen()
        assert T ** (t.q - 1) == t.witt_one()

    def test_precision_policy_boundary(self):
        CoeffTower(3, 2, 2, 1, 3)  # e*N = 6 >= e*f + 2 = 6
        with pytest.raises(DomainError, match=r"e\*N"):
            CoeffTower(3, 2, 2, 1, 2)

    def test_primality_check(self):
        with pytest.raises(DomainError, match="prime"):
            CoeffTower(6, 1, 1, 1, 4)

    def test_bad_modulus_rejected(self):
        t = tower(3, 2, 1)
        data = t.to_json()
        data["modulus"] = [1, 0, 1]  # irreducible but non-primitive residue
        with pytest.raises(DomainError, match="primitive"):
            CoeffTower.from_json(data)
        data["modulus"] = list(fppoly.smallest_primitive(3, 2))
        # right residue but the naive (non-unity-root) lift
        with pytest.raises(DomainError, match="root of unity"):
            CoeffTower.from_json(data)

    @pytest.mark.parametrize("args", [(2, 1, 65, 1, 2), (2, 33, 1, 1, 35), (2, 16, 1, 3, 18),
                                      (2, 1, 1, 1, 1024), (3, 1, 1, 1, 647),
                                      (2 ** 1279 - 1, 1, 1, 1, 3), (1031, 1, 1, 1, 3),
                                      (5, 28, 1, 1, 30), (3, 21, 1, 2, 23)])
    def test_size_guard(self, args):
        # refused before p**N, the modulus search or any set-up
        with pytest.raises(DomainError, match="too large") as info:
            CoeffTower(*args)
        assert info.value.code == "size-guard"

    def test_size_guard_admits_the_caps(self):
        # e = 64, p^N = 2^1023 and 3^646 < 2^1024, p = 1021 < 2^10 and
        # 19^15 < 2^64 (f*ext = 32 builds too, in about a second, so it is
        # not built here)
        assert CoeffTower(2, 1, 64, 1, 2).e == 64
        assert CoeffTower(2, 1, 1, 1, 1023).pN.bit_length() == 1024
        assert CoeffTower(3, 1, 1, 1, 646).N == 646
        assert CoeffTower(1021, 2, 1, 1).p == 1021
        assert CoeffTower(19, 15, 1, 1).q.bit_length() == 64

    def test_serialization_roundtrip(self):
        t = tower(3, 2, 2)
        t2 = CoeffTower.from_json(json.loads(t.dumps()))
        assert t2.to_json() == t.to_json()


class TestWittArithmetic:
    def test_ring_axioms(self, rng):
        t = tower(3, 2, 2, ext=2)
        for _ in range(100):
            a, b, c = (t.random_witt(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_frobenius_is_ring_map_of_full_order(self, rng):
        t = tower(3, 2, 1, ext=2)
        for _ in range(100):
            a, b = t.random_witt(rng), t.random_witt(rng)
            assert (a + b).sigma() == a.sigma() + b.sigma()
            assert (a * b).sigma() == a.sigma() * b.sigma()
            assert a.sigma(t.d) == a
            assert a.sigma(-1).sigma(1) == a

    def test_frobenius_fixes_scalars(self):
        t = tower(3, 2, 1)
        assert t.witt(7).sigma() == t.witt(7)

    def test_inverse(self, rng):
        # a Witt unit inverts as a ramified element (e = 1: W_N itself)
        t = tower(5, 2, 1)
        for _ in range(30):
            a = t.random_witt(rng)
            if a.is_unit():
                assert t.ram(a) * t.ram(a).inverse() == t.one()
        with pytest.raises(DomainError):
            t.ram(t.witt(5)).inverse()

    def test_negative_power_of_a_unit(self, rng):
        # w ** -n is the n-th power of the ramified inverse's constant
        # coefficient, whose higher pi-coefficients are all zero
        t = tower(3, 2, 2, ext=2)
        one, units = t.witt_one(), 0
        for _ in range(100):
            w = t.random_witt(rng)
            if not w.is_unit():
                continue
            units += 1
            inv = t.ram(w).inverse()
            assert not any(inv.coeffs[1:])
            assert w ** -1 == inv.coeffs[0] and w * w ** -1 == one
            assert w ** -3 * w ** 3 == one
        assert units
        z = CoeffTower(3, 1, 1)  # W_3(F_3) = Z/27, where 2 * 14 = 1
        assert z.pN == 27 and z.witt(2) ** -1 == z.witt(14)

    def test_negative_power_of_a_non_unit_is_refused(self):
        t = tower(3, 2, 2, ext=2)
        for w in (t.witt(3), t.witt_zero(), t.witt([3, 6, 9, 12])):
            with pytest.raises(DomainError) as exc:
                w ** -2
            assert exc.value.code == "non-unit"


class TestTeichmuller:
    def test_zero_and_one(self):
        t = tower(3, 1, 1)
        assert t.teichmuller(0) == t.witt_zero()
        assert t.teichmuller(1) == t.witt_one()

    def test_minus_one(self):
        t = CoeffTower(3, 1, 1, 1, 3)
        assert t.teichmuller(2).coeffs == (26,)  # -1 lifts to -1

    def test_generator_lifts_to_T(self):
        # the modulus is primitive, so the residue of T generates F_q^*
        t = tower(3, 2, 1)
        gen = t.residue_field.gen()
        assert t.teichmuller(gen) == t.witt_gen()

    def test_multiplicative_section(self, rng):
        t = tower(3, 2, 1, ext=2)
        F = t.residue_field
        for _ in range(50):
            x, y = F.random(rng), F.random(rng)
            assert t.teichmuller(x * y) == t.teichmuller(x) * t.teichmuller(y)
            assert t.teichmuller(x).residue() == x

    def test_frobenius_on_teichmuller(self, rng):
        t = tower(3, 2, 1)
        for _ in range(20):
            x = t.residue_field.random(rng)
            assert t.teichmuller(x).sigma() == t.teichmuller(x.frob())

    @pytest.mark.parametrize("p,d", [(p, d) for p in (2, 3, 5) for d in (1, 2, 8, 16)])
    def test_packed_window_lift_is_power_of_T(self, p, d, rng):
        # the window power on packed integers against T**k by WittElem
        # squaring: k = 15 and 16 are the last entry of row 0 and the first
        # of row 1, q - 2 is the largest exponent, and random exponents
        # take products of every row
        t = tower(p, d, 1)
        T = t.witt_gen()
        for k in (0, 1, 15, 16, t.q - 2, *(rng.randrange(t.q - 1) for _ in range(4))):
            lift = t.teichmuller_power(k)
            assert type(lift) is WittElem and lift.tower is t
            assert lift == T ** k

    def test_genpow_fast_path_matches_iteration(self, rng, monkeypatch):
        # T**k (`teichmuller_power`, the window table of T) against the
        # Frobenius-root iteration (`teichref`) on gen()**k, p in {2, 3, 5},
        # d = 1 included, N >= 2; gen()**k itself lifts through the log
        # table, and through the closed form in the q = 3^11 > 2^16 field,
        # which never asks for a table
        asked = []
        log_table = modp.log_table
        monkeypatch.setattr(modp, "log_table",
                            lambda p, mu: asked.append(p ** (len(mu) - 1)) or log_table(p, mu))
        towers = [tower(3, 2, 2, ext=2)] + [
            CoeffTower(p, 1, 2, d, N)
            for p, d, N in ((2, 1, 5), (2, 4, 3), (3, 1, 4), (3, 3, 2), (5, 1, 2), (5, 2, 4),
                            (3, 11, 2))]
        for t in towers:
            F = t.residue_field
            for k in [0, 1, t.q - 2] + [rng.randrange(t.q - 1) for _ in range(8)]:
                x = F.gen_pow(k)
                y = teichref.lift_by_iteration(t, x)
                assert y == t.teichmuller_power(k) == t.teichmuller(x)
                assert y ** t.q == y and y.residue() == x
        assert asked and max(asked) <= modp.LOG_TABLE_MAX_ORDER

    @pytest.mark.parametrize("p,d", [(p, d) for p in (2, 3, 5, 7) for d in range(1, 10)
                                     if p ** d <= 729] + [(3, 8)])
    def test_table_lift_matches_iteration(self, p, d, rng, monkeypatch):
        # every element of the fields with q <= 729, and 150 samples at
        # q = 3^8: the lift through the log table equals the iteration's,
        # is fixed by x -> x^q and reduces to the element
        asked = []
        log_table = modp.log_table
        monkeypatch.setattr(modp, "log_table",
                            lambda p, mu: asked.append(mu) or log_table(p, mu))
        t = CoeffTower(p, 1, 2, d, 3)
        F = t.residue_field
        xs = list(F.elements()) if F.order <= 729 else [F.random(rng) for _ in range(150)]
        for x in xs:
            y = t.teichmuller(x)
            if x:
                assert y == teichref.lift_by_iteration(t, x), x
            assert y ** t.q == y and y.residue() == x, x
        table = log_table(p, F.mu)
        assert set(asked) == {F.mu} and table.itemsize == 2 and len(table) == F.order

    def test_lift_of_a_random_unit_reads_no_coefficients(self, monkeypatch):
        # a unit that is only lifted is drawn as its log k, and T**k forms
        # no residue-field element and reads no log table
        t = tower(3, 2, 2, ext=4)
        ks = [random.Random(s).randrange(t.q - 1) for s in range(20)]
        want = [t.teichmuller(t.residue_field.gen_pow(k)) for k in ks]

        def refuse(*args):
            raise AssertionError("the lift read the residue field")
        monkeypatch.setattr(modp.FqElem, "__init__", refuse)
        monkeypatch.setattr(modp, "log_table", refuse)
        assert [t.teichmuller_power(k) for k in ks] == want

    @pytest.mark.parametrize("shape", [(3, 2, 2, 4), (2, 1, 2, 16), (3, 1, 2, 11)])
    def test_random_unit_lifts_as_the_power_of_its_draw(self, shape):
        # F.random_unit and a bare randrange(q - 1) draw the same k, so the
        # two routes of verify and sample-deform give the same lift, with a
        # log table (q <= 2^16) and without one (q = 3^11)
        p, f, e, ext = shape
        t = CoeffTower(p, f, e, ext)
        F = t.residue_field
        for s in range(10):
            assert t.teichmuller(F.random_unit(random.Random(s))) \
                == t.teichmuller_power(random.Random(s).randrange(t.q - 1))

    def test_logged_lift_costs_one_product_per_window_digit(self, monkeypatch):
        # T**k from the log k: each product stays packed (`mul_packed`),
        # the lift is split once (`reduce` of d slots) and multiplies no
        # WittElem
        t = CoeffTower(3, 1, 2, 16, 2)
        ring = t._ring
        t.teichmuller_power(1)  # the power table is built on first use
        calls = []
        for owner, name in ((ring, "mul_packed"), (ring, "reduce"), (WittElem, "__mul__")):
            orig = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, orig=orig, name=name:
                                calls.append(name) or orig(*a))
        for k in (t.q - 2, 16 ** 6 - 1, 2 ** 25 + 1, 16, 1):
            calls.clear()
            t.teichmuller_power(k)
            digits = sum(1 for i in range(0, k.bit_length(), 4) if k >> i & 15)
            assert calls == ["mul_packed"] * (digits - 1) + ["reduce"]


class TestRamified:
    def test_valuations(self):
        t = tower(3, 2, 2)
        assert t.pi().ord_pi() == 1
        assert t.ram(3).ord_pi() == 2
        assert t.ram([0, 3]).ord_pi() == 3  # pi^3 as [0, p]
        assert (t.ram(3) + t.pi()).ord_pi() == 1
        assert t.zero().ord_pi() is INF

    def test_valuation_rules(self, rng):
        t = tower(3, 2, 2, ext=2)
        full = t.pi_precision
        for _ in range(200):
            a, b = t.random_ram(rng), t.random_ram(rng)
            if a and b and a.ord_pi() + b.ord_pi() < full:
                assert (a * b).ord_pi() == a.ord_pi() + b.ord_pi()
            if a + b:
                assert (a + b).ord_pi() >= min(a.ord_lower(), b.ord_lower())

    def test_ring_axioms(self, rng):
        t = tower(5, 1, 3, ext=2)
        for _ in range(100):
            a, b, c = (t.random_ram(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)

    def test_sigma_fixes_pi(self):
        t = tower(3, 2, 2)
        assert t.pi().sigma() == t.pi()

    def test_pi_division_and_precision(self):
        t = tower(3, 1, 2, slack=0)
        x = t.pi_pow(3)
        y = x.div_pi(2)
        assert y.prec == t.pi_precision - 2
        # y * pi^2 recovers x up to the certified digits
        assert (y * t.pi_pow(2) - x).ord_lower() >= y.prec
        with pytest.raises(DomainError):
            t.one().div_pi(1)
        assert y.mul_pi(2) == RamElem(t, x.coeffs, y.prec + 2)  # the inverse shift
        with pytest.raises(DomainError, match="negative"):
            x.mul_pi(-1)
        with pytest.raises(DomainError, match="negative"):
            x.div_pi(-1)

    def test_unit_part(self):
        t = tower(3, 1, 2)
        v, u = (t.pi_pow(3) * t.ram(2)).unit_part()
        assert v == 3 and u.is_unit()
        with pytest.raises(PrecisionError):
            t.zero().unit_part()

    def test_reduced_precision_ord_raises(self):
        t = tower(3, 1, 2, slack=0)
        x = t.pi_pow(2).div_pi(2)  # the unit 1 at reduced precision
        z = x - t.one()             # zero, but only certified to x.prec
        with pytest.raises(PrecisionError):
            z.ord_pi()
        assert z.ord_lower() == x.prec

    def test_inverse(self, rng):
        t = tower(3, 2, 2, ext=2)
        for _ in range(30):
            u = random_unit(t, rng)
            assert u * u.inverse() == t.one()

    def test_serialization(self):
        t = tower(3, 2, 2)
        x = t.pi() + t.ram(5)
        data = x.to_json()
        assert t.ram([t.witt(c) for c in data]) == x

    def test_negative_precision_is_refused(self):
        # a precision below 0 certifies nothing; 0 is legal (the JSON reader
        # takes [0, eN]) and leaves no certified digit
        t = CoeffTower(3, 1, 2)
        for make in (lambda: t.ram([1, 2], prec=-5),
                     lambda: RamElem(t, t.ram([1, 2]).coeffs, -1)):
            with pytest.raises(DomainError) as exc:
                make()
            assert exc.value.code == "bad-shape"
        z = t.ram([1, 2], prec=0)
        assert z.prec == 0 and z.ord_lower() == 0 and not z
        with pytest.raises(PrecisionError):
            z.ord_pi()


class TestRingMismatch:
    """An element of another ring never mixes silently: every operator and
    constructor of the three element types refuses it (`tower-mismatch`
    for the tower's elements, ValueError for the residue field's), and so
    do `DModule` and `normal_form`.  Equal towers built apart (a JSON round
    trip) still mix.  B differs from A in its residue degree, C in p."""

    @staticmethod
    def rings():
        return CoeffTower(3, 1, 1, 1), CoeffTower(3, 1, 1, 2), CoeffTower(5, 1, 1, 1)

    @staticmethod
    def mismatch(make):
        with pytest.raises(DomainError) as exc:
            make()
        assert exc.value.code == "tower-mismatch"

    OPS = (operator.add, operator.sub, operator.mul)

    def test_tower_elements(self):
        A, *others = self.rings()
        x, w = A.ram(2), A.witt(2)
        for B in others:
            y, v = B.ram([B.witt([1] * B.d)]), B.witt([1] * B.d)
            for op in self.OPS:
                for a, b in ((x, y), (y, x), (x, v), (v, x), (w, y), (y, w), (w, v), (v, w)):
                    self.mismatch(lambda: op(a, b))
            for make in (lambda: A.ram(y), lambda: A.ram(v), lambda: A.ram([v]),
                         lambda: A.witt(v), lambda: A.teichmuller(B.residue_field.one())):
                self.mismatch(make)

    def test_residue_field_elements(self):
        A, *others = self.rings()
        F = A.residue_field
        for B in others:
            G = B.residue_field
            y = G.elem([1] * G.d)
            for op in self.OPS:
                for a, b in ((F.elem(1), y), (y, F.elem(1))):
                    with pytest.raises(ValueError, match="different residue field"):
                        op(a, b)
            with pytest.raises(ValueError, match="different residue field"):
                F.elem(y)

    def test_modules_refuse_another_tower(self):
        A, B, C = self.rings()
        for other in (B, C):
            self.mismatch(lambda: DModule(
                A, [[[other.one(), other.zero()], [other.zero(), other.ram(3)]]]))
            self.mismatch(lambda: DModule(
                A, [[[A.one(), A.zero()], [A.zero(), A.ram(3)]]], [other.one()]))
            self.mismatch(lambda: fam.normal_form(A, (0,), {0: other.zero()}))

    def test_equal_towers_built_apart_mix(self):
        A, _, _ = self.rings()
        A2 = CoeffTower.from_json(json.loads(A.dumps()))
        assert A2 is not A and A2 == A
        x, y = A.ram(2), A2.ram(3)
        assert [op(x, y) for op in self.OPS] == [op(x, A.ram(3)) for op in self.OPS]
        assert A.witt(2) * A2.witt(3) == A.witt(6) and A.ram(y) is y
        F, F2 = A.residue_field, A2.residue_field
        assert F.elem(1) + F2.elem(1) == F.elem(2) and F.elem(F2.one()) == F.one()
        M = DModule(A, [[[A2.one(), A2.zero()], [A2.zero(), A2.ram(3)]]], [A2.one()])
        assert M.det_orders == [1]
        assert fam.normal_form(A, (0,), {0: A2.zero()}).tower is A


def test_every_precision_error_carries_a_bound():
    # every `raise PrecisionError(...)` in the package passes lower_bound=
    # and bound_kind=, a constant: "index" where the oracle raises (its
    # bound is a slope index), "valuation" everywhere else
    import ast
    from pathlib import Path
    sites = {}  # (file, line): ok, judged in the innermost function
    for path in sorted((Path(__file__).parent.parent / "src" / "dieumod").glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
            for node in ast.walk(func):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "PrecisionError"):
                    kw = {k.arg: k.value for k in node.exc.keywords}
                    kind = getattr(kw.get("bound_kind"), "value", None)
                    want = "index" if func.name == "_newton_oracle" else "valuation"
                    sites[path.name, node.lineno] = "lower_bound" in kw and kind == want
    assert sites and all(sites.values()), [s for s, ok in sites.items() if not ok]


class TestMixedOperands:
    """+, - and * take a WittElem, a RamElem or an int on either side: a
    Witt element on the left of a ramified one answers through RamElem's
    reflected operator, with the value of the ramified operation."""

    OPS = (operator.add, operator.sub, operator.mul)

    @pytest.mark.parametrize("shape", [(3, 1, 2, 2), (2, 2, 3, 1), (5, 1, 1, 1)])
    def test_both_orders(self, rng, shape):
        t = tower(*shape)
        w, x = t.random_witt(rng), t.random_ram(rng)
        cut = RamElem(t, x.coeffs, t.e + 1)
        for op in self.OPS:
            for y in (x, cut):
                for a, b in ((w, y), (y, w), (2, y), (y, 2)):
                    assert op(a, b) == op(t.ram(a), t.ram(b)), (op, a, b)
            for a, b in ((2, w), (w, 2)):
                assert op(a, b) == op(t.witt(a), t.witt(b)), (op, a, b)
        assert 2 - t.witt(5) == t.witt(-3) and 2 - t.ram(5) == t.ram(-3)


class TestPower:
    @pytest.mark.parametrize("cls", [WittElem, RamElem])
    def test_products_per_power(self, cls, rng, monkeypatch):
        # bit_length(k) - 1 squarings and popcount(k) - 1 further products
        t = tower(3, 2, 2, ext=2)
        x = t.random_witt(rng) if cls is WittElem else t.random_ram(rng)
        one = t.witt_one() if cls is WittElem else t.one()
        calls = []
        mul = cls.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counting_mul)
        for k, products in ((0, 0), (1, 0), (2, 1), (3, 2), (16, 4)):
            calls.clear()
            y = x ** k
            assert len(calls) == products, k
            expected = one
            for _ in range(k):
                expected = mul(expected, x)
            assert y == expected


@pytest.mark.parametrize("t", [tower(3, 1, 1), tower(3, 2, 2, ext=2),
                               CoeffTower(2, 1, 2, 8, 3), CoeffTower(5, 1, 1, 1, 4)],
                         ids=repr)
def test_ord_p_is_min_coefficient_valuation(t, rng):
    p, N, d = t.p, t.N, t.d
    cases = [[0] * d, [t.pN - 1] * d]
    for j in range(d):
        for k in range(N):
            single = [0] * d
            single[j] = p ** k * rng.choice([1, p - 1, t.pN // p ** k - 1])
            cases.append(single)
    for _ in range(20):  # mixed valuations, zero coefficients included
        cases.append([p ** rng.randrange(N) * rng.randrange(t.pN) % t.pN for _ in range(d)])
    for c in cases:
        expected = min((vp(x, p) for x in c if x), default=N)
        assert t.witt(c).ord_p() == expected, c


def test_residue_matches_field_elem(rng):
    for t in (tower(3, 1, 1), tower(3, 2, 2, ext=2), CoeffTower(2, 1, 2, 8, 3),
              CoeffTower(5, 1, 1, 1, 4)):
        for _ in range(20):
            w = t.random_witt(rng)
            r = w.residue()
            assert r == t.residue_field.elem([c % t.p for c in w.coeffs])
            assert r.coeffs == t.residue_field.elem(list(r.coeffs)).coeffs


# -- schoolbook reference for *, sigma and ** ----------------------------------
#
# Witt elements are coefficient lists mod (modulus, p^N), reduced by long
# division; sigma^n substitutes T -> T^(p^n) by Horner's rule; ramified
# products convolve over pi, fold pi^(e+k) = p * pi^k and then apply the
# precision formula  prec(ab) = min(ord(a) + prec(b), ord(b) + prec(a),
# prec(a) + prec(b), e*N)  (e*N when both are exact), truncating the digits
# at or above it.


def ref_witt_mul(t, a, b):
    conv = [0] * (2 * t.d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    m = t.modulus
    for k in range(2 * t.d - 2, t.d - 1, -1):
        c, conv[k] = conv[k], 0
        for j in range(t.d):
            conv[k - t.d + j] -= c * m[j]
    return [c % t.pN for c in conv[:t.d]]


def ref_witt_pow(t, a, k):
    out, base = [1] + [0] * (t.d - 1), list(a)
    while k:
        if k & 1:
            out = ref_witt_mul(t, out, base)
        base = ref_witt_mul(t, base, base)
        k >>= 1
    return out


def ref_witt_sigma(t, a, n):
    gen = [0, 1] if t.d > 1 else [(-t.modulus[0]) % t.pN]
    img = ref_witt_pow(t, gen, t.p ** (n % t.d))  # sigma^n(T) = T^(p^n)
    out = [0] * t.d
    for c in reversed(a):
        out = ref_witt_mul(t, out, img)
        out[0] = (out[0] + c) % t.pN
    return out


def vp(c, p):
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def ref_ord(t, coeffs):
    vals = [t.e * min(vp(c, t.p) for c in w if c) + j
            for j, w in enumerate(coeffs) if any(w)]
    return min(vals, default=t.pi_precision)


def ref_truncate(t, coeffs, prec):
    out = []
    for j, w in enumerate(coeffs):
        mod = t.p ** max(0, min(t.N, -(-(prec - j) // t.e)))
        out.append([c % mod for c in w])
    return out


def ref_ram_mul(t, a, pa, b, pb):
    """(coefficients, prec) of a product of (coefficients, prec) pairs."""
    e, full = t.e, t.pi_precision
    conv = [[0] * t.d for _ in range(2 * e - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = [(u + v) % t.pN for u, v in zip(conv[i + j], ref_witt_mul(t, x, y))]
    for k in range(e - 1):
        conv[k] = [(u + t.p * v) % t.pN for u, v in zip(conv[k], conv[k + e])]
    prec = full
    if pa < full or pb < full:
        prec = min(ref_ord(t, a) + pb, ref_ord(t, b) + pa, pa + pb, full)
    return ref_truncate(t, conv[:e], prec), prec


def ram_of(x):
    return [list(w.coeffs) for w in x.coeffs], x.prec


@cache
def ref_tower(p, e, d, N):
    return CoeffTower(p, 1, e, d, N)


@st.composite
def towers(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    e = draw(st.integers(1, 4))
    d = draw(st.sampled_from((1, 2, 4, 8, 16)))
    low = -(-(e + 2) // e)  # smallest N with e*N >= e*f + 2 at f = 1
    return ref_tower(p, e, d, draw(st.integers(low, low + 3)))


def witt_coeffs(draw, t, kind):
    pN = t.pN
    if kind == "zero":
        return [0] * t.d
    if kind == "constant":
        return [draw(st.integers(0, pN - 1))] + [0] * (t.d - 1)
    return [draw(st.integers(0, pN - 1)) for _ in range(t.d)]


def ram_elem(draw, t):
    kind = draw(st.sampled_from(("dense", "monomial", "constant", "zero", "truncated")))
    e = t.e
    if kind in ("dense", "truncated"):
        coeffs = [witt_coeffs(draw, t, "dense") for _ in range(e)]
    else:
        coeffs = [[0] * t.d for _ in range(e)]
        if kind != "zero":
            k = draw(st.integers(0, e - 1))
            coeffs[k] = witt_coeffs(draw, t, "dense" if kind == "monomial" else "constant")
    prec = t.pi_precision
    if kind == "truncated":
        prec = draw(st.integers(1, prec))
    x = RamElem(t, [t.witt(c) for c in coeffs], prec)
    assert ram_of(x) == (ref_truncate(t, coeffs, prec), prec)
    return x


class TestReferenceArithmetic:
    """`*`, `sigma(n)` and `**` against the schoolbook reference above."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_witt(self, data):
        t = data.draw(towers())
        kinds = st.sampled_from(("dense", "constant", "zero"))
        a = witt_coeffs(data.draw, t, data.draw(kinds))
        b = witt_coeffs(data.draw, t, data.draw(kinds))
        m = data.draw(st.integers(-2 * t.pN, 2 * t.pN))
        x, y = t.witt(a), t.witt(b)
        assert list((x * y).coeffs) == ref_witt_mul(t, a, b)
        assert list((x * m).coeffs) == ref_witt_mul(t, a, [m % t.pN] + [0] * (t.d - 1))
        for n in (-1, 0, 1, t.d, 2 * t.d, data.draw(st.integers(-3 * t.d, 3 * t.d))):
            assert list(x.sigma(n).coeffs) == ref_witt_sigma(t, a, n), n
        k = data.draw(st.integers(0, 9))
        assert list((x ** k).coeffs) == ref_witt_pow(t, a, k)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ramified(self, data):
        t = data.draw(towers())
        x, y = ram_elem(data.draw, t), ram_elem(data.draw, t)
        assert ram_of(x * y) == ref_ram_mul(t, *ram_of(x), *ram_of(y))
        m = data.draw(st.integers(-2 * t.pN, 2 * t.pN))
        assert ram_of(x * m) == ram_of(x * t.ram(m)) == ref_ram_mul(t, *ram_of(x), *ram_of(t.ram(m)))
        w = t.witt(witt_coeffs(data.draw, t, "dense"))
        assert ram_of(x * w) == ram_of(x * t.ram(w))
        for n in (-1, 0, 1, t.d, 2 * t.d):
            coeffs, prec = ram_of(x)
            assert ram_of(x.sigma(n)) == (
                ref_truncate(t, [ref_witt_sigma(t, c, n) for c in coeffs], prec), prec), n
        k = data.draw(st.integers(0, 5))
        ref = ram_of(t.one())
        for _ in range(k):
            ref = ref_ram_mul(t, *ref, *ram_of(x))
        assert ram_of(x ** k) == ref

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mul_pi_is_the_pi_power_product(self, data):
        # the exact shift against the kernel product x * pi^k, precision
        # included: k below e, at e and past it (coefficients that wrap are
        # multiplied by p), and past eN (the value is 0)
        t = data.draw(towers())
        x = ram_elem(data.draw, t)
        for k in (0, 1, t.e, data.draw(st.integers(t.e, t.pi_precision + 2 * t.e))):
            assert ram_of(x.mul_pi(k)) == ram_of(x * t.pi_pow(k)), k
            assert t.pi_pow(k) == t.pi() ** k, k

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_slot_at_its_bound(self, p):
        # every coefficient p^N - 1 at the largest e*d: the dense ramified
        # product fills each slot to its maximum, so a carry between slots
        # would show in the result
        t = ref_tower(p, 4, 16, 6)
        top = [[t.pN - 1] * t.d for _ in range(t.e)]
        x = t.ram([t.witt(c) for c in top])
        assert ram_of(x * x) == ref_ram_mul(t, top, t.pi_precision, top, t.pi_precision)
        w = t.witt(top[0])
        assert list((w * w).coeffs) == ref_witt_mul(t, top[0], top[0])
        assert list(w.sigma(1).coeffs) == ref_witt_sigma(t, top[0], 1)


class TestInverseReference:
    """`RamElem.inverse`, one Newton iteration from the residue, against
    `inverseref.ram_inverse`, which first inverts the constant coefficient
    in W_N: the same value and precision (RamElem == compares both), and the
    same refusal of a non-unit."""

    @staticmethod
    def outcome(inverse, x):
        try:
            return inverse(x)
        except DomainError as exc:
            return type(exc), exc.code, str(exc)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_witt_then_ramified(self, data):
        t = data.draw(towers())
        x = ram_elem(data.draw, t)
        if data.draw(st.booleans()):  # mostly a unit, truncated ones included
            x = x + t.witt(data.draw(st.integers(1, t.p - 1)))
        got = self.outcome(RamElem.inverse, x)
        assert got == self.outcome(inverseref.ram_inverse, x)
        if x.is_unit():
            err = t.one() - x * got
            assert got.prec == x.prec and err.ord_lower() >= x.prec


@cache
def lift_tower(p, d, N):
    return CoeffTower(p, 1, 2, d, N)


LIFT_SHAPES = ((2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 2), (3, 11))


class TestTeichmullerReference:
    """Every Teichmuller route against `teichref`, the step loops that stop
    at their fixpoint: `CoeffTower.teichmuller_power`, the window power
    T**k; in `CoeffTower.teichmuller` the log table and the closed form
    `fppoly.teichmuller_point` (q = 3^11 > 2^16, where no log table is
    built); and `fppoly.teichmuller_modulus`."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_lift_route_matches_the_iteration(self, data):
        p, d = data.draw(st.sampled_from(LIFT_SHAPES))
        t = lift_tower(p, d, data.draw(st.integers(2, 6)))
        F = t.residue_field
        x = F.elem(data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)))
        assert (F.discrete_log(x) is None) == (t.q > modp.LOG_TABLE_MAX_ORDER)
        assert t.teichmuller(x) == teichref.lift_by_iteration(t, x)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_power_of_T_is_the_lift_of_gen_pow(self, data):
        # any integer k, negative and above q - 1 included
        p, d = data.draw(st.sampled_from(LIFT_SHAPES))
        t = lift_tower(p, d, data.draw(st.integers(2, 6)))
        k = data.draw(st.one_of(st.integers(-3 * t.q, 3 * t.q), st.integers()))
        x = t.residue_field.gen_pow(k)
        assert t.teichmuller_power(k) == t.teichmuller(x) == teichref.lift_by_iteration(t, x)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(p, d) for p in (2, 3, 5, 7, 11) for d in (1, 2, 3, 4, 6, 8, 16)
                            if p ** d < 2 ** 64]),
           st.integers(1, 8))
    def test_modulus_matches_the_fixpoint_loop(self, shape, N):
        p, d = shape
        mu = list(fppoly.smallest_primitive(p, d))
        assert fppoly.teichmuller_modulus(mu, p, N) == teichref.teichmuller_modulus(mu, p, N)


class TestDivPiReference:
    """`RamElem.div_pi`, the closed-form shift, against `divpiref.div_pi`,
    the stepwise division: the same value and precision, and the same
    refusal (`non-divisible` before `PrecisionError`), at every v up to
    2eN + 2, on drawn elements (truncated ones included) and on their
    shifts by `mul_pi`, which are divisible."""

    @staticmethod
    def outcome(div, x, v):
        try:
            return ram_of(div(x, v))
        except (DomainError, PrecisionError) as exc:
            return (type(exc), getattr(exc, "code", None), str(exc),
                    getattr(exc, "lower_bound", None))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_stepwise_division(self, data):
        t = data.draw(towers())
        x = ram_elem(data.draw, t)
        if data.draw(st.booleans()):
            x = x.mul_pi(data.draw(st.integers(0, 2 * t.pi_precision)))
        for v in range(2 * t.pi_precision + 3):
            assert self.outcome(RamElem.div_pi, x, v) == self.outcome(divpiref.div_pi, x, v), v


# -- the packed 2x2 kernel against the entrywise product -----------------------
#
# `mat_mul` is the conftest helper on the kernel; `entrywise_mat_mul` is
# `chainref.mat_mul`, the reference of the chains.


def entrywise_trace(A, B):
    E = entrywise_mat_mul(A, B)
    return E[0][0] + E[1][1]



@cache
def dual_entries(t):
    """Entries of the duals of family modules on t (f = 1): their precision
    is lowered by the unit division in p * A^(-1)."""
    out = []
    for build in (lambda: fam.slope_family(t, 1), lambda: fam.superspecial(t),
                  lambda: fam.normal_form(t, (0,), {0: t.pi()})):
        try:
            D = build().dual()
        except (DomainError, PrecisionError):
            continue
        out += [x for A in D.matrices for row in A for x in row]
    return tuple(out)


def mat_entry(draw, t):
    duals = dual_entries(t)
    if duals and draw(st.booleans()):
        return draw(st.sampled_from(duals))
    return ram_elem(draw, t)


class TestMatMulKernel:
    """`mat_mul` (the packed kernel `mat_product`) equals the entrywise
    product, prec included (RamElem == compares coefficients and prec)."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_entrywise_product(self, data):
        t = data.draw(towers())
        A, B = (tuple(tuple(mat_entry(data.draw, t) for _ in range(2)) for _ in range(2))
                for _ in range(2))
        assert mat_mul(A, B) == entrywise_mat_mul(A, B)
        assert t.ram(*t.mat_trace(t.packed(A), t.packed(B))) == entrywise_trace(A, B)

    # (valuation, precision) of x and of y, None for a representative 0,
    # and the certified precision of x y worked by hand, e N = 8: two
    # uncertain zeros give p_x + p_y, a known valuation r_x gives r_x + p_y
    @pytest.mark.parametrize("x, y, prec", [((None, 2), (None, 3), 5),
                                            ((1, 3), (None, 2), 3),
                                            ((0, 8), (None, 2), 2),
                                            ((1, 3), (2, 4), 5),
                                            ((3, 5), (3, 5), 8),
                                            ((1, 8), (1, 8), 8)])
    def test_product_precision_by_hand(self, x, y, prec):
        t = CoeffTower(3, 1, 2, 1, 4)
        x, y = (RamElem(t, (t.pi_pow(v) if v is not None else t.zero()).coeffs, q)
                for v, q in (x, y))
        z = t.zero()
        assert (x * y).prec == (y * x).prec == prec
        assert mat_mul(((x, z), (z, x)), ((y, z), (z, y)))[0][0].prec == prec

    # every coefficient p^N - 1: on the p = 3 and p = 5 towers the sum of
    # two folded products fills a slot past the width a single product
    # needs, and the trace's four past the width of two, so a slot width
    # sized for fewer products would carry
    @pytest.mark.parametrize("p,e,d,N", [(2, 4, 16, 6), (3, 4, 16, 5), (3, 4, 1, 5),
                                         (5, 3, 8, 4), (5, 4, 16, 2), (5, 4, 2, 5)])
    def test_every_slot_at_its_bound(self, p, e, d, N):
        t = ref_tower(p, e, d, N)
        x = t.ram([t.witt([t.pN - 1] * d) for _ in range(e)])
        A = ((x, x), (x, x))
        assert mat_mul(A, A) == entrywise_mat_mul(A, A)
        P = t.packed(A)
        assert t.ram(*t.mat_trace(P, P)) == entrywise_trace(A, A)


# -- values the kernel does not form again --------------------------------------
#
# `mat_product` reuses a copy entry's tuples and Kronecker integer and the
# shared zero, `pair_sum` packs neither factor of a product with a zero
# factor, and a RamElem keeps its Kronecker integer; values and precisions
# must not change.


def reuse_entry(draw, t):
    """Exactly 1 and zero often (the entries that make copies and zero
    products), else a constant, dense, monomial, dual or truncated entry;
    a 1 or a zero is truncated one time in four."""
    kind = draw(st.sampled_from(("one", "one", "zero", "zero", "other")))
    if kind == "other":
        return mat_entry(draw, t)
    x = t.one() if kind == "one" else t.zero()
    if draw(st.integers(0, 3)) == 0:
        return RamElem(t, x.coeffs, draw(st.integers(1, t.pi_precision)))
    return x


class TestKernelReuse:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_entrywise_arithmetic(self, data):
        # mat_product (general and squaring route, and a second link that
        # reads the first one's copies), mat_trace, det and pair_sum equal
        # the entrywise RamElem results, values and precisions, with the
        # entries' valuations given (as the family builders do) or not
        draw = data.draw
        t = draw(towers())
        A, B, C = (tuple(tuple(reuse_entry(draw, t) for _ in range(2)) for _ in range(2))
                   for _ in range(3))
        with_ords = draw(st.booleans())

        def packed(X):
            P = t.packed(X)
            return PackedMatrix(t, P.cs, P.precs, tuple(map(t._repr_ord, P.cs))) \
                if with_ords else P

        P, Q, R = map(packed, (A, B, C))
        assert t.ram_matrix(t.mat_product(t.mat_product(P, Q), R)) == \
            entrywise_mat_mul(entrywise_mat_mul(A, B), C)
        assert t.ram_matrix(t.mat_product(P, P)) == entrywise_mat_mul(A, A)
        assert t.ram(*t.mat_trace(P, Q)) == entrywise_trace(A, B)
        assert t.ram(*t.det(P)) == A[0][0] * A[1][1] - A[0][1] * A[1][0]
        pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                              min_size=1, max_size=4))
        signs = [draw(st.sampled_from((1, -1))) for _ in pairs]
        a, b = [x for row in A for x in row], [x for row in B for x in row]
        terms = [a[i] * b[j] if s > 0 else -(a[i] * b[j]) for (i, j), s in zip(pairs, signs)]
        want = terms[0]
        for x in terms[1:]:
            want = want + x
        assert t.ram(*t.pair_sum(P, Q, pairs, signs)) == want

    def test_copy_entries_are_the_operands_own(self, rng, monkeypatch):
        # 1 * Q[j] + 0 * Q[k] is Q[j] and P[i] * 1 + P[k] * 0 is P[i]: the
        # output holds those very tuples and Kronecker integers, so reading
        # the product's integers packs only its two new entries
        t = tower(3, 2, 2, ext=2)
        x, y = t.random_ram(rng), t.random_ram(rng)
        one, zero = t.one(), t.zero()
        P = t.packed(((one, zero), (x, y)))
        Q = t.packed(((y, x), (zero, one)))
        ints = Q.ints
        S = t.mat_product(P, Q)
        assert S.cs[0] is Q.cs[0] and S.cs[1] is Q.cs[1]
        assert S.cs[2] is not Q.cs[0] and S.cs[3] is not Q.cs[1]
        packs = []
        pack = t._ram_pack
        monkeypatch.setattr(t, "_ram_pack", lambda cs: packs.append(cs) or pack(cs))
        assert S.ints[:2] == ints[:2] and S.ints[0] is ints[0]
        assert len(packs) == 2
        # the identity on the right: x and y are copied, and the zero is
        # the tower's shared one
        I = t.packed(((one, zero), (zero, one)))
        T = t.mat_product(P, I)
        assert T.cs[2] is P.cs[2] and T.cs[3] is P.cs[3] and T.cs[1] is t._zero_cs
        assert t.ram_matrix(S) == entrywise_mat_mul(((one, zero), (x, y)), ((y, x), (zero, one)))

    @pytest.mark.parametrize("tau", [(0,), (1,), (0, 1)])
    def test_fiber_validation_packs_no_dense_entry(self, rng, monkeypatch, tau):
        # the determinant of [[s, 1], [p, 0]] and of [[1, 0], [pT, p]] is
        # read off their constant entries: the zero factor is known from
        # the builder's valuations, so s and pT are never packed
        t = tower(3, 2, 2, ext=2)
        base = fam.normal_form(t, tau, {i: t.random_ram(rng) for i in tau})
        want = {(i, j): t.teichmuller_power(rng.randrange(1, t.q - 1))
                for i in range(t.f) for j in range(t.e)}
        packs = []
        pack = t._ram_pack
        monkeypatch.setattr(t, "_ram_pack", lambda cs: packs.append(cs) or pack(cs))
        M = fam.deform_specialize(base, (0,) * t.f, want)
        dense = [P.cs[0] if i in tau else P.cs[2] for i, P in enumerate(M.packed_matrices)]
        assert packs and not any(cs is x for cs in packs for x in dense)
        assert all(any(map(any, x)) for x in dense)

    def test_ramelem_is_packed_once(self, rng, monkeypatch):
        import copy
        import pickle
        t = tower(3, 2, 2, ext=2)
        x, *ys = (t.random_ram(rng) for _ in range(6))
        before = (repr(x), hash(x))
        packs = []
        pack = t._ram_pack
        monkeypatch.setattr(t, "_ram_pack", lambda cs: packs.append(cs) or pack(cs))
        products = [x * y for y in ys] + [y * x for y in ys]
        assert len(packs) == 1 + len(ys)  # x once, each y once
        assert (repr(x), hash(x)) == before
        monkeypatch.undo()
        for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert clone == x and hash(clone) == hash(x) and repr(clone) == repr(x)
            assert [clone * y for y in ys] == products[:len(ys)]
        fresh = RamElem(t, x.coeffs, x.prec)
        assert fresh == x and hash(fresh) == hash(x) and fresh * ys[0] == products[0]
