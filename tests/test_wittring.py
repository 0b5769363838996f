import json

import pytest

from dieumod import CoeffTower, DomainError, PrecisionError, INF
from dieumod.wittring import WittElem
from dieumod import fppoly
from conftest import tower


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
        assert fppoly.is_irreducible(mu, 3)
        assert fppoly.is_primitive(mu, 3)

    def test_modulus_divides_circle_polynomial_literally(self):
        # independent of the powmod shortcut: actual polynomial division
        t = tower(3, 2, 1)
        m = 3 ** t.N
        f = [0] * (t.q - 1) + [1]
        f[0] = m - 1  # T^(q-1) - 1
        _, r = fppoly.pdivmod(f, list(t.modulus), m)
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

    def test_serialization_roundtrip(self):
        t = tower(3, 2, 2)
        t2 = CoeffTower.from_json(json.loads(t.dumps()))
        assert t2.describe() == t.describe()


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
        t = tower(5, 2, 1)
        for _ in range(30):
            a = t.random_witt(rng)
            if a.is_unit():
                assert a * a.inverse() == t.witt_one()
        with pytest.raises(DomainError):
            t.witt(5).inverse()


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

    def test_genpow_fast_path_matches_iteration(self, rng):
        # the logged lift (window table of T) against the log-less lift
        # (Frobenius-root iteration), p in {2, 3, 5}, d = 1 included, N >= 2
        towers = [tower(3, 2, 2, ext=2)] + [
            CoeffTower(p, 1, 2, d, N)
            for p, d, N in ((2, 1, 5), (2, 4, 3), (3, 1, 4), (3, 3, 2), (5, 1, 2), (5, 2, 4))]
        for t in towers:
            F = t.residue_field
            for k in [0, 1, t.q - 2] + [rng.randrange(t.q - 1) for _ in range(8)]:
                viapow = t.teichmuller(F.gen_pow(k))
                plain = F.elem(list(F.gen_pow(k).coeffs))
                assert plain.log is None
                y = t.teichmuller(plain)
                assert y == viapow
                assert y ** t.q == y and y.residue() == plain

    def test_logged_lift_costs_one_product_per_window_digit(self, monkeypatch):
        t = CoeffTower(3, 1, 2, 16, 2)
        F = t.residue_field
        t.teichmuller(F.gen_pow(1))  # the power table is built on first use
        calls = []
        mul = WittElem.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(WittElem, "__mul__", counting_mul)
        for k in (t.q - 2, 16 ** 6 - 1, 2 ** 25 + 1, 16, 1):
            calls.clear()
            t.teichmuller(F.gen_pow(k))
            digits = sum(1 for i in range(0, k.bit_length(), 4) if k >> i & 15)
            assert len(calls) <= digits


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
            u = t.random_ram_unit(rng)
            assert u * u.inverse() == t.one()

    def test_serialization(self):
        t = tower(3, 2, 2)
        x = t.pi() + t.ram(5)
        data = x.to_json()
        assert t.ram([t.witt(c) for c in data]) == x
