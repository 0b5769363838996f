"""The packed family builders against `familyref`, the builders on RamElem
arithmetic, and the pairing that deformation fibers share with their base.

Every builder call either gives, on both routes, the same module (the packed
forms' `cs`, `precs` and `ords`, `det_orders`, `entry_orders`, pairing
scalars, RamElem `matrices`, `dumps()`, family record and note), or is
refused by both with the same exception class, code and message.  Normal
forms draw zero, pi-power, dense and truncated coefficients; every builder
now and then draws an argument it refuses.
"""

import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from dieumod import DomainError, PrecisionError, families as fam
from dieumod import invariants as inv
from dieumod import modules
from dieumod.wittring import CoeffTower, RamElem
from conftest import tower
from test_fibers import specializations
from test_invariants import base_change, family_module
import familyref

SHAPES = [(p, f, e, ext) for p in (2, 3, 5) for f in (1, 2, 3) for e in (1, 2, 3)
          for ext in (1, 2, 3, 4) if p ** (f * ext) < 2 ** 20]


def outcome(route, args):
    """The module as comparable values, or its refusal as (class, code,
    message)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # nonrapoport_module warns at p = 3
            M = route(*args)
    except (DomainError, PrecisionError) as exc:
        return type(exc), getattr(exc, "code", None), str(exc)
    return ([(P.cs, P.precs, P.ords) for P in M.packed_matrices], M.det_orders,
            M.entry_orders, M.det_sum, M.delta, M.mode, M.matrices, M.dumps(), M.family,
            M.pairing_note)


def coefficient(t, rng):
    """A normal-form coefficient c_i: zero, a pi power, a dense element
    times a pi power, or one certified to fewer than eN digits."""
    kind = rng.randrange(4)
    if kind == 0:
        return t.zero()
    if kind == 1:
        return t.pi_pow(rng.randrange(t.e + 1))
    x = t.random_ram(rng).mul_pi(rng.randrange(t.e + 1))
    return x if kind == 2 else RamElem(t, x.coeffs, rng.randrange(1, t.pi_precision))


@st.composite
def builder_calls(draw):
    """(builder name, arguments) of one family builder call."""
    p, f, e, ext = draw(st.sampled_from(SHAPES))
    t = tower(p, f, e, ext)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    name = draw(st.sampled_from(("slope_family", "normal_form", "normal_form",
                                 "superspecial", "superspecial", "nonrapoport_module")))
    if name == "slope_family":
        return name, (t, rng.randrange(-1, t.g // 2 + 2))
    if name == "normal_form":
        tau = tuple(i for i in range(f + 1) if rng.random() < .5)  # slot f aliases 0
        c = {i % f: coefficient(t, rng) for i in tau}
        if c and rng.random() < .05:
            del c[rng.choice(sorted(c))]
        return name, (t, tau, c)
    if name == "superspecial":
        variant = rng.choice(("general",) * 4 + ("rapoport", "other"))
        e1, e2 = rng.randrange(-1, e + 2), rng.randrange(-1, e + 2)
        if rng.random() < .5:
            e2 = e - e1  # the exponents odd f needs
        return name, (t, e1, e2, variant)
    return name, (t,)


class TestPackedFamilies:
    @settings(max_examples=400, deadline=None)
    @given(builder_calls())
    def test_matches_ramelem_builders(self, call):
        name, args = call
        assert outcome(getattr(fam, name), args) == outcome(getattr(familyref, name), args)

    def test_rapoport_locus_examples(self, rng):
        # every shape of each family once, at ext 1 and 2
        for p, f, e in ((3, 2, 2), (5, 3, 1), (3, 1, 2), (2, 2, 3)):
            for ext in (1, 2):
                t = tower(p, f, e, ext)
                calls = [("slope_family", (t, a)) for a in range(t.g // 2 + 1)]
                calls += [("normal_form", (t, tau, {i: coefficient(t, rng) for i in tau}))
                          for tau in ((), (0,), tuple(range(f)))]
                calls += [("superspecial", (t, None, None, "rapoport")),
                          ("superspecial", (t, 0, e, "general")),
                          ("nonrapoport_module", (t,))]
                for name, args in calls:
                    assert outcome(getattr(fam, name), args) == \
                        outcome(getattr(familyref, name), args), (name, p, f, e, ext)

    def test_normal_form_shares_one_slot_off_tau(self):
        t = tower(3, 4, 2, 2)
        M = fam.normal_form(t, (1,), {1: t.one()})
        off = [M.packed_matrices[i] for i in (0, 2, 3)]
        assert off[0] is off[1] is off[2]
        assert M._matrices is None
        ref = familyref.normal_form(t, (1,), {1: t.one()})
        assert M.matrices[0] == M.matrices[2] == ref.matrices[0]


class TestSharedPairing:
    def count_pairings(self, monkeypatch):
        """A list that grows by one entry per PackedPairing formed, each of
        which forms p * sigma(delta[i-1]) once per slot."""
        formed = []
        init = modules.PackedPairing.__init__
        monkeypatch.setattr(modules.PackedPairing, "__init__",
                            lambda self, tower, delta: formed.append(len(delta))
                            or init(self, tower, delta))
        return formed

    @pytest.mark.parametrize("shape,tau", [((3, 3, 2, 2), (0, 2)), ((3, 4, 1, 4), (1,)),
                                           ((5, 2, 2, 2), (0, 1))])
    def test_fibers_form_the_right_hand_sides_once(self, monkeypatch, rng, shape, tau):
        p, f, e, ext = shape
        t = tower(p, f, e, ext=ext)
        F = t.residue_field
        formed = self.count_pairings(monkeypatch)
        base = fam.normal_form(t, tau, {i: t.zero() for i in tau})
        assert formed == [f]  # the base's own validation, transient
        assert "_pairing" not in base.__dict__
        fibers = [fam.deform_specialize(base, (0,) * f, {(i, j): F.random_unit(rng)
                                                         for i in range(f) for j in range(e)})
                  for _ in range(5)]
        assert formed == [f, f]  # five fibers, one set of right-hand sides
        assert all(M.delta == base.delta for M in fibers)
        assert all("_pairing" not in M.__dict__ for M in fibers)

    def test_a_module_without_fibers_keeps_none(self, monkeypatch):
        t = tower(3, 2, 2, ext=2)
        formed = self.count_pairings(monkeypatch)
        modules_built = [fam.slope_family(t, 1), fam.superspecial(t, variant="rapoport"),
                         fam.superspecial(t, 1, 1), fam.normal_form(t, (0,), {0: t.one()})]
        for M in modules_built:
            inv.invariant_report(M)
            assert "_pairing" not in M.__dict__
        assert len(formed) == len(modules_built)  # one transient form per validation

    def test_replaced_delta_is_formed_again(self, rng):
        # a fiber made after the base's scalars were replaced checks the new ones
        t = tower(3, 2, 1, ext=2)
        F = t.residue_field
        base = fam.normal_form(t, (0,), {0: t.zero()})
        asg = {(i, 0): F.random_unit(rng) for i in range(2)}
        fam.deform_specialize(base, (0, 0), asg)
        base.delta = (base.delta[0], -base.delta[1])
        with pytest.raises(DomainError) as exc:
            fam.deform_specialize(base, (0, 0), asg)
        assert exc.value.code == "pairing-incompatible"

    def test_scalars_of_another_tower_are_refused(self):
        t, other = tower(3, 2, 1, ext=2), CoeffTower(3, 2, 1, ext=2, N=5)
        base = fam.normal_form(t, (0,), {0: t.zero()})
        with pytest.raises(DomainError) as exc:
            modules.DModule(other, base.packed_matrices, base._packed_pairing())
        assert (exc.value.code, str(exc.value)) == ("tower-mismatch",
                                                    "pairing scalars from a different tower")


class TestReportsFormNoRamElem:
    def test_tie_free_reports_read_the_packed_forms(self, monkeypatch):
        # the a-type reads entry precisions off `packed_matrices`: a report
        # without a tie below precision forms no RamElem matrix
        made = []
        ram_matrix = CoeffTower.ram_matrix
        monkeypatch.setattr(CoeffTower, "ram_matrix",
                            lambda self, P: made.append(P) or ram_matrix(self, P))
        for p, f, e, ext in ((3, 2, 2, 1), (3, 3, 1, 2), (5, 2, 2, 2), (2, 4, 1, 1)):
            t = tower(p, f, e, ext)
            built = [fam.slope_family(t, a) for a in range(t.g // 2 + 1)]
            built += [fam.normal_form(t, tau, {i: t.pi_pow(k) for i in tau})
                      for tau in ((), (0,), tuple(range(f))) for k in range(e)]
            built += [fam.normal_form(t, (0,), {0: t.zero()}),
                      fam.superspecial(t, variant="rapoport")]
            built += [fam.superspecial(t, e1, e - e1) for e1 in range(e + 1)]
            for M in built:
                inv.invariant_report(M)
                assert M._matrices is None
        assert made == []

    def test_reports_with_ties_form_no_ramelem(self, rng, monkeypatch):
        # base-changed families tie below precision in the a-type's mixed
        # minors; a tie is multiplied out on the packed forms, so a report
        # forms no RamElem matrix and takes no RamElem product
        tied, ties = [], []
        pair_sum = CoeffTower.pair_sum
        monkeypatch.setattr(CoeffTower, "pair_sum",
                            lambda self, *args: ties.append(args) or pair_sum(self, *args))
        for p, f, e in ((3, 2, 2), (3, 3, 1), (5, 2, 2), (2, 4, 1), (3, 1, 3)):
            t = tower(p, f, e)
            for kind in ("normal", "slope", "superspecial", "superspecial-general"):
                X = base_change(family_module(t, kind, rng), rng)
                M = modules.DModule(t, [t.packed(A) for A in X.matrices], X.delta, X.mode)
                ties.clear()
                inv.a_type(M)
                if ties:
                    tied.append(M)
        assert len(tied) >= 10
        made, products = [], []
        ram_matrix, mul = CoeffTower.ram_matrix, RamElem.__mul__
        monkeypatch.setattr(CoeffTower, "ram_matrix",
                            lambda self, P: made.append(P) or ram_matrix(self, P))
        monkeypatch.setattr(RamElem, "__mul__",
                            lambda x, y: products.append(y) or mul(x, y))
        for M in tied:
            inv.invariant_report(M)
            assert M._matrices is None and made == [] and products == [], M


class TestPrecisionForm:
    """Every PackedMatrix carries its four entry precisions as a tuple, and
    it is the tower's shared full-precision tuple exactly when all four are
    eN, which `mat_product` and `pair_sum` test by identity."""

    @staticmethod
    def check(M):
        """The slots of M, their repacked RamElem matrices, sigma images and
        products."""
        t = M.tower
        Ps = list(M.packed_matrices) + [t.packed(A) for A in M.matrices]
        Ps += [P.sigma(n) for P in Ps for n in (1, -1)]
        Ps += [t.mat_product(P, Q) for P in Ps[:4] for Q in (P, Ps[-1])]
        for P in Ps:
            assert type(P.precs) is tuple and len(P.precs) == 4
            assert all(type(q) is int and 0 <= q <= t.pi_precision for q in P.precs)
            assert (P.precs is t._full_precs) == (min(P.precs) == t.pi_precision)

    @settings(max_examples=150, deadline=None)
    @given(builder_calls(), st.booleans())
    def test_builders_and_duals(self, call, dual):
        name, args = call
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # nonrapoport_module warns at p = 3
                M = getattr(fam, name)(*args)
            if dual:
                M = M.dual()  # entries below full precision
        except (DomainError, PrecisionError):
            return
        self.check(M)

    @settings(max_examples=100, deadline=None)
    @given(specializations())
    def test_fibers(self, case):
        try:
            M = fam.deform_specialize(*case)
        except (DomainError, PrecisionError):
            return
        self.check(M)
