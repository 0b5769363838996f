from fractions import Fraction

import pytest

from dieumod import (
    DomainError, lie_type, a_type, a_index, newton_point, classify,
)
from dieumod import CoeffTower, families as fam
from dieumod.modp import smith_exponents
from conftest import random_unit, tower


class TestSlopeFamily:
    @pytest.mark.parametrize("e,f", [(1, 3), (2, 2), (1, 4), (3, 1)])
    def test_realizes_indices(self, e, f):
        t = tower(3, f, e, slack=20)
        g = e * f
        for a in range(g // 2 + 1):
            M = fam.slope_family(t, a)
            assert newton_point(M, "fast").index == a
            assert newton_point(M, "oracle").index == a
            assert lie_type(M).is_rapoport

    def test_fit_rule(self):
        # a = d*e + r fits f slots for every integer 0 <= a <= g/2 (2d+1 <= f,
        # or 2d = f with r = 0): the family builds, and validates, on each
        for e in range(1, 8):
            for f in range(1, 8):
                t = tower(3, f, e)
                for a in range(e * f // 2 + 1):
                    assert fam.slope_family(t, a).family == {"kind": "slope", "a": a}

    def test_every_admissible_integer_fits(self):
        # extending the construction to 2d = f (all-rotation, r = 0) makes
        # every integer 0 <= a <= g/2 buildable
        for e, f in ((1, 2), (2, 2), (2, 4), (3, 2)):
            t = tower(3, f, e)
            for a in range(e * f // 2 + 1):
                fam.slope_family(t, a)

    def test_shape_errors(self):
        t = tower(3, 2, 2)
        with pytest.raises(DomainError):
            fam.slope_family(t, 3)  # 3 > g/2
        with pytest.raises(DomainError):
            fam.slope_family(t, -1)


class TestNormalForm:
    def test_roundtrip_a_index(self, rng):
        t = tower(3, 4, 2, ext=2)
        tau = (0, 2)
        c = {0: t.pi(), 2: random_unit(t, rng)}
        M = fam.normal_form(t, tau, c)
        got_tau, tcount, reduced = a_index(M)
        assert got_tau == tau and tcount == 2 and reduced == 2
        a = a_type(M)
        for i, (lo, hi) in enumerate(a.pairs):
            expected = min(2, (c[i] * t.pi()).ord_lower()) if i in tau else 0
            assert (lo, hi) == (0, expected)

    def test_empty_tau_is_ordinary(self):
        t = tower(3, 2, 2)
        M = fam.normal_form(t, ())
        assert classify(M)["ordinary"]

    def test_coefficient_key_mismatch(self):
        t = tower(3, 2, 2)
        with pytest.raises(DomainError, match="tau"):
            fam.normal_form(t, (0,), {1: t.pi()})

    def test_tau_slots_are_checked_as_the_cli_checks_them(self):
        # a slot past f - 1, or one listed twice, is refused before the
        # coefficient map is read, whatever its keys; unsorted slots are
        # taken in ascending order
        import random
        t = CoeffTower(3, 2, 1, 2)
        c = t.pi()
        for tau, cmap in (((3,), {3: c}), ((3,), {1: c}), ((1, 1), {1: c}), ((-1,), {1: c})):
            with pytest.raises(DomainError, match="tau slots") as exc:
                fam.normal_form(t, tau, cmap)
            assert exc.value.code == "bad-shape"
        for tau in ((3,), (1, 1)):
            with pytest.raises(DomainError, match="tau slots") as exc:
                fam.sample_deform(t, tau, (0, 1), 2, random.Random(0))
            assert exc.value.code == "bad-shape"
        M = fam.normal_form(t, (1, 0), {0: c, 1: t.one()})
        assert M.family["tau"] == (0, 1)
        assert M.dumps() == fam.normal_form(t, (0, 1), {0: c, 1: t.one()}).dumps()
        out = fam.sample_deform(t, (1, 0), (1, 1), 2, random.Random(0))
        assert out == fam.sample_deform(t, (0, 1), (1, 1), 2, random.Random(0))
        assert out["tau"] == [0, 1]

    def test_pairing_note_when_no_scalar_exists(self):
        # odd reduced a-number needs sigma^f(z) = -z, impossible at ext = 1
        t = tower(3, 2, 1, ext=1)
        M = fam.normal_form(t, (0,), {0: t.zero()})
        assert M.delta is None and M.pairing_note is not None

    def test_odd_sign_scalar_computed_once_per_tower(self, monkeypatch):
        t = CoeffTower(3, 3, 1, 2, 7)
        calls = []
        power = CoeffTower.teichmuller_power

        def counting_power(tower, k):
            calls.append(k)
            return power(tower, k)

        monkeypatch.setattr(CoeffTower, "teichmuller_power", counting_power)
        fam._odd_sign_scalar.cache_clear()
        deltas = [fam.normal_form(t, tau, {i: t.one() for i in tau}).delta
                  for tau in ((0,), (1,), (0, 1, 2), (2,))]
        # zeta = T**k with k = (q - 1)/(2(p^f - 1)), lifted once
        assert calls == [(t.q - 1) // (2 * (t.p ** t.f - 1))]
        z = deltas[0][0]
        assert z == deltas[2][0]
        # delta0 absorbs the odd sign: sigma^f(delta0) = -delta0
        assert z.sigma(t.f) == -z


class TestSuperspecial:
    def test_rapoport_variant(self):
        t = tower(3, 3, 2, ext=2)
        M = fam.superspecial(t, variant="rapoport")
        assert a_type(M).rapoport_form == (2, 2, 2)
        assert classify(M)["superspecial"]

    def test_fm_equals_vm(self):
        # superspecial means the F- and V-spans agree slotwise mod p
        for args in ((3, 3, 2, (1, 1)), (3, 2, 2, (0, 1)), (3, 1, 3, (1, 2))):
            p, f, e, (e1, e2) = args
            t = tower(p, f, e, ext=2)
            if f % 2 and e1 + e2 != e:
                continue
            M = fam.superspecial(t, e1, e2, "general")
            for i in range(f):
                frows = M.fbar_matrix(i)
                vrows = M.vbar_matrix((i + 1) % f)
                df = smith_exponents(frows, e)
                dv = smith_exponents(vrows, e)
                ds = smith_exponents(frows + vrows, e)
                assert df == dv == ds

    def test_f_even_alternating_pattern(self):
        t = tower(3, 2, 2, ext=2)
        M = fam.superspecial(t, 0, 1, "general")
        assert lie_type(M).pairs == ((0, 1), (1, 2))
        assert a_type(M).pairs == ((0, 1), (1, 2))

    def test_odd_f_needs_balanced_exponents(self):
        t = tower(3, 3, 2, ext=2)
        with pytest.raises(DomainError):
            fam.superspecial(t, 0, 1, "general")


def _product_route_mats(base, target, asg):
    """deform_specialize's slot matrices formed by ring products: T_i as the
    sum of lift * pi^j over the slot's coordinates, then T_i * pi^e off tau."""
    t = base.tower
    e, tau, entries = t.e, base.family["tau"], base.family["entries"]
    mats = []
    for i in range(t.f):
        Ti = t.zero()
        for j in range(target[i], e):
            lift = t.ram(t.teichmuller(asg[(i, j)]))
            if lift:
                Ti = Ti + lift * t.pi_pow(j)
        if i in tau:
            mats.append(((Ti + entries[i], t.one()), (t.pi_pow(e), t.zero())))
        else:
            mats.append(((t.one(), t.zero()), (Ti * t.pi_pow(e), t.pi_pow(e))))
    return tuple(mats)


class TestDeform:
    def test_zero_assignment_restores_base(self):
        t = tower(3, 2, 2, ext=2)
        base = fam.normal_form(t, (0,), {0: t.pi()})
        target = tuple(min(2, (base.family["entries"].get(i, t.zero()).ord_lower())
                           if i in base.family["tau"] else 0) for i in range(2))
        F = t.residue_field
        asg = {(i, j): F.zero() for i in range(2) for j in range(target[i], 2)}
        M = fam.deform_specialize(base, target, asg)
        assert M.matrices == base.matrices

    def test_key_mismatch_rejected(self):
        t = tower(3, 2, 2, ext=2)
        base = fam.normal_form(t, (0,), {0: t.pi()})
        with pytest.raises(DomainError, match="keys"):
            fam.deform_specialize(base, (0, 0), {(0, 0): t.residue_field.zero()})

    def test_lifted_coordinates_give_the_same_fiber(self, rng):
        # a coordinate given as a Witt element is taken as T_{i,j} itself:
        # the Teichmuller lifts of an assignment give its fiber, and keys,
        # target and tower are still checked
        t = tower(3, 2, 2, ext=2)
        base = fam.normal_form(t, (0,), {0: t.zero()})
        F = t.residue_field
        for _ in range(5):
            asg = {(i, j): F.random(rng) for i in range(2) for j in range(2)}
            lifts = {k: t.teichmuller(a) for k, a in asg.items()}
            M = fam.deform_specialize(base, (0, 0), lifts)
            assert M.matrices == fam.deform_specialize(base, (0, 0), asg).matrices
        with pytest.raises(DomainError, match="keys"):
            fam.deform_specialize(base, (0, 0), {(0, 0): t.witt_zero()})
        with pytest.raises(DomainError, match="exceeds"):
            fam.deform_specialize(base, (1, 1), {(0, 1): t.witt_zero(), (1, 1): t.witt_zero()})
        other = tower(3, 2, 2, ext=4)
        with pytest.raises(DomainError, match="different tower"):
            fam.deform_specialize(base, (0, 0), {**lifts, (1, 0): other.witt_one()})

    def test_target_above_base_rejected(self):
        t = tower(3, 2, 2, ext=2)
        base = fam.normal_form(t, (0,), {0: t.pi()})  # base a-type (2, 0)
        F = t.residue_field
        asg = {(1, j): F.zero() for j in range(1, 2)}
        asg.update({(0, j): F.zero() for j in range(2)})
        with pytest.raises(DomainError, match="exceeds"):
            fam.deform_specialize(base, (0, 1), asg)

    def test_flattened_strata(self):
        # zeroing t_0..t_(m-1) with t_m a unit gives Newton index m
        t = tower(3, 3, 2, ext=2, slack=0)
        base = fam.normal_form(t, (0,), {0: t.zero()})
        F = t.residue_field
        for m in range(0, 4):
            asg = {}
            for i in range(3):
                for j in range(2):
                    k = 2 * i + j
                    asg[(i, j)] = F.one() if k == m else F.zero()
            M = fam.deform_specialize(base, (0, 0, 0), asg)
            assert newton_point(M, "fast").index == min(Fraction(3), Fraction(m))

    def test_prop_superspecial_deformation_reaches_bound(self, rng):
        # from the all-slots base with small targets, random specializations
        # attain index |target| with positive frequency
        t = tower(3, 2, 2, ext=4)
        base = fam.normal_form(t, (0, 1), {0: t.zero(), 1: t.zero()})
        target = (1, 1)  # a^i <= floor(e/2)
        hits = 0
        for _ in range(60):
            asg = {(i, j): t.residue_field.random_unit(rng)
                   for i in range(2) for j in range(target[i], 2)}
            M = fam.deform_specialize(base, target, asg)
            if newton_point(M, "fast").index == 2:
                hits += 1
        assert hits > 0

    def test_sample_deform_histogram(self, rng):
        t = tower(3, 2, 1, ext=4)
        out = fam.sample_deform(t, (0,), (1, 0), 40, rng)
        assert out["trials"] == 40
        assert sum(out["slope_histogram"].values()) == 40
        assert out["slope_histogram"].get("1", 0) >= 30  # spaced target, index 1 generic

    @pytest.mark.parametrize("shape, c, target", [
        ((3, 2, 2, 4), {0: 0}, (1, 0)),
        ((3, 2, 2, 4), {0: 0, 1: 0}, (0, 1)),
        ((5, 3, 2, 2), {0: 0, 2: 0}, (1, 0, 2)),
        ((3, 2, 3, 1), {1: "pi-truncated"}, (0, 1)),
    ], ids=["ext4-target1", "ext4-all-tau", "p5-three-slots", "truncated-entry"])
    def test_slot_matrices_match_product_route(self, rng, shape, c, target):
        # T_i placed coefficientwise and T_i * p must equal the ring products
        # sum lift * pi^j and T_i * pi^e, entry and precision
        p, f, e, ext = shape
        t = tower(p, f, e, ext=ext)
        c = {i: t.ram([0, 1], prec=3) if x == "pi-truncated" else t.ram(x)
             for i, x in c.items()}
        base = fam.normal_form(t, tuple(c), c)
        F = t.residue_field
        for trial in range(6):
            # trial 0 all zero, trial 1 all units, then a mix with zeros
            asg = {(i, j): F.zero() if trial == 0 or (trial > 1 and rng.random() < 0.3)
                   else F.random_unit(rng) if trial == 1 else F.random(rng)
                   for i in range(f) for j in range(target[i], e)}
            got = fam.deform_specialize(base, target, asg).matrices
            want = _product_route_mats(base, target, asg)
            assert got == want
            assert [[x.prec for row in m for x in row] for m in got] == \
                [[x.prec for row in m for x in row] for m in want]

    @pytest.mark.parametrize("shape", [
        (3, 3, 1, 1), (3, 2, 2, 1), (2, 3, 1, 1), (2, 2, 2, 2), (3, 2, 2, 2),
        (5, 3, 1, 2), (3, 2, 1, 3),
    ], ids=["ext1", "ext1-e2", "p2-ext1", "p2-ext2", "ext2", "p5-ext2", "odd-ext3"])
    def test_fiber_pairing_is_a_fresh_one(self, rng, shape):
        # for every tau, the fiber's delta and pairing_note, taken from its
        # base, equal _pairing_scalars of the fiber's own slot signs
        p, f, e, ext = shape
        t = tower(p, f, e, ext=ext)
        F = t.residue_field
        notes = set()
        for mask in range(2 ** f):
            tau = tuple(i for i in range(f) if mask >> i & 1)
            base = fam.normal_form(t, tau, {i: t.zero() for i in tau})
            asg = {(i, j): F.random(rng) for i in range(f) for j in range(e)}
            M = fam.deform_specialize(base, (0,) * f, asg)
            deltas, note = fam._pairing_scalars(t, [-1 if i in tau else 1 for i in range(f)])
            assert M.delta == (None if deltas is None else tuple(deltas))
            assert M.pairing_note == note
            notes.add(note)
        # the odd-sign cases: a zeta scalar at even ext and p odd, else a note
        assert (None in notes, len(notes) > 1) == (True, p == 2 or ext % 2 == 1)

    @pytest.mark.parametrize("shape, tau", [
        ((3, 2, 2, 2), (0,)), ((3, 2, 2, 2), (0, 1)), ((2, 3, 1, 1), ()), ((5, 3, 1, 2), (1,)),
    ])
    def test_fiber_with_tampered_delta_is_refused(self, rng, shape, tau):
        # the base's scalars reach the fiber through DModule's check: one
        # negated scalar breaks det(A[1]) delta[1] = p sigma(delta[0])
        p, f, e, ext = shape
        t = tower(p, f, e, ext=ext)
        F = t.residue_field
        base = fam.normal_form(t, tau, {i: t.zero() for i in tau})
        assert base.delta is not None
        base.delta = (base.delta[0], -base.delta[1]) + base.delta[2:]
        asg = {(i, j): F.random_unit(rng) for i in range(f) for j in range(e)}
        with pytest.raises(DomainError, match="det\\(A\\)\\*delta") as exc:
            fam.deform_specialize(base, (0,) * f, asg)
        assert exc.value.code == "pairing-incompatible"


class TestPiSwapExample:
    def test_shape_validation(self):
        t = tower(3, 2, 2)
        with pytest.raises(DomainError):
            fam.nonrapoport_module(t)  # f must be 1

    def test_warns_at_p3(self):
        t = tower(3, 1, 2, ext=2)
        with pytest.warns(UserWarning):
            M = fam.nonrapoport_module(t)
        assert classify(M)["superspecial"]

    def test_full_profile(self):
        t = tower(5, 1, 2, ext=2)
        M = fam.nonrapoport_module(t)
        assert lie_type(M).pairs == ((1, 1),)
        assert a_type(M).pairs == ((1, 1),)
        assert newton_point(M).index == 1
        assert M.delta is not None
