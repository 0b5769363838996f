"""Deformation fibers on the packed kernel against `deformref`, the fibers
of `families.deform_specialize` built from RamElems.

Every specialization either gives, on both routes, the same module (its
RamElem `matrices`, the packed forms' `cs`, `precs` and `ords`,
`det_orders`, `entry_orders`, pairing scalars and family record), or is
refused by both with the same exception class, code and message.  Bases are
normal forms with zero, pi-power, dense and truncated entries; targets lie
at or below the base a-type, or one above it; coordinates are residue
elements (random units, any element, zero), their Teichmuller lifts, arbitrary
Witt values, and now and then a Witt value of another tower or a missing
key.
"""

import random

from hypothesis import given, settings, strategies as st

from dieumod import DomainError, PrecisionError, families as fam
from dieumod.wittring import RamElem, WittElem
from conftest import tower
import deformref

SHAPES = [(p, f, e, ext) for p in (2, 3, 5) for f in (1, 2, 3) for e in (1, 2, 3)
          for ext in (1, 2, 3, 4) if p ** (f * ext) < 2 ** 20]


def outcome(route, base, target, assignment):
    """The fiber as comparable values, or its refusal as (class, code,
    message)."""
    try:
        M = route(base, target, assignment)
    except (DomainError, PrecisionError) as exc:
        return type(exc), getattr(exc, "code", None), str(exc)
    return (M.matrices, [(P.cs, P.precs, tuple(P.ords)) for P in M.packed_matrices],
            M.det_orders, M.entry_orders, M.det_sum,
            M.delta, M.mode, M.family, M.pairing_note)


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


def coordinate(t, rng):
    """A deformation coordinate: a residue element (a random unit, any
    element or zero) or a Witt value (a Teichmuller lift or any element)."""
    F = t.residue_field
    kind = rng.randrange(6)
    if kind == 0:
        return F.zero()
    if kind == 1:
        return F.random_unit(rng)
    if kind == 2:
        return F.random(rng)
    if kind == 3:
        return t.teichmuller(F.random(rng))
    if kind == 4:
        return t.random_witt(rng)
    return t.witt_zero()


@st.composite
def specializations(draw):
    p, f, e, ext = draw(st.sampled_from(SHAPES))
    t = tower(p, f, e, ext)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    tau = tuple(i for i in range(f) if rng.random() < .6)
    base = fam.normal_form(t, tau, {i: coefficient(t, rng) for i in tau})
    entries = base.family["entries"]
    target = []
    for i in range(f):
        top = min(e, entries[i].ord_lower()) if i in tau else 0
        # now and then one above the base value: refused
        target.append(min(e, top + 1) if rng.random() < .05 else rng.randrange(top + 1))
    asg = {(i, j): coordinate(t, rng) for i in range(f) for j in range(target[i], e)}
    broken = draw(st.sampled_from(("none",) * 6 + ("other-tower", "missing-key")))
    if asg and broken == "other-tower":
        other = tower(p, f, e, ext % 4 + 1)
        asg[rng.choice(sorted(asg))] = other.random_witt(rng)
    elif asg and broken == "missing-key":
        del asg[rng.choice(sorted(asg))]
    return base, tuple(target), asg


class TestPackedFibers:
    @settings(max_examples=300, deadline=None)
    @given(specializations())
    def test_matches_ramelem_fibers(self, case):
        assert outcome(fam.deform_specialize, *case) == outcome(deformref.deform_specialize,
                                                                *case)

    def test_fiber_builds_no_ramelem(self, rng, monkeypatch):
        # the slots are written from tuples: no RamElem, and the only
        # WittElems are the lifts `teichmuller` returns for nonzero residues
        t = tower(3, 3, 2, ext=2)
        base = fam.normal_form(t, (0, 2), {0: t.zero(), 2: RamElem(t, t.one().coeffs, 3)})
        F = t.residue_field
        asg = {(i, j): F.random_unit(rng) if j else F.zero() for i in range(3) for j in range(2)}
        built = []
        for cls in (RamElem, WittElem):
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, cls=cls:
                                built.append(cls.__name__) or init(self, *a))
        M = fam.deform_specialize(base, (0, 0, 0), asg)
        assert built == ["WittElem"] * 3
        assert M._matrices is None
        del built[:]
        assert M.matrices == deformref.deform_specialize(base, (0, 0, 0), asg).matrices
