"""Module validation on the packed kernel against `validationref`, the
checks of `DModule.__init__` on RamElem arithmetic.

Every presentation either validates on both routes with the same
`det_orders`, `entry_orders`, entry valuations and `det_sum`, or is refused by
both with the same exception class, code, message and precision bound.
The inputs are family modules, deformation fibers, base changes, duals and
truncated presentations, each possibly broken in one of the ways that
validation refuses.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dieumod import DModule, DomainError, PrecisionError
from dieumod.wittring import RamElem
from conftest import tower
from test_invariants import base_change, family_module, fiber
import validationref

SHAPES = [(p, f, e, ext) for p in (2, 3, 5) for e in (1, 2, 3) for f in (1, 2, 3, 4)
          for ext in (1, 2, 3, 4) if p ** (f * ext) < 2 ** 20]
KINDS = ("normal", "slope", "superspecial", "superspecial-general", "random", "fiber")
BREAKS = ("none", "none", "scale-slot", "scale-column", "zero-delta", "shift-delta",
          "equal-rows", "cut-slot")


def outcome(route, tower, mats, delta, mode):
    """What validation keeps, or the refusal as (class, code, message, bound,
    info)."""
    try:
        M = route(tower, mats, delta, mode)
    except (DomainError, PrecisionError) as exc:
        return (type(exc), getattr(exc, "code", None), str(exc),
                getattr(exc, "lower_bound", None), getattr(exc, "info", None))
    ords = M.repr_orders if route is validationref.validate else [
        P.ords for P in M.packed_matrices]
    return (M.det_orders, M.entry_orders, [tuple(r) for r in ords], M.det_sum)


def cut(t, x, rng, top):
    return RamElem(t, x.coeffs, rng.randrange(1, top + 1))


def broken(M, kind, rng):
    """(matrices, delta, mode) of M, broken one way at a random slot."""
    t = M.tower
    mats = [[list(row) for row in A] for A in M.matrices]
    delta = None if M.delta is None else list(M.delta)
    i = rng.randrange(t.f)
    A = mats[i]
    if kind == "scale-slot":  # raises det by 2k and the entries by k
        s = t.pi_pow(rng.randrange(1, t.e + 2))
        mats[i] = [[x * s for x in row] for row in A]
    elif kind == "scale-column":  # raises det by k
        s = t.pi_pow(rng.randrange(1, t.e + 1))
        mats[i] = [[A[0][0], A[0][1] * s], [A[1][0], A[1][1] * s]]
    elif kind == "zero-delta":
        delta = [t.one()] * t.f if delta is None else delta
        delta[i] = t.zero()
    elif kind == "shift-delta":
        delta = [t.one()] * t.f if delta is None else delta
        delta[i] = delta[i] + t.pi_pow(rng.randrange(t.pi_precision))
    elif kind == "equal-rows":  # det 0
        mats[i] = [list(A[0]), list(A[0])]
    elif kind == "cut-slot":  # entries certified to at most e + 1 digits
        mats[i] = [[cut(t, x, rng, t.e + 1) for x in row] for row in A]
    return mats, delta, M.mode


@st.composite
def presentations(draw):
    t = tower(*draw(st.sampled_from(SHAPES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(KINDS))
    M = fiber(t, rng) if kind == "fiber" else family_module(t, kind, rng)
    if draw(st.booleans()):
        M = base_change(M, rng)
    if draw(st.booleans()):
        try:
            M = M.dual()
        except (DomainError, PrecisionError):
            pass  # non-unit pairing scalars or no certified digits left
    mats, delta, mode = broken(M, draw(st.sampled_from(BREAKS)), rng)
    if draw(st.booleans()):  # truncated entries and pairing scalars
        top = draw(st.sampled_from((t.e + 1, t.pi_precision)))
        mats = [[[cut(t, x, rng, top) if rng.random() < .3 else x for x in row]
                 for row in A] for A in mats]
        if delta is not None:
            delta = [cut(t, d, rng, top) if rng.random() < .3 else d for d in delta]
    return t, mats, delta, mode


class TestValidationReference:
    @settings(max_examples=400, deadline=None)
    @given(presentations())
    def test_matches_ramelem_validation(self, case):
        assert outcome(DModule, *case) == outcome(validationref.validate, *case)
        t, mats = case[:2]
        for A in mats:  # the packed determinant, value and precision
            A = validationref.mat(t, A)
            assert t.ram(*t.det(t.packed(A))) == validationref.mat_det(A)

    def test_every_refusal(self):
        # each refusal of validation, reached by hand, on both routes
        t = tower(3, 1, 1)
        full = t.pi_precision
        p_low = RamElem(t, t.ram(3).coeffs, 1)  # p, certified to one digit: 0
        t2 = tower(3, 1, 1, ext=2)
        cases = [
            (t, [[[1, 0], [0, 9]]], None, "separable", DomainError, "v-nonintegral",
             "slot 0: p*A^(-1) is not integral (min adjugate valuation 0, det valuation 2)"),
            (t, [[[1, 0], [0, 1]]], None, "separable", DomainError, "det-budget",
             "sum of det valuations is 0, expected g = 1 (slot valuations [0])"),
            (t, [[[1, 0], [0, 9]]], None, "general", DomainError, "v-nonintegral",
             "slot 0: p*A^(-1) is not integral (min adjugate valuation 0, det valuation 2)"),
            (t, [[[1, 0], [0, 3]]], [0], "separable", DomainError, "degenerate-pairing",
             "pairing scalar at slot 0 vanishes"),
            (t2, [[[1, 0], [0, 3]]], [t2.ram(t2.witt_gen())], "separable", DomainError,
             "pairing-incompatible", "slot 0: det(A)*delta != p*sigma(delta_prev)"),
            (t, [[[1, 1], [1, 1]]], None, "separable", PrecisionError, None,
             f"det A[0] is divisible by pi^{full}, the working precision"),
            (t, [[[p_low, 0], [0, 1]]], None, "separable", PrecisionError, None,
             "valuation >= 1 but element only certified to pi^1"),
        ]
        for tw, mats, delta, mode, cls, code, message in cases:
            got = outcome(DModule, tw, mats, delta, mode)
            assert got == outcome(validationref.validate, tw, mats, delta, mode)
            assert got[:3] == (cls, code, message)

    @pytest.mark.parametrize("p,f,e,ext", [(3, 2, 2, 2), (2, 3, 1, 4), (5, 1, 3, 2)])
    def test_packed_forms_are_kept(self, p, f, e, ext, rng):
        # one PackedMatrix per slot, whose `ords` are the stored valuations,
        # and the twisted-power chain starts from it
        t = tower(p, f, e, ext)
        for kind in ("normal", "slope", "random"):
            M = family_module(t, kind, rng)
            assert len(M.packed_matrices) == f
            for A, P in zip(M.matrices, M.packed_matrices):
                assert P.ords == tuple(x._repr_ord() for row in A for x in row)
                assert t.ram_matrix(P) == A
            assert M.twisted_factors()[-1] is M.packed_matrices[0]
