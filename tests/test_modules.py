import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dieumod import (
    CoeffTower, DModule, DomainError, PrecisionError, lie_type, a_type, newton_point,
    dual_invariants,
)
from dieumod.modules import mat_sigma
from dieumod.wittring import RamElem, WittElem
from dieumod import families as fam
import chainref
import dualref
from conftest import mat_mul, random_unit, tower
from test_invariants import modules, truncated
from validationref import mat_det


def ordinary_mats(t):
    return [[[t.one(), t.zero()], [t.zero(), t.pi_pow(t.e)]] for _ in range(t.f)]


class TestValidation:
    def test_det_zero_to_working_precision_is_a_precision_limit(self):
        # the dual of the general-mode identity module is 3 I, of det
        # valuation 2e = 4 = eN at N = 2: a zero of O/pi^(eN), not of O
        t = tower(3, 1, 2)
        assert t.pi_precision == 4
        ident = [[[t.one(), t.zero()], [t.zero(), t.one()]]]
        with pytest.raises(PrecisionError) as exc:
            DModule(t, ident, None, "general").dual()
        assert exc.value.lower_bound == 4
        with pytest.raises(PrecisionError) as exc:
            DModule(t, [[[t.one(), t.one()], [t.one(), t.one()]]], None, "general")
        assert exc.value.lower_bound == 4
        # one more Witt digit certifies the valuation
        t3 = CoeffTower(3, 1, 2, N=3)
        ident = [[[t3.one(), t3.zero()], [t3.zero(), t3.one()]]]
        assert DModule(t3, ident, None, "general").dual().det_orders == [4]

    def test_ordinary_accepts(self):
        t = tower(3, 2, 2)
        M = DModule(t, ordinary_mats(t), [t.one()] * 2)
        assert M.det_orders == [2, 2]

    def test_pi_swap_module(self):
        t = tower(5, 1, 2, ext=2)
        pi = t.pi()
        M = fam.nonrapoport_module(t)
        assert M.det_orders == [2]
        d = mat_det(M.matrices[0])
        assert d == -t.ram(5)  # det = -pi^2 = -p

    def test_identity_matrix_rejected_on_budget(self):
        t = tower(3, 1, 2)
        eye = [[[t.one(), t.zero()], [t.zero(), t.one()]]]
        with pytest.raises(DomainError, match="det"):
            DModule(t, eye)

    def test_v_nonintegral_rejected(self):
        t = tower(3, 2, 1)
        p2 = t.ram(9)
        mats = [[[t.one(), t.zero()], [t.zero(), p2]],
                [[t.one(), t.zero()], [t.zero(), t.one()]]]
        with pytest.raises(DomainError, match="integral"):
            DModule(t, mats)

    def test_pairing_incompatibility_rejected(self):
        t = tower(3, 2, 2)
        with pytest.raises(DomainError, match="delta"):
            DModule(t, ordinary_mats(t), [t.one(), t.pi()])

    def test_degenerate_pairing_rejected(self):
        t = tower(3, 2, 2)
        with pytest.raises(DomainError, match="pairing"):
            DModule(t, ordinary_mats(t), [t.zero(), t.zero()])

    def test_general_mode_budget(self):
        t = tower(3, 1, 2, slack=2)  # room to certify valuation 4 = 2g
        pim = [[[t.pi_pow(2), t.zero()], [t.zero(), t.pi_pow(2)]]]
        M = DModule(t, pim, None, "general")
        assert M.det_sum == 4
        with pytest.raises(DomainError, match="det"):
            DModule(t, pim, None, "separable")


class TestTwistedPower:
    def test_f1_returns_slot_matrix(self):
        t = tower(5, 1, 2, ext=2)
        M = fam.nonrapoport_module(t)
        assert M.twisted_power() == M.matrices[0]

    def test_slope_family_worked_example(self):
        # g = 6 (f = 3, e = 2), a = 2: the product collapses to -p * A_f and
        # the trace valuation is e*d + r = 2
        t = tower(3, 3, 2)
        M = fam.slope_family(t, 2)
        B = M.twisted_power()
        tr = B[0][0] + B[1][1]
        assert tr.ord_pi() == 2
        assert mat_det(B).ord_pi() == 6

    def test_det_valuation_splits_over_slots(self, rng):
        t = tower(3, 3, 2, ext=2)
        for _ in range(10):
            mask = rng.randrange(8)
            tau = tuple(i for i in range(3) if mask >> i & 1)
            M = fam.normal_form(t, tau, {i: t.random_ram(rng) for i in tau})
            for b in range(3):
                assert mat_det(chainref.twisted_power(M, b)).ord_pi() == sum(M.det_orders)

    def test_base_slot_trace_consistency_on_families(self, rng):
        # trace valuations agree across base slots for the constructed
        # families (they need not for arbitrary matrix presentations)
        t = tower(3, 4, 1, ext=2)
        for _ in range(10):
            mask = rng.randrange(1, 16)
            tau = tuple(i for i in range(4) if mask >> i & 1)
            M = fam.normal_form(t, tau, {i: t.random_ram(rng) for i in tau})
            vals = set()
            for b in range(4):
                B = chainref.twisted_power(M, b)
                trv = (B[0][0] + B[1][1]).ord_lower()
                vals.add(trv)
            assert len(vals) == 1

    def test_iterate_superadditivity(self, rng):
        t = tower(3, 2, 2, ext=2, slack=8)
        M = fam.normal_form(t, (0,), {0: t.pi()})
        ms = {n: chainref.iterate_twisted(M, n) for n in (1, 2, 3, 4, 5, 6)}
        for a in range(1, 4):
            for b in range(1, 4):
                assert ms[a + b] >= ms[a] + ms[b]

    def test_pi_swap_second_iterate(self):
        t = tower(5, 1, 2, ext=2)
        M = fam.nonrapoport_module(t)
        assert list(M.min_valuation_doublings(1)) == [(1, 1), (2, 2)]  # F^2 = p on the basis

    def test_precision_exhaustion_reported(self):
        t = tower(3, 1, 2, slack=0)  # minimal policy precision
        M = fam.normal_form(t, (0,), {0: t.zero()})
        with pytest.raises(PrecisionError):
            chainref.iterate_twisted(M, 8)
        with pytest.raises(PrecisionError):
            list(M.min_valuation_doublings(3))

    def test_doublings_match_iterates(self, rng):
        # the squaring chain twists C_n by sigma^(f*n), the reference
        # `chainref.iterate_twisted` twists by sigma^f once per factor; on ext = 2 and 4 towers sigma^f
        # is not the identity, so a wrong exponent on either side shows.
        # sigma^(f*n) is the identity for every n at ext = 1, from n = 2 at
        # ext = 2 and from n = 4 at ext = 4, where the chain squares C_n
        modules = []
        for ext in (1, 2, 4):
            for f, e in ((1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
                t = tower(3, f, e, ext=ext, slack=8)
                modules += [fam.slope_family(t, a) for a in range(t.g // 2 + 1)]
                for _ in range(3):
                    mask = rng.randrange(1, 2 ** f)
                    tau = tuple(i for i in range(f) if mask >> i & 1)
                    modules.append(fam.normal_form(t, tau, {i: t.random_ram(rng) for i in tau}))
            modules.append(fam.nonrapoport_module(tower(5, 1, 2, ext=ext, slack=8)))
        for M in modules:  # slack 8 certifies every iterate up to F^(8f)
            want = [(2 ** k, chainref.iterate_twisted(M, 2 ** k)) for k in range(4)]
            assert list(M.min_valuation_doublings(3)) == want, M


def new_entries(P, Q):
    """The output entries of the packed product P Q that `mat_product`
    reduces, read off the operands' tuples: those that are not zero and,
    off the squaring route (Q is P), not a copy, whose one product that is
    not zero has a factor exactly 1.  A packed product or sum of packed
    products is zero exactly when each of its products has a zero factor."""
    def zero(x):
        return not any(map(any, x))

    def one(x):
        return x[0][0] == 1 and not any(x[0][1:]) and zero(x[1:])

    a, b = P.cs, Q.cs
    n = 0
    for r in (0, 1):
        for c in (0, 1):
            live = [(x, y) for x, y in ((a[2 * r], b[c]), (a[2 * r + 1], b[2 + c]))
                    if not (zero(x) or zero(y))]
            if Q is P:
                # squaring route: b(a + d) and c(a + d) sum a + d first
                if r != c:
                    live = [] if zero(a[1 + r]) or zero(a[0]) and zero(a[3]) else [0]
                n += bool(live)
            else:
                n += bool(live) and not (len(live) == 1 and (one(live[0][0]) or one(live[0][1])))
    return n


class TestMatMul:
    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_dense_product_is_one_kernel_call(self, e, rng, monkeypatch):
        # no entrywise RamElem products or sums, and one reduction per
        # pi-degree of each output entry that is neither zero nor a copy:
        # all four of a dense product, fewer with zero and one entries
        t = tower(3, 2, e, ext=2)
        calls = {}
        for owner, name in ((RamElem, "__mul__"), (RamElem, "__add__"), (t, "_ram_reduce")):
            def counting(*args, _orig=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(owner, name, counting)
        values = (t.zero, t.one, t.pi, lambda: t.random_ram(rng))
        for k in range(40):
            if k < 3:  # dense
                A, B = (tuple(tuple(t.random_ram(rng) for _ in range(2)) for _ in range(2))
                        for _ in range(2))
            else:
                A, B = (tuple(tuple(rng.choice(values)() for _ in range(2)) for _ in range(2))
                        for _ in range(2))
            P, Q = t.packed(A), t.packed(B)
            calls.update(__mul__=0, __add__=0, _ram_reduce=0)
            t.mat_product(P, Q)
            assert calls == {"__mul__": 0, "__add__": 0, "_ram_reduce": new_entries(P, Q)}
            if k < 3:
                assert calls["_ram_reduce"] == 4

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_chain_links_stay_packed(self, e, rng, monkeypatch):
        # a doubling step is one packed product, e reductions per output
        # entry that is neither zero nor a copy, and builds no WittElem or
        # RamElem; the fast Newton point forms f - 2 full links and only
        # the trace of the last (e reductions), with truncated entries as
        # well
        calls = Counter()

        def count(owner, name):
            orig = getattr(owner, name)

            def counting(*args):
                calls[getattr(owner, "__name__", "tower") + "." + name] += 1
                return orig(*args)

            monkeypatch.setattr(owner, name, counting)

        for owner, name in ((WittElem, "__init__"), (RamElem, "__init__"),
                            (CoeffTower, "mat_trace")):
            count(owner, name)
        for f in (2, 3):
            t = tower(3, f, e, ext=2, slack=8)
            M = fam.normal_form(t, (0,), {0: t.random_ram(rng)})
            T = DModule(t, [[[RamElem(t, x.coeffs, t.pi_precision - 1) for x in row]
                             for row in A] for A in M.matrices], M.delta)
            count(t, "_ram_reduce")
            links = []
            product = t.mat_product
            monkeypatch.setattr(t, "mat_product", lambda P, Q: links.append((P, Q))
                                or product(P, Q))
            for X in (M, T):
                steps = X.min_valuation_doublings(3)
                next(steps)
                for _ in range(3):
                    calls.clear()
                    links.clear()
                    next(steps)
                    assert len(links) == 1
                    assert calls == {"tower._ram_reduce": new_entries(*links[0])}
                calls.clear()
                links.clear()
                newton_point(X, "fast")
                assert calls["CoeffTower.mat_trace"] == 1
                assert len(links) == f - 2
                assert calls["tower._ram_reduce"] == sum(new_entries(*x) for x in links) + 1

    def test_mat_sigma_returns_its_argument_only_for_the_identity(self, rng):
        t = tower(3, 2, 2, ext=2)
        A = tuple(tuple(t.random_ram(rng) for _ in range(2)) for _ in range(2))
        const = ((t.one(), t.pi()), (t.ram(3), t.zero()))
        for n in range(-t.d, 2 * t.d + 1):
            S = mat_sigma(A, n)
            assert (S is A) == (n % t.d == 0)
            assert S == tuple(tuple(RamElem(t, [c.sigma(n) for c in x.coeffs], x.prec)
                                    for x in row) for row in A)
            # sigma fixes constant coefficients: each entry comes back itself
            assert all(x.sigma(n) is x for row in const for x in row)

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_square_matches_product_with_a_copy(self, e, rng, monkeypatch):
        # mat_mul(A, A) takes the squaring route (four entries packed, not
        # eight); values and precisions equal those of mat_mul(A, copy of A),
        # with zero, pi-power and truncated entries
        t = tower(3, 2, e, ext=2)
        full = t.pi_precision

        def entry():
            x = rng.choice([t.zero(), t.pi_pow(rng.randrange(2 * e)), t.random_ram(rng),
                            random_unit(t, rng) * t.pi_pow(rng.randrange(e + 1))])
            return RamElem(t, x.coeffs, rng.randrange(1, full + 1)) if rng.random() < .4 else x

        packs = [0]
        pack = t._ram_pack

        def counting(coeffs):
            packs[0] += 1
            return pack(coeffs)

        monkeypatch.setattr(t, "_ram_pack", counting)
        for _ in range(60):
            A = tuple(tuple(entry() for _ in range(2)) for _ in range(2))
            copy = tuple(tuple(RamElem(t, x.coeffs, x.prec) for x in row) for row in A)
            packs[0] = 0
            square = mat_mul(A, A)
            assert packs[0] == 4
            want = mat_mul(A, copy)
            assert packs[0] == 12
            assert square == want  # RamElem equality compares precisions too


class TestReduceModP:
    def test_ordinary(self):
        t = tower(3, 2, 2)
        M = DModule(t, ordinary_mats(t), [t.one()] * 2)
        for i in range(t.f):
            fbar, vbar = M.fbar_matrix(i), M.vbar_matrix(i)
            assert [[c.ord() for c in row] for row in fbar] == [[0, 2], [2, 2]]
            assert [[c.ord() for c in row] for row in vbar] == [[2, 2], [2, 0]]

    def test_pi_swap(self):
        t = tower(5, 1, 2, ext=2)
        M = fam.nonrapoport_module(t)
        fbar, vbar = M.fbar_matrix(0), M.vbar_matrix(0)
        assert [[c.ord() for c in row] for row in fbar] == [[2, 1], [1, 2]]
        assert [[c.ord() for c in row] for row in vbar] == [[2, 1], [1, 2]]

    def test_normal_form_slot_has_unit_y_row(self):
        # V on a marked slot sends a generator onto Y with unit coefficient
        t = tower(3, 1, 3, ext=2)
        M = fam.normal_form(t, (0,), {0: t.pi()})
        vbar = M.vbar_matrix(0)
        assert vbar[0][1].is_unit()

    def test_fv_is_p(self):
        # (p A^(-1)) * A = p * identity on every slot: FV = VF = p holds by
        # construction since V is always derived, never stored
        t = tower(3, 2, 2, ext=2)
        M = fam.normal_form(t, (0,), {0: t.pi()})
        p_id = ((t.ram(3), t.zero()), (t.zero(), t.ram(3)))
        for i in range(t.f):
            prod = mat_mul(M._p_inverse(i), M.matrices[i])
            for r1, r2 in zip(prod, p_id):
                for x, y in zip(r1, r2):
                    diff = x - y
                    assert diff.ord_lower() >= diff.prec


class TestDual:
    def test_dual_of_ordinary_is_ordinary(self):
        t = tower(3, 2, 2)
        M = DModule(t, ordinary_mats(t), [t.one()] * 2)
        D = M.dual()
        assert lie_type(D).pairs == ((0, 2), (0, 2))
        assert newton_point(D).is_ordinary

    def test_pi_swap_self_dual_invariants(self):
        t = tower(5, 1, 2, ext=2)
        M = fam.nonrapoport_module(t)
        D = M.dual()
        assert lie_type(D).pairs == ((1, 1),)
        assert a_type(D).pairs == ((1, 1),)

    def test_rapoport_to_rapoport(self, rng):
        t = tower(3, 2, 2, ext=2)
        M = fam.normal_form(t, (1,), {1: t.pi()})
        D = M.dual()
        assert lie_type(M).is_rapoport and lie_type(D).is_rapoport

    def test_double_dual_invariants(self, rng):
        t = tower(3, 2, 2, ext=2, slack=2)
        M = fam.normal_form(t, (0,), {0: t.random_ram(rng)})
        DD = M.dual().dual()
        assert lie_type(DD).pairs == lie_type(M).pairs
        assert a_type(DD).pairs == a_type(M).pairs
        assert newton_point(DD).index == newton_point(M).index

    def test_dual_pairing_compatibility_preserved(self):
        # the dual is revalidated on construction, including the pairing rule
        t = tower(3, 3, 1, ext=2)
        M = fam.slope_family(t, 1)
        D = M.dual()
        assert D.delta is not None

    def test_dual_needs_unit_scalars(self):
        t = tower(3, 2, 2)
        M = fam.superspecial(t, 0, 1, "general")  # pi-power pairing scalars
        with pytest.raises(DomainError, match="unit"):
            M.dual()


@st.composite
def adjugate_modules(draw):
    """A family or general-mode module, possibly its dual, possibly with
    entries (and pairing scalars) truncated to fewer digits."""
    M, rng = draw(modules())
    if draw(st.booleans()):
        M = truncated(M, rng, low=draw(st.booleans()), delta=draw(st.booleans())) or M
    return M


def outcome(route, *args):
    try:
        return route(*args)
    except (DomainError, PrecisionError) as exc:
        return exc


def entries(A):
    return [x for row in A for x in row]


def agrees(new, old):
    """new is certified to at least old's digits and equals old on them."""
    return new.prec >= old.prec and RamElem(new.tower, new.coeffs, old.prec) == old


class TestExactAdjugate:
    """`_p_adjugate` forms pi^(e-v) adj(A) by one pi-shift per entry;
    `dualref` forms p adj(A) / pi^v, which spends v digits."""

    @settings(max_examples=200, deadline=None)
    @given(adjugate_modules())
    def test_matches_multiply_then_divide(self, M):
        full = M.tower.pi_precision
        for i in range(M.f):
            v = M.det_orders[i]
            new, old = outcome(M._p_adjugate, i), outcome(dualref.p_adjugate, M, i)
            if isinstance(new, Exception):
                # only an entry certified to exactly v - e digits runs out
                assert isinstance(new, PrecisionError) and isinstance(old, PrecisionError)
                continue
            (a, b), (c, d) = M.matrices[i]
            for x, y in zip(entries(new), (d, b, c, a)):
                # the shift spends the digits of pi^(v - e) only when v > e
                assert x.prec == min(y.prec + M.e - v, full)
            if not isinstance(old, Exception):
                assert all(map(agrees, entries(new), entries(old)))
        old = outcome(dualref.dual, M)
        new = outcome(M.dual)
        if isinstance(old, DomainError):
            assert isinstance(new, DomainError) and new.code == old.code
        elif isinstance(old, DModule):
            assert isinstance(new, DModule), new  # builds wherever the old route did
            assert (new.mode, new.delta) == (old.mode, old.delta)
            for A, B in zip(new.matrices, old.matrices):
                assert all(map(agrees, entries(A), entries(B)))

    @pytest.mark.parametrize("build", [
        fam.ordinary_module, lambda t: fam.slope_family(t, 1),
        lambda t: fam.normal_form(t, (0,), {0: t.ram([[1, 2], [3, 4]])}),
        lambda t: fam.superspecial(t, variant="rapoport")])
    def test_builds_where_multiply_then_divide_ran_out(self, build):
        # e*N = 4: p * x caps at 4 digits and the division by pi^2 leaves 2,
        # too few for the unit division; the shift spends none of them
        t = tower(5, 1, 2, ext=2)
        M = build(t)
        with pytest.raises(PrecisionError):
            dualref.dual(M)
        D = M.dual()
        L, a = dual_invariants(lie_type(M), a_type(M))
        assert lie_type(D).pairs == L.pairs and a_type(D).pairs == a.pairs
        DD = D.dual()
        assert lie_type(DD).pairs == lie_type(M).pairs and a_type(DD).pairs == a_type(M).pairs


class TestSerialization:
    def test_roundtrip(self, rng):
        t = tower(3, 2, 2, ext=2)
        M = fam.normal_form(t, (0,), {0: t.random_ram(rng)})
        M2 = DModule.from_json(json.loads(M.dumps()))
        assert M2.matrices == M.matrices
        assert M2.delta == M.delta
        assert M2.mode == M.mode

    def test_truncated_roundtrip_keeps_precisions(self):
        # an entry known only mod pi leaves the a-type uncertified (as in
        # test_invariants' test_uncertified_mixed_minor_raises); reloaded at
        # full precision it would answer
        t = tower(3, 1, 2)
        M = fam.normal_form(t, (0,), {0: t.zero()})
        (x, one), (pe, z) = M.matrices[0]
        T = DModule(t, [[[RamElem(t, x.coeffs, 1), one], [pe, z]]])
        data = json.loads(T.dumps())
        assert data["precisions"] == {"matrices": [[[1, 4], [4, 4]]], "delta": None}
        R = DModule.from_json(data)
        assert R.dumps() == T.dumps() and R.matrices == T.matrices
        with pytest.raises(PrecisionError) as exc:
            a_type(R)
        assert exc.value.lower_bound == 1
        # a full-precision module has no precisions in its JSON
        assert "precisions" not in M.to_json()

    @pytest.mark.parametrize("precs", [
        [3], {"matrices": [[[3, 3], [3, 3]]]}, {"matrices": [[[4, 3], [3, 3]]], "delta": [3]},
        {"matrices": [[[-1, 3], [3, 3]]], "delta": [3]},
        {"matrices": [[[True, 3], [3, 3]]], "delta": [3]},
        {"matrices": [[[3, 3]]], "delta": [3]}, {"matrices": [[[3, 3], [3, 3]]], "delta": 3},
        {"matrices": [[[3, 3], [3, 3]]] * 2, "delta": [3]},
    ], ids=["list", "no-delta", "above-eN", "negative", "bool", "one-row", "delta-int",
            "two-slots"])
    def test_malformed_precisions_rejected(self, precs):
        data = fam.ordinary_module(tower(3, 1, 1)).to_json()
        assert data["tower"]["N"] == 3
        data["precisions"] = precs
        with pytest.raises(DomainError) as exc:
            DModule.from_json(data)
        assert exc.value.code == "bad-input"

    def test_malformed_rejected(self):
        t = tower(3, 2, 2)
        M = fam.ordinary_module(t)
        data = M.to_json()
        data["matrices"] = data["matrices"][:1]
        with pytest.raises(DomainError, match="slot"):
            DModule.from_json(data)
