"""The Smith-form exponents over R = k[pi]/(pi^e) are cross-checked against
a brute-force oracle that literally enumerates the row-span subgroup of R^2
and reads the cokernel's pi-torsion filtration."""

import random
from itertools import product

import pytest

from dieumod import fppoly, modp
from dieumod.modp import ResidueField, PiPoly, smith_exponents
from dieumod.wittring import CoeffTower
from polyref import pmod, pmul, ppowmod, trim


def _all_pipoly(field, e):
    els = list(field.elements())
    for combo in product(els, repeat=e):
        yield PiPoly(field, e, list(combo))


def brute_divisors(field, e, rows):
    """Exponents (v1 <= v2) with R^2/span = R/pi^v1 + R/pi^v2, found by
    enumerating the span and counting pi^j-torsion in the quotient."""
    p, d = field.p, field.d
    gens = []
    for row in rows:
        for s in field.elements():
            for j in range(e):
                pij = PiPoly(field, e, [field.zero()] * j + [s])
                gens.append((row[0] * pij, row[1] * pij))
    # the span is a subgroup of R^2, which has q^(2e) elements: a larger
    # one means the sums are wrong, and the closure would never end
    ambient = field.order ** (2 * e)
    span = {(PiPoly.zero(field, e), PiPoly.zero(field, e))}
    changed = True
    while changed:
        changed = False
        for g in gens:
            for v in list(span):
                w = (v[0] + g[0], v[1] + g[1])
                if w not in span:
                    span.add(w)
                    changed = True
                    assert len(span) <= ambient, "the span outgrew R^2"
    all_elems = [(a, b) for a in _all_pipoly(field, e) for b in _all_pipoly(field, e)]
    killed = []
    for j in range(e + 1):
        if j == e:
            killed.append(len(all_elems) // len(span))
            continue
        pij = PiPoly(field, e, [field.zero()] * j + [field.one()])
        cnt = sum(1 for v in all_elems if (v[0] * pij, v[1] * pij) in span)
        killed.append(cnt // len(span))
    for v1, v2 in product(range(e + 1), repeat=2):
        if v1 <= v2 and all(killed[j] == p ** (d * (min(j, v1) + min(j, v2)))
                            for j in range(e + 1)):
            return [v1, v2]
    raise AssertionError("no divisor profile matched the brute-force data")


@pytest.mark.parametrize("e", [1, 2])
def test_smith_matches_bruteforce(e):
    field = ResidueField(3, [1, 1])  # F_3
    rng = random.Random(5)
    els = list(field.elements())
    for _ in range(25):
        rows = []
        for _ in range(rng.randrange(1, 4)):
            rows.append([PiPoly(field, e, [rng.choice(els) for _ in range(e)])
                         for _ in range(2)])
        got = smith_exponents([list(r) for r in rows], e)
        want = brute_divisors(field, e, rows)
        assert got == want, (rows, got, want)


def test_smith_basic_shapes():
    F = ResidueField(3, [1, 1])
    e = 2
    one = PiPoly(F, e, [F.one()])
    pi = PiPoly(F, e, [F.zero(), F.one()])
    zero = PiPoly.zero(F, e)
    assert smith_exponents([[zero, one]], e) == [0, 2]
    assert smith_exponents([[pi, zero], [zero, pi]], e) == [1, 1]
    assert smith_exponents([], e) == [2, 2]
    assert smith_exponents([[one, pi], [pi, one]], e) == [0, 0]


def test_residue_field_ops(rng):
    F = ResidueField(3, [2, 1, 1])  # primitive quadratic over F_3
    g = F.gen()
    assert g ** (F.order - 1) == F.one()
    for _ in range(40):
        x, y = F.random(rng), F.random(rng)
        assert (x + y) * (x + y) == x * x + 2 * (x * y) + y * y
        if x:
            assert x * x.inverse() == F.one()
    assert F.gen_pow(5) == g ** 5
    assert (g ** 3).frob() == (g.frob()) ** 3
    # elements() lists F_9 in the order of sum(c_j * 3^j)
    assert [x.coeffs[0] + 3 * x.coeffs[1] for x in F.elements()] == list(range(9))


def test_pipoly_inverse():
    F = ResidueField(3, [1, 1])
    e = 3
    u = PiPoly(F, e, [F.one(), F.elem(2), F.one()])
    assert u * u.inverse() == PiPoly(F, e, [F.one()])


def test_window_pow_matches_builtin_pow(rng):
    M = 10 ** 9 + 7

    def mul(a, b):
        return a * b % M

    for max_exp in (1, 2, 16, 17, 255, 256, 257, 3 ** 16):
        rows = fppoly.window_table(3, max_exp, mul, 1)
        ks = {0, max_exp - 1} | {rng.randrange(max_exp) for _ in range(20)}
        for k in ks:
            assert fppoly.window_pow(rows, k, mul, 1) == pow(3, k, M)


def test_prime_factors_matches_trial_division(rng):
    def by_trial_division(n):
        out, r = set(), 2
        while r * r <= n:
            while n % r == 0:
                out.add(r)
                n //= r
            r += 1
        return tuple(sorted(out | ({n} if n > 1 else set())))

    for n in [1, 2, 997, 999_983 ** 2, 2 ** 32 - 1] + [rng.randrange(2, 10 ** 7) for _ in range(200)]:
        assert fppoly.prime_factors(n) == by_trial_division(n)
    # cofactors past the trial division: two 31- and 32-bit primes, a
    # square and a cube, and the largest q - 1 below the tower caps
    big = (2 ** 31 - 1) * 4294967291
    assert fppoly.prime_factors(big) == (2 ** 31 - 1, 4294967291)
    assert fppoly.prime_factors(1_000_003 ** 2 * 4294967291) == (1_000_003, 4294967291)
    assert fppoly.prime_factors(65_537 ** 3) == (65_537,)
    for n in (3 ** 32 - 1, 1021 ** 6 - 1, 2 ** 64 - 59 - 1):
        factors = fppoly.prime_factors(n)
        assert all(fppoly.is_prime(r) for r in factors)
        m = n
        for r in factors:
            while m % r == 0:
                m //= r
        assert m == 1


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (3, 2), (2, 8), (5, 4), (3, 8), (2, 16)])
def test_gen_pow_matches_repeated_squaring(p, d, rng):
    F = ResidueField(p, fppoly.smallest_primitive(p, d))
    q = F.order
    g = F.gen()
    zero = F.zero()
    assert zero ** 0 == F.one() and zero ** 1 == zero ** 5 == zero
    for inverse_of_zero in (lambda: zero ** -1, zero.inverse):
        with pytest.raises(ZeroDivisionError):
            inverse_of_zero()
    ks = [0, 1, 15, 16, 255, 256, q - 2] + [rng.randrange(q - 1) for _ in range(10)]
    for k in ks:
        x = F.gen_pow(k)
        assert x == g ** k == F.gen_pow(k - (q - 1)) and len(x.coeffs) == d
        assert g ** -k == x.inverse() == F.gen_pow(-k)
        # an element without a known log, against powers of coefficient lists
        r = F.random(rng)
        assert r ** k == F.elem(ppowmod(list(r.coeffs), k, list(F.mu), p))
        if r:
            assert r * r.inverse() == F.one() == r.inverse() * r
            assert r ** -k == F.elem(
                ppowmod(list(r.coeffs), -k % (q - 1), list(F.mu), p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_product_matches_long_division(p, rng):
    # fppoly.PackedQuotient (packed product, table of x^(d+k)) against
    # pmul + pmod, with empty and all-(m-1) operands at every degree: over
    # F_p in the residue field, and over Z/p^N with the tower's slot width,
    # where all-(p^N-1) operands sit at the no-carry bound of a Witt product
    for d in (1, 2, 3, 4, 7, 8, 16):
        F = ResidueField(p, fppoly.smallest_primitive(p, d))
        t = CoeffTower(p, 1, 2, d, 3)
        for m, modulus, ring in ((p, list(F.mu), F._ring),
                                 (t.pN, list(t.modulus), t._ring)):
            top = [m - 1] * d
            pairs = [([], []), ([], top), (top, []), (top, top), ([1], top)]
            for _ in range(40):
                pairs.append(tuple(trim([rng.randrange(m) for _ in range(d)])
                                   for _ in range(2)))
            for a, b in pairs:
                expected = pmod(pmul(a, b, m), modulus, m)
                padded = tuple(expected + [0] * (d - len(expected)))
                assert ring.reduce(ring.pack(a) * ring.pack(b)) == padded, (m, d, a, b)
                if m == p:
                    assert F._mul(a, b) == padded, (d, a, b)
                    assert (F.elem(a) * F.elem(b)).coeffs == padded
                else:
                    assert (t.witt(a) * t.witt(b)).coeffs == padded, (d, a, b)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_every_element_is_a_d_tuple(p, d, rng):
    # every FqElem carries the packed kernel's format: exactly d residues in
    # [0, p), the shape of WittElem.coeffs, zero included; a list of more
    # than d coefficients is refused, as `CoeffTower.witt` refuses one
    t = CoeffTower(p, 1, 1, d, 3)
    F = t.residue_field
    x, y, u = F.random(rng), F.random(rng), F.random_unit(rng)
    made = {
        "elem": F.elem([1, p + 1][:d]), "elem-int": F.elem(p + 1), "elem-empty": F.elem([]),
        "elem-full": F.elem([rng.randrange(3 * p) for _ in range(d)]),
        "zero": F.zero(), "one": F.one(), "gen": F.gen(),
        "gen_pow": F.gen_pow(F.order - 2), "gen_pow-neg": F.gen_pow(-3),
        "random": x, "random_unit": u,
        "add": x + y, "add-int": x + 1, "sub": x - y, "sub-self": x - x, "neg": -x,
        "mul": x * y, "mul-zero": x * F.zero(), "pow": u ** 3, "pow-neg": u ** -2,
        "pow-zero": F.zero() ** 3, "inverse": u.inverse(), "frob": x.frob(),
        "residue": t.random_witt(rng).residue(), "residue-zero": t.witt_zero().residue(),
    }
    for name, z in made.items():
        assert len(z.coeffs) == d and all(0 <= c < p for c in z.coeffs), (name, z)
    for long in ([1, p + 1], [0] * (d + 1), [rng.randrange(3 * p) for _ in range(2 * d + 3)]):
        if len(long) > d:
            with pytest.raises(ValueError, match="too many residue-field coefficients"):
                F.elem(long)


def test_inverse_of_a_zero_divisor_is_refused():
    # x + 1 over F_2[x]/(x^2 + 1) = F_2[x]/((x + 1)^2) has no inverse; x is a
    # unit there, but x^(q-2) = 1 is not its inverse, so it is refused too
    # rather than given a wrong one
    R = ResidueField(2, [1, 0, 1])
    for c in ([1, 1], [0, 1]):
        with pytest.raises(ArithmeticError, match="modulus is not irreducible"):
            R.elem(c).inverse()


@pytest.mark.parametrize("p,d", [(2, 1), (2, 5), (3, 1), (3, 6), (5, 4), (7, 3)])
def test_log_table_inverts_gen_pow(p, d):
    # every unit of the field, against the repeated-squaring power gen()**k,
    # stored at 2 bytes per element; an equal field (its modulus given with
    # unreduced coefficients) reads the identical table
    F = ResidueField(p, fppoly.smallest_primitive(p, d))
    q = F.order
    for k in range(q - 1):
        assert F.discrete_log(F.gen_pow(k)) == k
    table = modp.log_table(p, F.mu)
    assert table.itemsize == 2 and len(table) == q
    G = ResidueField(p, [c + p for c in F.mu])
    assert G.discrete_log(G.gen()) == 1 % (q - 1)
    assert modp.log_table(p, G.mu) is table


def test_log_table_cap(rng, monkeypatch):
    # q = 2^16 still has a table (logs up to q - 2 fit 16 bits); q = 3^11
    # never asks for one, so no element has a log there, a power of the
    # generator included
    F = ResidueField(2, fppoly.smallest_primitive(2, 16))
    k = rng.randrange(F.order - 1)
    assert F.discrete_log(F.gen_pow(k)) == k
    assert len(modp.log_table(2, F.mu)) == 1 << 16
    G = ResidueField(3, fppoly.smallest_primitive(3, 11))

    def no_table(p, mu):
        raise AssertionError("log table asked for q > 2^16")
    monkeypatch.setattr(modp, "log_table", no_table)
    assert G.discrete_log(G.elem([1, 1])) is None
    assert G.discrete_log(G.gen_pow(5)) is None


@pytest.mark.parametrize("mu", [[1, 0, 1], [1, 1, 1, 1, 1]],
                         ids=["reducible", "irreducible-order-5"])
def test_log_table_refuses_a_nonprimitive_modulus(mu):
    # x^2 + 1 = (x + 1)^2 and x^4 + x^3 + x^2 + x + 1 over F_2: x has order
    # 2 and 5, not q - 1
    R = ResidueField(2, mu)
    with pytest.raises(ValueError, match="not primitive"):
        R.discrete_log(R.elem([1, 1]))


@pytest.mark.parametrize("p,d", [(2, 4), (3, 8), (3, 16)])
def test_random_unit_is_one_draw_of_its_log(p, d):
    # one randrange(q - 1) draw k, and the unit is gen()**k, formed at once
    # by repeated squaring
    F = ResidueField(p, fppoly.smallest_primitive(p, d))
    q = F.order
    calls = []

    class Recording(random.Random):
        def randrange(self, *args):
            calls.append(args)
            return super().randrange(*args)

    rng, twin = Recording(11), random.Random(11)
    for _ in range(20):
        calls.clear()
        u = F.random_unit(rng)
        k = twin.randrange(q - 1)
        assert calls == [(q - 1,)] and rng.getstate() == twin.getstate()
        assert u and len(u.coeffs) == d and all(0 <= c < p for c in u.coeffs)
        assert u.coeffs == F.gen_pow(k).coeffs == (F.gen() ** k).coeffs
        assert u == F.elem(list(u.coeffs)) and hash(u) == hash(F.elem(list(u.coeffs)))
