"""The packed kernel's zero and constant shortcuts against `kernelref`,
the same functions walking every slot.

`pack`, `reduce` (on products, and on integers of d slots against the
reference `split`) and `mul_packed` (against `pack` of the reference
`reduce`) run on quotient rings built here with any
monic modulus (the reduction needs no primitivity), over Z/p with the
default slot width and over Z/p^N with a tower's width, so the
comparison does not depend on tower set-up, which itself runs on the
kernel.  `_ram_reduce` and `_ram_pack` run on towers.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from dieumod import CoeffTower
from dieumod.fppoly import PackedQuotient
from polyref import trim
import kernelref

# operand kinds: the sparse values of the family modules (0, constants, a
# power of x), a dense value, and one with every slot at m - 1
KINDS = ("zero", "constant", "top", "dense", "bound")


def tower_bits(p, e, d, m):
    """A tower's slot width (`wittring` module docstring)."""
    return ((4 * (p + 1) * e + 1) * d * (m - 1) ** 2).bit_length()


def coeffs(draw, d, m, kind):
    """d coefficients in [0, m) of a kind; "top" fills slot d-1 alone."""
    if kind == "zero":
        return [0] * d
    if kind == "bound":
        return [m - 1] * d
    if kind == "dense":
        return [draw(st.integers(0, m - 1)) for _ in range(d)]
    c = draw(st.integers(1, m - 1))
    return [c] + [0] * (d - 1) if kind == "constant" else [0] * (d - 1) + [c]


def operand(draw, d, m):
    """A coefficient sequence as `pack` receives it: a tuple or a list, the
    list possibly trimmed of its trailing zeros."""
    cs = coeffs(draw, d, m, draw(st.sampled_from(KINDS)))
    form = draw(st.sampled_from(("tuple", "list", "trimmed")))
    if form == "tuple":
        return tuple(cs)
    return trim(cs) if form == "trimmed" else cs


def packed_slots(draw, ring):
    """A packed integer of d slots below 2^bits, as `reduce` splits it:
    zero, slot 0 alone (at or above m too), slot d-1 alone, dense, or every
    slot full."""
    top = ring._mask
    kind = draw(st.sampled_from(("zero", "low", "top", "dense", "full")))
    slots = [0] * ring.d
    if kind == "low":
        slots[0] = draw(st.integers(1, top))
    elif kind == "top":
        slots[-1] = draw(st.integers(1, top))
    elif kind == "dense":
        slots = [draw(st.integers(0, top)) for _ in range(ring.d)]
    elif kind == "full":
        slots = [top] * ring.d
    return kernelref.pack(ring, slots)


def check_ring(draw, ring, wide):
    ops = [operand(draw, ring.d, ring.m) for _ in range(4)]
    for a in ops:
        assert ring.pack(a) == kernelref.pack(ring, a)
    for _ in range(3):
        acc = packed_slots(draw, ring)
        assert ring.reduce(acc) == kernelref.split(ring, acc)
    convs = [ring.pack(a) * ring.pack(b) for a in ops for b in ops]
    if wide:  # a tower's width fits sums of products
        convs.append(sum(convs[:4]))
    for conv in convs:
        assert ring.reduce(conv) == kernelref.reduce(ring, conv)
    for a in ops:
        for b in ops:
            x, y = ring.pack(a), ring.pack(b)
            assert ring.mul_packed(x, y) == kernelref.pack(ring, kernelref.reduce(ring, x * y))


@cache
def kernel_tower(p, e, d, N):
    return CoeffTower(p, 1, e, d, N)


class TestPackedKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_slot_loops(self, data):
        draw = data.draw
        p = draw(st.sampled_from((2, 3, 5, 7)))
        d = draw(st.sampled_from((1, 2, 3, 8, 16)))
        e = draw(st.integers(1, 3))
        N = draw(st.integers(-(-(e + 2) // e), 4))
        for m, bits in ((p, None), (p ** N, tower_bits(p, e, d, p ** N))):
            modulus = [draw(st.integers(0, m - 1)) for _ in range(d)] + [1]
            check_ring(draw, PackedQuotient(modulus, m, bits), bits is not None)
        t = kernel_tower(p, e, d, N)
        ram = [[tuple(coeffs(draw, d, t.pN, draw(st.sampled_from(KINDS)))) for _ in range(e)]
               for _ in range(4)]
        ints = [t._ram_pack(cs) for cs in ram]
        assert ints == [kernelref._ram_pack(t, cs) for cs in ram]
        prods = [x * y for x in ints for y in ints]
        # the four products of a trace: the widest sum the tower reduces
        prods.append(ints[0] * ints[1] + ints[1] * ints[2] + ints[2] * ints[3]
                     + ints[3] * ints[0])
        for prod in prods:
            assert t._ram_reduce(prod) == kernelref._ram_reduce(t, prod)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_every_kind_pair(self, p, d):
        # every pair of kinds once, with fixed values: products that are
        # zero, constant, fill slot d alone (x^(d-1) x) or reach the top
        # slot, at both widths
        for m, bits in ((p, None), (p ** 3, tower_bits(p, 2, d, p ** 3))):
            ring = PackedQuotient([(3 * j + 1) % m for j in range(d)] + [1], m, bits)
            values = [[0] * d, [m - 1] + [0] * (d - 1), [0] * (d - 1) + [1],
                      [m - 1] * d, [(7 * j + 3) % m for j in range(d)]]
            for a in values:
                for form in (tuple(a), list(a), trim(list(a))):
                    assert ring.pack(form) == kernelref.pack(ring, form)
                for b in values:
                    conv = ring.pack(a) * ring.pack(b)
                    assert ring.reduce(conv) == kernelref.reduce(ring, conv)
                    assert ring.mul_packed(ring.pack(a), ring.pack(b)) == \
                        kernelref.pack(ring, kernelref.reduce(ring, conv))
            for acc in (0, 1, m, ring._mask, ring._mask + 1, 1 << (d - 1) * ring.bits):
                assert ring.reduce(acc) == kernelref.split(ring, acc)

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_pi_monomial_pairs(self, e):
        # c pi^i times a dense pi^j for every i, j < e: products of
        # pi-degree below e (no fold), exactly e, and above
        t = kernel_tower(3, e, 3, 3)
        zero, dense = (0,) * t.d, tuple((7 * j + 3) % t.pN for j in range(t.d))
        for c in ((1, 0, 0), (0, 0, 5), (t.pN - 1,) * 3):
            for i in range(e):
                for j in range(e):
                    x, y = [zero] * e, [zero] * e
                    x[i], y[j] = c, dense
                    prod = t._ram_pack(x) * t._ram_pack(y)
                    assert t._ram_reduce(prod) == kernelref._ram_reduce(t, prod)
