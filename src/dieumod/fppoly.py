"""Polynomial arithmetic over Z/m for the residue field and the Witt layer.

Ring elements, of F_{p^d} (m = p) and of W_N(F_{p^d}) (m = p^N) alike, are
tuples of exactly d coefficients in [0, m), little-endian: the format of
`PackedQuotient`, which owns their packed (Kronecker) product in
(Z/m)[x]/(modulus).  `modp.ResidueField` and `wittring.CoeffTower` each
build one.  `power` squares and multiplies (a residue-field inverse is
x**(q-2), by Fermat, and a generator power gen()**k is formed by it) and
`window_table`/`window_pow` compute the fixed-base powers of the
Teichmuller point T**k (`CoeffTower.teichmuller_power`) with one product
per nonzero base-2^W digit of the exponent; all three take the ring's
multiplication from their arguments.  `teichmuller_point` is the one
statement of the lift rule, the closed form y**(q^ceil((N-1)/d)) for any
lift y: `teichmuller_modulus` lifts the residue of x by it, and
`CoeffTower.teichmuller` an element of a field with no log table.

The kernel does no per-slot work on slots that hold nothing, and each
shortcut returns what the slot loop would: a constant, zero included, is
its own packed integer (slot 0 holds it, the others 0); a reduction
returns the shared `zero` for a zero product, folds nothing when the d-1
high slots are empty (every fold term would be 0 * x^(d+k)), and reads an
integer below 2^bits as (acc mod m, 0, ..., 0), since every higher slot of
it is 0.  `reduce_segments` is the one fold-and-split loop: `reduce` runs
it on one product, the tower's ramified reduction on the e pi-degrees of
one packed product, and `reduce` of an integer of d slots is its split.
`mul_packed` runs the same fold and keeps the reduced product packed, for
chains of Witt products (the Teichmuller window power) that split only
their result.  Most values of the ramified families are sparse (0, 1, -p,
pi^r), so most calls take one of these shortcuts.

Set-up runs on the same kernel.  `is_primitive` is the one test of a
modulus: a monic f with f(0) != 0 is primitive iff x has order p^d - 1
mod f, and that order alone proves f irreducible (Lidl-Niederreiter,
Finite Fields, Thm 3.16), so no gcd or irreducibility test is needed.  The
Frobenius h -> h^p of F_p[x]/(f) is F_p-linear, so the test applies it as
the substitution x -> x^p with `PackedQuotient.power_rows` and
`substitute`, which also serve the tower's sigma maps; its other powers,
and those of the Teichmuller modulus, go through `power`.
`smallest_primitive` is memoized by (p, d), since every tower of the same
residue degree needs it, and `prime_factors` by its argument, since the
primitivity test of every candidate factors the same p^d - 1.
"""

import math
from functools import cache

W = 4  # window width in bits of the fixed-base power tables


class PackedQuotient:
    """(Z/m)[x]/(modulus) for a monic modulus of degree d, packed: slot j of
    `bits` bits holds coefficient j, so a product is one big-int product.
    No slot may carry into the next.  The default width fits one product
    of reduced elements (a slot holds at most d*(m-1)^2 and `reduce` adds
    at most (d-1)*(m-1)^2 to a low slot) and a `substitute`; a caller that
    sums products before reducing passes a wider `bits`.  `zero`, `one` and
    `x` are the coefficient tuples of 0, 1 and the residue of x.  `pack`
    and `reduce_segments` skip the slots of zero and constant values
    (module docstring); `pack` takes lists as well as tuples."""

    def __init__(self, modulus, m, bits=None):
        self.d = d = len(modulus) - 1
        if bits is None:
            bits = ((2 * d - 1) * (m - 1) ** 2).bit_length()
        self.m, self.bits = m, bits
        self._mask = (1 << bits) - 1
        self._lowbits = d * bits
        self._lowmask = (1 << d * bits) - 1
        # x^d = -(m_0 + ... + m_{d-1} x^(d-1)); each x^(d+k+1) is the
        # previous power shifted once, its top slot folded back by that rule
        low = [-c % m for c in modulus[:d]]
        self._xpow, r = [], low  # packed x^(d+k) mod (modulus, m), 0 <= k < d-1
        for _ in range(d - 1):
            self._xpow.append(self.pack(r))
            r = [(a + r[-1] * b) % m for a, b in zip([0] + r[:-1], low)]
        self._tail = (0,) * (d - 1)
        self.zero = (0,) + self._tail
        self.one = (1,) + self._tail
        self.x = (0, 1) + (0,) * (d - 2) if d > 1 else tuple(low)
        self._consts = (m, bits, self._mask, self._lowbits, d, self.zero, self._tail)

    def pack(self, coeffs):
        """Packed integer of a coefficient sequence (tuple or list) of at
        most d entries; a constant, zero included, is its own packed form."""
        if not any(coeffs[1:]):
            return coeffs[0] if coeffs else 0
        acc = 0
        for c in reversed(coeffs):
            acc = (acc << self.bits) | c
        return acc

    def _fold(self, conv, high):
        """The d low slots of a packed product of 2d-1 slots whose high
        slots `high` (conv >> d*bits) are not empty, x^(d+k) folded in from
        the table; slots not yet reduced mod m."""
        m, bits, mask = self.m, self.bits, self._mask
        acc = conv & self._lowmask
        for row in self._xpow:
            c = (high & mask) % m
            if c:
                acc += c * row
            high >>= bits
        return acc

    def reduce_segments(self, acc, count=1, stride=0):
        """Coefficient tuples mod (modulus, m) of `count` packed products of
        2d-1 slots, product k in bits [k*stride, (k+1)*stride) of acc (all
        of acc when count is 1), as a list: `zero` for an empty segment, no
        fold when its d-1 high slots are empty, and one below 2^bits fills
        slot 0 alone.  The ring's constants are read once per call."""
        m, bits, mask, lowbits, d, zero, tail = self._consts
        seg, out = (1 << stride) - 1, []
        while True:
            conv = acc & seg if count > 1 else acc
            if not conv:
                out.append(zero)
            else:
                high = conv >> lowbits
                if high:
                    conv = self._fold(conv, high)
                if conv <= mask:
                    out.append((conv % m,) + tail)
                else:
                    cs = []
                    for _ in range(d):
                        cs.append((conv & mask) % m)
                        conv >>= bits
                    out.append(tuple(cs))
            count -= 1
            if not count:
                return out
            acc >>= stride

    def reduce(self, conv):
        """Coefficient tuple mod (modulus, m) of a packed product of 2d-1
        slots (`reduce_segments` of one); of an integer of d slots, its
        slots each reduced mod m."""
        return self.reduce_segments(conv)[0]

    def mul_packed(self, a, b):
        """`pack(reduce(a * b))` for packed reduced a and b, with no
        coefficient tuple: the fold of `reduce`, then each slot reduced mod
        m in place."""
        acc = a * b
        high = acc >> self._lowbits
        if high:
            acc = self._fold(acc, high)
        m, bits, mask = self.m, self.bits, self._mask
        out = shift = 0
        while acc:
            out |= ((acc & mask) % m) << shift
            acc >>= bits
            shift += bits
        return out

    def mul(self, a, b):
        """Coefficient tuple of a * b for reduced coefficient sequences."""
        return self.reduce(self.pack(a) * self.pack(b))

    def power_rows(self, y):
        """Packed y^j for 0 <= j < d, from d-2 products: the rows of the
        substitution x -> y (y reduced)."""
        rows, r = [self.pack(self.one)], y
        for j in range(1, self.d):
            if j > 1:
                r = self.mul(r, y)
            rows.append(self.pack(r))
        return rows

    def substitute(self, rows, a):
        """a(y) for the rows of `power_rows(y)`: one linear combination of
        the packed rows (a slot holds at most d*(m-1)^2), then `reduce`,
        which splits it."""
        acc = 0
        for c, row in zip(a, rows):
            if c:
                acc += c * row
        return self.reduce(acc)


def window_table(base, max_exp, mul, one):
    """Fixed-base power table for exponents 0 <= k < max_exp:
    rows[i][j] = base**(j << (W*i)) for 0 <= j < 2**W."""
    rows = []
    step = base  # base**(1 << (W*i)) for the row being built
    for i in range(max(1, -(-(max_exp - 1).bit_length() // W))):
        if i:
            step = mul(rows[-1][-1], rows[-1][1])
        row = [one, step]
        for _ in range((1 << W) - 2):
            row.append(mul(row[-1], step))
        rows.append(row)
    return rows


def window_pow(rows, k, mul, one):
    """base**k from a window_table: at most one product per nonzero
    base-2**W digit of k (k must be below the table's max_exp)."""
    acc = None
    i = 0
    while k:
        j = k & ((1 << W) - 1)
        if j:
            acc = rows[i][j] if acc is None else mul(acc, rows[i][j])
        k >>= W
        i += 1
    return one if acc is None else acc


def power(x, n, mul, one):
    """x**n by left-to-right squaring: bit_length(n) - 1 squarings and
    popcount(n) - 1 further products, none for n in {0, 1}; a negative n
    inverts x first (x must then have an `inverse` method)."""
    if n < 0:
        x, n = x.inverse(), -n
    if not n:
        return one
    result = x
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # Miller-Rabin with the first 12 prime bases: deterministic below 3 * 10^23
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n):
    """A proper divisor of an odd composite n, by Pollard's rho."""
    for c in range(1, n):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


@cache
def prime_factors(n):
    """The distinct prime factors of n >= 1, ascending: trial division
    below 1000, then Pollard's rho on what is left: about 10^5 expected
    steps for n < 2^64, the range `wittring.CoeffTower` admits for p^d."""
    out = set()
    for r in range(2, 1000):
        while n % r == 0:
            out.add(r)
            n //= r
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out.add(m)
        else:
            g = _rho_divisor(m)
            rest += [g, m // g]
    return tuple(sorted(out))


def is_primitive(f, p):
    """True when the monic f of degree d >= 1 over F_p is primitive: the
    residue of x generates F_{p^d}^*.  f(0) != 0 makes x a unit; then
    x^(p^d) = x (d Frobenius steps) and x^((p^d-1)/r) != 1 for every prime
    r | p^d - 1 give x the order p^d - 1, so F_p[x]/(f) has p^d - 1 units
    and is a field: the test also proves f irreducible (Thm 3.16)."""
    d = len(f) - 1
    if d < 1 or not f[0]:
        return False
    ring = PackedQuotient(f, p)
    x, mul, one = ring.x, ring.mul, ring.one
    frob = ring.power_rows(power(x, p, mul, one))  # h -> h^p
    h = x
    for _ in range(d):
        h = ring.substitute(frob, h)
    order = p ** d - 1
    return h == x and all(power(x, order // r, mul, one) != one
                          for r in prime_factors(order))


@cache
def smallest_primitive(p, d):
    """Lexicographically smallest monic primitive polynomial of degree d over F_p,
    as a tuple (memoized, so it must not be mutable).

    Candidates are ordered by the integer sum(c_j * p^j) over the lower
    coefficients, which makes the choice reproducible across runs.
    """
    for n in range(p ** d):
        f = [n // p ** j % p for j in range(d)] + [1]
        if is_primitive(f, p):
            return tuple(f)
    raise RuntimeError("no primitive polynomial found (impossible for prime p)")


def teichmuller_point(y, q, d, N, mul, one):
    """The Teichmuller point of W_N(F_q), q = p^d, congruent to y mod p:
    y**(q^k) with k = ceil((N-1)/d), in the ring that `mul` and `one` give.

    Let w be that point, so w = y mod p and w^q = w.  If u = v mod p^j with
    j >= 1 then u^p = v^p mod p^(j+1) (Serre, Local Fields, II 4-6), so
    y = w mod p^j gives y^q = w^q = w mod p^(j+d): each q-th power gains d
    digits, and k of them take the one digit of y to the N of the ring."""
    return power(y, q ** -(-(N - 1) // d), mul, one)


def teichmuller_modulus(mu, p, N):
    """Lift an irreducible mu over F_p to the monic factor m of T^(q-1) - 1 over Z/p^N.

    The lift is computed as the characteristic polynomial of the Teichmuller
    unit above the residue of T, so only O(d) ring operations are needed;
    m is the unique monic lift of mu whose roots are (q-1)-th roots of unity.
    """
    d = len(mu) - 1
    q = p ** d
    m = p ** N
    # mu is itself a monic lift: Z/p^N[x]/(mu) is the unramified ring
    ring = PackedQuotient(mu, m)
    mul, one = ring.mul, ring.one

    w = teichmuller_point(ring.x, q, d, N, mul, one)  # the lift of the residue of x
    # minimal polynomial = prod over Frobenius conjugates w^(p^j), as a
    # polynomial in T (low degree first) with coefficients in the ring
    zero = (0,) * d
    poly = [one]
    conj = w
    for j in range(d):
        if j:
            conj = power(conj, p, mul, one)
        prod = [zero] + poly  # T * poly
        for i, coef in enumerate(poly):
            prod[i] = tuple([(a - b) % m for a, b in zip(prod[i], mul(coef, conj))])
        poly = prod
    if any(any(coef[1:]) for coef in poly):
        raise RuntimeError("Teichmuller modulus has a non-scalar coefficient")
    return [coef[0] for coef in poly]
