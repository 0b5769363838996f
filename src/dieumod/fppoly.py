"""Polynomial arithmetic over Z/m for the residue field and the Witt layer.

Ring elements, of F_{p^d} (m = p) and of W_N(F_{p^d}) (m = p^N) alike, are
tuples of exactly d coefficients in [0, m), little-endian: the format of
`PackedQuotient`, which owns their packed (Kronecker) product in
(Z/m)[x]/(modulus).  `modp.ResidueField` and `wittring.CoeffTower` each
build one and pick its slot width.  `window_table`/`window_pow` compute
fixed-base powers (the residue-field generator and its Teichmuller lift)
with one product per nonzero base-2^W digit of the exponent, and `power`
squares and multiplies (a residue-field inverse is x**(q-2), by Fermat);
they take the ring's multiplication from their arguments so every layer
shares them.

The list helpers (`padd`, `psub`, `pmul`, `pscale`, `pmod`, `ppowmod`,
`pgcd`; plain lists, zero is []) serve set-up and input canonicalization
only: the primitivity and irreducibility tests, the Teichmuller modulus, the
tower's modulus check and Frobenius maps, and reducing an over-long
coefficient list.  `smallest_primitive` is memoized by (p, d), since every
tower of the same residue degree needs it.
"""

from functools import cache

W = 4  # window width in bits of the fixed-base power tables


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, m):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return trim(out)


def psub(a, b, m):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return trim(out)


def pmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim([c % m for c in out])


def pscale(a, c, m):
    c %= m
    return trim([x * c % m for x in a])


def pdivmod(a, b, m):
    """Divide by a polynomial with unit leading coefficient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = pow(b[-1], -1, m)
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * binv % m
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % m
    return trim(q), trim(a)


def pmod(a, b, m):
    return pdivmod(a, b, m)[1]


def ppowmod(a, n, b, m):
    """a**n mod (b, m) by square and multiply."""
    result = [1]
    a = pmod(a, b, m)
    while n:
        if n & 1:
            result = pmod(pmul(result, a, m), b, m)
        a = pmod(pmul(a, a, m), b, m)
        n >>= 1
    return result


class PackedQuotient:
    """(Z/m)[x]/(modulus) for a monic modulus of degree d, packed: slot j of
    `bits` bits holds coefficient j, so a product is one big-int product.
    The caller picks `bits` so that no slot carries into the next."""

    def __init__(self, modulus, m, bits):
        self.d = d = len(modulus) - 1
        self.m, self.bits = m, bits
        self._mask = (1 << bits) - 1
        self._lowmask = (1 << d * bits) - 1
        self._xpow = []  # packed x^(d+k) mod (modulus, m), 0 <= k < d-1
        r = pmod([0] * d + [1], modulus, m)
        for _ in range(d - 1):
            self._xpow.append(self.pack(r))
            r = pmod([0] + r, modulus, m)

    def pack(self, coeffs):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc << self.bits) | c
        return acc

    def split(self, acc):
        """Coefficient tuple of the d low slots of a packed integer, each
        reduced mod m."""
        m, bits, mask = self.m, self.bits, self._mask
        out = []
        for _ in range(self.d):
            out.append((acc & mask) % m)
            acc >>= bits
        return tuple(out)

    def reduce(self, conv):
        """Coefficient tuple mod (modulus, m) of a packed product of 2d-1
        slots."""
        m, bits, mask = self.m, self.bits, self._mask
        acc = conv & self._lowmask
        conv >>= self.d * bits
        for row in self._xpow:
            c = (conv & mask) % m
            if c:
                acc += c * row
            conv >>= bits
        return self.split(acc)


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


def power(x, n, one):
    """x**n by left-to-right squaring: bit_length(n) - 1 squarings and
    popcount(n) - 1 further products, none for n in {0, 1}; a negative n
    inverts x first."""
    if n < 0:
        x, n = x.inverse(), -n
    if not n:
        return one
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


def pgcd(a, b, p):
    """Monic gcd over the field F_p."""
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        a = pscale(a, pow(a[-1], -1, p), p)
    return a


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for the word-size inputs we ever see
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


def factorize(n):
    """Prime factorization by trial division (inputs stay modest)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_irreducible(f, p):
    """Rabin test for a monic polynomial over F_p."""
    d = len(f) - 1
    if d < 1:
        return False
    x = pmod([0, 1], f, p)
    # T^(p^d) == T mod f
    h = x
    for _ in range(d):
        h = ppowmod(h, p, f, p)
    if psub(h, x, p):
        return False
    for r in factorize(d):
        h = x
        for _ in range(d // r):
            h = ppowmod(h, p, f, p)
        if len(pgcd(psub(h, x, p), f, p)) > 1:
            return False
    return True


def is_primitive(f, p):
    """True when the residue of T mod f generates F_{p^d}^* (f irreducible)."""
    d = len(f) - 1
    order = p ** d - 1
    if not f[0]:
        return False
    for r in factorize(order):
        if ppowmod([0, 1], order // r, f, p) == [1]:
            return False
    return True


@cache
def smallest_primitive(p, d):
    """Lexicographically smallest monic primitive polynomial of degree d over F_p,
    as a tuple (memoized, so it must not be mutable).

    Candidates are ordered by the integer sum(c_j * p^j) over the lower
    coefficients, which makes the choice reproducible across runs.
    """
    for n in range(p ** d):
        coeffs = []
        t = n
        for _ in range(d):
            coeffs.append(t % p)
            t //= p
        f = coeffs + [1]
        if is_irreducible(f, p) and is_primitive(f, p):
            return tuple(f)
    raise RuntimeError("no primitive polynomial found (impossible for prime p)")


def teichmuller_modulus(mu, p, N):
    """Lift an irreducible mu over F_p to the monic factor m of T^(q-1) - 1 over Z/p^N.

    The lift is computed as the characteristic polynomial of the Teichmuller
    unit above the residue of T, so only O(d) ring operations are needed;
    m is the unique monic lift of mu whose roots are (q-1)-th roots of unity.
    """
    d = len(mu) - 1
    q = p ** d
    m = p ** N
    if N == 1:
        return [c % p for c in mu]
    m0 = list(mu)  # any monic lift defines the unramified ring Z/p^N[x]/(m0)

    def rmul(a, b):
        return pmod(pmul(a, b, m), m0, m)

    # Teichmuller lift of the residue of x: iterate q-th powers to the fixpoint.
    w = [0, 1]
    for _ in range(N + 1):
        w2 = ppowmod(w, q, m0, m)
        if w2 == w:
            break
        w = w2
    # minimal polynomial = prod over Frobenius conjugates w^(p^j)
    conj = []
    c = w
    for _ in range(d):
        conj.append(c)
        c = ppowmod(c, p, m0, m)
    poly = [[1]]  # polynomial in T with coefficients in the ring
    for cj in conj:
        new = [[] for _ in range(len(poly) + 1)]
        for i, coef in enumerate(poly):
            new[i + 1] = padd(new[i + 1], coef, m)
            new[i] = psub(new[i], rmul(coef, cj), m)
        poly = new
    out = []
    for coef in poly:
        if len(coef) > 1:
            raise RuntimeError("Teichmuller modulus has a non-scalar coefficient")
        out.append(coef[0] if coef else 0)
    return out

