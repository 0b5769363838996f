"""Reference polynomial arithmetic on coefficient lists over Z/m.

Plain lists, little-endian, zero is [].  Long division, schoolbook
products and the Rabin irreducibility test run here independently of the
packed kernel `dieumod.fppoly.PackedQuotient`, which the package uses for
everything; the tests compare the two.
"""


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


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


def pmul(a, b, m):
    """Schoolbook product of coefficient lists over Z/m."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim([c % m for c in out])


def ppowmod(a, n, b, m):
    """a**n mod (b, m) by square and multiply with long division."""
    result = [1]
    a = pmod(a, b, m)
    while n:
        if n & 1:
            result = pmod(pmul(result, a, m), b, m)
        a = pmod(pmul(a, a, m), b, m)
        n >>= 1
    return result


def pgcd(a, b, p):
    """Monic gcd over the field F_p."""
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def is_irreducible(f, p):
    """Rabin test for a monic f of degree d >= 1 over F_p: x^(p^d) = x mod f,
    and x^(p^(d/r)) - x is prime to f for every prime r | d."""
    d = len(f) - 1
    x = pmod([0, 1], f, p)
    h = [x]  # h[k] = x^(p^k) mod f
    for _ in range(d):
        h.append(ppowmod(h[-1], p, f, p))
    if h[d] != x:
        return False
    primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
    for r in primes:
        diff = trim([(a - b) % p for a, b in
                     zip(h[d // r] + [0] * d, x + [0] * d)])
        if len(pgcd(diff, f, p)) > 1:
            return False
    return True
