"""Mod-p layer: the residue field F_{p^d}, the Artinian ring k[pi]/(pi^e),
and Smith normal form over it.

A residue-field element is its tuple of exactly d residues in [0, p)
modulo a fixed irreducible polynomial of degree d: the format of the
field's `fppoly.PackedQuotient` (m = p), the kernel that
`wittring.CoeffTower` runs over Z/p^N, so a residue and a Witt vector share
one shape and pass between the layers unchanged.  `ResidueField.elem`
takes at most d coefficients, as `CoeffTower.witt` does, and refuses an
element of another field.  Sums are coefficientwise mod p; a product is
one packed integer product reduced by the kernel; powers go through
`fppoly.power`, and the inverse is x**(q-2) by Fermat.

k[pi]/(pi^e) is a chain ring, so a matrix over it has a Smith form
diag(pi^v1, pi^v2, ...) and the exponents are found by valuation-minimal
pivoting.

The invariants do not use the chain-ring part: `invariants` reads Lie type
and a-type off valuations over the DVR.  `PiPoly`, `smith_exponents` and
`mat_rank_over_field` (with `DModule.fbar_matrix` / `vbar_matrix`) are the
independent reference route of the tests and the names the benchmark's
traced run wraps.

The residue field also serves Teichmuller lifting, which lifts a unit
through its discrete log k to the generator as T^k
(`CoeffTower.teichmuller_power`).  A unit finds its log in
`log_table(p, mu)`, the one exp/log map of F_q (`hecke.SmallField` reads
it too), for q <= 2^16: an array("H"), 2 bytes per element, indexed by the
base-p number sum(c_j p^j) of its coefficients, built once per (p, mu) on
first use by walking the powers of gen().  Larger fields have no table.
"""

import operator
from array import array
from functools import cache
from itertools import product

from . import fppoly

LOG_TABLE_MAX_ORDER = 1 << 16  # q - 1 logs fit the table's 16-bit entries


@cache
def log_table(p, mu):
    """array("H") whose entry at index sum(c_j p^j) is the k < q - 1 with
    gen()**k = sum(c_j x^j) in F_p[x]/(mu); entry 0 (the zero element) is
    unused.  mu is a tuple, reduced mod p, with a primitive x; q <= 2^16.

    The walk multiplies by x on the index itself: shift one base-p digit up,
    and fold the digit t that leaves the top back in as x^d = -sum(mu_j x^j),
    which touches only the digits of the nonzero mu_j.
    """
    d = len(mu) - 1
    q, top = p ** d, p ** (d - 1)
    folds = [(p ** j, -m % p) for j, m in enumerate(mu[:-1]) if m]
    table = array("H", bytes(2 * q))
    idx = 1
    for k in range(q - 1):
        table[idx] = k
        t, idx = divmod(idx, top)
        idx *= p
        if t:
            for w, m in folds:
                old = idx // w % p
                idx += ((old + t * m) % p - old) * w
        if idx == 1:
            break
    if k != q - 2 or idx != 1:
        raise ValueError("x does not generate F_q^*: the modulus is not primitive")
    return table


class ResidueField:
    """F_{p^d} presented as F_p[T]/(mu) for an irreducible mu."""

    def __init__(self, p, mu):
        self.p = p
        self.mu = tuple(c % p for c in mu)
        self.d = len(mu) - 1
        self.order = p ** self.d
        if self.d < 1:
            raise ValueError("modulus must have positive degree")
        self._ring = fppoly.PackedQuotient(self.mu, p)
        self._mul = self._ring.mul  # coefficient tuple of a * b for reduced a, b

    def __eq__(self, other):
        return isinstance(other, ResidueField) and (self.p, self.mu) == (other.p, other.mu)

    def __hash__(self):
        return hash((self.p, self.mu))

    def __repr__(self):
        return f"ResidueField(p={self.p}, d={self.d})"

    def elem(self, coeffs):
        """FqElem from an int or a little-endian list of at most d
        coefficients; an element of this field is returned as it is."""
        if isinstance(coeffs, FqElem):
            if coeffs.field is not self and coeffs.field != self:
                raise ValueError("element of a different residue field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        if len(coeffs) > self.d:
            raise ValueError("too many residue-field coefficients")
        return FqElem(self, tuple([x % self.p for x in coeffs] + [0] * (self.d - len(coeffs))))

    def zero(self):
        return FqElem(self, (0,) * self.d)

    def one(self):
        return FqElem(self, (1,) + (0,) * (self.d - 1))

    def gen(self):
        """The residue of T; a multiplicative generator when mu is primitive."""
        return FqElem(self, self._ring.x)

    def gen_pow(self, k):
        """gen()**k, by repeated squaring (`fppoly.power`)."""
        ring = self._ring
        return FqElem(self, fppoly.power(ring.x, k % (self.order - 1), ring.mul, ring.one))

    def discrete_log(self, a):
        """k with gen()**k = a for a nonzero a, read off the field's log
        table; None when the field has none (q > 2^16)."""
        if self.order > LOG_TABLE_MAX_ORDER:
            return None
        idx = 0
        for c in reversed(a.coeffs):
            idx = idx * self.p + c
        return log_table(self.p, self.mu)[idx]

    def random(self, rng):
        return FqElem(self, tuple([rng.randrange(self.p) for _ in range(self.d)]))

    def random_unit(self, rng):
        """Uniform over F_{p^d}^* as gen()**k from one randrange(q - 1) draw
        (mu must be primitive).  A caller that only lifts the unit draws k
        and calls `CoeffTower.teichmuller_power` instead."""
        return self.gen_pow(rng.randrange(self.order - 1))

    def elements(self):
        """All q elements, in the order of sum(c_j * p^j)."""
        for c in product(range(self.p), repeat=self.d):
            yield FqElem(self, c[::-1])


class FqElem:
    """Element of a ResidueField: `coeffs` holds exactly d residues in
    [0, p)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __repr__(self):
        return f"Fq{list(self.coeffs)}"

    def __add__(self, other):
        p, b = self.field.p, self.field.elem(other).coeffs
        return FqElem(self.field, tuple([(x + y) % p for x, y in zip(self.coeffs, b)]))

    def __sub__(self, other):
        p, b = self.field.p, self.field.elem(other).coeffs
        return FqElem(self.field, tuple([(x - y) % p for x, y in zip(self.coeffs, b)]))

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple([-a % p for a in self.coeffs]))

    def __mul__(self, other):
        f = self.field
        return FqElem(f, f._mul(self.coeffs, f.elem(other).coeffs))

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self):
        """x**(q-2) by Fermat."""
        if not self:
            raise ZeroDivisionError("zero in residue field")
        one = self.field.one()
        inv = fppoly.power(self, self.field.order - 2, operator.mul, one)
        if inv * self != one:
            raise ArithmeticError("modulus is not irreducible")
        return inv

    def __pow__(self, n):
        if self:  # a unit: x**(q-1) = 1
            n %= self.field.order - 1
        return fppoly.power(self, n, operator.mul, self.field.one())

    def frob(self, n=1):
        """Frobenius x -> x^(p^n)."""
        return self ** (self.field.p ** (n % self.field.d))


class PiPoly:
    """Element of k[pi]/(pi^e): a length-e list of residue-field coefficients."""

    __slots__ = ("field", "e", "coeffs")

    def __init__(self, field, e, coeffs):
        self.field = field
        self.e = e
        cs = list(coeffs) + [field.zero()] * (e - len(coeffs))
        self.coeffs = tuple(cs[:e])

    @classmethod
    def zero(cls, field, e):
        return cls(field, e, [])

    def __eq__(self, other):
        return isinstance(other, PiPoly) and self.coeffs == other.coeffs and self.e == other.e

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __repr__(self):
        return f"PiPoly{[list(c.coeffs) for c in self.coeffs]}"

    def __add__(self, other):
        return PiPoly(self.field, self.e, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return PiPoly(self.field, self.e, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return PiPoly(self.field, self.e, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FqElem):
            return PiPoly(self.field, self.e, [c * other for c in self.coeffs])
        out = [self.field.zero() for _ in range(self.e)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < self.e and b:
                    out[i + j] = out[i + j] + a * b
        return PiPoly(self.field, self.e, out)

    def __bool__(self):
        return any(self.coeffs)

    def ord(self):
        """pi-adic valuation; e for the zero element."""
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return self.e

    def is_unit(self):
        return bool(self.coeffs[0])

    def shift_down(self, v):
        """Exact division by pi^v (the low v coefficients must vanish)."""
        if any(self.coeffs[j] for j in range(min(v, self.e))):
            raise ValueError("not divisible by pi^v")
        return PiPoly(self.field, self.e, list(self.coeffs[v:]))

    def inverse(self):
        """Series inversion of a unit mod pi^e."""
        if not self.is_unit():
            raise ZeroDivisionError("non-unit in k[pi]/(pi^e)")
        inv0 = self.coeffs[0].inverse()
        out = [inv0] + [self.field.zero()] * (self.e - 1)
        for j in range(1, self.e):
            acc = self.field.zero()
            for i in range(1, j + 1):
                acc = acc + self.coeffs[i] * out[j - i]
            out[j] = -(inv0 * acc)
        return PiPoly(self.field, self.e, out)

    def constant(self):
        return self.coeffs[0]


def smith_exponents(rows, e, width=2):
    """Elementary divisor exponents of the cokernel of the row span in R^width,
    R = k[pi]/(pi^e).  Returns a sorted list of `width` exponents in [0, e].

    Pivot on the globally valuation-minimal entry (ties broken by row then
    column index); one elimination pass per pivot suffices over a chain ring.
    """
    rows = [list(r) for r in rows]
    cols = list(range(width))
    divisors = []
    while cols and rows:
        best = None
        for ri, row in enumerate(rows):
            for ci in range(len(cols)):
                v = row[ci].ord()
                if best is None or v < best[0]:
                    best = (v, ri, ci)
        v, ri, ci = best
        if v >= e:
            break
        pivot_row = rows.pop(ri)
        pivot = pivot_row[ci]
        unit_inv = pivot.shift_down(v).inverse()
        pivot_row = [x * unit_inv for x in pivot_row]
        for row in rows:
            x = row[ci]
            if x:
                factor = x.shift_down(v)
                for j in range(len(cols)):
                    row[j] = row[j] - factor * pivot_row[j]
        for row in rows:
            row.pop(ci)
        cols.pop(ci)
        divisors.append(v)
    divisors += [e] * len(cols)
    return sorted(divisors)


def mat_rank_over_field(rows):
    """Rank of a small matrix with FqElem entries (Gaussian elimination)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        row = rows.pop(piv)
        inv = row[col].inverse()
        row = [x * inv for x in row]
        rows = [[x - r[col] * y for x, y in zip(r, row)] for r in rows]
        rank += 1
        col += 1
    return rank
