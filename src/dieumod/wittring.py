"""Exact arithmetic in the coefficient tower

    F_{p^d}  ->  W_N(F_{p^d})  ->  W_N(F_{p^d})[pi]/(pi^e - p),   d = f * ext.

W_N(F_{p^d}) is realized as Z/p^N [T]/(m(T)) where m(T) is the unique monic
lift of a primitive polynomial dividing T^(p^d - 1) - 1, so T is a
Teichmuller element and the Witt Frobenius is simply T -> T^p.  A given
modulus is checked by `fppoly.is_primitive` mod p, which certifies
irreducibility too, and by T^(q-1) = 1 mod p^N.  `min_N` is the one
precision policy: the default N of a tower, and the N that verify's towers
need for iterated twisted powers.

Ramified elements carry a certified precision `prec` (number of exact
pi-adic digits, at most e*N).  Ring operations never lose precision;
division by pi does, and everything downstream either tracks the loss or
raises PrecisionError when a requested answer is no longer certified.

Products follow the structure of the operands:

* A Witt product is one Kronecker product in the packed format owned by
  the tower's `fppoly.PackedQuotient` over Z/p^N: each operand is packed
  into one integer of d slots, and the 2d-1 slots of the product are
  reduced by the kernel (mod p^N, then x^(d+k) from a table).  The tower
  binds the kernel's `pack`, `split` and `reduce` as `_pack`, `_split` and
  `_reduce`.  An int, or a constant Witt element (coefficients 1.. all
  zero), scales coefficientwise instead.
* A ramified product of two operands that both have at least two nonzero
  pi-coefficients is dense: each operand is packed as one bivariate
  Kronecker integer, 2d-1 slots per pi-degree, one big-int product is
  taken, pi^(e+k) = p * pi^k is folded on the packed parts and each of the
  e results is reduced once.  Otherwise one operand is a pi-monomial (or
  zero) and each nonzero coefficient of the other is multiplied once.
* A product of 2x2 matrices (`CoeffTower.mat_mul`) packs each of the eight
  entries once as above, sums the two big-int products of each output
  entry while still packed, and folds and reduces that sum once: 4e
  reductions and no entrywise RamElem products or sums.  A square takes
  five big-int products, a^2 + bc, b(a+d), c(a+d), d^2 + bc, whose sums
  are the same integers as the eight-product ones.
* sigma^n is the substitution x -> x^(p^n): one linear combination of the
  packed rows x^(j p^n), which the tower computes once per n, from one
  power and d-2 products.  It is the identity on constants and for
  n = 0 mod d; it returns its argument unchanged there (a ramified element
  when it fixes every coefficient, a matrix when n = 0 mod d).  A ramified
  sum or difference keeps each coefficient whose other summand is zero.

Slot width: before `_reduce` a slot holds at most 2*(p+1)*e*d*(p^N-1)^2
(the folded sum of two dense ramified products in a matrix entry; a single
folded product holds half of that, a Witt product or a Frobenius image at
most d*(p^N-1)^2), and `_reduce` adds at most (d-1)*(p^N-1)^2 to a low slot.
The tower's slot width is the bit length of (2*(p+1)*e + 1)*d*(p^N-1)^2,
so no slot carries into the next.
"""

import json
import math
import operator
from . import fppoly
from .modp import ResidueField, FqElem, PiPoly

INF = math.inf

# Size guard of CoeffTower: set-up time grows with p (for d >= 2 the
# modulus search passes the p - 1 candidates x^d + c, none of them
# primitive since x^d lies in F_p), with d = f*ext, with the bit length of
# q = p^d (the primitivity test factors q - 1) and with that of p^N;
# element size grows with e.  The caps sit far above every tower the
# package, its tests and its benchmark build (p <= 11, e <= 4, d <= 16,
# q < 2^45, p^N < 2^194).  The slowest tower within the caps,
# (3, 32, 1, 1, 646), builds in about 10 s on a 2-vCPU x86-64 host.
MAX_P_BITS = 10
MAX_E = 64
MAX_D = 32
MAX_Q_BITS = 64
MAX_PN_BITS = 1024


class PrecisionError(ArithmeticError):
    """A value is needed beyond the digits that are certified."""

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class DomainError(ValueError):
    """Invalid mathematical input; `code` keys the machine-readable form."""

    def __init__(self, code, message, **info):
        super().__init__(message)
        self.code = code
        self.info = info


def count_text(n):
    """A search or set size for a size-guard message: n in decimal below
    2^64, else "at least 2^k", which never needs a huge decimal string."""
    return str(n) if n < 1 << 64 else f"at least 2^{n.bit_length() - 1}"


def min_N(g, e, slack=0):
    """The smallest Witt length N with e*N >= max(1, slack)*g + 2: the
    precision policy of a tower with g = e*f, and the precision that
    `slack`-fold iterated twisted powers need."""
    return -(-(max(1, slack) * g + 2) // e)


def product_prec(rx, px, ry, py, full):
    """Certified precision of a product x y of ramified elements, from the
    valuations r of their stored representatives (`RamElem._repr_ord`) and
    their precisions: min(r_x + p_y, r_y + p_x, p_x + p_y, eN)."""
    return min(rx + py, ry + px, px + py, full)


def is_int_list(xs):
    """True for a list of integers, as read from JSON (booleans excluded)."""
    return isinstance(xs, list) and all(type(x) is int for x in xs)


class CoeffTower:
    """Immutable description of the working rings; all element ops live here."""

    def __init__(self, p, f, e, ext=1, N=None, modulus=None):
        too_large = DomainError(
            "size-guard",
            f"tower too large: needs p < 2^{MAX_P_BITS}, e <= {MAX_E}, "
            f"f*ext <= {MAX_D}, p^(f*ext) < 2^{MAX_Q_BITS} and p^N < 2^{MAX_PN_BITS}",
        )
        if p.bit_length() > MAX_P_BITS:  # before the primality test
            raise too_large
        if not fppoly.is_prime(p):
            raise DomainError("not-prime", f"p = {p} is not prime")
        if f < 1 or e < 1 or ext < 1:
            raise DomainError("bad-shape", "f, e, ext must all be >= 1")
        if N is None:
            N = min_N(e * f, e)
        if e * N < e * f + 2:
            raise DomainError(
                "precision-policy",
                f"e*N = {e * N} < e*f + 2 = {e * f + 2}; raise N",
            )
        if (e > MAX_E or f * ext > MAX_D or (p ** (f * ext)).bit_length() > MAX_Q_BITS
                or N * math.log2(p) >= MAX_PN_BITS):
            raise too_large
        self.p, self.f, self.e, self.ext, self.N = p, f, e, ext, N
        self.d = f * ext
        self.q = p ** self.d
        self.pN = p ** N

        if modulus is None:
            mu = fppoly.smallest_primitive(p, self.d)
            modulus = fppoly.teichmuller_modulus(mu, p, N)
        modulus = [c % self.pN for c in modulus]
        if len(modulus) != self.d + 1 or modulus[-1] != 1:
            raise DomainError("bad-modulus", "modulus must be monic of degree f*ext")
        mu = [c % p for c in modulus]
        if not fppoly.is_primitive(mu, p):
            # the residue of T must generate F_q^* (which also makes mu
            # irreducible): gen_pow, random_unit and the pairing-scalar
            # construction all rely on it
            raise DomainError("bad-modulus", "modulus is not primitive mod p")
        self.modulus = tuple(modulus)
        self._key = (p, f, e, ext, N, self.modulus)
        self.residue_field = ResidueField(p, mu)

        # the packed kernel over Z/p^N (slot width: see the module
        # docstring), its methods bound for the hot paths, and Frobenius
        # basis maps sigma^n(x^j) = x^(j p^n)
        bits = ((2 * (p + 1) * e + 1) * self.d * (self.pN - 1) ** 2).bit_length()
        self._ring = ring = fppoly.PackedQuotient(modulus, self.pN, bits)
        if fppoly.power(ring.x, self.q - 1, ring.mul, ring.one) != ring.one:
            raise DomainError("bad-modulus", "T is not a (q-1)-th root of unity mod modulus")
        self._pack, self._split, self._reduce = ring.pack, ring.split, ring.reduce
        self._stride = (2 * self.d - 1) * bits  # bits per pi-degree
        self._sigma_maps = {}
        self._gen_rows = None  # window table of T, built on the first logged lift
        self._zero_w = None
        self._one_w = None

    # -- plumbing -----------------------------------------------------------

    def _pad(self, coeffs):
        return list(coeffs) + [0] * (self.d - len(coeffs))

    def _ram_pack(self, coeffs):
        """Bivariate Kronecker integer of e Witt coefficients."""
        acc = 0
        for c in reversed(coeffs):
            acc = (acc << self._stride) | self._pack(c.coeffs)
        return acc

    def _ram_unpack(self, prod):
        """e Witt coefficients of a packed ramified product (or sum of
        products): the fold pi^(e+k) = p * pi^k on the packed parts, then
        one reduction per pi-degree."""
        width = self.e * self._stride
        prod = (prod & ((1 << width) - 1)) + self.p * (prod >> width)
        seg = (1 << self._stride) - 1
        out = []
        for _ in range(self.e):
            out.append(WittElem(self, self._reduce(prod & seg)))
            prod >>= self._stride
        return out

    def mat_mul(self, A, B):
        """Product of 2x2 matrices of RamElems of this tower.

        Each entry is packed once; each output entry is the packed sum of
        its two products, folded and reduced once (4e reductions).  A square
        (`B is A`) takes five big-int products instead of eight, with a + d
        summed packed; the packed sums, and so the outputs, are the same.  The
        precision is that of the entrywise products and sum: full when its
        four factors are, else the minimum of `product_prec` over its two
        products."""
        pa = [[self._ram_pack(x.coeffs) for x in row] for row in A]
        if B is A:  # five products: a^2 + bc, b(a + d), c(a + d), d^2 + bc
            (a, b), (c, d) = pa
            bc, t = b * c, a + d
            packed = ((a * a + bc, b * t), (c * t, d * d + bc))
        else:
            pb = [[self._ram_pack(x.coeffs) for x in row] for row in B]
            packed = [[pa[i][0] * pb[0][j] + pa[i][1] * pb[1][j] for j in (0, 1)]
                      for i in (0, 1)]
        full = self.pi_precision
        prec = [[full, full], [full, full]]
        if any(x.prec < full for M in (A, B) for row in M for x in row):
            ra = [[x._repr_ord() for x in row] for row in A]
            rb = [[x._repr_ord() for x in row] for row in B]
            prec = [[min(product_prec(ra[i][k], A[i][k].prec, rb[k][j], B[k][j].prec, full)
                         for k in (0, 1)) for j in (0, 1)] for i in (0, 1)]
        return tuple(
            tuple(RamElem(self, self._ram_unpack(packed[i][j]), prec[i][j]) for j in (0, 1))
            for i in (0, 1))

    def _sigma_map(self, n):
        """Packed images sigma^n(x^j) = x^(j p^n) of the basis, j < d: the
        rows of the substitution x -> x^(p^n)."""
        n %= self.d
        if n not in self._sigma_maps:
            ring = self._ring
            self._sigma_maps[n] = ring.power_rows(
                fppoly.power(ring.x, self.p ** n, ring.mul, ring.one))
        return self._sigma_maps[n]

    def __eq__(self, other):
        return self is other or (isinstance(other, CoeffTower) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (f"CoeffTower(p={self.p}, f={self.f}, e={self.e}, "
                f"ext={self.ext}, N={self.N})")

    @property
    def g(self):
        return self.e * self.f

    @property
    def pi_precision(self):
        return self.e * self.N

    def to_json(self):
        return {"p": self.p, "f": self.f, "e": self.e, "ext": self.ext,
                "N": self.N, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data):
        """Tower from its JSON object; malformed input raises DomainError."""
        if not isinstance(data, dict):
            raise DomainError("bad-input", "tower JSON must be an object")
        args = [data.get(k) for k in ("p", "f", "e")] + [data.get("ext", 1), data.get("N")]
        modulus = data.get("modulus")
        if not (is_int_list(args) and (modulus is None or is_int_list(modulus))):
            raise DomainError("bad-input", "tower p, f, e, ext, N and modulus must be integers")
        return cls(*args, modulus=modulus)

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    # -- Witt elements ------------------------------------------------------

    def witt(self, coeffs):
        """WittElem from an int or a little-endian coefficient list."""
        if isinstance(coeffs, WittElem):
            if coeffs.tower is not self and coeffs.tower != self:
                raise DomainError("tower-mismatch", "element from a different tower")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        c = self._pad([x % self.pN for x in coeffs[: self.d]])
        if len(coeffs) > self.d:
            raise DomainError("bad-shape", "too many Witt coefficients")
        return WittElem(self, tuple(c))

    def witt_zero(self):
        if self._zero_w is None:
            self._zero_w = self.witt(0)
        return self._zero_w

    def witt_one(self):
        if self._one_w is None:
            self._one_w = self.witt(1)
        return self._one_w

    def witt_gen(self):
        """The residue of T mod the modulus (a constant when d = 1)."""
        return WittElem(self, self._ring.x)

    def teichmuller(self, a):
        """The unique multiplicative lift of a residue-field element.

        A unit with discrete log k to the generator (its cached `log` from
        gen_pow/random_unit, else the residue field's log table, which
        exists for q <= 2^16) lifts as T**k, read off a fixed-base window
        table of T built on first use: one product per nonzero base-16 digit
        of k.  Larger fields lift a log-less element by `_lift_by_iteration`.
        """
        F = self.residue_field
        if isinstance(a, int):
            a = F.elem(a)
        if not isinstance(a, FqElem) or a.field != F:
            raise DomainError("tower-mismatch", "not a residue-field element of this tower")
        if not a:
            return self.witt_zero()
        k = F.discrete_log(a)
        if k is None:
            return self._lift_by_iteration(a)
        if self._gen_rows is None:
            self._gen_rows = fppoly.window_table(
                self.witt_gen(), self.q - 1, operator.mul, self.witt_one())
        return fppoly.window_pow(self._gen_rows, k % (self.q - 1),
                                 operator.mul, self.witt_one())

    def _lift_by_iteration(self, a):
        """Teichmuller lift of a nonzero residue a without its log: iterate
        y -> sigma^(-1)(y)**p from any lift y of a.  If y = w(a) mod p^k then
        sigma^(-1)(y) = w(a^(1/p)) mod p^k, and its p-th power is w(a) mod
        p^(k+1), so each step gains one digit."""
        y = WittElem(self, a.coeffs)
        for _ in range(self.N + 1):
            y2 = y.sigma(-1) ** self.p
            if y2 == y:
                return y2
            y = y2
        raise RuntimeError("Teichmuller iteration did not stabilize")

    def random_witt(self, rng):
        return self.witt([rng.randrange(self.pN) for _ in range(self.d)])

    # -- ramified elements --------------------------------------------------

    def ram(self, coeffs, prec=None):
        """RamElem from a list of e Witt coefficients (or ints), or an int."""
        if isinstance(coeffs, RamElem):
            return coeffs
        if isinstance(coeffs, (int, WittElem)):
            coeffs = [coeffs]
        if len(coeffs) > self.e:
            raise DomainError("bad-shape", "too many pi-coefficients")
        cs = [self.witt(c) for c in coeffs] + [self.witt_zero()] * (self.e - len(coeffs))
        return RamElem(self, tuple(cs), self.pi_precision if prec is None else prec)

    def zero(self):
        return self.ram(0)

    def one(self):
        return self.ram(1)

    def pi(self):
        return self.pi_pow(1)

    def pi_pow(self, n):
        if n < 0:
            raise DomainError("bad-shape", "negative pi power")
        q, r = divmod(n, self.e)
        return self.ram([0] * r + [pow(self.p, q, self.pN)])

    def random_ram(self, rng):
        return self.ram([self.random_witt(rng) for _ in range(self.e)])

    def random_ram_unit(self, rng):
        c = [self.random_witt(rng) for _ in range(self.e)]
        while c[0].ord_p() > 0:
            c[0] = self.random_witt(rng)
        return self.ram(c)


class WittElem:
    """Element of W_N(F_{p^d}), canonical coefficients in [0, p^N)."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs):
        self.tower = tower
        self.coeffs = coeffs

    def __eq__(self, other):
        return isinstance(other, WittElem) and self.coeffs == other.coeffs \
            and self.tower == other.tower

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"W{list(self.coeffs)}"

    def _wrap(self, coeffs):
        pN = self.tower.pN
        return WittElem(self.tower, tuple([c % pN for c in coeffs]))

    def _lift(self, other):
        if isinstance(other, int):
            return self.tower.witt(other)
        return other

    def __add__(self, other):
        other = self._lift(other)
        return self._wrap([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._lift(other)
        return self._wrap([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._wrap([-a for a in self.coeffs])

    def _scale(self, m):
        pN = self.tower.pN
        return WittElem(self.tower, tuple([c * m % pN for c in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        a, b = self.coeffs, other.coeffs
        if not any(b[1:]):
            return self._scale(b[0])
        if not any(a[1:]):
            return other._scale(a[0])
        t = self.tower
        return WittElem(t, t._reduce(t._pack(a) * t._pack(b)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n):
        return fppoly.power(self, n, operator.mul, self.tower.witt_one())

    def sigma(self, n=1):
        """Witt Frobenius sigma^n; sigma(T) = T^p, identity on Z/p^N."""
        t = self.tower
        if not n % t.d or not any(self.coeffs[1:]):
            return self
        return WittElem(t, t._ring.substitute(t._sigma_map(n), self.coeffs))

    def ord_p(self):
        """min coefficient valuation (that of their gcd); N for the zero
        element."""
        c = math.gcd(*self.coeffs)
        if not c:
            return self.tower.N
        p = self.tower.p
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        return v

    def is_unit(self):
        return self.ord_p() == 0

    def residue(self):
        """The reduction mod p; the coefficients already have degree < d."""
        p = self.tower.p
        return FqElem(self.tower.residue_field, tuple([c % p for c in self.coeffs]))

    def inverse(self):
        if not self.is_unit():
            raise DomainError("non-unit", "inverting a non-unit Witt element")
        t = self.tower
        z = WittElem(t, self.residue().inverse().coeffs)
        one = t.witt_one()
        for _ in range(t.N.bit_length() + 1):
            err = one - self * z
            if not err:
                return z
            z = z + z * err
        raise RuntimeError("Newton inversion did not converge")

    def exact_div_p(self):
        """Exact division by p; the top p-adic digit of the result is not
        certified (callers account for it through RamElem precision)."""
        if any(c % self.tower.p for c in self.coeffs):
            raise DomainError("non-divisible", "Witt element is not divisible by p")
        return WittElem(self.tower, tuple(c // self.tower.p for c in self.coeffs))

    def to_json(self):
        return list(self.coeffs)


def _truncated(tower, coeffs, prec):
    """Zero all pi-adic digits at or above prec (coefficient j carries the
    digits j, j+e, j+2e, ...)."""
    e, N, p = tower.e, tower.N, tower.p
    out = []
    for j, c in enumerate(coeffs):
        levels = max(0, -(-(prec - j) // e))
        if levels >= N:  # every digit of this coefficient is certified
            out.append(c)
        else:
            mod = p ** levels
            out.append(WittElem(tower, tuple([x % mod for x in c.coeffs])))
    return tuple(out)


class RamElem:
    """Element of W_N[pi]/(pi^e - p) with a certified pi-adic precision."""

    __slots__ = ("tower", "coeffs", "prec")

    def __init__(self, tower, coeffs, prec=None):
        self.tower = tower
        full = tower.pi_precision
        self.prec = full if prec is None else min(prec, full)
        if self.prec < full:
            coeffs = _truncated(tower, coeffs, self.prec)
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return (isinstance(other, RamElem) and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.coeffs, self.prec))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        body = ", ".join(repr(list(c.coeffs)) for c in self.coeffs)
        tag = "" if self.prec == self.tower.pi_precision else f" ~pi^{self.prec}"
        return f"Ram[{body}]{tag}"

    def _lift(self, other):
        if isinstance(other, (int, WittElem)):
            return self.tower.ram(other)
        return other

    def __add__(self, other):
        other = self._lift(other)
        return RamElem(self.tower,
                       [a + b if b else a for a, b in zip(self.coeffs, other.coeffs)],
                       min(self.prec, other.prec))

    def __sub__(self, other):
        other = self._lift(other)
        return RamElem(self.tower,
                       [a - b if b else a for a, b in zip(self.coeffs, other.coeffs)],
                       min(self.prec, other.prec))

    def __neg__(self):
        return RamElem(self.tower, [-a for a in self.coeffs], self.prec)

    def _repr_ord(self):
        """Valuation of the stored representative (full pi_precision if 0):
        coefficient j contributes e * ord_p + j >= j, so the scan stops at
        the first j that cannot beat the best so far."""
        e = self.tower.e
        best = self.tower.pi_precision
        for j, c in enumerate(self.coeffs):
            if j >= best:
                break
            v = e * c.ord_p() + j
            if v < best:
                best = v
        return best

    def __mul__(self, other):
        if isinstance(other, FqElem):
            raise TypeError("lift residue elements before multiplying")
        t = self.tower
        full = t.pi_precision
        if isinstance(other, (int, WittElem)):
            w = t.witt(other)
            prec = self.prec
            if prec < full:
                prec = min(prec + t.e * w.ord_p(), full)
            return RamElem(t, [c * w if c else c for c in self.coeffs], prec)
        a, b = self.coeffs, other.coeffs
        a_nz = [i for i, c in enumerate(a) if c]
        b_nz = [i for i, c in enumerate(b) if c]
        if len(a_nz) > 1 and len(b_nz) > 1:
            coeffs = t._ram_unpack(t._ram_pack(a) * t._ram_pack(b))
        else:
            if len(a_nz) > len(b_nz):
                a, b, a_nz, b_nz = b, a, b_nz, a_nz
            # a is zero or the monomial c * pi^k: one product per coefficient of b
            coeffs = [t.witt_zero()] * t.e
            for k in a_nz:
                c = a[k]
                for i in b_nz:
                    j = i + k
                    if j < t.e:
                        coeffs[j] = b[i] * c
                    else:  # pi^j = p * pi^(j-e)
                        coeffs[j - t.e] = b[i] * c * t.p
        prec = full
        if self.prec < full or other.prec < full:
            prec = product_prec(self._repr_ord(), self.prec, other._repr_ord(),
                                other.prec, full)
        return RamElem(t, coeffs, prec)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n):
        return fppoly.power(self, n, operator.mul, self.tower.one())

    def sigma(self, n=1):
        """sigma^n coefficientwise; sigma(pi) = pi since pi^e = p.  Returns
        self when sigma^n fixes every coefficient."""
        if not n % self.tower.d:
            return self
        coeffs = [c.sigma(n) for c in self.coeffs]
        if all(map(operator.is_, coeffs, self.coeffs)):
            return self
        return RamElem(self.tower, coeffs, self.prec)

    def ord_pi(self):
        """Valuation of the element when it is below its precision.

        INF means zero in O/pi^(eN) at full precision, O = W(F_{p^d})[pi]:
        the element is divisible by pi^(eN), which does not make it a
        certified zero of O.  A caller that reads INF as zero relies on eN
        exceeding every valuation it needs.  Below full precision, a
        representative that vanishes to its precision raises
        PrecisionError."""
        v = self._repr_ord()
        if v < self.prec:
            return v
        if self.prec == self.tower.pi_precision:
            return INF
        raise PrecisionError(
            f"valuation >= {self.prec} but element only certified to pi^{self.prec}",
            lower_bound=self.prec)

    def ord_lower(self):
        """A certified lower bound for the valuation (never raises)."""
        return min(self._repr_ord(), self.prec)

    def is_unit(self):
        return self.coeffs[0].is_unit()

    def residue_poly(self):
        """Reduction mod p as a PiPoly over the residue field."""
        if self.prec < self.tower.e:
            raise PrecisionError("mod-p reduction needs e certified digits",
                                 lower_bound=self.prec)
        return PiPoly(self.tower.residue_field, self.tower.e,
                      [c.residue() for c in self.coeffs])

    def div_pi(self, v=1):
        """Exact division by pi^v; costs v digits of certified precision."""
        t = self.tower
        x = list(self.coeffs)
        prec = self.prec
        for _ in range(v):
            low = x[0]
            if any(c % t.p for c in low.coeffs):
                raise DomainError("non-divisible", "element is not divisible by pi")
            x = x[1:] + [low.exact_div_p()]
            prec -= 1
        if prec <= 0:
            raise PrecisionError("no certified digits left after pi-division", lower_bound=0)
        return RamElem(t, x, prec)

    def unit_part(self):
        """(v, u) with self = pi^v * u and u a unit; requires a nonzero
        representative."""
        v = self._repr_ord()
        if v >= self.prec:
            raise PrecisionError("cannot split a value that is zero to working precision",
                                 lower_bound=self.prec)
        return v, self.div_pi(v)

    def inverse(self):
        if not self.is_unit():
            raise DomainError("non-unit", "inverting a non-unit; use unit_part first")
        t = self.tower
        z = t.ram(self.coeffs[0].inverse())
        one = t.one()
        for _ in range(t.pi_precision.bit_length() + 2):
            err = one - self * z
            if err.ord_lower() >= self.prec:
                return RamElem(t, z.coeffs, self.prec)
            z = z + z * err
        raise RuntimeError("Newton inversion did not converge")

    def to_json(self):
        return [c.to_json() for c in self.coeffs]
