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

Each element type picks its product route from the other operand's type
alone; coefficient structure (zero or constant slots, empty high
pi-degrees) is detected only by the kernel, `fppoly.PackedQuotient` and
the tower's `_ram_pack`/`_ram_reduce`.

* `WittElem * int` scales coefficientwise; any other Witt product is one
  `PackedQuotient.mul` over Z/p^N: each operand packs into one integer of
  d slots, and the 2d-1 slots of the product are reduced (mod p^N, then
  x^(d+k) from a table).  A constant packs as itself, a zero product
  reduces to the shared zero tuple, and a product with empty high slots
  is split without the fold (`fppoly` module docstring).  The tower binds
  the kernel's `pack` as `_pack`, and `witt` returns its one WittElem of 0
  and of 1 for those values.
* `RamElem * int` and `RamElem * WittElem` scale each pi-coefficient.  Any
  other ramified product is one bivariate Kronecker product: `_ram_pack`
  packs each operand, 2d-1 slots per pi-degree, one big-int product is
  taken, and `_ram_reduce` folds pi^(e+k) = p * pi^k (only when the
  product has a pi-degree >= e) and reduces the e pi-degrees in one
  `PackedQuotient.reduce_segments`.  A RamElem keeps its Kronecker integer
  after its first product (`RamElem._kron`), so an element used in k
  products is packed once.
* A product of 2x2 matrices runs on `PackedMatrix`, a matrix kept in the
  kernel's formats: each entry's e reduced coefficient tuples and its
  bivariate Kronecker integer, packed when that entry is first read.  The
  one 2x2 kernel, `CoeffTower.mat_product`, sums the two big-int products
  of each output entry while still packed and folds and reduces that sum
  once (e reductions), and builds no WittElem or RamElem.  Only new values
  are reduced: an entry whose two products both have a zero factor is the
  tower's shared zero, and a copy entry, one product a factor times
  exactly 1 and the other zero, takes that factor's tuples and integer.
  A square takes five big-int products, a^2 + bc, b(a+d), c(a+d),
  d^2 + bc, whose sums are the same integers as the eight-product ones.
  `pair_sum` is the one signed-pairs kernel: it sums the big-int products
  P[i] Q[j] of given index pairs, a minus sign multiplying by the packed
  negation of Q[j] (x -> -x mod p^N, so no slot goes negative), and folds
  and reduces the sum once (e reductions); a product with a zero factor,
  read off the valuations `ords` when a builder gave them, packs neither
  factor.  `mat_trace` (the four diagonal products of P Q) and `det`
  (ad - bc) are calls to it.  Chains of products (twisted powers and their
  doublings, `modules`) stay packed from link to link.
* `DModule` validation runs on the same formats: its determinant is
  `det`, which packs only the entries of products without a zero factor
  (a deformation fiber's dense entry meets a zero), and the pairing identity
  det(A_i) delta_i = p sigma(delta_(i-1)) is compared on the reduced
  tuples, its right-hand sides formed once per set of scalars
  (`modules.PackedPairing`).
* A Teichmuller point T**k (`teichmuller_power`, the lift of gen()**k) is
  one window power on packed integers of the tower's ring: the window
  table of T holds packed ints, each product is `PackedQuotient.mul_packed`
  (reduced, and kept packed), and the lift is one split (`reduce`) of the
  power, with no WittElem per product.  Random units are drawn as k and
  lifted so; a residue-field element lifts through its log table entry k,
  or in closed form when the field has no table
  (`fppoly.teichmuller_point`).
* `RamElem.mul_pi(k)` and `div_pi(k)` are exact shifts in closed form, no
  kernel product: coefficient j moves to j +- k mod e, times or divided by
  p per wrap past pi^e = p.  `families` writes every family module and
  deformation fiber as PackedMatrices from coefficient tuples, which
  `DModule` takes as they are.
* sigma^n is the substitution x -> x^(p^n): one linear combination of the
  packed rows x^(j p^n), which the tower computes once per n, from one
  power and d-2 products.  It is the identity on constants and for
  n = 0 mod d; it returns its argument unchanged there (a ramified element
  when it fixes every coefficient, a matrix when n = 0 mod d).  A ramified
  sum or difference keeps each coefficient whose other summand is zero.

Slot width: before a reduction a slot holds at most 4*(p+1)*e*d*(p^N-1)^2
(the folded sum of four dense ramified products in a trace; a matrix entry
or a determinant sums two, a single folded product holds a quarter of that,
a Witt product or a Frobenius image at most d*(p^N-1)^2; a negated factor
is reduced, so its slots lie in [0, p^N) like any other), and a reduction
adds at most (d-1)*(p^N-1)^2 to a low slot.  The tower's slot width is the
bit length of (4*(p+1)*e + 1)*d*(p^N-1)^2, so no slot carries into the
next.
"""

import json
import math
import operator
from . import fppoly
from .modp import ResidueField, FqElem

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

# the big-int products of a 2x2 product P Q, as pairs (i, j) of row-major
# entry indices of P and Q: the two of each output entry, and the four of
# its trace; and the two of the determinant ad - bc of P (with Q = P)
_ENTRY_PAIRS = (((0, 0), (1, 2)), ((0, 1), (1, 3)), ((2, 0), (3, 2)), ((2, 1), (3, 3)))
_TRACE_PAIRS = ((0, 0), (1, 2), (2, 1), (3, 3))
_DET_PAIRS = ((0, 3), (1, 2))
_UNKNOWN = (None,) * 4  # the `ints` and `ords` of a PackedMatrix before any is read


class PrecisionError(ArithmeticError):
    """A value is needed beyond the digits that are certified.
    `lower_bound` is what is still certified, and `bound_kind` says what it
    bounds: "valuation", a pi-adic valuation, or "index", a Newton slope
    index (where the oracle gives up)."""

    def __init__(self, message, lower_bound=None, bound_kind=None):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.bound_kind = bound_kind


class DomainError(ValueError):
    """Invalid mathematical input; `code` keys the machine-readable form."""

    def __init__(self, code, message, **info):
        super().__init__(message)
        self.code = code
        self.info = info


class Frozen:
    """Base of the immutable value types (Newton point, Lie type, a-type,
    stratum record, stable plane).  The base compares (equal when of the
    same class with equal `_fields`), hashes the field tuple, gives the
    repr `Name(field=value, ...)`, refuses assignment and deletion with
    AttributeError, and pickles and copies through `__init__`.  A subclass
    keeps its `_fields` in `__slots__` and writes only its `__init__`,
    which sets each slot once with `object.__setattr__`."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __reduce__(self):
        # rebuilt through __init__, which validates and fills derived slots
        return type(self), self._values()


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
        least = min_N(e * f, e)
        if N is None:
            N = least
        if N < least:
            raise DomainError(
                "precision-policy",
                f"e*N = {e * N} < e*f + 2 = {e * f + 2}; raise N",
            )
        if (e > MAX_E or f * ext > MAX_D or (p ** (f * ext)).bit_length() > MAX_Q_BITS
                or N * math.log2(p) >= MAX_PN_BITS):
            raise too_large
        self.p, self.f, self.e, self.ext, self.N = p, f, e, ext, N
        self.d = f * ext
        self.pi_precision = e * N  # the certified digits of a full-precision element
        # the `PackedMatrix.precs` of every matrix at full precision, which
        # the kernel compares by identity
        self._full_precs = (self.pi_precision,) * 4
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
            # irreducible): teichmuller_power, the log table and the
            # pairing-scalar construction all rely on it
            raise DomainError("bad-modulus", "modulus is not primitive mod p")
        self.modulus = tuple(modulus)
        self._key = (p, f, e, ext, N, self.modulus)
        self.residue_field = ResidueField(p, mu)

        # the packed kernel over Z/p^N (slot width: see the module
        # docstring), its methods bound for the hot paths, and Frobenius
        # basis maps sigma^n(x^j) = x^(j p^n)
        bits = ((4 * (p + 1) * e + 1) * self.d * (self.pN - 1) ** 2).bit_length()
        self._ring = ring = fppoly.PackedQuotient(modulus, self.pN, bits)
        if fppoly.power(ring.x, self.q - 1, ring.mul, ring.one) != ring.one:
            raise DomainError("bad-modulus", "T is not a (q-1)-th root of unity mod modulus")
        self._pack = ring.pack
        self._stride = (2 * self.d - 1) * bits  # bits per pi-degree
        self._zero_cs = (ring.zero,) * e  # the tuples of a zero entry
        self._sigma_maps = {}
        self._gen_rows = None  # window table of T, built on the first teichmuller_power
        # the one WittElem of 0 and of 1, which `witt` returns for them
        self._zero_w = WittElem(self, ring.zero)
        self._one_w = WittElem(self, ring.one)

    # -- plumbing -----------------------------------------------------------

    def _pad(self, coeffs):
        return list(coeffs) + [0] * (self.d - len(coeffs))

    def _ram_pack(self, cs):
        """Bivariate Kronecker integer of e coefficient tuples."""
        acc = 0
        for c in reversed(cs):
            acc = (acc << self._stride) | self._pack(c)
        return acc

    def _ram_reduce(self, prod):
        """e reduced coefficient tuples of a packed ramified product (or sum
        of products): the fold pi^(e+k) = p * pi^k on the packed parts when
        some pi-degree is >= e, then `PackedQuotient.reduce_segments` of the
        e pi-degrees."""
        width = self.e * self._stride
        high = prod >> width
        if high:
            prod = (prod & ((1 << width) - 1)) + self.p * high
        return self._ring.reduce_segments(prod, self.e, self._stride)

    def _repr_ord(self, cs):
        """Valuation of the element with pi-coefficient tuples cs (eN if it
        is 0): coefficient j contributes e * ord_p(gcd of its tuple) + j >= j,
        so the scan stops at the first j that cannot beat the best so far."""
        e, p = self.e, self.p
        best = self.pi_precision
        for j, c in enumerate(cs):
            if j >= best:
                break
            g = math.gcd(*c)
            if g:
                v = j
                while g % p == 0:
                    g //= p
                    v += e
                if v < best:
                    best = v
        return best

    def certified_ord(self, v, prec):
        """`RamElem.ord_pi` of an element at precision prec whose stored
        representative has valuation v (`_repr_ord`)."""
        if v < prec:
            return v
        if prec == self.pi_precision:
            return INF
        raise PrecisionError(f"valuation >= {prec} but element only certified to pi^{prec}",
                             lower_bound=prec, bound_kind="valuation")

    def truncated(self, cs, prec):
        """The coefficient tuples cs with every pi-adic digit at or above
        prec zeroed (coefficient j carries the digits j, j+e, j+2e, ...); a
        tuple with every digit certified is kept as it is."""
        e, N, p = self.e, self.N, self.p
        out = []
        for j, c in enumerate(cs):
            levels = max(0, -(-(prec - j) // e))
            out.append(c if levels >= N else tuple([x % p ** levels for x in c]))
        return out

    def packed(self, A):
        """The 2x2 matrix A of RamElems of this tower as a PackedMatrix."""
        entries = [x for row in A for x in row]
        return PackedMatrix(self, tuple([tuple([c.coeffs for c in x.coeffs]) for x in entries]),
                            tuple([x.prec for x in entries]),
                            ints=tuple([x._int for x in entries]))

    def ram_matrix(self, P):
        """The PackedMatrix P as a 2x2 matrix of RamElems (truncated to their
        precisions, as every RamElem is)."""
        entries = [RamElem(self, [WittElem(self, c) for c in cs], q)
                   for cs, q in zip(P.cs, P.precs)]
        return (tuple(entries[:2]), tuple(entries[2:]))

    def _product_precs(self, P, Q, pairs):
        """The least `product_prec` of P[i] Q[j] over each list of flat
        index pairs (i, j), as a tuple; the tower's `_full_precs` (eN four
        times, whatever the number of lists) when P and Q are both at full
        precision."""
        if P.precs is Q.precs is self._full_precs:
            return self._full_precs
        full = self.pi_precision
        pa, pb, ra, rb = P.precs, Q.precs, P.ords, Q.ords
        return tuple([min(product_prec(ra[i], pa[i], rb[j], pb[j], full) for i, j in ij)
                      for ij in pairs])

    def mat_product(self, P, Q):
        """P Q for PackedMatrices of this tower: the 2x2 kernel.

        Each output entry is the packed sum of its two big-int products,
        folded and reduced once (e reductions), unless its value is not
        new: an entry whose two products are both zero is the shared zero
        (Kronecker integer 0), and a copy entry, one product a factor times
        exactly 1 (integer 1) and the other zero, takes that factor's
        tuples and Kronecker integer; neither is reduced.  A square
        (`Q is P`) takes five products instead of eight, with a + d summed
        packed; the packed sums, and so the outputs, are the same, and only
        a zero sum is not reduced.  The precision is that of the entrywise
        products and sum: full when the four factors of an entry are, else
        the minimum of `product_prec` over its two products."""
        precs, zero = self._product_precs(P, Q, _ENTRY_PAIRS), self._zero_cs
        a = P.ints
        if Q is P:  # five products: a^2 + bc, b(a + d), c(a + d), d^2 + bc
            bc, t = a[1] * a[2], a[0] + a[3]
            sums = (a[0] * a[0] + bc, a[1] * t, a[2] * t, a[3] * a[3] + bc)
            return PackedMatrix(self, [self._ram_reduce(x) if x else zero for x in sums],
                                precs)
        b, cs, ints = Q.ints, [], []
        for (i, j), (k, l) in _ENTRY_PAIRS:
            x, y, u, v = a[i], b[j], a[k], b[l]
            if x and y and u and v:
                c, n = self._ram_reduce(x * y + u * v), None
            else:
                if u and v:  # the second product is the one that is not zero
                    i, j, x, y = k, l, u, v
                if not (x and y):
                    c, n = zero, 0
                elif x == 1:
                    c, n = Q.cs[j], y
                elif y == 1:
                    c, n = P.cs[i], x
                else:
                    c, n = self._ram_reduce(x * y), None
            cs.append(c)
            ints.append(n)
        return PackedMatrix(self, cs, precs, ints=tuple(ints))

    def pair_sum(self, P, Q, pairs, signs=(1, 1, 1, 1)):
        """The sum of s P[i] Q[j] over the flat index pairs (i, j) and the
        signs s = +-1, for PackedMatrices of this tower: the big-int products
        summed packed, folded and reduced once (e reductions).  A product
        with a zero factor adds nothing and packs neither factor: the zero
        is read off `ords` (eN) when they are known, else off the factor's
        Kronecker integer, which `PackedMatrix.int_at` packs alone.  A minus
        sign multiplies by the packed negation of Q[j]'s tuples (x -> -x mod
        p^N), so no slot goes negative.  Returns (coefficient tuples,
        precision), the precision being the least `product_prec` of the
        products (eN when the factors are all at full precision)."""
        full, acc = self.pi_precision, 0
        ra, rb = P._ords or _UNKNOWN, Q._ords or _UNKNOWN
        for (i, j), s in zip(pairs, signs):
            if ra[i] == full or rb[j] == full:
                continue
            x = P.int_at(i)
            if x:
                acc += x * (Q.int_at(j) if s > 0 else self._ram_pack(self._negated(Q.cs[j])))
        return self._ram_reduce(acc), self._product_precs(P, Q, (pairs,))[0]

    def _negated(self, cs):
        """The coefficient tuples of -x for those of x, in [0, p^N)."""
        pN = self.pN
        return [tuple([-c % pN for c in t]) if any(t) else t for t in cs]

    def mat_trace(self, P, Q):
        """The trace of P Q: `pair_sum` of its four diagonal products, as
        (coefficient tuples, precision)."""
        return self.pair_sum(P, Q, _TRACE_PAIRS)

    def det(self, P):
        """ad - bc of the PackedMatrix P: `pair_sum` of its two products,
        as (coefficient tuples, precision)."""
        return self.pair_sum(P, P, _DET_PAIRS, (1, -1))

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
        c = tuple(self._pad([x % self.pN for x in coeffs[: self.d]]))
        if len(coeffs) > self.d:
            raise DomainError("bad-shape", "too many Witt coefficients")
        if c == self._zero_w.coeffs:
            return self._zero_w
        if c == self._one_w.coeffs:
            return self._one_w
        return WittElem(self, c)

    def witt_zero(self):
        return self._zero_w

    def witt_one(self):
        return self._one_w

    def witt_gen(self):
        """The residue of T mod the modulus (a constant when d = 1)."""
        return WittElem(self, self._ring.x)

    def teichmuller(self, a):
        """The unique multiplicative lift of a residue-field element.

        A unit whose discrete log k to the generator is in the residue
        field's log table (q <= 2^16) lifts as T**k (`teichmuller_power`).
        Larger fields lift it in closed form, y**(q^ceil((N-1)/d))
        (`fppoly.teichmuller_point`).
        """
        F = self.residue_field
        if isinstance(a, int):
            a = F.elem(a)
        if not isinstance(a, FqElem) or a.field != F:
            raise DomainError("tower-mismatch", "not a residue-field element of this tower")
        if not a:
            return self.witt_zero()
        k = F.discrete_log(a)
        if k is not None:
            return self.teichmuller_power(k)
        ring = self._ring
        return WittElem(self, fppoly.teichmuller_point(a.coeffs, self.q, self.d, self.N,
                                                       ring.mul, ring.one))

    def teichmuller_power(self, k):
        """T**k for any integer k, the Teichmuller point above gen()**k: read
        off a fixed-base window table of T built on first use, one product
        per nonzero base-16 digit of k mod q - 1, each kept packed
        (`PackedQuotient.mul_packed`), and one split (`reduce`) of the
        result."""
        ring = self._ring
        if self._gen_rows is None:
            self._gen_rows = fppoly.window_table(ring.pack(ring.x), self.q - 1,
                                                 ring.mul_packed, 1)
        return WittElem(self, ring.reduce(fppoly.window_pow(
            self._gen_rows, k % (self.q - 1), ring.mul_packed, 1)))

    def random_witt(self, rng):
        return self.witt([rng.randrange(self.pN) for _ in range(self.d)])

    # -- ramified elements --------------------------------------------------

    def ram(self, coeffs, prec=None):
        """RamElem from a list of e Witt coefficients (or ints), or an int."""
        if isinstance(coeffs, RamElem):
            if coeffs.tower is not self and coeffs.tower != self:
                raise DomainError("tower-mismatch", "element from a different tower")
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
        return self.one().mul_pi(n)

    def random_ram(self, rng):
        return self.ram([self.random_witt(rng) for _ in range(self.e)])


class PackedMatrix:
    """A 2x2 matrix over the ramified ring in the kernel's formats, for
    chains of products that build no WittElem or RamElem: `cs` holds each
    entry's e reduced coefficient tuples, row-major, and `precs` their four
    precisions, always a tuple: the tower's one shared (eN, eN, eN, eN),
    the default, whenever all are eN, so that `mat_product` and `pair_sum`
    tell two full-precision factors by identity.  Each entry's Kronecker
    integer is packed when that entry is first read (`int_at`; `ints`
    reads all four), unless `ints` gives it (None where it is not known:
    `mat_product` passes those of its copy and zero entries, `packed`
    those its RamElems hold); `ords` (the valuations of the stored
    representatives, eN for 0, as `RamElem._repr_ord`) are formed on first
    read unless given.  Both are kept as tuples.  `packed` builds `cs` of
    tuples too, since `DModule` keeps one PackedMatrix per slot.

    Entries are not truncated to their precisions, as RamElems are: a digit
    at or above an entry's precision changes no certified digit of a
    product and no min(ord, prec), so no `product_prec`; `ram_matrix`
    truncates."""

    __slots__ = ("tower", "cs", "precs", "_ints", "_ords")

    def __init__(self, tower, cs, precs=None, ords=None, ints=_UNKNOWN):
        full = tower._full_precs
        self.tower, self.cs, self.precs = tower, cs, precs if precs and precs != full else full
        self._ints = ints
        self._ords = ords

    @property
    def ints(self):
        """The four Kronecker integers, row-major."""
        ints = self._ints
        if None in ints:
            pack = self.tower._ram_pack
            ints = self._ints = tuple([pack(c) if n is None else n
                                       for c, n in zip(self.cs, ints)])
        return ints

    def int_at(self, i):
        """The Kronecker integer of entry i alone."""
        n = self._ints[i]
        if n is None:
            n = self.tower._ram_pack(self.cs[i])
            ints = self._ints
            self._ints = ints[:i] + (n,) + ints[i + 1:]
        return n

    @property
    def ords(self):
        if self._ords is None:
            self._ords = tuple([self.tower._repr_ord(c) for c in self.cs])
        return self._ords

    def sigma(self, n):
        """sigma^n on every coefficient tuple, which keeps each valuation and
        precision; self when sigma^n fixes every entry (n = 0 mod d, or
        constant coefficients only), so that `mat_product` can take its
        squaring route and no integer is packed again."""
        t = self.tower
        if not n % t.d or not any(any(c[1:]) for x in self.cs for c in x):
            return self
        rows, sub = t._sigma_map(n), t._ring.substitute
        cs = [[sub(rows, c) if any(c[1:]) else c for c in x] for x in self.cs]
        return PackedMatrix(t, cs, self.precs, self._ords)


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

    # a ramified operand answers through RamElem's reflected operator
    def __add__(self, other):
        if isinstance(other, RamElem):
            return NotImplemented
        other = self.tower.witt(other)
        return self._wrap([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if isinstance(other, RamElem):
            return NotImplemented
        other = self.tower.witt(other)
        return self._wrap([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self.tower.witt(other) - self

    def __neg__(self):
        return self._wrap([-a for a in self.coeffs])

    def _scale(self, m):
        pN = self.tower.pN
        return WittElem(self.tower, tuple([c * m % pN for c in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        if isinstance(other, RamElem):
            return NotImplemented
        t = self.tower
        return WittElem(t, t._ring.mul(self.coeffs, t.witt(other).coeffs))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n):
        """self**n; a negative n powers the ramified inverse (`non-unit`)."""
        if n < 0:
            return self.tower.ram(self).inverse().coeffs[0] ** -n
        return fppoly.power(self, n, operator.mul, self.tower.witt_one())

    def sigma(self, n=1):
        """Witt Frobenius sigma^n; sigma(T) = T^p, identity on Z/p^N."""
        t = self.tower
        if not n % t.d or not any(self.coeffs[1:]):
            return self
        return WittElem(t, t._ring.substitute(t._sigma_map(n), self.coeffs))

    def ord_p(self):
        """min coefficient valuation (that of their gcd); N for the zero
        element: the pi-adic valuation of self, over e."""
        t = self.tower
        return t._repr_ord((self.coeffs,)) // t.e

    def is_unit(self):
        return self.ord_p() == 0

    def residue(self):
        """The reduction mod p; the coefficients already have degree < d."""
        p = self.tower.p
        return FqElem(self.tower.residue_field, tuple([c % p for c in self.coeffs]))

    def to_json(self):
        return list(self.coeffs)


class RamElem:
    """Element of W_N[pi]/(pi^e - p) with a certified pi-adic precision.
    `_int` keeps the Kronecker integer of its coefficients once a product
    has packed it (`_kron`); equality, hash and repr do not read it."""

    __slots__ = ("tower", "coeffs", "prec", "_int")

    def __init__(self, tower, coeffs, prec=None):
        self.tower = tower
        self._int = None
        full = tower.pi_precision
        self.prec = full if prec is None else min(prec, full)
        if self.prec < 0:
            raise DomainError("bad-shape", "negative precision")
        if self.prec < full:
            coeffs = [c if t is c.coeffs else WittElem(tower, t) for c, t in
                      zip(coeffs, tower.truncated([c.coeffs for c in coeffs], self.prec))]
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

    def __add__(self, other):
        other = self.tower.ram(other)
        return RamElem(self.tower,
                       [a + b if b else a for a, b in zip(self.coeffs, other.coeffs)],
                       min(self.prec, other.prec))

    def __sub__(self, other):
        other = self.tower.ram(other)
        return RamElem(self.tower,
                       [a - b if b else a for a, b in zip(self.coeffs, other.coeffs)],
                       min(self.prec, other.prec))

    def __rsub__(self, other):
        return self.tower.ram(other) - self

    def __neg__(self):
        return RamElem(self.tower, [-a for a in self.coeffs], self.prec)

    def _repr_ord(self):
        """Valuation of the stored representative (full pi_precision if 0)."""
        return self.tower._repr_ord([c.coeffs for c in self.coeffs])

    def _kron(self):
        """The Kronecker integer of the coefficients, packed on the first
        call and kept."""
        n = self._int
        if n is None:
            n = self._int = self.tower._ram_pack([c.coeffs for c in self.coeffs])
        return n

    def __mul__(self, other):
        if isinstance(other, FqElem):
            raise TypeError("lift residue elements before multiplying")
        t = self.tower
        full = t.pi_precision
        if isinstance(other, (int, WittElem)):
            prec = self.prec
            if prec < full:
                prec = min(prec + t.e * t.witt(other).ord_p(), full)
            return RamElem(t, [c * other if c else c for c in self.coeffs], prec)
        other = t.ram(other)
        coeffs = [WittElem(t, c) for c in t._ram_reduce(self._kron() * other._kron())]
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
        PrecisionError (`CoeffTower.certified_ord`)."""
        return self.tower.certified_ord(self._repr_ord(), self.prec)

    def ord_lower(self):
        """A certified lower bound for the valuation (never raises)."""
        return min(self._repr_ord(), self.prec)

    def is_unit(self):
        return self.coeffs[0].is_unit()

    def mul_pi(self, k=1):
        """self * pi^k without a kernel product, the inverse of `div_pi`:
        coefficient j moves to j + k mod e, times p^((j + k) // e) since
        pi^e = p, and the precision becomes min(prec + k, eN).  Value and
        precision equal those of `self * tower.pi_pow(k)`."""
        t = self.tower
        if k < 0:
            raise DomainError("bad-shape", "negative pi power")
        e, out = t.e, [None] * t.e
        for j, c in enumerate(self.coeffs):
            q, r = divmod(j + k, e)
            out[r] = c * pow(t.p, q, t.pN) if q and c else c
        return RamElem(t, out, self.prec + k)

    def div_pi(self, v=1):
        """Exact division by pi^v, which costs v digits of precision: the
        inverse shift of `mul_pi`, coefficient j moves to j - v mod e and is
        divided by p^min(ceil((v - j)/e), N), since a coefficient has N
        digits.  `non-divisible` is checked before the precision left."""
        t = self.tower
        if v < 0:
            raise DomainError("bad-shape", "negative pi power")
        e, out = t.e, [None] * t.e
        for j, c in enumerate(self.coeffs):
            w = -(-(v - j) // e)  # >= 0, since j < e
            if w and c:
                m = t.p ** min(w, t.N)
                if any(x % m for x in c.coeffs):
                    raise DomainError("non-divisible", "element is not divisible by pi")
                c = WittElem(t, tuple([x // m for x in c.coeffs]))
            out[(j - v) % e] = c
        if self.prec - v <= 0:
            raise PrecisionError("no certified digits left after pi-division", lower_bound=0,
                                 bound_kind="valuation")
        return RamElem(t, out, self.prec - v)

    def unit_part(self):
        """(v, u) with self = pi^v * u and u a unit; requires a nonzero
        representative."""
        v = self._repr_ord()
        if v >= self.prec:
            raise PrecisionError("cannot split a value that is zero to working precision",
                                 lower_bound=self.prec, bound_kind="valuation")
        return v, self.div_pi(v)

    def inverse(self):
        """Newton's iteration z -> z + z (1 - self z) from the inverse of the
        residue of the constant coefficient, certified to one digit; each
        step doubles the certified digits, up to self's precision."""
        if not self.is_unit():
            raise DomainError("non-unit", "inverting a non-unit; use unit_part first")
        t = self.tower
        z = t.ram(WittElem(t, self.coeffs[0].residue().inverse().coeffs))
        one = t.one()
        for _ in range(t.pi_precision.bit_length() + 2):
            err = one - self * z
            if err.ord_lower() >= self.prec:
                return RamElem(t, z.coeffs, self.prec)
            z = z + z * err
        raise RuntimeError("Newton inversion did not converge")

    def to_json(self):
        return [c.to_json() for c in self.coeffs]
