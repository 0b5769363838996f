"""The three invariants of a module: Lie type, a-type, Newton polygon,
plus the a-index, classification flags, a-type bounds and dual formulas.

Lie type and a-type are the elementary divisors of M^i / V M^(i+1) and of
M^i / (F M^(i-1) + V M^(i+1)).  Both cokernels are killed by p (pM lies in
FM and in VM), so their divisors are the Smith exponents over the DVR
O = W(F_{p^d})[pi], namely (d1, d2 - d1) with d1 the minimum entry
valuation and d2 the minimum 2x2 minor valuation of the row matrix.  They
are read off the determinant and entry valuations of the slot matrices
and, for the a-type, a few mixed minors capped at what they can still
change.  A mixed minor is read off its entries' valuations and precisions,
and formed, on the packed slot matrices, only when its two terms tie below
precision; a minor that vanishes to working precision below its cap raises
PrecisionError.  The Newton point is an element of

    S(g) = {0, 1, ..., floor(g/2)} u {g/2}

computed either from the trace valuation of the one-slot F^f matrix (fast;
exact on the normal-form families) or by a bracketing limit of minimal
entry valuations of iterated twisted powers (the independent oracle).
"""

from fractions import Fraction
from functools import reduce
from math import gcd

from .wittring import PrecisionError, DomainError, Frozen, INF, product_prec

# doubling budget of the Newton oracle: twisted powers up to the 2^7-fold
_MAX_DOUBLINGS = 7


def admissible_indices(g):
    """S(g) as an ordered list of Fractions."""
    out = [Fraction(i) for i in range(g // 2 + 1)]
    half = Fraction(g, 2)
    if half not in out:
        out.append(half)
    return out


class NewtonPoint(Frozen):
    """A point s(index) of S(g).  The index is a Fraction n/d in lowest
    terms with d in {1, 2}, or an int, which is kept as a Fraction; the
    flags and the JSON form run on n and d as plain integers, and only
    `sequence` forms Fractions."""

    __slots__ = _fields = ("g", "index")

    def __init__(self, g, index):
        if type(index) is int:
            index = Fraction(index)
        elif not isinstance(index, Fraction):
            raise DomainError("bad-slope", f"index {index!r} is not a Fraction or an int")
        # S(g) holds the integers in [0, g/2] and g/2 itself (n/d in lowest terms)
        n, d = index.numerator, index.denominator
        if not (d == 1 and 0 <= 2 * n <= g or d == 2 and n == g):
            raise DomainError("bad-slope", f"{index} is not in S({g})")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.g, self.index) == (other.g, other.index)
        return NotImplemented

    def __hash__(self):
        return hash((self.g, self.index))

    @property
    def sequence(self):
        """The 2g slopes in increasing order (lam <= 1/2 <= 1 - lam)."""
        lam = self.index / self.g
        return (lam,) * self.g + (1 - lam,) * self.g

    @property
    def is_ordinary(self):
        return self.index.numerator == 0

    @property
    def is_supersingular(self):
        # index = g/2, with index = n/d
        return 2 * self.index.numerator == self.g * self.index.denominator

    def __repr__(self):
        return f"s({self.index})"

    def to_json(self):
        # the slopes n/(d g) and 1 - n/(d g) = (d g - n)/(d g) in lowest
        # terms: gcd(d g - n, d g) = gcd(n, d g), so one gcd reduces both
        n, d = self.index.numerator, self.index.denominator
        den = d * self.g
        k = gcd(n, den)
        low, high = (n // k, den // k), ((den - n) // k, den // k)
        return {
            "index_num": n,
            "index_den": d,
            "sequence": [list(low) for _ in range(self.g)] + [list(high) for _ in range(self.g)],
        }


class LieType(Frozen):
    """Per-slot sorted pairs (e1, e2), 0 <= e1 <= e2 <= e."""

    __slots__ = _fields = ("e", "pairs")

    def __init__(self, e, pairs):
        for a, b in pairs:
            if not (0 <= a <= b <= e):
                raise DomainError("bad-shape", f"Lie pair {(a, b)} out of [0, {e}]")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.e, self.pairs) == (other.e, other.pairs)
        return NotImplemented

    def __hash__(self):
        return hash((self.e, self.pairs))

    @property
    def f(self):
        return len(self.pairs)

    @property
    def total(self):
        return sum(a + b for a, b in self.pairs)

    @property
    def is_rapoport(self):
        return all(pair == (0, self.e) for pair in self.pairs)

    @property
    def is_dp(self):
        return len({a + b for a, b in self.pairs}) == 1

    def to_json(self):
        return [list(pair) for pair in self.pairs]


class AType(Frozen):
    """Per-slot sorted pairs (a1, a2) and their sum, the a-number, which is
    a slot but not a field: equality, hashing and the repr read e and pairs
    only."""

    _fields = ("e", "pairs")
    __slots__ = (*_fields, "a_number")

    def __init__(self, e, pairs):
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "a_number", sum(a + b for a, b in pairs))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.e, self.pairs) == (other.e, other.pairs)
        return NotImplemented

    def __hash__(self):
        return hash((self.e, self.pairs))

    @property
    def f(self):
        return len(self.pairs)

    @property
    def rapoport_form(self):
        """Per-slot single exponents (a^i) when every pair is {0, a}."""
        if all(a == 0 for a, _ in self.pairs):
            return tuple(b for _, b in self.pairs)
        return None

    def to_json(self):
        return {
            "pairs": [list(pair) for pair in self.pairs],
            "rapoport_form": None if self.rapoport_form is None else list(self.rapoport_form),
            "a_number": self.a_number,
        }


def _entry_order(M, i):
    """m_i, the minimum entry valuation of A[i], certified; else
    PrecisionError with the certified lower bound, the least min(ord, prec)
    of the entries."""
    m = M.entry_orders[i]
    if m is None:
        P = M.packed_matrices[i]
        raise PrecisionError(
            f"slot {i}: the minimum entry valuation of A[{i}] is attained only "
            "by entries that vanish to working precision; raise N",
            lower_bound=min(map(min, P.ords, P.precs)))
    return m


def lie_type(M):
    """Elementary divisors of M^i / V M^(i+1), slot by slot.  Slot i reads
    V: slot j -> i, j = i+1, whose matrix is sigma^-1(p adj(A[j]) / pi^v_j)
    up to a unit: its entries have minimum valuation e - v_j + m_j and its
    determinant 2e - v_j."""
    e, f = M.e, M.f
    pairs = []
    for i in range(f):
        j = (i + 1) % f
        v, m = M.det_orders[j], _entry_order(M, j)
        pairs.append((e - v + m, e - m))
    return LieType(e, tuple(pairs))


def _a_pair(M, i):
    """Slot i: the rows of A[i] stacked on the V rows of slot i.  d1 is the
    minimum entry valuation, s the minimum 2x2 minor valuation capped at
    d1 + e.  Two minors are known (v_i and 2e - v_j); up to sign and the
    offset e - v_j, the four mixed ones are the entries of sigma(A[i]) A[j]
    (sigma moved onto A[i]'s rows).  Every minor is >= 2 d1, so the scan
    stops once s reaches that floor.

    A mixed minor sigma(x1) y1 + sigma(x2) y2 is read off the valuations r
    of the stored entries and their precisions, without ring arithmetic:
    sigma keeps both, a product's valuation is the sum of its factors' (O
    is a DVR) and its precision is `wittring.product_prec`, and a sum of
    two terms of different valuations has the smaller one.  Only two terms
    that tie below precision, and could still lower s, are multiplied out,
    on the packed forms: one `CoeffTower.pair_sum` of sigma(A[i]) and A[j].
    r and the precisions are the `ords` and `precs` of
    `M.packed_matrices`, which `DModule.__init__` formed during validation,
    so no report forms a RamElem."""
    e, f = M.e, M.f
    j = (i + 1) % f
    off = e - M.det_orders[j]
    d1 = min(e, _entry_order(M, i), off + _entry_order(M, j))
    floor = 2 * d1
    s = min(M.det_orders[i], e + off, d1 + e)
    if s == floor:
        return d1, s - d1
    t = M.tower
    full = t.pi_precision
    A, B = M.packed_matrices[i], M.packed_matrices[j]
    ra, rb = A.ords, B.ords
    pa, pb = A.precs, B.precs
    for r in (0, 1):
        for c in (0, 1):
            # (valuation of the stored product, full if it is zero; precision)
            # of each term; a product with a certified-zero factor is an
            # exact zero: dropped
            terms = []
            for k in (0, 1):
                rx, ry, px, py = ra[2 * r + k], rb[2 * k + c], pa[2 * r + k], pb[2 * k + c]
                if rx == px == full or ry == py == full:
                    continue
                prec = product_prec(rx, px, ry, py, full)
                terms.append((rx + ry if rx + ry < prec else full, prec))
            if not terms:
                continue
            prec = min(q for _, q in terms)
            lo = min(min(v for v, _ in terms), prec)
            if lo + off >= s:
                continue
            if len(terms) == 2 and terms[0][0] == terms[1][0] < prec:
                # a tie below precision: the sum may cancel
                cs, prec = t.pair_sum(A.sigma(1), B, ((2 * r, c), (2 * r + 1, 2 + c)))
                lo = min(t._repr_ord(cs), prec)
                if lo + off >= s:
                    continue
            if lo >= prec:
                raise PrecisionError(
                    f"slot {i}: a mixed minor of the a-type vanishes to working "
                    f"precision below {s}; it is certified only >= {lo + off}; "
                    "raise N", lower_bound=lo + off)
            s = lo + off
            if s == floor:
                return d1, s - d1
    return d1, s - d1


def a_type(M):
    """Elementary divisors of M^i / (F M^(i-1) + V M^(i+1)), slot by slot."""
    return AType(M.e, tuple(_a_pair(M, i) for i in range(M.f)))


def _a_index(L, a):
    if not L.is_rapoport:
        raise DomainError("not-rapoport",
                          "a-index is only defined on the Rapoport locus",
                          lie_type=L.to_json())
    tau = tuple(i for i, (_, ai) in enumerate(a.pairs) if ai)
    # the rank mod pi of slot i's rows is its number of zero exponents
    reduced = sum((a1 > 0) + (a2 > 0) for a1, a2 in a.pairs)
    return tau, len(tau), reduced


def a_index(M):
    """(tau, t, reduced a-number) for a module satisfying the Rapoport
    condition; refuses other modules, where the a-index is not defined."""
    L = lie_type(M)
    return _a_index(L, a_type(M) if L.is_rapoport else None)


def newton_point(M, method="fast"):
    """Newton point of the module (det-valuation budget must equal g).

    fast:   index = min(g/2, ord_pi(trace of the one-slot F^f matrix));
            a trace that vanishes to working precision certifies g/2 because
            the precision policy keeps e*N > g/2.  The trace is not a
            base-change invariant when ext > 1.
    oracle: bracket m_n / n (minimal entry valuation of the n-fold twisted
            power) onto S(g) under doubling until the bracket stabilizes.
            Its stop (no change over three doublings past n = 16) gives a
            certified lower bound on the index, not a certified value.  When
            working precision runs out first, a bracket of g/2, the top of
            S(g), is the index; a lower one is raised as PrecisionError.
    """
    if M.det_sum != M.g:
        raise DomainError("det-budget",
                          f"Newton point needs det budget g, found {M.det_sum}")
    if method == "fast":
        return _newton_fast(M)
    if method == "oracle":
        return _newton_oracle(M)
    raise DomainError("bad-shape", f"unknown method {method!r}")


def _trace_ord(M):
    """ord_pi of the trace of the one-slot F^f matrix, formed alone on
    coefficient tuples: at f = 1 the sum of the diagonal of
    `packed_matrices[0]`, else the packed chain stops before its last link
    and `mat_trace` forms only that link's trace."""
    t = M.tower
    if M.f == 1:
        P, pN = M.packed_matrices[0], t.pN
        cs = [[(x + y) % pN for x, y in zip(a, d)] for a, d in zip(P.cs[0], P.cs[3])]
        prec = min(P.precs[0], P.precs[3])
    else:
        *head, last = M.twisted_factors()
        cs, prec = t.mat_trace(reduce(t.mat_product, head), last)
    return t.certified_ord(t._repr_ord(cs), prec)


def _newton_fast(M):
    """min(g/2, ord_pi of the trace); g/2 when the trace vanishes to a
    precision above g/2.  A trace that is zero at full precision (ord INF)
    reads as g/2 because every tower holds e*N >= g + 2 > g/2: `CoeffTower`
    refuses e*N < g + 2.  One Fraction is formed, for the index itself."""
    g = M.g
    try:
        v = _trace_ord(M)
    except PrecisionError as exc:
        # trace vanishes to the certified precision; decisive iff that
        # precision already exceeds g/2
        if 2 * exc.lower_bound > g:
            return NewtonPoint(g, Fraction(g, 2))
        raise
    return NewtonPoint(g, Fraction(g, 2) if v is INF or 2 * v >= g else Fraction(v))


def _bracket(g, m, n):
    """Twice the least element of S(g) at or above min(g/2, m/n): an
    integer, so the bracket builds no Fractions."""
    return min(2 * -(-m // n), g)


def _newton_oracle(M):
    """Bracket the index from below.  Superadditivity of the minimal entry
    valuations gives m_n/n <= index for every n (Fekete), so the ceiling of
    m_n/n in S(g) is a certified lower bound that converges to the index;
    we accept it once it hits g/2 or freezes over three doublings past n=16.
    A step that runs out of digits still certifies its entries' lower bound,
    which brackets the index in turn."""
    g = M.g
    history = []  # twice each bracket
    n = 0
    try:
        for n, m_n in M.min_valuation_doublings(_MAX_DOUBLINGS):
            t = _bracket(g, m_n, n)
            history.append(t)
            if t == g or (len(history) >= 3 and n >= 16
                          and history[-1] == history[-2] == history[-3]):
                return NewtonPoint(g, Fraction(t, 2))
    except PrecisionError as exc:
        # the entries' certified lower bound still brackets the index; at
        # the top of S(g) that bracket is the index itself
        t = _bracket(g, exc.lower_bound, max(2 * n, 1))
        if t == g:
            return NewtonPoint(g, Fraction(g, 2))
        bound = Fraction(t, 2)
        raise PrecisionError(
            "oracle exhausted working precision before the bracket stabilized; "
            f"certified lower bound s({bound})", lower_bound=bound) from exc
    bound = Fraction(history[-1], 2)
    raise PrecisionError(
        "oracle bracket did not stabilize within the doubling budget; "
        f"last bracket s({bound})", lower_bound=bound)


def classify(M):
    """Flags {rapoport, dp, ordinary, supersingular, superspecial}."""
    return _flags(M, lie_type(M), a_type(M), newton_point(M))


def _flags(M, L, a, np_):
    """The flags of `classify`, after two theorems that tie the a-number
    to the Newton point: a-number 0 iff ordinary (Oort; Goren-Oort), and
    a-number g (superspecial) implies supersingular (Oort).  A report that
    breaks either contradicts its own invariants, so it is refused with
    DomainError("inconsistent") rather than printed."""
    if (a.a_number == 0) != np_.is_ordinary:
        raise DomainError("inconsistent",
                          f"a-number {a.a_number} with Newton point {np_!r}: "
                          "a-number 0 iff ordinary fails",
                          a_number=a.a_number, newton=np_.to_json())
    if a.a_number == M.g and not np_.is_supersingular:
        raise DomainError("inconsistent",
                          f"a-number g = {M.g} with Newton point {np_!r}: "
                          "superspecial implies supersingular fails",
                          a_number=a.a_number, newton=np_.to_json())
    return {
        "rapoport": L.is_rapoport,
        "dp": L.is_dp,
        "ordinary": np_.is_ordinary,
        "supersingular": np_.is_supersingular,
        "superspecial": a.a_number == M.g,
    }


def a_type_bounds(L):
    """Per slot: the forced a^i_1 and the interval [lo, hi] for a^i_2 allowed
    by the Lie type (elementary-divisor bound through F M^(i-1) + V M^(i+1))."""
    e, f = L.e, L.f
    out = []
    for i in range(f):
        e1, e2 = L.pairs[i]
        d1, d2 = L.pairs[(i - 1) % f]
        if e1 <= e - d2:
            a1 = e1
            lo, hi = min(e2, e - d2), min(e2, e - d1)
        else:
            a1 = e - d2
            lo, hi = min(e - d1, e1), min(e - d1, e2)
        out.append((a1, (lo, hi)))
    return out


def dual_invariants(L, a):
    """Dual Lie type and dual a-type pairs from the duality formulas:
    the dual Lie pair at slot i is {e - e^i_1, e - e^i_2}; the dual a-pair
    has b^i_1 = min(e-e^i_1, e-e^i_2, e^(i-1)_1, e^(i-1)_2) and
    b^i_1 + b^i_2 = |a^i| + |e^(i-1)| - |e^i|."""
    e, f = L.e, L.f
    dual_lie = LieType(e, tuple(tuple(sorted((e - x, e - y))) for x, y in L.pairs))
    pairs = []
    for i in range(f):
        e1, e2 = L.pairs[i]
        d1, d2 = L.pairs[(i - 1) % f]
        a1, a2 = a.pairs[i]
        b1 = min(e - e1, e - e2, d1, d2)
        b2 = (a1 + a2) + (d1 + d2) - (e1 + e2) - b1
        if not (b1 <= b2 <= e):
            raise DomainError("inconsistent",
                              f"dual a-pair ({b1}, {b2}) out of range at slot {i}")
        pairs.append((b1, b2))
    return dual_lie, AType(e, tuple(pairs))


def invariant_report(M):
    """Everything at once, as a JSON-ready dict; the mod-p invariants are
    read off determinantal divisors once."""
    L, a = lie_type(M), a_type(M)
    flags = newton = None
    if M.det_sum == M.g:
        np_ = newton_point(M)
        newton = np_.to_json()
        flags = _flags(M, L, a, np_)
    tau, _, reduced = _a_index(L, a) if L.is_rapoport else (None, None, None)
    return {
        "lie_type": L.to_json(),
        "a_type": a.to_json()["pairs"],
        "a_number": a.a_number,
        "newton": newton,
        "flags": flags,
        "det_valuations": list(M.det_orders),
        "mode": M.mode,
        "a_index": None if tau is None else list(tau),
        "reduced_a_number": reduced,
    }
