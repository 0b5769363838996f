"""Stratification combinatorics and closed-form dimension/degree formulas.

Everything here is exact integer combinatorics on a-types (a^i)_{i in Z/fZ}
with 0 <= a^i <= e and on Lie types ({e^i_1, e^i_2})_i: the poset A(e, f),
spaced types, the spaced bound lambda, stratum dimensions, deformation
dimensions, the polarization degree exponent, the superspecial tables, the
Newton-stratum codimension, and a randomized symbolic check of the
banded-determinant identity used for the tangent-space computation, run
exactly over Z on integer pairs (a, v): the scalar a and the square-zero
directions' coefficients packed into one integer v.
"""

import random
from fractions import Fraction
from itertools import accumulate, product
from math import factorial

from .wittring import DomainError, Frozen, count_text
from .invariants import NewtonPoint, admissible_indices


def admissible_slopes(g):
    """S(g) as NewtonPoints, in specialization order."""
    return [NewtonPoint(g, i) for i in admissible_indices(g)]


def newton_stratum_codim(g, m):
    """ceil(m) for m in S(g); the only non-integer member is g/2 for odd g."""
    m = Fraction(m)
    if m not in admissible_indices(g):
        raise DomainError("bad-slope", f"{m} is not in S({g})")
    return -((-m.numerator) // m.denominator)


def is_spaced(a):
    """No two cyclically adjacent nonzero slots (a^i * a^(i+1) = 0)."""
    f = len(a)
    return all(a[i] * a[(i + 1) % f] == 0 for i in range(f))


def spaced_bound(a):
    """lambda(a) = max |b| over spaced b <= a: maximum-weight selection of
    cyclically non-adjacent slots, taking the full a^i on a chosen slot."""
    f = len(a)
    if f == 1:
        return 0
    if f == 2:
        return max(a)

    def path_best(w):
        take, skip = 0, 0
        for x in w:
            take, skip = skip + x, max(take, skip)
        return max(take, skip)

    without_0 = path_best(a[1:])
    with_0 = a[0] + path_best(a[2:f - 1])
    return max(without_0, with_0)


def spaced_bound_exhaustive(a, cap=10 ** 6):
    """Reference computation of lambda(a) by scanning the full down-set."""
    size = 1
    for x in a:
        size *= x + 1
    if size > cap:
        raise DomainError("size-guard", f"down-set has {count_text(size)} elements "
                          f"> cap {count_text(cap)}")
    best = 0
    for b in product(*(range(x + 1) for x in a)):
        if is_spaced(b):
            best = max(best, sum(b))
    return best


class StratumRecord(Frozen):
    """One a-type of the poset: its dimension, whether it is spaced, its
    spaced bound lambda, and the generic Newton point's lower bound and,
    when known, exact value (a NewtonPoint or None)."""

    __slots__ = _fields = ("a", "dim", "spaced", "lam", "generic_slope_lower",
                           "generic_slope_exact")

    def __init__(self, a, dim, spaced, lam, generic_slope_lower, generic_slope_exact):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "spaced", spaced)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "generic_slope_lower", generic_slope_lower)
        object.__setattr__(self, "generic_slope_exact", generic_slope_exact)

    def to_json(self):
        return {
            "a": list(self.a),
            "dim": self.dim,
            "spaced": self.spaced,
            "lambda": self.lam,
            "generic_slope_lower": {
                "num": self.generic_slope_lower.index.numerator,
                "den": self.generic_slope_lower.index.denominator,
            },
            "generic_slope_exact": None if self.generic_slope_exact is None else {
                "num": self.generic_slope_exact.index.numerator,
                "den": self.generic_slope_exact.index.denominator,
            },
            "generic_slope_exact_known": self.generic_slope_exact is not None,
        }


def stratum_record(e, f, a):
    """Annotate one a-type: dim = g - |a|; the generic slope is exactly
    s(|a|) for spaced types and only bounded below by s(lambda(a)) otherwise
    (near superspecial points the bound is not attained in general)."""
    g = e * f
    total = sum(a)
    lam = spaced_bound(a)
    half = Fraction(g, 2)
    spaced = is_spaced(a)
    lower = NewtonPoint(g, min(half, Fraction(lam)))
    exact = NewtonPoint(g, min(half, Fraction(total))) if spaced else None
    return StratumRecord(tuple(a), g - total, spaced, lam, lower, exact)


class ATypePoset:
    """A(e, f) = [0, e]^(Z/fZ) under componentwise order, fully annotated."""

    def __init__(self, e, f, cap=10 ** 6):
        if e < 1 or f < 1:
            raise DomainError("bad-shape", "e, f must be >= 1")
        low = f * ((e + 1).bit_length() - 1)  # (e+1)^f >= 2^low decides from 2^64 on
        if low >= max(64, cap.bit_length()):
            raise DomainError("size-guard",
                              f"poset has at least 2^{low} elements > cap {count_text(cap)}")
        if (e + 1) ** f > cap:
            raise DomainError("size-guard", f"poset has {count_text((e + 1) ** f)} elements "
                              f"> cap {count_text(cap)}")
        self.e, self.f = e, f
        self.elements = sorted(product(range(e + 1), repeat=f))
        self.records = {a: stratum_record(e, f, a) for a in self.elements}

    def cover_edges(self):
        """Hasse covers: pairs (a, b) with b = a + one unit in one slot."""
        out = []
        for a in self.elements:
            for i in range(self.f):
                if a[i] < self.e:
                    b = a[:i] + (a[i] + 1,) + a[i + 1:]
                    out.append((a, b))
        return out

    def to_json(self):
        return {
            "e": self.e, "f": self.f,
            "nodes": [self.records[a].to_json() for a in self.elements],
            "cover_edges": [[list(a), list(b)] for a, b in self.cover_edges()],
        }

    def to_dot(self):
        def name(a):
            return '"' + ",".join(map(str, a)) + '"'

        lines = ["digraph atypes {", "  rankdir=BT;"]
        for a in self.elements:
            r = self.records[a]
            slope = r.generic_slope_exact if r.spaced else r.generic_slope_lower
            rel = "=" if r.spaced else ">="
            lines.append(
                f"  {name(a)} [label=\"{','.join(map(str, a))}\\n"
                f"dim {r.dim}, {rel} s({slope.index})\"];")
        for a, b in self.cover_edges():
            lines.append(f"  {name(a)} -> {name(b)};")
        lines.append("}")
        return "\n".join(lines)


def atype_poset(e, f, cap=10 ** 6):
    return ATypePoset(e, f, cap)


# -- closed-form dimension and degree formulas ------------------------------

def _check_lie_pairs(pairs, e, f):
    if len(pairs) != f:
        raise DomainError("bad-shape", f"{len(pairs)} Lie pairs for f = {f} slots")
    for x, y in pairs:
        if not (0 <= x <= y <= e):
            raise DomainError("bad-shape", f"Lie pair {(x, y)} out of range")


def dp_stratum_dim(pairs, e, f):
    """Dimension g - 2 sum_i min(e^i_1, e^i_2) of the Lie-type stratum."""
    pairs = [tuple(sorted(pr)) for pr in pairs]
    _check_lie_pairs(pairs, e, f)
    g = e * f
    if sum(x + y for x, y in pairs) != g:
        raise DomainError("det-budget", "Lie exponents must sum to g")
    return g - 2 * sum(min(pr) for pr in pairs)


def deformation_dims(pairs, e, f):
    """The three tangent-space dimensions attached to a Lie type:

    unrestricted  sum_i sum_{j,k} min(e^i_j, e - e^i_k)
    dp            e f + 2 sum_i min(e^i_1, e^i_2)   (under equal slot sums)
    polarized     e f +   sum_i min(e^i_1, e^i_2)

    The flag records whether the dp value agrees with the unrestricted one,
    which happens exactly on the equal-slot-sum locus.
    """
    pairs = [tuple(sorted(pr)) for pr in pairs]
    _check_lie_pairs(pairs, e, f)
    unrestricted = sum(
        min(pr[j], e - pr[k]) for pr in pairs for j in range(2) for k in range(2))
    msum = sum(min(pr) for pr in pairs)
    return {
        "unrestricted": unrestricted,
        "dp": e * f + 2 * msum,
        "polarized": e * f + msum,
        "dp_consistent": unrestricted == e * f + 2 * msum,
    }


def polarization_degree_exponent(pairs, e, f, normalize=True):
    """Exponent D of the minimal quasi-polarization degree p^D:

        D = 2 sum_{i=1}^{f-1} sum_{k=0}^{i-1} (e^k_1 + e^k_2 - e).

    With normalize=True the slots are rotated so the running partial sums
    are minimized at slot 0 (the convention under which the formula gives
    the minimal degree); otherwise the caller's slot 0 is used literally.
    """
    pairs = [tuple(sorted(pr)) for pr in pairs]
    _check_lie_pairs(pairs, e, f)
    sums = [x + y for x, y in pairs]
    if normalize:
        if sum(sums) != e * f:
            raise DomainError("det-budget",
                              "normalization needs Lie exponents summing to g")
        partial = [0, *accumulate(s - e for s in sums[:-1])]
        best = partial.index(min(partial))
        sums = sums[best:] + sums[:best]
    return 2 * sum(accumulate(s - e for s in sums[:-1]))


def superspecial_types(e, f):
    """Admissible superspecial patterns (a-type = Lie type).

    Odd f: the constant pattern ({e1, e2})_i with e1 + e2 = e.  Even f: the
    alternating pattern ({e1,e2},{e-e1,e-e2},...) for any 0 <= e1, e2 <= e,
    reduced modulo rotation and in-pair swaps.
    """
    if e < 1 or f < 1:
        raise DomainError("bad-shape", "e, f must be >= 1")
    out = set()
    if f % 2:
        for e1 in range(e // 2 + 1):
            pair = (e1, e - e1)
            out.add(tuple(pair for _ in range(f)))
    else:
        for e1 in range(e + 1):
            for e2 in range(e + 1):
                a = tuple(sorted((e1, e2)))
                b = tuple(sorted((e - e1, e - e2)))
                pattern = (a, b) * (f // 2)
                rotated = pattern[1:] + pattern[:1]
                out.add(min(pattern, rotated))
    return sorted(out)


# -- symbolic check of the banded determinant identity ----------------------
#
# An element a + sum_k v_k eps_k of Z[eps_k] / (eps_j eps_k) is the integer
# pair (a, v): the scalar a and the nilpotent part packed into one integer
# v = sum_k v_k 2^(w k) of signed w-bit slots.  The product of (x, y) and
# (a, v) is (x a, v x + y a), and sums and signs act on both parts; every
# operation is linear in v and never reads a slot, so while each
# |v_k| < 2^(w-1), `==` on v is `==` on the coefficient vectors.

def _bottom_minors(rows, k):
    """{mask: minor} for every set of k columns (a bitmask) of a square
    matrix of (a, v) pairs: the determinant of its last k rows restricted to
    those columns, as an (a, v) pair.

    Memoized Laplace expansion along rows, from the bottom up: a minor of
    size s + 1 is expanded along its top row into minors of size s, read
    from the previous table.  All sizes up to n take n * 2^(n-1) products.
    """
    n = len(rows)
    minors = {1 << j: x for j, x in enumerate(rows[n - 1])}
    for r in range(n - 2, n - 1 - k, -1):
        row, wider = rows[r], {}
        for mask, (a, v) in minors.items():
            # cofactor sign of column bit: odd when an odd number of the
            # columns of mask lie left of it (they shift its place)
            odd, bit = False, 1
            for x, y in row:
                if mask & bit:
                    odd = not odd
                else:
                    ta, tv = x * a, v * x + y * a
                    sa, sv = wider.get(mask | bit, (0, 0))
                    wider[mask | bit] = (sa - ta, sv - tv) if odd else (sa + ta, sv + tv)
                bit <<= 1
        minors = wider
    return minors


def _det(rows):
    """Determinant of a matrix of (a, v) pairs by memoized Laplace expansion
    over column subsets: the definition of the determinant, in n * 2^(n-1)
    products instead of the n! terms of a plain cofactor expansion."""
    return _bottom_minors(rows, len(rows))[(1 << len(rows)) - 1]


def _banded_matrix(y, n):
    """Lower-triangular band: entry (i, j) = Y_(i-j+1) for i >= j, as scalar
    pairs (Y, 0)."""
    return [[(y[i - j], 0) if i >= j else (0, 0) for j in range(n)] for i in range(n)]


def _first_row_cofactors(rows):
    """[U_{1,k} for k < n] as (a, v) pairs: (-1)^k times the minor of rows
    2..n without column k, all read from one table of bottom minors."""
    n = len(rows)
    if n == 1:
        return [(1, 0)]  # the empty determinant is 1
    minors = _bottom_minors(rows, n - 1)
    full = (1 << n) - 1
    cofactors = [minors[full ^ 1 << k] for k in range(n)]
    return [(-a, -v) if k % 2 else (a, v) for k, (a, v) in enumerate(cofactors)]


def verify_det_identity(n, m1=None, trials=20, rng=None):
    """Randomized exact check of det(U + N) = Y_1^n + sum_k Tr_{k-1}(N) U_{1,k}.

    U is the lower-triangular band of the indeterminates Y, evaluated at
    random integers in [0, 5), and entry (i, j) of N is a random multiple
    c in [0, 5) of its own square-zero direction eps_(n*i+j).  With a block
    split (m1, n - m1), the left side uses the block-diagonal
    diag(U_m1, U_(n-m1)) + N and only the diagonal blocks of N contribute
    their partial traces; the cofactors U_{1,k} on the right are always
    those of the full n x n band (for banded U they satisfy
    (U_m)_{1,k} Y_1^(n-m) = (U_n)_{1,k}, which is the quantity the blockwise
    product expansion actually produces).

    Both sides are compared exactly over Z, which implies the identity mod
    any p.  Every matrix entry is an (a, v) pair; the n^2 directions share
    the packed part v, in slots of width w = bits(2 n! 4^n) + 1: each
    coefficient of a stored minor, product or partial sum is a sum of at
    most n! products of at most n integers in [0, 5), so it is at most
    n! 4^n < 2^(w-1) in absolute value.  An entry of N and its partial
    traces are nilpotent, plain packed integers t, and t times a cofactor
    (c, cv) is (0, t c).
    Returns a report dict; `ok` is True when at least one trial ran and
    every trial matched.  An n that is not an integer >= 1, a negative
    trial count and a block split without two positive integer blocks are
    refused with DomainError("bad-shape").
    """
    if type(n) is not int or n < 1:
        raise DomainError("bad-shape", f"need an integer size n >= 1, got {n!r}")
    if type(trials) is not int or trials < 0:
        raise DomainError("bad-shape", f"need an integer trial count >= 0, got {trials!r}")
    if m1 is not None and (type(m1) is not int or not 0 < m1 < n):
        raise DomainError("bad-shape", "need n = m1 + m2 with positive blocks")
    rng = rng or random.Random(0)
    w = (2 * factorial(n) * 4 ** n).bit_length() + 1
    failures = 0
    for _ in range(trials):
        y = [rng.randrange(5) for _ in range(n)]
        band = U = _banded_matrix(y, n)
        if m1 is not None:
            U = [row + [(0, 0)] * (n - m1) for row in _banded_matrix(y, m1)] + \
                [[(0, 0)] * m1 + row for row in _banded_matrix(y, n - m1)]
        N = [[rng.randrange(5) << w * (n * i + j) for j in range(n)] for i in range(n)]
        lhs = _det([[(a, v + c) for (a, v), c in zip(u, row)] for u, row in zip(U, N)])
        cofactors = _first_row_cofactors(band)
        diag = [N] if m1 is None else [[r[:m1] for r in N[:m1]], [r[m1:] for r in N[m1:]]]
        rhs = sum(_trace_shift(block, k) * cofactors[k][0] for k in range(n) for block in diag)
        if lhs != (y[0] ** n, rhs):
            failures += 1
    return {"n": n, "blocks": None if m1 is None else [m1, n - m1],
            "trials": trials, "failures": failures, "ok": trials > 0 and failures == 0}


def _trace_shift(N, k):
    """Tr_k N = sum of the k-th superdiagonal of packed integers (zero when
    k >= size)."""
    return sum(N[i][i + k] for i in range(len(N) - k))
