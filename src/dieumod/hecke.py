"""Brute-force probe of the Hecke-correspondence geometry at the
non-Rapoport superspecial point.

The ambient space is the 4-dimensional mod-p Dieudonne space N with basis
(x1, x2, x1', x2'), pi x_i' = x_i, pi x_i = 0, F and V exchanging the primed
and unprimed pairs semilinearly, and the alternating form <x1, x2'> =
<x1', x2> = 1.  We enumerate all pi-, F-, V-stable isotropic planes purely
from the definitions, Schubert cell by Schubert cell: the cell with pivot
columns (j1, j2) holds the planes whose reduced row echelon form has its
leading 1s there.  The affine chart around span(x1, x2) is the cell with
pivots (x1, x2); its free entries (t11, t12, t21, t22) are the chart
coordinates.  The search runs over the chart alone or over all six cells of
the Grassmannian, and the result is compared with the closed-form chart
equations and the displayed coordinate variety

    k[t1, t2, t3] / (t1^(p+1) - t2^(p+1), t1^2 + t2 t3).

Field arithmetic is table-driven (q <= 2^16, in practice a few hundred) and
numpy-vectorized, with every table and candidate array in the smallest
unsigned type that holds q - 1.  Within a cell the seven conditions
(isotropy, then pi-, F- and V-stability of each row) are tested in turn,
each only on the candidates that passed the ones before it: isotropy keeps
one chart candidate in q, and the p = 5 chart (q^4 = 390625 candidates)
ends with 145 planes.

The check is one array pass: a point of F_q^3 is its flat index
(t1 q + t2) q + t3, and the displayed polynomials hold when the projected
chart points lie inside the variety's.
"""

from itertools import combinations

import numpy as np

from . import fppoly
from .modp import LOG_TABLE_MAX_ORDER, log_table
from .wittring import DomainError, Frozen


class SmallField:
    """F_q with integer-encoded elements (base-p digit vectors) and full
    numpy operation tables, all in the smallest unsigned type that holds
    q - 1 (uint8 up to q = 256).  LOG is the residue field's
    `modp.log_table` of the same modulus (whose index is this encoding) and
    EXP its inverse, so q <= 2^16.  Exponent arithmetic on logs runs in
    int64 before it indexes, since LOG * n overflows that type."""

    def __init__(self, p, r):
        self.p, self.r = p, r
        self.q = q = p ** r
        self.dtype = dt = np.min_scalar_type(q - 1)
        self.mu = mu = fppoly.smallest_primitive(p, r)
        enc = np.arange(q, dtype=np.int64)
        digits = [(enc // p ** i) % p for i in range(r)]
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        for i in range(r):
            add += ((digits[i][:, None] + digits[i][None, :]) % p) * p ** i
            neg += ((-digits[i]) % p) * p ** i
        self.ADD = add.astype(dt)
        self.NEG = neg.astype(dt)
        # exp/log through the primitive generator T of F_p[T]/(mu); the
        # casts copy, so the shared table is never written
        log = np.frombuffer(log_table(p, mu), dtype=np.uint16).astype(np.int64)
        exp = np.zeros(q - 1, dtype=dt)
        exp[log[1:]] = np.arange(1, q)
        self.EXP, self.LOG = exp, log.astype(dt)
        mul = np.zeros((q, q), dtype=dt)
        mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        self.MUL = mul
        self.FROB = self.power_table(p)
        self.FROBINV = self.power_table(p ** (r - 1))

    def power_table(self, n):
        """x -> x**n as a table (0 -> 0, also for n <= 0); EXP[k] ** n = EXP[k n]."""
        out = np.zeros(self.q, dtype=self.dtype)
        out[self.EXP] = self.EXP[np.arange(self.q - 1) * (n % (self.q - 1)) % (self.q - 1)]
        return out

    def add(self, a, b):
        return self.ADD[a, b]

    def sub(self, a, b):
        return self.ADD[a, self.NEG[b]]

    def mul(self, a, b):
        return self.MUL[a, b]

    def elements(self):
        return np.arange(self.q, dtype=self.dtype)


class StablePlane(Frozen):
    """A stable plane: its 2x4 integer-encoded reduced row echelon matrix
    `rref`, and its chart point (t11, t12, t21, t22) when it lies in the
    chart, else None."""

    __slots__ = _fields = ("rref", "chart")

    def __init__(self, rref, chart):
        object.__setattr__(self, "rref", rref)
        object.__setattr__(self, "chart", chart)


def _field_order(p, s):
    """q = p^(2s), for an odd prime p and s >= 1, refused with size-guard
    above `LOG_TABLE_MAX_ORDER` = 2^16, where F_q has no log table.
    q >= 2^low with low = 2s(bits(p) - 1): past 16 that bound decides,
    before p is tested for primality or q is formed."""
    low = 2 * s * (p.bit_length() - 1)
    if low > 16:
        raise DomainError("size-guard", f"field has at least 2^{low} elements > 2^16")
    if p == 2 or not fppoly.is_prime(p):
        raise DomainError("bad-shape", "p must be an odd prime")
    if s < 1:
        raise DomainError("bad-shape", "s must be >= 1")
    q = p ** (2 * s)
    if q > LOG_TABLE_MAX_ORDER:
        raise DomainError("size-guard", f"field has {q} elements > 2^16")
    return q


class HeckeSetting:
    """Operators and pairing on the 4-dimensional space, over F_q, q = p^(2s)."""

    def __init__(self, p, s=1):
        _field_order(p, s)
        self.p, self.s = p, s
        self.field = SmallField(p, 2 * s)
        self.q = self.field.q
        self._self_check()

    def pi_map(self, v):
        """pi: x_i' -> x_i -> 0 on coordinate arrays (v0, v1, v2, v3)."""
        zero = np.zeros_like(v[0])
        return (v[2], v[3], zero, zero)

    def f_map(self, v):
        """F: semilinear (p-power) with x1' -> x2, x2' -> x1, x_i -> 0."""
        K = self.field
        zero = np.zeros_like(v[0])
        return (K.FROB[v[3]], K.FROB[v[2]], zero, zero)

    def v_map(self, v):
        """V: inverse-semilinear (p^(2s-1)-power) with x1' -> x2, x2' -> x1."""
        K = self.field
        zero = np.zeros_like(v[0])
        return (K.FROBINV[v[3]], K.FROBINV[v[2]], zero, zero)

    def pair(self, v, w):
        """<v, w> from <x1, x2'> = <x1', x2> = 1 (all other basis pairings 0)."""
        K = self.field
        t = K.sub(K.mul(v[0], w[3]), K.mul(v[3], w[0]))
        return K.add(t, K.sub(K.mul(v[2], w[1]), K.mul(v[1], w[2])))

    def _self_check(self):
        e = [tuple(np.int64(1 if i == j else 0) for i in range(4)) for j in range(4)]
        for v in e:
            pi2 = self.pi_map(self.pi_map(v))
            assert all(int(c) == 0 for c in pi2), "pi^2 != 0"
            fv = self.f_map(self.v_map(v))
            assert all(int(c) == 0 for c in fv), "F V != 0 mod p"
            vf = self.v_map(self.f_map(v))
            assert all(int(c) == 0 for c in vf), "V F != 0 mod p"
        assert int(self.pair(e[0], e[3])) == 1 and int(self.pair(e[2], e[1])) == 1


def _check_size(q, chart_only, size_cap):
    """Raise size-guard when the search over F_q has more than size_cap
    candidates; q comes from `_field_order`, which has checked p and s.
    The Grassmannian contains the chart."""
    if q ** 4 > size_cap:
        raise DomainError("size-guard", f"chart has {q ** 4} points > cap")
    total = (q ** 2 + 1) * (q ** 2 + q + 1)
    if not chart_only and total > size_cap:
        raise DomainError("size-guard", f"Grassmannian has {total} planes > cap")


def _cell_planes(S, j1, j2):
    """Stable planes of the Schubert cell with pivot columns j1 < j2.

    Row r1 has a 1 in column j1 and a free entry in each later column other
    than j2; row r2 has a 1 in column j2 and a free entry in each later
    column; every other entry is 0.  The free entries run over F_q in
    meshgrid ("ij") order, r1's first.

    The seven conditions run in turn, each only on the candidates that
    passed the ones before it: isotropy <r1, r2> = 0, then membership of
    pi r, F r and V r in the span, for r = r1, r2.  Isotropy runs on a
    sparse meshgrid, so each table lookup takes the broadcast shape of the
    coordinates it reads and only the final sum and its mask have one entry
    per candidate.  The survivors' rows are then compressed after every
    test, in ascending candidate order."""
    K = S.field
    free1 = [c for c in range(j1 + 1, 4) if c != j2]
    free2 = list(range(j2 + 1, 4))
    n = len(free1) + len(free2)

    def rows(zero, one, grids):
        r1, r2 = [zero] * 4, [zero] * 4
        r1[j1] = r2[j2] = one
        for c, g in zip(free1, grids):
            r1[c] = g
        for c, g in zip(free2, grids[len(free1):]):
            r2[c] = g
        return r1, r2

    # a candidate's flat index in the full grid is its meshgrid position,
    # and its free entry on axis k is element (index // q^(n-1-k)) mod q
    grids = np.meshgrid(*[K.elements()] * n, indexing="ij", sparse=True)
    r1, r2 = rows(np.zeros((1,) * n, K.dtype), np.ones((1,) * n, K.dtype), grids)
    idx = np.flatnonzero(np.broadcast_to(S.pair(r1, r2) == 0, (K.q,) * n))
    grids = [K.elements()[idx // K.q ** (n - 1 - k) % K.q] for k in range(n)]
    r1, r2 = rows(np.zeros(idx.size, K.dtype), np.ones(idx.size, K.dtype), grids)
    rest = [c for c in range(4) if c not in (j1, j2)]

    def member(v):
        # v lies in the span iff v - v[j1] r1 - v[j2] r2 = 0; the pivot
        # coordinates of that difference vanish by construction
        c1, c2 = v[j1], v[j2]
        ok = np.ones(c1.shape, dtype=bool)
        for c in rest:
            ok &= K.sub(v[c], K.add(K.mul(c1, r1[c]), K.mul(c2, r2[c]))) == 0
        return ok

    for op in (S.pi_map, S.f_map, S.v_map):
        for r in (0, 1):
            keep = np.flatnonzero(member(op((r1, r2)[r])))
            r1, r2 = [x[keep] for x in r1], [x[keep] for x in r2]
    chart = (j1, j2) == (0, 1)
    return [StablePlane((a, b), a[2:] + b[2:] if chart else None)
            for a, b in zip(zip(*(x.tolist() for x in r1)),
                            zip(*(x.tolist() for x in r2)))]


def enumerate_stable_planes(S, chart_only=True, size_cap=10 ** 7):
    """All pi-, F-, V-stable isotropic planes, verified from the raw
    definitions and reported by their reduced row echelon form.  With
    chart_only the search runs over the chart, the cell with pivots
    (x1, x2); otherwise over all six Schubert cells of the Grassmannian,
    the chart first."""
    _check_size(S.q, chart_only, size_cap)
    cells = [(0, 1)] if chart_only else combinations(range(4), 2)
    return [pl for j1, j2 in cells for pl in _cell_planes(S, j1, j2)]


def chart_equations_hold(S, t):
    """The eight closed-form chart equations and the isotropy condition
    t11 + t22 = 0 at t = (t11, t12, t21, t22): four encoded elements, or four
    arrays of them, checked elementwise."""
    K = S.field
    add, mul, fr, p1 = K.ADD, K.MUL, K.FROB, K.power_table(S.p + 1)
    t11, t12, t21, t22 = t
    eqs = [
        add[mul[t11, t11], mul[t12, t21]],                        # t11^2 + t12 t21
        mul[t12, add[t11, t22]],
        add[mul[t22, t22], mul[t12, t21]],                        # t22^2 + t12 t21
        mul[t21, add[t11, t22]],
        add[mul[fr[t11], t21], mul[fr[t12], t11]],
        add[mul[fr[t11], t22], p1[t12]],
        add[p1[t21], mul[fr[t22], t11]],
        add[mul[fr[t21], t22], mul[fr[t22], t12]],
        add[t11, t22],                                            # isotropy
    ]
    return np.logical_and.reduce([x == 0 for x in eqs])


def parametrized_chart_set(S):
    """{(t, a t, -t/a, -t) : t in F_q, a^(p+1) = 1} as a set of tuples."""
    K = S.field
    q, p = S.q, S.p
    a = K.EXP[:q - 1:(q - 1) // (p + 1), None]  # the p + 1 roots, down a column
    t = K.elements()[None, 1:]
    cols = np.broadcast_arrays(t, K.MUL[a, t], K.NEG[K.MUL[K.power_table(-1)[a], t]],
                               K.NEG[t])
    return {(0, 0, 0, 0)} | set(zip(*(c.ravel().tolist() for c in cols)))


def compare_variety(S, planes):
    """Project chart planes to (t1, t2, t3) = (t11, t12, t21), check the two
    displayed polynomials, count the variety's F_q-points independently, count
    lines through the origin, and report variety points missed by the
    enumeration."""
    K = S.field
    q, p = S.q, S.p
    charts = [pl.chart for pl in planes if pl.chart is not None]
    pts = np.array(charts, dtype=np.int64).reshape(-1, 4).T
    projected = np.ravel_multi_index(pts[:3], (q,) * 3)

    p1 = K.power_table(p + 1)
    # the first polynomial on all (t1, t2) pairs, the second on its survivors
    pairs = np.flatnonzero(p1[:, None] == p1[None, :])
    t1, t2 = pairs // q, pairs % q
    on = K.ADD[K.MUL[t1, t1][:, None], K.MUL[t2[:, None], K.elements()]] == 0
    variety = (pairs[:, None] * q + np.arange(q))[on]  # ascending
    # kind="table": the sort method and setdiff1d call np.unique, which loads numpy.ma
    extra = variety[~np.isin(variety, projected, kind="table")]

    # a line through the origin is its point whose first nonzero coordinate is 1
    nonzero = pts[:, pts.any(axis=0)]
    lead = nonzero[(nonzero != 0).argmax(axis=0), np.arange(nonzero.shape[1])]
    key = np.sort(np.ravel_multi_index(K.MUL[K.power_table(-1)[lead], nonzero], (q,) * 4))
    lines = int(np.count_nonzero(np.diff(key, prepend=-1)))  # distinct points
    return {
        "p": p, "q": q,
        "enumerated": len(charts),
        "expected_count": 1 + (p + 1) * (q - 1),
        "count_matches": len(charts) == 1 + (p + 1) * (q - 1),
        "all_chart_equations_hold": bool(chart_equations_hold(S, pts).all()),
        "displayed_polynomials_hold": bool(np.isin(projected, variety, kind="table").all()),
        "lines_through_origin": lines,
        "expected_lines": p + 1,
        "parametrization_matches": set(charts) == parametrized_chart_set(S),
        "variety_point_count": variety.size,
        "extra_variety_points": np.transpose(np.unravel_index(extra, (q,) * 3)).tolist(),
        "extra_points_on_t1_t2_zero": bool((extra < q).all()),
    }


def probe_report(p, s=1, full_grassmannian=False, size_cap=10 ** 7):
    """One-call report used by the command line front end.  p and s are
    checked, and then the size, before the q x q field tables are
    allocated; the search checks the size again from the built setting."""
    _check_size(_field_order(p, s), not full_grassmannian, size_cap)
    S = HeckeSetting(p, s)
    planes = enumerate_stable_planes(S, chart_only=not full_grassmannian,
                                     size_cap=size_cap)
    report = compare_variety(S, planes)  # reads the chart planes only
    if full_grassmannian:
        outside = [pl.rref for pl in planes if pl.chart is None]
        report["grassmannian_total"] = len(planes)
        report["outside_chart"] = [[list(r) for r in rr] for rr in outside]
    return report
