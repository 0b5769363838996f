"""Scalar references for the Hecke probe.

The full-mask search of a Schubert cell: all seven stable-plane conditions
are evaluated on every candidate of the cell's meshgrid and combined into
one mask.  `hecke._cell_planes` tests each condition only on the candidates
that passed the ones before it; the tests compare the two.

The pointwise chart check: `chart_equations_hold`, `parametrized_chart_set`
and `compare_variety` evaluate the chart equations and the displayed
polynomials one point at a time with scalar table lookups, count the
variety on a dense q^3 grid and collect points and lines in Python sets.
`hecke` does the same on one array of chart points; the tests compare the
reports.
"""

import numpy as np

from dieumod.hecke import StablePlane


def _cell_planes(S, j1, j2):
    """Stable planes of the Schubert cell with pivot columns j1 < j2.

    Row r1 has a 1 in column j1 and a free entry in each later column other
    than j2; row r2 has a 1 in column j2 and a free entry in each later
    column; every other entry is 0.  The free entries run over F_q in
    meshgrid ("ij") order, r1's first."""
    K = S.field
    free1 = [c for c in range(j1 + 1, 4) if c != j2]
    free2 = list(range(j2 + 1, 4))
    grids = [g.reshape(-1) for g in
             np.meshgrid(*[K.elements()] * (len(free1) + len(free2)), indexing="ij")]
    count = grids[0].size if grids else 1
    r1 = [np.zeros(count, dtype=K.dtype)] * 4
    r2 = list(r1)
    r1[j1] = r2[j2] = np.ones(count, dtype=K.dtype)
    for c, g in zip(free1, grids):
        r1[c] = g
    for c, g in zip(free2, grids[len(free1):]):
        r2[c] = g
    rest = [c for c in range(4) if c not in (j1, j2)]

    def member(v):
        # v lies in the span iff v - v[j1] r1 - v[j2] r2 = 0; the pivot
        # coordinates of that difference vanish by construction
        c1, c2 = v[j1], v[j2]
        ok = np.ones(count, dtype=bool)
        for c in rest:
            ok &= K.sub(v[c], K.add(K.mul(c1, r1[c]), K.mul(c2, r2[c]))) == 0
        return ok

    mask = S.pair(r1, r2) == 0
    for op in (S.pi_map, S.f_map, S.v_map):
        mask &= member(op(r1)) & member(op(r2))
    planes = []
    for i in np.nonzero(mask)[0]:
        rref = (tuple(int(x[i]) for x in r1), tuple(int(x[i]) for x in r2))
        chart = rref[0][2:] + rref[1][2:] if (j1, j2) == (0, 1) else None
        planes.append(StablePlane(rref, chart))
    return planes


def _power(K, x, n):
    """x**n for one encoded element x, from the EXP/LOG tables."""
    return K.EXP[int(K.LOG[x]) * n % (K.q - 1)] if int(x) else K.dtype.type(0)


def chart_equations_hold(S, t):
    """The eight closed-form chart equations and the isotropy condition
    t11 + t22 = 0, checked pointwise at t = (t11, t12, t21, t22)."""
    K = S.field
    p = S.p
    t11, t12, t21, t22 = (np.int64(x) for x in t)
    eqs = [
        K.add(K.mul(t11, t11), K.mul(t12, t21)),                 # t11^2 + t12 t21
        K.mul(t12, K.add(t11, t22)),
        K.add(K.mul(t22, t22), K.mul(t12, t21)),                 # t22^2 + t12 t21
        K.mul(t21, K.add(t11, t22)),
        K.add(K.mul(_power(K, t11, p), t21), K.mul(_power(K, t12, p), t11)),
        K.add(K.mul(_power(K, t11, p), t22), _power(K, t12, p + 1)),
        K.add(_power(K, t21, p + 1), K.mul(_power(K, t22, p), t11)),
        K.add(K.mul(_power(K, t21, p), t22), K.mul(_power(K, t22, p), t12)),
        K.add(t11, t22),                                          # isotropy
    ]
    return all(int(v) == 0 for v in eqs)


def parametrized_chart_set(S):
    """{(t, a t, -t/a, -t) : t in F_q, a^(p+1) = 1} as a set of tuples."""
    K = S.field
    q, p = S.q, S.p
    roots = [int(K.EXP[k]) for k in range(0, q - 1, (q - 1) // (p + 1))]
    out = {(0, 0, 0, 0)}
    for a in roots:
        ainv = int(_power(K, a, -1))
        for t in range(1, q):
            out.add((t, int(K.mul(np.int64(a), np.int64(t))),
                     int(K.NEG[K.mul(np.int64(ainv), np.int64(t))]),
                     int(K.NEG[np.int64(t)])))
    return out


def compare_variety(S, planes):
    """Project chart planes to (t1, t2, t3) = (t11, t12, t21), check the two
    displayed polynomials, count the variety's F_q-points independently, count
    lines through the origin, and report variety points missed by the
    enumeration."""
    K = S.field
    q, p = S.q, S.p
    chart_pts = [pl.chart for pl in planes if pl.chart is not None]
    projected = {(t[0], t[1], t[2]) for t in chart_pts}
    poly_ok = all(
        int(K.sub(_power(K, np.int64(t1), p + 1), _power(K, np.int64(t2), p + 1))) == 0
        and int(K.add(_power(K, np.int64(t1), 2), K.mul(np.int64(t2), np.int64(t3)))) == 0
        for t1, t2, t3 in projected)

    e = K.elements()
    T1, T2, T3 = [a.reshape(-1) for a in np.meshgrid(e, e, e, indexing="ij")]
    pow_p1 = np.array([_power(K, x, p + 1) for x in e], dtype=K.dtype)
    sq = K.MUL[e, e]
    variety = (K.sub(pow_p1[T1], pow_p1[T2]) == 0) & \
              (K.add(sq[T1], K.MUL[T2, T3]) == 0)
    variety_count = int(variety.sum())
    variety_pts = {(int(T1[i]), int(T2[i]), int(T3[i])) for i in np.nonzero(variety)[0]}
    extra = sorted(variety_pts - projected)

    lines = set()
    for t in chart_pts:
        if any(t):
            inv = _power(K, next(x for x in t if x), -1)
            lines.add(tuple(int(K.mul(np.int64(x), inv)) for x in t))
    return {
        "p": p, "q": q,
        "enumerated": len(chart_pts),
        "expected_count": 1 + (p + 1) * (q - 1),
        "count_matches": len(chart_pts) == 1 + (p + 1) * (q - 1),
        "all_chart_equations_hold": all(chart_equations_hold(S, t) for t in chart_pts),
        "displayed_polynomials_hold": poly_ok,
        "lines_through_origin": len(lines),
        "expected_lines": p + 1,
        "parametrization_matches": set(chart_pts) == parametrized_chart_set(S),
        "variety_point_count": variety_count,
        "extra_variety_points": [list(t) for t in extra],
        "extra_points_on_t1_t2_zero": all(t[0] == 0 and t[1] == 0 for t in extra),
    }
