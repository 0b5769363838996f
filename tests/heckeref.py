"""The full-mask search of a Schubert cell: all seven stable-plane
conditions are evaluated on every candidate of the cell's meshgrid and
combined into one mask.  `hecke._cell_planes` tests each condition only on
the candidates that passed the ones before it; the tests compare the two."""

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
