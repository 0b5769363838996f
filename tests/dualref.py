"""p * A^(-1) and the dual module as they were formed before
`DModule._p_adjugate` became one pi-shift per entry, as the reference for
it: p * adj(A) / pi^v, v = ord det A, formed as a product by p, which caps
at eN digits, then a division by pi^v, which spends v of them.
`tests/test_modules.py` compares the two routes."""

from dieumod import DModule, DomainError


def p_adjugate(M, i):
    """p * adj(A[i]) / pi^v, by multiplying by p and dividing by pi^v."""
    v = M.det_orders[i]
    (a, b), (c, d) = M.matrices[i]
    return tuple(tuple((x * M.tower.p).div_pi(v) for x in row) for row in ((d, -b), (-c, a)))


def p_inverse(M, i):
    """p * A[i]^(-1): `p_adjugate` times the inverse of the det's unit part."""
    t = M.tower
    _, u = t.ram(*t.det(M.packed_matrices[i])).unit_part()
    u = u.inverse()
    return tuple(tuple(x * u for x in row) for row in p_adjugate(M, i))


def dual(M):
    """The dual module: (p A[i]^(-1))^T through `p_inverse`, pairing
    scalars 1/delta[i] (units required)."""
    duals = []
    for i in range(M.f):
        (a, b), (c, d) = p_inverse(M, i)
        duals.append(((a, c), (b, d)))
    delta = None
    if M.delta is not None:
        if not all(d.is_unit() for d in M.delta):
            raise DomainError("non-unit",
                              "dual pairing needs unit pairing scalars in this presentation")
        delta = [d.inverse() for d in M.delta]
    budget = sum(2 * M.e - v for v in M.det_orders)
    return DModule(M.tower, duals, delta, "separable" if budget == M.g else "general")
