"""The Teichmuller lifts as they were formed before `fppoly.teichmuller_point`
stated the lift rule in closed form, as the reference for it: the fixpoint
loop of q-th powers of `fppoly.teichmuller_modulus`, and the Frobenius-root
iteration of `CoeffTower.teichmuller` for an element without a discrete log.
Both stop at the first step that changes nothing.  `tests/test_wittring.py`
compares the routes."""

from dieumod.fppoly import PackedQuotient, power
from dieumod.wittring import WittElem


def teichmuller_modulus(mu, p, N):
    """Lift an irreducible mu over F_p to the monic factor m of T^(q-1) - 1 over Z/p^N.

    The lift is computed as the characteristic polynomial of the Teichmuller
    unit above the residue of T, so only O(d) ring operations are needed;
    m is the unique monic lift of mu whose roots are (q-1)-th roots of unity.
    """
    d = len(mu) - 1
    q = p ** d
    m = p ** N
    # mu is itself a monic lift: Z/p^N[x]/(mu) is the unramified ring
    ring = PackedQuotient(mu, m)
    mul, one = ring.mul, ring.one

    # Teichmuller lift of the residue of x: iterate q-th powers to the fixpoint.
    w = ring.x
    for _ in range(N + 1):
        w2 = power(w, q, mul, one)
        if w2 == w:
            break
        w = w2
    # minimal polynomial = prod over Frobenius conjugates w^(p^j), as a
    # polynomial in T (low degree first) with coefficients in the ring
    zero = (0,) * d
    poly = [one]
    conj = w
    for j in range(d):
        if j:
            conj = power(conj, p, mul, one)
        prod = [zero] + poly  # T * poly
        for i, coef in enumerate(poly):
            prod[i] = tuple([(a - b) % m for a, b in zip(prod[i], mul(coef, conj))])
        poly = prod
    if any(any(coef[1:]) for coef in poly):
        raise RuntimeError("Teichmuller modulus has a non-scalar coefficient")
    return [coef[0] for coef in poly]


def lift_by_iteration(tower, a):
    """Teichmuller lift of a nonzero residue a without its log: iterate
    y -> sigma^(-1)(y)**p from any lift y of a.  If y = w(a) mod p^k then
    sigma^(-1)(y) = w(a^(1/p)) mod p^k, and its p-th power is w(a) mod
    p^(k+1), so each step gains one digit."""
    y = WittElem(tower, a.coeffs)
    for _ in range(tower.N + 1):
        y2 = y.sigma(-1) ** tower.p
        if y2 == y:
            return y2
        y = y2
    raise RuntimeError("Teichmuller iteration did not stabilize")
