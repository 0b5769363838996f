"""The product route of the a-type's mixed minors: each minor is formed in
the ring (sigma, two products, one sum) and its certified valuation read
off the result.  `invariants._a_pair` reads the same minors off entry
valuations instead; the tests compare the two."""

from dieumod.invariants import _entry_order
from dieumod.wittring import PrecisionError


def _a_pair(M, i):
    """Slot i: the rows of A[i] stacked on the V rows of slot i.  d1 is the
    minimum entry valuation, s the minimum 2x2 minor valuation capped at
    d1 + e.  Two minors are known (v_i and 2e - v_j); up to sign and the
    offset e - v_j, the four mixed ones are the entries of sigma(A[i]) A[j]
    (sigma moved onto A[i]'s rows; valuations are sigma-invariant).  Every
    minor is >= 2 d1, so the scan stops once s reaches that floor."""
    e, f = M.e, M.f
    j = (i + 1) % f
    off = e - M.det_orders[j]
    d1 = min(e, _entry_order(M, i), off + _entry_order(M, j))
    floor = 2 * d1
    s = min(M.det_orders[i], e + off, d1 + e)
    A, B = M.matrices[i], M.matrices[j]
    full = M.tower.pi_precision
    for row in A:
        if s == floor:
            break
        row = [x.sigma() for x in row]
        for c in (0, 1):
            # a product with a certified-zero factor is an exact zero: dropped
            terms = [x * y for x, y in zip(row, (B[0][c], B[1][c]))
                     if (x or x.prec < full) and (y or y.prec < full)]
            if not terms:
                continue
            minor = sum(terms[1:], terms[0])
            lo = minor.ord_lower()
            if lo + off >= s:
                continue
            if lo >= minor.prec:
                raise PrecisionError(
                    f"slot {i}: a mixed minor of the a-type vanishes to working "
                    f"precision below {s}; it is certified only >= {lo + off}; "
                    "raise N", lower_bound=lo + off)
            s = lo + off
            if s == floor:
                break
    return d1, s - d1
