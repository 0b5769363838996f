"""The twisted-power chain on RamElem matrices, as the reference for the
packed chain of `DModule` and `invariants._newton_fast`.

Each link is a 2x2 product of RamElems, here the entrywise one: four sums
of two `RamElem` products, each with the precision rules of `*` and `+`.
Sigma acts entrywise (`modules.mat_sigma`), every link builds its RamElems,
m_n is read with `RamElem.ord_lower` and the trace is `B00 + B11`.  The
chain functions are methods of `DModule` in the library; here they take
the module as their first argument and call one another, not the library's.
"""

from fractions import Fraction

from dieumod.invariants import NewtonPoint
from dieumod.modules import mat_sigma
from dieumod.wittring import INF, DomainError, PrecisionError


def mat_mul(A, B):
    """The entrywise product of 2x2 matrices of RamElems."""
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def twisted_power(self, base_slot=0):
    """Matrix of F^f on slot `base_slot`:
    A[b+1]^(sigma^(f-1)) * A[b+2]^(sigma^(f-2)) * ... * A[b+f]."""
    f = self.f
    B = None
    for k in range(1, f + 1):
        Ak = mat_sigma(self.matrices[(base_slot + k) % f], f - k)
        B = Ak if B is None else mat_mul(B, Ak)
    return B


def iterate_twisted(self, n, base_slot=0):
    """Minimal entry valuation of the matrix of F^(f*n) on `base_slot`.

    Raises PrecisionError (with the certified lower bound attached) when
    every entry vanishes to working precision.
    """
    if n < 1:
        raise DomainError("bad-shape", "n must be >= 1")
    B = twisted_power(self, base_slot)
    C = B
    for _ in range(n - 1):
        C = mat_mul(mat_sigma(C, self.f), B)
    return _min_entry_ord(self, C, n)


def _min_entry_ord(self, C, n):
    vals = [x.ord_lower() for row in C for x in row]
    m = min(vals)
    if all(not x for row in C for x in row):
        raise PrecisionError(
            f"all entries of the {n}-fold twisted power vanish to working "
            f"precision; raise N or accept the bound", lower_bound=m)
    return m


def min_valuation_doublings(self, max_doublings, base_slot=0):
    """Yield (n, m_n) for n = 1, 2, 4, ... by repeated squaring of the
    twisted power; stops with PrecisionError like iterate_twisted."""
    C = twisted_power(self, base_slot)
    n = 1
    yield n, _min_entry_ord(self, C, n)
    for _ in range(max_doublings):
        C = mat_mul(mat_sigma(C, self.f * n), C)
        n *= 2
        yield n, _min_entry_ord(self, C, n)


def _newton_fast(M):
    B = twisted_power(M, 0)
    tr = B[0][0] + B[1][1]
    g = M.g
    half = Fraction(g, 2)
    try:
        v = tr.ord_pi()
    except PrecisionError as exc:
        # trace vanishes to the certified precision; decisive iff that
        # precision already exceeds g/2
        if 2 * exc.lower_bound > g:
            return NewtonPoint(g, half)
        raise
    idx = half if v is INF else min(half, Fraction(v))
    return NewtonPoint(g, idx)
