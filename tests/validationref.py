"""Module validation on RamElem arithmetic, as the reference for the packed
validation of `DModule.__init__`.

`validate` holds the checks of `DModule.__init__` as they were before they
ran on the packed kernel, unchanged: the determinant is the RamElem
product ad - bc, its valuation `RamElem.ord_pi`, each entry's valuation
`RamElem._repr_ord`, and the pairing identity the RamElem difference
det(A) * delta[i] - sigma(delta[i-1]) * p.  It returns what the module
keeps, or raises what `DModule` raises, with the same code and message.
"""

from types import SimpleNamespace

from dieumod.wittring import INF, DomainError, PrecisionError


def mat(tower, rows):
    return tuple(tuple(tower.ram(x) for x in row) for row in rows)


def mat_det(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def validate(tower, matrices, delta=None, mode="separable"):
    """(det_orders, entry_orders, repr_orders, det_sum) of the presentation,
    as a namespace, or the refusal of `DModule`."""
    self = SimpleNamespace()
    if len(matrices) != tower.f:
        raise DomainError("bad-shape", f"expected {tower.f} slot matrices")
    if delta is not None and len(delta) != tower.f:
        raise DomainError("bad-shape", f"expected {tower.f} pairing scalars")
    self.matrices = tuple(mat(tower, m) for m in matrices)
    self.delta = None if delta is None else tuple(tower.ram(d) for d in delta)
    if mode not in ("separable", "general"):
        raise DomainError("bad-shape", "mode must be 'separable' or 'general'")
    self.mode = mode
    self.det_orders = []
    self.entry_orders = []
    self.repr_orders = []
    dets = [mat_det(A) for A in self.matrices]
    for i, (A, d) in enumerate(zip(self.matrices, dets)):
        v = d.ord_pi()
        if v is INF:
            # zero in O/pi^(eN) certifies only valuation >= eN, not a zero of O
            full = tower.pi_precision
            raise PrecisionError(f"det A[{i}] is divisible by pi^{full}, the working "
                                 f"precision", lower_bound=full)
        entries = [x for row in A for x in row]
        reprs = tuple([x._repr_ord() for x in entries])
        ords = [min(r, x.prec) for r, x in zip(reprs, entries)]  # ord_lower
        m = min(ords)  # adj(A) has the entries of A up to sign
        if m + tower.e < v:
            # ord_lower is a certified lower bound, so a failure with an
            # uncertified entry is a precision problem, not a bad module
            min(x.ord_pi() for x in entries)
            raise DomainError(
                "v-nonintegral",
                f"slot {i}: p*A^(-1) is not integral "
                f"(min adjugate valuation {m}, det valuation {v})",
                slot=i)
        self.det_orders.append(v)
        self.repr_orders.append(reprs)
        # m is exact once an entry attaining it is certified, which always
        # holds when the entries share one precision (2m <= v < prec)
        self.entry_orders.append(
            m if any(o == m < x.prec for o, x in zip(ords, entries)) else None)
    self.det_sum = sum(self.det_orders)
    g = tower.g
    if mode == "separable" and self.det_sum != g:
        raise DomainError(
            "det-budget",
            f"sum of det valuations is {self.det_sum}, expected g = {g} "
            f"(slot valuations {self.det_orders})")
    if mode == "general" and self.det_sum > 2 * g:
        raise DomainError(
            "det-budget",
            f"sum of det valuations {self.det_sum} exceeds 2g = {2 * g}")
    if self.delta is not None:
        p = tower.p
        for i, d in enumerate(dets):
            if not self.delta[i]:
                raise DomainError("degenerate-pairing",
                                  f"pairing scalar at slot {i} vanishes", slot=i)
            lhs = d * self.delta[i]
            rhs = self.delta[(i - 1) % tower.f].sigma() * p
            if lhs - rhs:
                raise DomainError(
                    "pairing-incompatible",
                    f"slot {i}: det(A)*delta != p*sigma(delta_prev)", slot=i)
    return self
