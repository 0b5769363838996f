"""Division by pi^v as it was formed before `RamElem.div_pi` became the
closed-form inverse of `mul_pi`, as the reference for it: v steps, each
moving every coefficient down one pi-degree and dividing the constant one
exactly by p as it wraps to degree e - 1, and one digit of precision lost
per step.  A negative v took no step and returned the element unchanged;
`RamElem.div_pi` refuses it.  `tests/test_wittring.py` compares the two."""

from dieumod.wittring import DomainError, PrecisionError, RamElem, WittElem


def exact_div_p(w):
    """Exact division by p; the top p-adic digit of the result is not
    certified (callers account for it through RamElem precision)."""
    if any(c % w.tower.p for c in w.coeffs):
        raise DomainError("non-divisible", "Witt element is not divisible by p")
    return WittElem(w.tower, tuple(c // w.tower.p for c in w.coeffs))


def div_pi(x, v=1):
    """Exact division by pi^v; costs v digits of certified precision."""
    t = x.tower
    cs = list(x.coeffs)
    prec = x.prec
    for _ in range(v):
        low = cs[0]
        if any(c % t.p for c in low.coeffs):
            raise DomainError("non-divisible", "element is not divisible by pi")
        cs = cs[1:] + [exact_div_p(low)]
        prec -= 1
    if prec <= 0:
        raise PrecisionError("no certified digits left after pi-division", lower_bound=0)
    return RamElem(t, cs, prec)
