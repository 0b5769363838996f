"""The inverse of a ramified unit as it was formed before `RamElem.inverse`
started from the residue: the constant coefficient is inverted in W_N by
Newton's iteration from its residue's inverse, and Newton's iteration in
the ramified ring starts from that.  `tests/test_wittring.py` compares the
two routes."""

from dieumod.wittring import DomainError, RamElem, WittElem


def witt_inverse(w):
    if not w.is_unit():
        raise DomainError("non-unit", "inverting a non-unit Witt element")
    t = w.tower
    z = WittElem(t, w.residue().inverse().coeffs)
    one = t.witt_one()
    for _ in range(t.N.bit_length() + 1):
        err = one - w * z
        if not err:
            return z
        z = z + z * err
    raise RuntimeError("Newton inversion did not converge")


def ram_inverse(x):
    if not x.is_unit():
        raise DomainError("non-unit", "inverting a non-unit; use unit_part first")
    t = x.tower
    z = t.ram(witt_inverse(x.coeffs[0]))
    one = t.one()
    for _ in range(t.pi_precision.bit_length() + 2):
        err = one - x * z
        if err.ord_lower() >= x.prec:
            return RamElem(t, z.coeffs, x.prec)
        z = z + z * err
    raise RuntimeError("Newton inversion did not converge")
