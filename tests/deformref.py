"""Deformation fibers on RamElem arithmetic, as the reference for the
packed fibers of `families.deform_specialize`.

`deform_specialize` is the library's function as it was before it wrote
each slot's `PackedMatrix` from coefficient tuples, unchanged: every lift is
a WittElem placed in a RamElem T_i, the tau slots add the base entry as a
RamElem sum, the other slots scale T_i by p, the constants are
`CoeffTower.one`, `zero` and `pi_pow(e)`, and `DModule` packs the RamElem
matrices itself.  It returns the same module, or raises what the library
raises, with the same code and message.
"""

from dieumod.families import _attach, _target_atype
from dieumod.modules import DModule
from dieumod.wittring import DomainError, WittElem


def deform_specialize(base, target_atype, assignment):
    tower = base.tower
    fam = getattr(base, "family", None)
    if not fam or fam.get("kind") != "normal":
        raise DomainError("bad-shape", "base must come from normal_form")
    e, f = tower.e, tower.f
    tau, entries = fam["tau"], fam["entries"]
    target = _target_atype(target_atype, e, f)
    for i in range(f):
        base_ai = min(e, entries[i].ord_lower()) if i in tau else 0
        if target[i] > base_ai:
            raise DomainError("bad-shape",
                              f"target a^({i}) = {target[i]} exceeds the base value {base_ai}")
    want = {(i, j) for i in range(f) for j in range(target[i], e)}
    if set(assignment) != want:
        raise DomainError("key-mismatch",
                          f"assignment keys must be exactly {sorted(want)}")
    one, zero, pi_e = tower.one(), tower.zero(), tower.pi_pow(e)
    mats = []
    for i in range(f):
        # T_{i,j} pi^j for j < e is T_{i,j} placed at pi-coefficient j
        coeffs = [tower.witt_zero()] * e
        for j in range(target[i], e):
            a = assignment[(i, j)]
            coeffs[j] = tower.witt(a) if isinstance(a, WittElem) else tower.teichmuller(a)
        Ti = tower.ram(coeffs)
        if i in tau:
            mats.append([[Ti + entries[i], one], [pi_e, zero]])
        else:
            mats.append([[one, zero], [Ti * tower.p, pi_e]])  # pi^e = p
    module = DModule(tower, mats, base.delta, "separable")
    return _attach(module, {"kind": "deform", "tau": tau, "target": target},
                   base.pairing_note)
