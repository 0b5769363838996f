"""The family builders on RamElem arithmetic, as the reference for the
packed builders of `families`.

`slope_family`, `normal_form`, `superspecial` and `nonrapoport_module` are
the library's functions as they were before they wrote each slot's
`PackedMatrix` from shared constant tuples, unchanged: every slot matrix is
a 2x2 matrix of RamElems (`CoeffTower.one`, `zero`, `ram`, `pi_pow`), and
`DModule` packs it itself.  They return the same module, or raise what the
library raises, with the same code and message.
"""

import warnings

from dieumod.families import _attach, _pairing_scalars, _tau_slots
from dieumod.modules import DModule
from dieumod.wittring import DomainError


def slope_family(tower, a):
    """The explicit Rapoport-locus family realizing Newton index a.

    Writing a = d*e + r with 0 <= r < e, the slots carry
    [[0,1],[-p,0]] (2d of them), [[1,1],[-p,0]], ..., and a final
    [[pi^r,1],[-p,0]].  These fit f slots for every 0 <= a <= g/2: 2ed + 2r
    <= ef gives 2d + 1 <= f when r > 0, and 2d <= f (all slots rotations
    when 2d = f) when r = 0.
    """
    g = tower.g
    e, f, p = tower.e, tower.f, tower.p
    if not (isinstance(a, int) and 0 <= 2 * a <= g):
        raise DomainError("bad-shape", f"need an integer 0 <= a <= g/2, got {a}")
    d, r = divmod(a, e)
    rot = [[tower.zero(), tower.one()], [tower.ram(-p), tower.zero()]]
    mix = [[tower.one(), tower.one()], [tower.ram(-p), tower.zero()]]
    last = [[tower.pi_pow(r), tower.one()], [tower.ram(-p), tower.zero()]]
    mats = [None] * f
    for i in range(1, f + 1):  # paper-style 1-based slots, A_f stored at 0
        if i <= 2 * d:
            m = rot
        elif i < f:
            m = mix
        else:
            m = last if 2 * d < f else rot
        mats[i % f] = m
    deltas = [tower.one()] * f  # every det is exactly p
    module = DModule(tower, mats, deltas, "separable")
    return _attach(module, {"kind": "slope", "a": a}, None)


def normal_form(tower, tau, c=None):
    """Rapoport-locus normal form with a-index tau.

    For i in tau the slot matrix is [[c_i * pi, 1], [pi^e, 0]] and the slot
    a-invariant is a^i = min(e, ord_pi(c_i * pi)); other slots are
    diag(1, pi^e).  c maps tau to ring elements (0 allowed, giving a^i = e);
    an empty tau yields the split ordinary module.
    """
    e, f = tower.e, tower.f
    tau = _tau_slots(tower, tau)
    c = {} if c is None else dict(c)
    if set(c) != set(tau):
        raise DomainError("bad-shape", "coefficient map must have exactly the slots of tau")
    entries = {i: tower.ram(c[i]).mul_pi() for i in tau}
    mats = []
    signs = []
    for i in range(f):
        if i in entries:
            mats.append([[entries[i], tower.one()], [tower.pi_pow(e), tower.zero()]])
            signs.append(-1)
        else:
            mats.append([[tower.one(), tower.zero()], [tower.zero(), tower.pi_pow(e)]])
            signs.append(1)
    deltas, note = _pairing_scalars(tower, signs)
    module = DModule(tower, mats, deltas, "separable")
    return _attach(module, {"kind": "normal", "tau": tau, "entries": entries}, note)


def superspecial(tower, e1=None, e2=None, variant="general"):
    """Superspecial modules (a-number = g).

    rapoport: F X_i = -Y_{i+1}, F Y_i = p X_{i+1}; a-type (e, ..., e).
    general:  F X_i = -pi^(x_i) Y_{i+1}, F Y_i = pi^(y_i) X_{i+1} with
              (x, y) = (e1, e2) at every slot for odd f (and e1 + e2 = e),
              alternating with (e-e2, e-e1) for even f; pairing scalars are
              exact pi powers.
    """
    e, f = tower.e, tower.f
    if variant == "rapoport":
        mats = [[[tower.zero(), -tower.one()], [tower.ram(tower.p), tower.zero()]]
                for _ in range(f)]
        deltas = [tower.one()] * f
        module = DModule(tower, mats, deltas, "separable")
        return _attach(module, {"kind": "superspecial", "variant": variant}, None)
    if variant != "general":
        raise DomainError("bad-shape", f"unknown variant {variant!r}")
    if e1 is None or e2 is None or not (0 <= e1 <= e and 0 <= e2 <= e):
        raise DomainError("bad-shape", "need exponents 0 <= e1, e2 <= e")
    if f % 2 and e1 + e2 != e:
        raise DomainError("bad-shape", "odd f needs e1 + e2 = e")
    mats = []
    for i in range(f):
        # slot i receives F from slot i-1; even source slots use (e-e2, e-e1)
        src_even = (i - 1) % 2 == 0
        if f % 2 or not src_even:
            x, y = e1, e2
        else:
            x, y = e - e2, e - e1
        mats.append([[tower.zero(), -tower.pi_pow(x)], [tower.pi_pow(y), tower.zero()]])
    n = max(0, e1 + e2 - e)
    if f % 2:
        deltas = [tower.pi_pow(n)] * f
    else:
        deltas = [tower.pi_pow(n) if i % 2 else tower.pi_pow(n + e - e1 - e2)
                  for i in range(f)]
    mode = "separable" if (f % 2 or e1 + e2 == e) else "general"
    module = DModule(tower, mats, deltas, mode)
    return _attach(module, {"kind": "superspecial", "variant": variant,
                            "e1": e1, "e2": e2}, None)


def nonrapoport_module(tower):
    """The rank-2 module with F X = pi Y, F Y = pi X over pi^2 = p:
    superspecial and supersingular but violating the Rapoport condition.
    Wants an odd prime; p = 3 is accepted with a warning."""
    if tower.e != 2 or tower.f != 1:
        raise DomainError("bad-shape", "this module lives at e = 2, f = 1")
    if tower.p == 2:
        raise DomainError("bad-shape", "p must be odd")
    if tower.p == 3:
        warnings.warn("p = 3 is outside the intended p > 3 range; proceeding anyway")
    pi = tower.pi()
    mats = [[[tower.zero(), pi], [pi, tower.zero()]]]
    deltas, note = _pairing_scalars(tower, [-1])  # det = -pi^2 = -p
    module = DModule(tower, mats, deltas, "separable")
    return _attach(module, {"kind": "nonrapoport"}, note)
