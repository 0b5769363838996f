"""Builders for the explicit module families.

All builders fix the pairing scalars by propagating
det(A[i]) * delta[i] = p * sigma(delta[i-1]) from delta[0].  Around the full
cycle this leaves a sign (-1)^t, t the number of antidiagonal-type slots; an
odd sign is absorbed into delta[0] by a Teichmuller scalar zeta with
zeta^(p^f) = -zeta when the working field contains one (ext even), and the
module is emitted without a pairing otherwise, flagged on `pairing_note`.

Every builder writes its slot matrices as `wittring.PackedMatrix` objects
from coefficient tuples, which `DModule` takes as they are: the constant
entries 0, +-1, +-p and pi^k are shared tuples whose valuations are read
once per call (`_constants`), and a normal form's entries c_i * pi are
written from their RamElems' tuples.  The RamElem `matrices` are formed only when read.  A
deformation fiber takes its base's pairing scalars in packed form, formed
on the base's first fiber and kept, so the right-hand sides
p * sigma(delta[i-1]) of the pairing identity are formed once per base.
"""

import warnings
from functools import cache

from .wittring import DomainError, PackedMatrix, WittElem
from .modules import DModule


@cache
def _odd_sign_scalar(tower):
    """(zeta, None) for the Teichmuller scalar zeta with sigma^f(zeta) =
    -zeta that absorbs an odd sign, or (None, note) when the tower has none;
    computed once per tower."""
    if tower.p == 2:
        return None, "no pairing: sign -1 is not a Teichmuller scalar at p = 2"
    order = tower.q - 1
    need = 2 * (tower.p ** tower.f - 1)
    if order % need:
        return None, ("no pairing: the working field has no scalar with "
                      "sigma^f(z) = -z; use an even base-field extension")
    return tower.ram(tower.teichmuller_power(order // need)), None


def _pairing_scalars(tower, signs):
    """delta[i] for slot signs s_i = p/det(A_i) in {+1, -1}.

    Returns (deltas, note); deltas is None when the sign cannot be absorbed.
    """
    total = 1
    for s in signs:
        total *= s
    if total == 1:
        delta0 = tower.one()
    else:
        delta0, note = _odd_sign_scalar(tower)
        if delta0 is None:
            return None, note
    deltas = [delta0]
    for i in range(1, tower.f):
        prev = deltas[-1].sigma()
        deltas.append(prev if signs[i] == 1 else -prev)
    return deltas, None


def _constants(tower):
    """The constant entries of one builder call: `entry(c, k)` is c * pi^k
    for c in {0, 1, -1} and 0 <= k <= e (pi^e = p) as (coefficient tuples,
    valuation), formed and its valuation read once per call, and shared by
    every slot that holds it."""
    e, p, pN = tower.e, tower.p, tower.pN
    z = tower.witt_zero().coeffs
    memo = {}

    def entry(c, k=0):
        key = (c, k) if c else 0
        if key not in memo:
            cs = [z] * e
            if c:
                q, r = divmod(k, e)
                cs[r] = (c * p ** q % pN,) + z[1:]
            cs = tuple(cs)
            memo[key] = cs, tower._repr_ord(cs)
        return memo[key]
    return entry


def _slot(tower, entries, precs=None):
    """The slot matrix of four entries (coefficient tuples, valuation),
    row-major, as a PackedMatrix; precs as `PackedMatrix.precs`."""
    return PackedMatrix(tower, tuple([cs for cs, _ in entries]), precs,
                        tuple([v for _, v in entries]))


def _attach(module, family, deltas_note):
    module.family = family
    module.pairing_note = deltas_note
    return module


def slope_family(tower, a):
    """The explicit Rapoport-locus family realizing Newton index a.

    Writing a = d*e + r with 0 <= r < e, the slots carry
    [[0,1],[-p,0]] (2d of them), [[1,1],[-p,0]], ..., and a final
    [[pi^r,1],[-p,0]].  These fit f slots for every 0 <= a <= g/2: 2ed + 2r
    <= ef gives 2d + 1 <= f when r > 0, and 2d <= f (all slots rotations
    when 2d = f) when r = 0.
    """
    g = tower.g
    e, f = tower.e, tower.f
    if not (isinstance(a, int) and 0 <= 2 * a <= g):
        raise DomainError("bad-shape", f"need an integer 0 <= a <= g/2, got {a}")
    d, r = divmod(a, e)
    entry = _constants(tower)
    zero, one, minus_p = entry(0), entry(1), entry(-1, e)
    rot = _slot(tower, (zero, one, minus_p, zero))
    mix = _slot(tower, (one, one, minus_p, zero))
    last = _slot(tower, (entry(1, r), one, minus_p, zero))
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
    tau = tuple(sorted(set(i % f for i in tau)))
    c = {} if c is None else dict(c)
    if set(c) != set(tau):
        raise DomainError("bad-shape", "coefficient map must have exactly the slots of tau")
    entries = {i: tower.ram(c[i]).mul_pi() for i in tau}
    entry = _constants(tower)
    zero, one, pi_e = entry(0), entry(1), entry(1, e)
    off_tau = _slot(tower, (one, zero, zero, pi_e))
    full = tower.pi_precision
    mats = []
    signs = []
    for i in range(f):
        x = entries.get(i)
        if x is None:
            mats.append(off_tau)
            signs.append(1)
        else:
            cs = tuple([w.coeffs for w in x.coeffs])
            mats.append(_slot(tower, ((cs, tower._repr_ord(cs)), one, pi_e, zero),
                              (x.prec, full, full, full)))
            signs.append(-1)
    deltas, note = _pairing_scalars(tower, signs)
    module = DModule(tower, mats, deltas, "separable")
    return _attach(module, {"kind": "normal", "tau": tau, "entries": entries}, note)


def ordinary_module(tower):
    return normal_form(tower, ())


def superspecial(tower, e1=None, e2=None, variant="general"):
    """Superspecial modules (a-number = g).

    rapoport: F X_i = -Y_{i+1}, F Y_i = p X_{i+1}; a-type (e, ..., e).
    general:  F X_i = -pi^(x_i) Y_{i+1}, F Y_i = pi^(y_i) X_{i+1} with
              (x, y) = (e1, e2) at every slot for odd f (and e1 + e2 = e),
              alternating with (e-e2, e-e1) for even f; pairing scalars are
              exact pi powers.
    """
    e, f = tower.e, tower.f
    entry = _constants(tower)
    zero = entry(0)
    if variant == "rapoport":
        mats = [_slot(tower, (zero, entry(-1), entry(1, e), zero))] * f
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
        mats.append(_slot(tower, (zero, entry(-1, x), entry(1, y), zero)))
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


def _target_atype(target, e, f):
    target = tuple(target)
    if len(target) != f or any(not (0 <= t <= e) for t in target):
        raise DomainError("bad-shape", "target a-type must be f slot values in [0, e]")
    return target


def deform_specialize(base, target_atype, assignment):
    """Specialize the universal deformation of a normal-form module over the
    stratum of a-types >= target.

    The deformation coordinates are (i, j) with target[i] <= j < e, flattened
    as k = e*i + j; values are residue-field elements, lifted to Teichmuller
    scalars T_{i,j}, or Witt elements of the tower, taken as T_{i,j}
    themselves (so fibers that share coordinates can share their lifts).
    Slot matrices become [[T_i, 1], [pi^e, 0]] on tau and
    [[1, 0], [T_i pi^e, pi^e]] elsewhere, with T_i the window sum
    (plus the base coefficient on tau).  Each is written as a
    `wittring.PackedMatrix` from coefficient tuples: the lifts', plus the
    base entry's mod p^N on tau (truncated to its precision), times p
    elsewhere, and the shared constant tuples of 1, 0 and pi^e = p
    (`_constants`).  No RamElem is built; the only WittElems are the lifts
    `teichmuller` returns.  The fiber's pairing scalars are the base's, in
    the packed form the base keeps (`DModule._packed_pairing`).
    """
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
    p, pN, full = tower.p, tower.pN, tower.pi_precision
    entry = _constants(tower)
    zero, one, pi_e = entry(0), entry(1), entry(1, e)
    mats = []
    for i in range(f):
        # T_{i,j} pi^j for j < e is T_{i,j} placed at pi-coefficient j
        Ti = list(zero[0])
        for j in range(target[i], e):
            a = assignment[(i, j)]
            Ti[j] = (tower.witt(a) if isinstance(a, WittElem) else tower.teichmuller(a)).coeffs
        if i in tau:
            x = entries[i]
            s = [tuple([(u + v) % pN for u, v in zip(t, b.coeffs)]) if b else t
                 for t, b in zip(Ti, x.coeffs)]
            if x.prec < full:
                s = tower.truncated(s, x.prec)
            s = tuple(s)
            mats.append(_slot(tower, ((s, tower._repr_ord(s)), one, pi_e, zero),
                              (x.prec, full, full, full)))
        else:
            pT = tuple([tuple([u * p % pN for u in t]) if any(t) else t for t in Ti])
            mats.append(_slot(tower, (one, zero, (pT, tower._repr_ord(pT)), pi_e)))
    # the slot signs are the base's (-1 on tau, else +1), and so are its
    # pairing scalars and note: the fiber takes the base's packed scalars,
    # whose right-hand sides every fiber of the base shares, and DModule
    # still checks them against the fiber's determinants
    module = DModule(tower, mats, base._packed_pairing(), "separable")
    return _attach(module, {"kind": "deform", "tau": tau, "target": target},
                   base.pairing_note)


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
    entry = _constants(tower)
    zero, pi = entry(0), entry(1, 1)
    mats = [_slot(tower, (zero, pi, pi, zero))]
    deltas, note = _pairing_scalars(tower, [-1])  # det = -pi^2 = -p
    module = DModule(tower, mats, deltas, "separable")
    return _attach(module, {"kind": "nonrapoport"}, note)


def sample_deform(tower, tau, target, trials, rng):
    """Random Teichmuller specializations over the target stratum; returns a
    histogram {newton index: count} plus the builder inputs echoed back."""
    from .invariants import newton_point

    e, f = tower.e, tower.f
    if trials < 0:
        raise DomainError("bad-shape", f"trials must be >= 0, not {trials}")
    tau = tuple(sorted(set(i % f for i in tau)))
    target = _target_atype(target, e, f)
    c = {}
    for i in tau:
        ai = target[i] if target[i] else 1
        c[i] = tower.pi_pow(ai - 1)  # entry c_i * pi has valuation exactly ai
    base = normal_form(tower, tau, c)
    hist = {}
    for _ in range(trials):
        assignment = {}
        for i in range(f):
            for j in range(target[i], e):
                assignment[(i, j)] = tower.teichmuller_power(rng.randrange(tower.q - 1))
        M = deform_specialize(base, target, assignment)
        idx = newton_point(M).index
        hist[idx] = hist.get(idx, 0) + 1
    return {"trials": trials, "tau": list(tau), "target": list(target),
            "slope_histogram": {str(k): v for k, v in sorted(hist.items())}}
