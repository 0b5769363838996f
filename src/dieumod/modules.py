"""Rank-2 Dieudonne modules with real-multiplication structure.

A module is presented by f slot matrices A[0..f-1] over the ramified ring,
in the convention

    (F X_{i-1}, F Y_{i-1})^T  =  A[i] (X_i, Y_i)^T   (slot indices mod f),

so A[i] expands F of the slot-(i-1) basis in the slot-i basis, and F^f on a
single slot is a sigma-twisted product of the A[i].  V is never stored: its
matrix from slot i to slot i-1 is sigma^{-1}(p A[i]^{-1}), which makes
FV = VF = p automatic.

An optional family of pairing scalars delta[i] = (X_i, Y_i) pins the
alternating form; compatibility with F and V forces

    det(A[i]) * delta[i] = p * sigma(delta[i-1]).

A slot matrix is given as 2x2 ramified elements (RamElems, or values
`CoeffTower.ram` takes) or as a `wittring.PackedMatrix`, the form
validation runs on.  The pairing scalars are given as ramified elements or
as a `PackedPairing`, which holds the right-hand sides p * sigma(delta[i-1])
of the identity; scalars given as elements are checked through a transient
one.  Every family builder writes its slots in the packed form (`families`),
so no RamElem matrix of a family module is formed unless something reads
`DModule.matrices`, and a deformation fiber takes its base's packed
pairing, whose right-hand sides all fibers of that base share.
"""

import json
import operator
from functools import reduce

from .wittring import (INF, CoeffTower, PackedMatrix, PrecisionError, DomainError,
                       is_int_list, product_prec)


def mat(tower, rows):
    return tuple(tuple(tower.ram(x) for x in row) for row in rows)


def mat_sigma(A, n):
    """sigma^n entrywise; A itself when sigma^n is the identity."""
    if not n % A[0][0].tower.d:
        return A
    return tuple(tuple(x.sigma(n) for x in row) for row in A)


def mat_mod_p(A):
    return tuple(tuple(x.residue_poly() for x in row) for row in A)


def is_json_ram(x):
    """An int, or a list of pi-coefficients that are ints or int lists."""
    return type(x) is int or isinstance(x, list) and all(
        type(c) is int or is_int_list(c) for c in x)


def _is_json_matrix(A):
    return (isinstance(A, list) and len(A) == 2 and all(
        isinstance(row, list) and len(row) == 2 and all(map(is_json_ram, row))
        for row in A))


def _at_precisions(tower, mats, delta, precs):
    """The entries of mats and delta as ramified elements at the precisions
    in `precs`, a "precisions" object of `DModule.to_json`: ints in
    [0, eN], shaped like the values they belong to."""
    def is_list(ps, n, item):
        return isinstance(ps, list) and len(ps) == n and all(map(item, ps))

    def is_prec(x):
        return type(x) is int and 0 <= x <= tower.pi_precision

    def is_matrix(P):
        return is_list(P, 2, lambda row: is_list(row, 2, is_prec))

    pm, pd = (precs.get("matrices"), precs.get("delta")) if isinstance(precs, dict) else (None, None)
    if not (is_list(pm, len(mats), is_matrix) and (
            pd is None if delta is None else is_list(pd, len(delta), is_prec))):
        raise DomainError("bad-input", f"precisions must be ints in [0, {tower.pi_precision}] "
                          "shaped like matrices and delta")
    mats = [[[tower.ram(x, p) for x, p in zip(row, prow)] for row, prow in zip(A, P)]
            for A, P in zip(mats, pm)]
    return mats, None if delta is None else [tower.ram(d, p) for d, p in zip(delta, pd)]


class PackedPairing:
    """Pairing scalars in the kernel's formats, for the pairing identity
    det(A[i]) * delta[i] = p * sigma(delta[i-1]), whose right-hand sides
    depend on delta alone: `delta` the scalars as RamElems, `ints[i]` the
    Kronecker integer of delta[i] and `rhs[i]` the reduced coefficient
    tuples of p * sigma(delta[i-1]), sigma by the tower's rows."""

    __slots__ = ("tower", "delta", "ints", "rhs")

    def __init__(self, tower, delta):
        self.tower, self.delta = tower, delta
        cs = [[c.coeffs for c in d.coeffs] for d in delta]
        self.ints = [tower._ram_pack(c) for c in cs]
        p, pN = tower.p, tower.pN
        rows, sub = tower._sigma_map(1), tower._ring.substitute
        self.rhs = []
        for prev in cs[-1:] + cs[:-1]:
            rhs = []
            for w in prev:
                c = sub(rows, w) if any(w[1:]) else w
                rhs.append(tuple([p * b % pN for b in c]) if any(c) else c)
            self.rhs.append(rhs)


class DModule:
    """Validated module presentation; immutable once built.

    A slot matrix is given as RamElems, which validation packs once, or as a
    `wittring.PackedMatrix` of this tower, taken as it is (the family
    builders and deformation fibers write that form); either way it is
    kept as `packed_matrices[i]`, and validation reads everything off that
    form: det A[i] by `CoeffTower.det`, the pairing identity on its tuples
    (`_pairing_holds`) and each entry's valuation (`RamElem._repr_ord`, eN
    for a zero representative).  The pairing scalars are given as ramified
    elements, checked through a transient `PackedPairing`, or as the
    `PackedPairing` of a base module (`_packed_pairing`), whose right-hand
    sides its deformation fibers share; every slot of every module is
    checked against them.  It keeps what it read: `entry_orders[i]` is the
    certified minimum of the valuations of A[i]'s entries (None when no
    entry attaining it is certified) and `det_orders[i]` the valuation of
    det A[i].  The packed forms are kept eagerly, not formed on first use,
    because validation already forms them, the a-type reads their `ords`
    and `precs`, and every twisted-power chain starts from them
    (`twisted_factors`).  `matrices` (RamElems) are the JSON form and the
    input of `dual`: the given ones, or, for packed input, formed from
    `packed_matrices` when first read."""

    def __init__(self, tower, matrices, delta=None, mode="separable"):
        self.tower = tower
        pairing = None
        if isinstance(delta, PackedPairing):
            if delta.tower != tower:
                raise DomainError("tower-mismatch", "pairing scalars from a different tower")
            pairing, delta = delta, delta.delta
        if len(matrices) != tower.f:
            raise DomainError("bad-shape", f"expected {tower.f} slot matrices")
        if delta is not None and len(delta) != tower.f:
            raise DomainError("bad-shape", f"expected {tower.f} pairing scalars")
        given, packed = [], []
        for m in matrices:
            if isinstance(m, PackedMatrix):
                if m.tower != tower:
                    raise DomainError("tower-mismatch", "slot matrix from a different tower")
                packed.append(m)
            else:
                given.append(mat(tower, m))
                packed.append(tower.packed(given[-1]))
        self._matrices = tuple(given) if len(given) == tower.f else None
        self.packed_matrices = tuple(packed)
        self.delta = None if delta is None else tuple(tower.ram(d) for d in delta)
        if mode not in ("separable", "general"):
            raise DomainError("bad-shape", "mode must be 'separable' or 'general'")
        self.mode = mode
        full, e = tower.pi_precision, tower.e
        self.det_orders = []
        self.entry_orders = []
        dets = []
        for i, P in enumerate(self.packed_matrices):
            det, prec = tower.det(P)
            v = tower.certified_ord(tower._repr_ord(det), prec)
            if v == INF:
                # zero in O/pi^(eN) certifies only valuation >= eN, not a zero of O
                raise PrecisionError(f"det A[{i}] is divisible by pi^{full}, the working "
                                     f"precision", lower_bound=full)
            ords = list(map(min, P.ords, P.precs))  # ord_lower
            m = min(ords)  # adj(A) has the entries of A up to sign
            if m + e < v:
                # ord_lower is a certified lower bound, so a failure with an
                # uncertified entry is a precision problem, not a bad module
                for r, q in zip(P.ords, P.precs):
                    tower.certified_ord(r, q)
                raise DomainError(
                    "v-nonintegral",
                    f"slot {i}: p*A^(-1) is not integral "
                    f"(min adjugate valuation {m}, det valuation {v})",
                    slot=i)
            self.det_orders.append(v)
            dets.append((det, prec))
            # m is exact once an entry attaining it is certified, which always
            # holds when the entries share one precision (2m <= v < prec)
            self.entry_orders.append(
                m if any(o == m < q for o, q in zip(ords, P.precs)) else None)
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
            if pairing is None:
                pairing = PackedPairing(tower, self.delta)
            for i, (det, prec) in enumerate(dets):
                if not self.delta[i]:
                    raise DomainError("degenerate-pairing",
                                      f"pairing scalar at slot {i} vanishes", slot=i)
                if not self._pairing_holds(pairing, i, det, prec):
                    raise DomainError(
                        "pairing-incompatible",
                        f"slot {i}: det(A)*delta != p*sigma(delta_prev)", slot=i)

    def _pairing_holds(self, pairing, i, det, prec):
        """det(A[i]) * delta[i] = p * sigma(delta[i-1]) to the certified
        digits, for det A[i] as (coefficient tuples, precision) and the
        scalars as a PackedPairing: the left side one packed product, the
        right side read off `pairing.rhs`, and the difference mod p^N
        vanishing below the lesser precision (what `bool(lhs - rhs)` of
        RamElems reads, since truncation keeps every lower digit)."""
        t = self.tower
        lhs = t._ram_reduce(t._ram_pack(det) * pairing.ints[i])
        rhs = pairing.rhs[i]
        if lhs == rhs:
            return True
        d, prev = self.delta[i], self.delta[i - 1]
        full, pN = t.pi_precision, t.pN
        lhs_prec = product_prec(self.det_orders[i], prec, d._repr_ord(), d.prec, full)
        diff = [[(a - b) % pN for a, b in zip(x, y)] for x, y in zip(lhs, rhs)]
        return t._repr_ord(diff) >= min(lhs_prec, prev.prec + t.e, full)

    def _packed_pairing(self):
        """`delta` as a PackedPairing, formed on the first call and kept:
        the deformation fibers of this module take it as their scalars and
        share its right-hand sides (`families.deform_specialize`).  Formed
        again when `delta` was replaced; None without pairing scalars."""
        if self.delta is None:
            return None
        P = self.__dict__.get("_pairing")
        if P is None or P.delta is not self.delta:
            P = self._pairing = PackedPairing(self.tower, self.delta)
        return P

    @property
    def matrices(self):
        """The slot matrices as RamElems: the input when it was given so,
        else formed from `packed_matrices` on first read
        (`CoeffTower.ram_matrix`)."""
        if self._matrices is None:
            self._matrices = tuple(self.tower.ram_matrix(P) for P in self.packed_matrices)
        return self._matrices

    @property
    def f(self):
        return self.tower.f

    @property
    def e(self):
        return self.tower.e

    @property
    def g(self):
        return self.tower.g

    def __repr__(self):
        return (f"DModule(p={self.tower.p}, f={self.f}, e={self.e}, "
                f"mode={self.mode}, det_orders={self.det_orders})")

    # -- F^f and its iterates ------------------------------------------------
    #
    # F^f is read on slot 0.  The chains run on `wittring.PackedMatrix`: they
    # start from the slot matrices packed at validation, sigma acts on the
    # reduced coefficient tuples only where it is not the identity, every
    # link is one `CoeffTower.mat_product`, and only `twisted_power` builds
    # RamElems, for its return value.

    def twisted_factors(self):
        """The factors of F^f on slot 0 in order, sigma^(f-k)(A[k mod f]) for
        k = 1..f, from `packed_matrices`."""
        f = self.f
        return [self.packed_matrices[k % f].sigma(f - k) for k in range(1, f + 1)]

    def twisted_power(self):
        """Matrix of F^f on slot 0:
        A[1]^(sigma^(f-1)) * A[2]^(sigma^(f-2)) * ... * A[f], A[f] = A[0]."""
        t = self.tower
        return t.ram_matrix(reduce(t.mat_product, self.twisted_factors()))

    def _min_entry_ord(self, C, n):
        """m_n = min over the entries of the PackedMatrix C of min(ord,
        prec).  A zero entry at full precision is zero in O/pi^(eN), not in
        O: it counts at its certified bound eN, so m_n stays a certified
        lower bound.  A step whose four entries all vanish to their
        precisions (ord >= prec) certifies nothing more and raises
        PrecisionError with the bound attached."""
        m = min(map(min, C.ords, C.precs))
        if all(map(operator.ge, C.ords, C.precs)):
            raise PrecisionError(
                f"all entries of the {n}-fold twisted power vanish to working "
                f"precision; raise N or accept the bound", lower_bound=m)
        return m

    def min_valuation_doublings(self, max_doublings):
        """Yield (n, m_n) for n = 1, 2, 4, ... by C_2n = sigma^(f n)(C_n) * C_n,
        from the twisted power C_1 on slot 0, under the rule of
        `_min_entry_ord`; a square where sigma^(f n) is the identity."""
        t = self.tower
        C = reduce(t.mat_product, self.twisted_factors())
        n = 1
        yield n, self._min_entry_ord(C, n)
        for _ in range(max_doublings):
            C = t.mat_product(C.sigma(self.f * n), C)
            n *= 2
            yield n, self._min_entry_ord(C, n)

    # -- reduction mod p and duality ----------------------------------------

    def _p_adjugate(self, i):
        """p * adj(A[i]) / pi^v = pi^(e-v) * adj(A[i]), v = ord det A[i]:
        p * A[i]^(-1) up to the det's unit part.  One pi-shift per entry:
        `mul_pi(e - v)`, exact, when v <= e, else `div_pi(v - e)`, which
        costs v - e digits and which validation's integrality check (min
        entry valuation + e >= v) makes exact."""
        k = self.e - self.det_orders[i]
        shift = (lambda x: x.mul_pi(k)) if k >= 0 else (lambda x: x.div_pi(-k))
        (a, b), (c, d) = self.matrices[i]
        return ((shift(d), shift(-b)), (shift(-c), shift(a)))

    def _p_inverse(self, i):
        """p * A[i]^(-1) = pi^(e-v) * adj(A[i]) * u^(-1), det A[i] = pi^v u:
        only the det's unit part u spends digits."""
        t = self.tower
        u = t.ram(*t.det(self.packed_matrices[i])).unit_part()[1].inverse()
        return tuple(tuple(x * u for x in row) for row in self._p_adjugate(i))

    def vbar_matrix(self, i):
        """Matrix of V: slot i -> slot i-1, reduced mod p, up to a unit
        scalar: sigma^(-1) of `_p_adjugate`, so the det's unit part is not
        divided out (same row span, no digit spent on inverting it).  dual()
        uses the exact p*A^(-1).  With fbar_matrix, the chain-ring reference
        route for the mod-p invariants, which `invariants` reads off
        valuations instead."""
        return mat_mod_p(mat_sigma(self._p_adjugate(i), -1))

    def fbar_matrix(self, i):
        """A[i] mod p: matrix of F: slot i-1 -> slot i."""
        return mat_mod_p(self.matrices[i])

    def dual(self):
        """Module of the dual p-divisible group: A_dual[i] = (p A[i]^(-1))^T,
        dual pairing scalars 1/delta[i] (unit scalars required).  The entries
        lose only the digits that inverting the det's unit part spends
        (`_p_inverse`), and v - e more on a slot with v > e."""
        duals = [((a, c), (b, d)) for (a, b), (c, d) in map(self._p_inverse, range(self.f))]
        delta = None
        if self.delta is not None:
            if not all(d.is_unit() for d in self.delta):
                raise DomainError(
                    "non-unit",
                    "dual pairing needs unit pairing scalars in this presentation")
            delta = [d.inverse() for d in self.delta]
        budget = sum(2 * self.e - v for v in self.det_orders)
        mode = "separable" if budget == self.g else "general"
        return DModule(self.tower, duals, delta, mode)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        """The module's JSON object.  When some entry is below full precision,
        "precisions" holds every entry's pi-adic precision, shaped like
        "matrices" and "delta"; a full-precision module has no such key."""
        out = {
            "tower": self.tower.to_json(),
            "matrices": [[[x.to_json() for x in row] for row in A] for A in self.matrices],
            "delta": None if self.delta is None else [d.to_json() for d in self.delta],
            "mode": self.mode,
        }
        full = self.tower.pi_precision
        if any(x.prec < full for A in self.matrices for row in A for x in row) or any(
                d.prec < full for d in self.delta or ()):
            out["precisions"] = {
                "matrices": [[[x.prec for x in row] for row in A] for A in self.matrices],
                "delta": None if self.delta is None else [d.prec for d in self.delta],
            }
        return out

    @classmethod
    def from_json(cls, data):
        """Module from its JSON object; malformed input raises DomainError."""
        if not isinstance(data, dict):
            raise DomainError("bad-input", "module JSON must be an object")
        tower = CoeffTower.from_json(data.get("tower"))
        mats, delta = data.get("matrices"), data.get("delta")
        if not (isinstance(mats, list) and all(map(_is_json_matrix, mats)) and (
                delta is None or isinstance(delta, list) and all(map(is_json_ram, delta)))):
            raise DomainError("bad-input", "matrices must be a list of 2x2 matrices "
                              "and delta a list, of ramified elements")
        precs = data.get("precisions")
        if precs is not None:
            mats, delta = _at_precisions(tower, mats, delta, precs)
        return cls(tower, mats, delta, data.get("mode", "separable"))

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)
