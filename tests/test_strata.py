from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dieumod import (
    DomainError, admissible_slopes, newton_stratum_codim, is_spaced,
    spaced_bound, spaced_bound_exhaustive, atype_poset, dp_stratum_dim,
    deformation_dims, polarization_degree_exponent, superspecial_types,
    verify_det_identity,
)
from dieumod import strata
import sqzeroref
from sqzeroref import SqZero


class TestSlopes:
    def test_sets(self):
        assert [s.index for s in admissible_slopes(4)] == [0, 1, 2]
        assert [s.index for s in admissible_slopes(5)] == [0, 1, 2, Fraction(5, 2)]
        assert [s.index for s in admissible_slopes(1)] == [0, Fraction(1, 2)]

    def test_codim(self):
        assert newton_stratum_codim(4, 2) == 2
        assert newton_stratum_codim(5, Fraction(5, 2)) == 3
        assert newton_stratum_codim(4, 0) == 0
        with pytest.raises(DomainError):
            newton_stratum_codim(4, Fraction(3, 2))


class TestPoset:
    def test_cardinality(self):
        assert len(atype_poset(2, 2).elements) == 9
        assert len(atype_poset(1, 4).elements) == 16

    def test_size_guard(self):
        with pytest.raises(DomainError, match="cap"):
            atype_poset(9, 7, cap=10 ** 4)

    @pytest.mark.parametrize("call", [
        lambda: atype_poset(2, 14000, cap=10 ** 5000),
        lambda: strata.spaced_bound_exhaustive((1,) * 20000, cap=10 ** 5000),
    ], ids=["poset", "down-set"])
    def test_size_guard_with_a_huge_cap(self, call):
        # a cap of 4300 digits or more is printed as "at least 2^k", not in
        # decimal, which Python refuses to format
        with pytest.raises(DomainError) as exc:
            call()
        assert exc.value.code == "size-guard" and "cap at least 2^16609" in str(exc.value)

    def test_spaced_records(self):
        P = atype_poset(1, 4)
        r = P.records[(1, 0, 1, 0)]
        assert r.spaced and r.lam == 2 and r.dim == 2
        assert r.generic_slope_exact.index == 2

    def test_nonspaced_record(self):
        P = atype_poset(1, 2)
        r = P.records[(1, 1)]
        assert not r.spaced and r.lam == 1
        assert r.generic_slope_exact is None
        assert r.generic_slope_lower.index == 1  # = g/2 here

    def test_lambda_dp_equals_exhaustive(self):
        for e, f in ((1, 5), (2, 4), (3, 3)):
            for a in product(range(e + 1), repeat=f):
                assert spaced_bound(a) == spaced_bound_exhaustive(a)

    def test_lambda_monotone_and_spaced_characterization(self):
        P = atype_poset(2, 3)
        for a in P.elements:
            r = P.records[a]
            assert (r.lam == sum(a)) == (r.spaced or not any(a))
        for a, b in P.cover_edges():
            assert P.records[a].lam <= P.records[b].lam
            assert P.records[a].dim == P.records[b].dim + 1

    def test_cover_edges_differ_by_one(self):
        P = atype_poset(2, 2)
        for a, b in P.cover_edges():
            diffs = [y - x for x, y in zip(a, b)]
            assert sorted(diffs) == [0, 1]

    def test_exports(self):
        P = atype_poset(1, 2)
        data = P.to_json()
        assert len(data["nodes"]) == 4
        dot = P.to_dot()
        assert "digraph" in dot and '"1,1"' in dot


class TestFormulas:
    def test_dp_dim_examples(self):
        assert dp_stratum_dim([(0, 2), (0, 2)], 2, 2) == 4
        assert dp_stratum_dim([(1, 1)], 2, 1) == 0
        assert dp_stratum_dim([(0, 2), (1, 1)], 2, 2) == 2
        with pytest.raises(DomainError):
            dp_stratum_dim([(0, 1), (0, 1)], 2, 2)  # exponents sum to 2, not 4

    def test_deformation_dims_examples(self):
        assert deformation_dims([(0, 2), (0, 2)], 2, 2)["unrestricted"] == 4
        d = deformation_dims([(1, 1)], 2, 1)
        assert d["dp"] == 4 and d["polarized"] == 3
        d = deformation_dims([(0, 1), (0, 1)], 1, 2)
        assert d["polarized"] == 2

    def test_degree_exponent_examples(self):
        assert polarization_degree_exponent([(1, 2), (0, 1)], 2, 2,
                                            normalize=False) == 2
        assert polarization_degree_exponent([(1, 1), (0, 1), (0, 0)], 1, 3,
                                            normalize=False) == 4
        # balanced types are separably polarizable
        assert polarization_degree_exponent([(0, 2), (1, 1)], 2, 2) == 0
        # normalization rotates the minimal partial sum to slot 0: the slot
        # ordering (1, 0, 2) of the sums (2, 1, 0) gives the same exponent
        rotated = [(0, 1), (0, 0), (1, 1)]
        assert polarization_degree_exponent(rotated, 1, 3, normalize=True) == 4
        assert polarization_degree_exponent(rotated, 1, 3, normalize=False) == -2

    @staticmethod
    def double_sum_degree_exponent(pairs, e, f, normalize):
        """The exponent as the formula reads: partial sums to choose the
        rotation, then D = 2 sum_{i=1}^{f-1} sum_{k<i} (s_k - e)."""
        sums = [x + y for x, y in pairs]
        if normalize:
            if sum(sums) != e * f:
                raise DomainError("det-budget",
                                  "normalization needs Lie exponents summing to g")
            partial = [0]
            for s in sums[:-1]:
                partial.append(partial[-1] + s - e)
            best = min(range(f), key=lambda r: (partial[r], r))
            sums = sums[best:] + sums[:best]
        D = 0
        for i in range(1, f):
            D += 2 * sum(sums[k] - e for k in range(i))
        return D

    def test_degree_exponent_matches_the_double_sum(self):
        # every Lie type with e <= 3 and f <= 5, both conventions, the
        # det-budget refusal included
        def outcome(fn, *args):
            try:
                return fn(*args)
            except DomainError as exc:
                return exc.code, str(exc)

        budget = 0
        for e in range(1, 4):
            slot = [(x, y) for y in range(e + 1) for x in range(y + 1)]
            for f in range(1, 6):
                for pairs in product(slot, repeat=f):
                    for normalize in (True, False):
                        got = outcome(polarization_degree_exponent, pairs, e, f, normalize)
                        assert got == outcome(self.double_sum_degree_exponent,
                                              pairs, e, f, normalize), (pairs, normalize)
                        budget += type(got) is tuple
        assert budget

    @pytest.mark.parametrize("call", [
        lambda: dp_stratum_dim([(0, 1), (0, 1)], 1, 1),
        lambda: dp_stratum_dim([(0, 2), (1, 2)], 2, 1),
        lambda: deformation_dims([(0, 1)], 1, 3),
        lambda: polarization_degree_exponent([(0, 1)], 1, 3, normalize=False),
        lambda: polarization_degree_exponent([(0, 1)] * 3, 1, 2, normalize=False),
        lambda: polarization_degree_exponent([(0, 1)] * 3, 1, 2),
        lambda: deformation_dims([(0, 3)], 2, 1),
    ], ids=["dp-dim-long", "dp-dim-long-budget", "deformation-short", "degree-short",
            "degree-long", "degree-long-normalized", "pair-out-of-range"])
    def test_bad_lie_shape_is_rejected(self, call):
        # one Lie pair per slot, each in [0, e]; checked before any budget
        with pytest.raises(DomainError) as exc:
            call()
        assert exc.value.code == "bad-shape"

    def test_superspecial_tables(self):
        assert superspecial_types(3, 1) == [((0, 3),), ((1, 2),)]
        assert superspecial_types(2, 1) == [((0, 2),), ((1, 1),)]
        assert len(superspecial_types(1, 2)) == 2
        for pat in superspecial_types(2, 4):
            for i in range(4):
                x, y = pat[i]
                nx, ny = pat[(i + 1) % 4]
                assert {nx, ny} == {2 - x, 2 - y}


class TestDetIdentity:
    def test_two_by_two_hand_value(self):
        assert verify_det_identity(2, trials=50)["ok"]

    def test_blocks(self):
        for n in (2, 3, 4):
            for m1 in range(1, n):
                assert verify_det_identity(n, m1, trials=25)["ok"]

    def test_n_one(self):
        assert verify_det_identity(1, trials=20)["ok"]

    @pytest.mark.parametrize("m1", [0, 3, -1, 1.5, True])
    def test_split_needs_two_positive_blocks(self, m1):
        with pytest.raises(DomainError) as exc:
            verify_det_identity(3, m1)
        assert exc.value.code == "bad-shape"

    @pytest.mark.parametrize("n", [0, -1, 2.0, "3", True, None])
    def test_size_must_be_a_positive_integer(self, n):
        # no n x n matrix to check: a bad shape, not an IndexError or
        # ValueError from inside the expansion
        with pytest.raises(DomainError) as exc:
            verify_det_identity(n, trials=2)
        assert exc.value.code == "bad-shape"

    @pytest.mark.parametrize("trials", [-1, -2, 1.5])
    def test_trial_count_must_be_a_nonnegative_integer(self, trials):
        with pytest.raises(DomainError) as exc:
            verify_det_identity(3, trials=trials)
        assert exc.value.code == "bad-shape"

    @pytest.mark.parametrize("m1", [None, 1])
    def test_no_trial_is_not_ok(self, m1):
        # as in verify's criteria, a check passes only if it ran a case
        rep = verify_det_identity(3, m1, trials=0)
        assert rep["trials"] == rep["failures"] == 0 and rep["ok"] is False

    def test_packed_entries_decode_to_their_own_slots(self, monkeypatch):
        # the check packs entry (i, j) of N into slot n*i + j of width
        # w = bits(2 n! 4^n) + 1; decoded with that width, every matrix it
        # takes a determinant of holds one direction per entry, and the
        # determinant's slots are the tuple expansion's, within n! 4^n
        real, seen = strata._det, []

        def recording_det(rows):
            seen.append((rows, real(rows)))
            return seen[-1][1]

        monkeypatch.setattr(strata, "_det", recording_det)
        for n in range(1, 7):
            for m1 in (None, *range(1, n)):
                seen.clear()
                assert verify_det_identity(n, m1, trials=2)["ok"]
                m, w = n * n, (2 * factorial(n) * 4 ** n).bit_length() + 1
                assert len(seen) == 2
                for rows, (det_a, det_v) in seen:
                    tuples = []
                    for i, row in enumerate(rows):
                        tuples.append([])
                        for j, (a, x) in enumerate(row):
                            v = _unpack(x, m, w)
                            assert all(c == 0 for k, c in enumerate(v) if k != n * i + j)
                            assert 0 <= v[n * i + j] < 5
                            tuples[-1].append(TupleSqZero(a, v))
                    ref = _leibniz(tuples, TupleSqZero(1, [0] * m), TupleSqZero(0, [0] * m))
                    got = _unpack(det_v, m, w)
                    assert (det_a, got) == (ref.a, list(ref.v))
                    assert max(map(abs, got)) <= factorial(n) * 4 ** n


def _leibniz(rows, one, zero):
    """Determinant as the signed sum over permutations (independent of strata)."""
    n = len(rows)
    acc = zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        acc = acc - term if inversions % 2 else acc + term
    return acc


class TupleSqZero:
    """a + sum_k v_k eps_k over Z with the v_k in a tuple: an unpacked
    reference for the (a, v) pairs of strata."""

    def __init__(self, a, v):
        self.a, self.v = a, tuple(v)

    def __add__(self, o):
        return TupleSqZero(self.a + o.a, [x + y for x, y in zip(self.v, o.v)])

    def __sub__(self, o):
        return TupleSqZero(self.a - o.a, [x - y for x, y in zip(self.v, o.v)])

    def __neg__(self):
        return TupleSqZero(-self.a, [-x for x in self.v])

    def __mul__(self, o):
        return TupleSqZero(self.a * o.a, [self.a * y + o.a * x for x, y in zip(self.v, o.v)])


# slot width of the packed test matrices: with every slot of every entry in
# [-4, 5), a coefficient of an n x n determinant is at most n n! 4^n < 2^39
W = 40


def _pack(coords, w=W):
    return sum(c << w * k for k, c in enumerate(coords))


def _unpack(v, m, w=W):
    """The m signed slots of a packed nilpotent part, lowest first."""
    out = []
    for _ in range(m):
        low = v & ((1 << w) - 1)
        if low >> (w - 1):
            low -= 1 << w
        out.append(low)
        v = (v - low) >> w
    assert v == 0, "packed part wider than m slots"
    return out


def _random_coords(n, m, rng):
    return [[(rng.randrange(5), [rng.randrange(5) for _ in range(m)])
             for _ in range(n)] for _ in range(n)]


def _pair_matrix(coords):
    return [[(a, _pack(v)) for a, v in row] for row in coords]


def _sqzero_matrix(coords):
    return [[SqZero(a, _pack(v)) for a, v in row] for row in coords]


class TestDeterminant:
    M = 3

    def test_det_and_cofactors_match_leibniz(self, rng):
        # the pair kernel against the permutation expansion over the
        # reference SqZero, whose packed parts are the same integers
        one, zero = SqZero(1), SqZero(0)
        for n in range(1, 7):
            for _ in range(2 if n == 6 else 4):
                coords = _random_coords(n, self.M, rng)
                rows, objs = _pair_matrix(coords), _sqzero_matrix(coords)
                ref = _leibniz(objs, one, zero)
                assert strata._det(rows) == (ref.a, ref.v)
                cofactors = strata._first_row_cofactors(rows)
                assert len(cofactors) == n
                for k in range(n):
                    minor = [r[:k] + r[k + 1:] for r in objs[1:]]
                    expect = _leibniz(minor, one, zero)
                    expect = -expect if k % 2 else expect
                    assert cofactors[k] == (expect.a, expect.v)

    def test_packed_slots_match_a_tuple_leibniz(self, rng):
        # decode the packed parts slot by slot against the same expansion
        # over the tuple representation
        one, zero = TupleSqZero(1, [0] * self.M), TupleSqZero(0, [0] * self.M)
        for n in range(1, 7):
            for _ in range(2 if n == 6 else 4):
                coords = _random_coords(n, self.M, rng)
                rows = _pair_matrix(coords)
                tuples = [[TupleSqZero(a, v) for a, v in row] for row in coords]
                (det_a, det_v), ref = strata._det(rows), _leibniz(tuples, one, zero)
                assert (det_a, _unpack(det_v, self.M)) == (ref.a, list(ref.v))
                cofactors = strata._first_row_cofactors(rows)
                for k in range(n):
                    minor = [r[:k] + r[k + 1:] for r in tuples[1:]]
                    ref = _leibniz(minor, one, zero)
                    ref = -ref if k % 2 else ref
                    got_a, got_v = cofactors[k]
                    assert (got_a, _unpack(got_v, self.M)) == (ref.a, list(ref.v))

    def test_det_products_at_most_n_two_to_n_minus_one(self, rng):
        # every pair product (x, y)(a, v) = (x a, v x + y a) multiplies its
        # row scalar x from the left exactly once, so counting the left
        # multiplications of the row scalars counts the products
        calls = []

        class CountedScalar(int):
            def __mul__(self, o):
                calls.append(1)
                return int(self) * o

        n = 6
        rows = [[(CountedScalar(a), v) for a, v in row]
                for row in _pair_matrix(_random_coords(n, self.M, rng))]
        strata._det(rows)
        assert 0 < len(calls) <= n * 2 ** (n - 1)


@st.composite
def signed_pair_matrices(draw):
    """An n x n matrix, n <= 6, of (a, v) pairs: scalars in [-4, 4] and
    three signed slots of width W in [-4, 4]."""
    n = draw(st.integers(1, 6))
    small = st.integers(-4, 4)
    return [[(draw(small), _pack(draw(st.lists(small, min_size=3, max_size=3))))
             for _ in range(n)] for _ in range(n)]


class TestPairKernelMatchesSqZero:
    @settings(max_examples=300, deadline=None)
    @given(signed_pair_matrices())
    def test_minor_tables_and_cofactors(self, rows):
        objs = [[SqZero(a, v) for a, v in row] for row in rows]
        for k in range(1, len(rows) + 1):
            got = strata._bottom_minors(rows, k)
            ref = sqzeroref._bottom_minors(objs, k)
            assert got == {mask: (x.a, x.v) for mask, x in ref.items()}
        got = strata._first_row_cofactors(rows)
        ref = sqzeroref._first_row_cofactors(objs)
        assert got == [(x.a, x.v) for x in ref]
