from fractions import Fraction
from itertools import permutations, product

import pytest

from dieumod import (
    DomainError, admissible_slopes, newton_stratum_codim, is_spaced,
    spaced_bound, spaced_bound_exhaustive, atype_poset, dp_stratum_dim,
    deformation_dims, polarization_degree_exponent, superspecial_types,
    verify_det_identity,
)
from dieumod import strata
from dieumod.strata import SqZero


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
                assert verify_det_identity(n, m1, n - m1, trials=25)["ok"]

    def test_n_one(self):
        assert verify_det_identity(1, trials=20)["ok"]


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


def _random_sqzero_matrix(n, p, m, rng):
    return [[SqZero(p, rng.randrange(p), [rng.randrange(p) for _ in range(m)])
             for _ in range(n)] for _ in range(n)]


class TestDeterminant:
    P, M = 5, 3

    def test_det_and_cofactors_match_leibniz(self, rng):
        one, zero = SqZero(self.P, 1, [0] * self.M), SqZero(self.P, 0, [0] * self.M)
        for n in range(1, 7):
            for _ in range(2 if n == 6 else 4):
                rows = _random_sqzero_matrix(n, self.P, self.M, rng)
                assert strata._det(rows) == _leibniz(rows, one, zero)
                cofactors = strata._first_row_cofactors(rows, self.P, self.M)
                assert len(cofactors) == n
                for k in range(n):
                    minor = [r[:k] + r[k + 1:] for r in rows[1:]]
                    expect = _leibniz(minor, one, zero)
                    assert cofactors[k] == (-expect if k % 2 else expect)

    def test_det_products_at_most_n_two_to_n_minus_one(self, rng, monkeypatch):
        n = 6
        rows = _random_sqzero_matrix(n, self.P, self.M, rng)
        calls = []
        mul = SqZero.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(SqZero, "__mul__", counting_mul)
        strata._det(rows)
        assert 0 < len(calls) <= n * 2 ** (n - 1)
