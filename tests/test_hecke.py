import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dieumod import DomainError, hecke, modp
from dieumod.hecke import (
    SmallField, HeckeSetting, enumerate_stable_planes, compare_variety,
    chart_equations_hold, parametrized_chart_set, probe_report,
)

import heckeref

SRC = Path(__file__).resolve().parent.parent / "src"


def test_numpy_loads_with_hecke_only():
    # the library, the CLI and verify import without numpy; the Hecke names
    # still resolve on the package (through its module __getattr__, which
    # must not recurse) and load it
    code = ("import sys, dieumod, dieumod.cli, dieumod.verify\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded at import'\n"
            "assert callable(dieumod.probe_report)\n"
            "assert callable(dieumod.hecke.enumerate_stable_planes)\n"
            "assert getattr(dieumod, 'hecke') is sys.modules['dieumod.hecke']\n"
            "assert 'numpy' in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestSmallField:
    def test_tables(self):
        K = SmallField(3, 2)
        # field axioms sampled over whole (tiny) field
        e = K.elements()
        for a in e:
            assert K.ADD[a, K.NEG[a]] == 0
            assert K.MUL[a, 1] == a
            for b in e:
                assert K.ADD[a, b] == K.ADD[b, a]
                assert K.MUL[a, b] == K.MUL[b, a]
        # distributivity on a sample grid
        A, B, C = np.meshgrid(e, e, e[:3], indexing="ij")
        lhs = K.MUL[A, K.ADD[B, C]]
        rhs = K.ADD[K.MUL[A, B], K.MUL[A, C]]
        assert (lhs == rhs).all()

    def test_frobenius_tables(self):
        K = SmallField(3, 2)
        for a in K.elements():
            assert K.FROB[K.FROBINV[a]] == a
            assert K.FROB[K.MUL[a, a]] == K.MUL[K.FROB[a], K.FROB[a]]


def _int64_tables(K):
    """K's tables rebuilt in int64 from its modulus mu alone: EXP by
    repeated multiplication by the generator T of F_p[T]/(mu), the rest from
    base-p digits and log sums, with no small integer type anywhere."""
    p, r, q = K.p, K.r, K.q
    coeffs, exp = [1] + [0] * (r - 1), []
    for _ in range(q - 1):
        exp.append(sum(c * p ** i for i, c in enumerate(coeffs)))
        top, shifted = coeffs[-1], [0] + coeffs[:-1]
        coeffs = [(shifted[i] - top * K.mu[i]) % p for i in range(r)]
    exp = np.array(exp, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    digits = [np.arange(q, dtype=np.int64) // p ** i % p for i in range(r)]
    mul = np.zeros((q, q), dtype=np.int64)
    mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]

    def power(n):
        out = np.zeros(q, dtype=np.int64)
        out[exp] = exp[log[exp] * n % (q - 1)]
        return out

    return {"ADD": sum((d[:, None] + d[None, :]) % p * p ** i for i, d in enumerate(digits)),
            "NEG": sum(-d % p * p ** i for i, d in enumerate(digits)),
            "MUL": mul, "EXP": exp, "LOG": log,
            "FROB": power(p), "FROBINV": power(p ** (r - 1))}


@pytest.mark.parametrize("p, r, dtype", [(7, 2, np.uint8), (13, 2, np.uint8),
                                         (5, 4, np.uint16)])
def test_small_type_tables_match_int64_reference(p, r, dtype):
    # at p = 7 the products LOG * n already overflow uint8 (47 * 8); at
    # p = 13 so do the log sums of MUL (168 + 168)
    K = SmallField(p, r)
    ref = _int64_tables(K)
    for name, table in ref.items():
        got = getattr(K, name)
        assert got.dtype == dtype, name
        assert np.array_equal(got.astype(np.int64), table), name
    # LOG is the residue field's log table, EXP its inverse, and writing
    # into K's tables leaves the shared table as it was
    shared = modp.log_table(p, K.mu)
    before = shared.tobytes()
    assert K.LOG.astype(np.int64).tolist() == shared.tolist()
    assert np.array_equal(K.LOG[K.EXP], np.arange(K.q - 1))
    assert np.array_equal(K.EXP[K.LOG[1:]], np.arange(1, K.q))
    K.LOG[:] = 0
    assert shared.tobytes() == before
    exp, log = ref["EXP"], ref["LOG"]
    for n in (-1, 2, p + 1, K.q + 5):
        table = K.power_table(n)
        assert table.dtype == dtype
        assert table.tolist() == [0] + [int(exp[log[x] * n % (K.q - 1)])
                                        for x in range(1, K.q)]


class TestSetting:
    def test_validation(self):
        with pytest.raises(DomainError):
            HeckeSetting(2)
        with pytest.raises(DomainError):
            HeckeSetting(4)
        HeckeSetting(3)

    def test_operator_identities(self):
        S = HeckeSetting(3)
        v = tuple(np.int64(x) for x in (1, 2, 5, 7))
        pi2 = S.pi_map(S.pi_map(v))
        assert all(int(c) == 0 for c in pi2)
        fv = S.f_map(S.v_map(v))
        assert all(int(c) == 0 for c in fv)


class TestEnumeration:
    def test_p3_counts_and_equations(self):
        S = HeckeSetting(3)
        planes = enumerate_stable_planes(S)
        assert len(planes) == 33
        rep = compare_variety(S, planes)
        assert rep["count_matches"]
        assert rep["all_chart_equations_hold"]
        assert rep["displayed_polynomials_hold"]
        assert rep["lines_through_origin"] == 4
        assert rep["parametrization_matches"]
        assert rep["variety_point_count"] == 41
        assert len(rep["extra_variety_points"]) == 8
        assert rep["extra_points_on_t1_t2_zero"]

    def test_isotropy_trace_condition(self):
        S = HeckeSetting(3)
        K = S.field
        for pl in enumerate_stable_planes(S):
            t11, _, _, t22 = pl.chart
            assert int(K.ADD[np.int64(t11), np.int64(t22)]) == 0

    def test_parametrized_set_is_exact(self):
        S = HeckeSetting(3)
        got = {pl.chart for pl in enumerate_stable_planes(S)}
        assert got == parametrized_chart_set(S)

    def test_full_grassmannian_contains_chart(self):
        S = HeckeSetting(3)
        chart = enumerate_stable_planes(S)
        full = enumerate_stable_planes(S, chart_only=False)
        rrefs = {pl.rref for pl in full}
        assert {pl.rref for pl in chart} <= rrefs
        # the Grassmannian search runs the chart cell first, in chart order
        assert full[:len(chart)] == chart
        outside = [pl for pl in full if pl.chart is None]
        # the leftover stable planes are limits of the chart lines: their
        # echelon pivots degenerate out of the (1, 2) columns
        assert len(outside) == S.p + 1
        for pl in outside:
            assert pl.rref[0][:2] != (1, 0) or pl.rref[1][:2] != (0, 1)

    def test_full_report_enumerates_once(self, monkeypatch):
        # the chart planes are read off the Grassmannian search's first cell
        real, calls = hecke.enumerate_stable_planes, []
        monkeypatch.setattr(hecke, "enumerate_stable_planes",
                            lambda *a, **k: calls.append(k) or real(*a, **k))
        rep = probe_report(3, full_grassmannian=True)
        assert [k["chart_only"] for k in calls] == [False]
        assert rep["enumerated"] == 33 and rep["grassmannian_total"] == 37

    def test_equations_reject_nonsolutions(self):
        S = HeckeSetting(3)
        assert not chart_equations_hold(S, (1, 0, 0, 0))

    def test_p5_report(self):
        rep = probe_report(5)
        assert rep["enumerated"] == 145
        assert rep["count_matches"] and rep["all_chart_equations_hold"]
        assert rep["lines_through_origin"] == 6
        assert rep["variety_point_count"] == 25 + 6 * 24

    def test_size_guard(self, monkeypatch):
        # the search checks its size against the built setting's q, with no
        # second check of p and s
        S = HeckeSetting(5)

        def no_field_check(p, s):
            raise AssertionError("p and s checked again by the search")
        monkeypatch.setattr(hecke, "_field_order", no_field_check)
        with pytest.raises(DomainError, match="cap") as exc:
            enumerate_stable_planes(S, size_cap=10)
        assert exc.value.code == "size-guard"
        with pytest.raises(DomainError, match="Grassmannian") as exc:
            enumerate_stable_planes(S, chart_only=False, size_cap=S.q ** 4)
        assert len(enumerate_stable_planes(S, size_cap=S.q ** 4)) == 1 + 6 * 24

    @pytest.mark.parametrize("full", [False, True], ids=["chart", "grassmannian"])
    def test_size_guard_before_field_tables(self, monkeypatch, full):
        # p = 101 gives q = 10201: each q x q table would take about 0.8 GB.
        # A field above 2^16 has no log table and is refused under any cap,
        # from bit lengths (3^18) or from q itself (3^12, 5^8, 257^2)
        def no_tables(p, r):
            raise AssertionError("SmallField built for a search over the cap")
        monkeypatch.setattr(hecke, "SmallField", no_tables)
        with pytest.raises(DomainError, match="cap") as exc:
            probe_report(101, full_grassmannian=full)
        assert exc.value.code == "size-guard"
        for p, s in ((3, 6), (3, 9), (5, 4), (257, 1)):
            for call in (lambda: probe_report(p, s, full, size_cap=10 ** 23),
                         lambda: HeckeSetting(p, s)):
                with pytest.raises(DomainError, match="elements > 2\\^16") as exc:
                    call()
                assert exc.value.code == "size-guard"
        # the largest fields below the bound pass it: 3^10 and 251^2
        assert hecke._field_order(3, 5) == 3 ** 10 and hecke._field_order(251, 1) == 251 ** 2

    def test_p7_chart(self):
        rep = probe_report(7)
        assert rep["enumerated"] == rep["expected_count"] == 1 + 8 * 48 == 385
        assert rep["count_matches"] and rep["all_chart_equations_hold"]
        assert rep["displayed_polynomials_hold"] and rep["parametrization_matches"]
        assert rep["lines_through_origin"] == rep["expected_lines"] == 8
        assert rep["variety_point_count"] == 433
        assert rep["extra_points_on_t1_t2_zero"]


# -- the filtered cell search against the full-mask search ---------------------
#
# `heckeref._cell_planes` evaluates all seven conditions on every candidate;
# `hecke._cell_planes` tests each only on the survivors of the ones before.
# In the true setting no condition removes a candidate that passed the other
# six, so the wrong settings below are what make each condition count: with
# them, each of the seven removes a candidate the other six keep in some
# cell at p = 3.  (V with FROB in place of FROBINV is no wrong setting at
# s = 1, where both tables are x -> x^p.)

def _wrong_setting(swaps, symmetric=False):
    """pi, F and V send x_i' to x_i, or to x_(3-i) where `swaps` says so (the
    true setting swaps for F and V only); optionally a symmetric pairing."""

    class Wrong(HeckeSetting):
        def _op(self, v, table, swap):
            zero = np.zeros_like(v[0])
            a, b = table[v[2]], table[v[3]]
            return (b, a, zero, zero) if swap else (a, b, zero, zero)

        def pi_map(self, v):
            return self._op(v, self.field.elements(), swaps[0])

        def f_map(self, v):
            return self._op(v, self.field.FROB, swaps[1])

        def v_map(self, v):
            return self._op(v, self.field.FROBINV, swaps[2])

        def pair(self, v, w):
            if not symmetric:
                return super().pair(v, w)
            K = self.field
            t = K.add(K.mul(v[0], w[3]), K.mul(v[3], w[0]))
            return K.add(t, K.add(K.mul(v[2], w[1]), K.mul(v[1], w[2])))

    return Wrong


CELLS = list(combinations(range(4), 2))
WRONG = {
    "pi-swaps": _wrong_setting((True, False, False)),      # isotropy, pi r1, pi r2
    "v-keeps": _wrong_setting((False, True, False)),       # F r1, F r2, V r2
    "f-keeps": _wrong_setting((False, False, True)),       # F r2, V r1, V r2
    "symmetric": _wrong_setting((False, True, True), symmetric=True),  # isotropy, pi r2
}


@pytest.mark.parametrize("setting", [HeckeSetting, *WRONG.values()],
                         ids=["true", *WRONG])
def test_filtered_search_matches_full_mask_p3(setting):
    # every cell, (2, 3) with no free entries included
    S = setting(3)
    for j1, j2 in CELLS:
        assert hecke._cell_planes(S, j1, j2) == heckeref._cell_planes(S, j1, j2)


def test_filtered_search_matches_full_mask_p5_chart():
    S = HeckeSetting(5)
    planes = hecke._cell_planes(S, 0, 1)
    assert len(planes) == 145
    assert planes == heckeref._cell_planes(S, 0, 1)


# -- the array chart check against the pointwise one ---------------------------
#
# `heckeref` keeps the scalar chart check: one table expression per equation
# and point, a dense q^3 grid for the variety, Python sets for points and
# lines.  `hecke` runs the same check on one array of chart points.

@pytest.mark.parametrize("p, full", [(3, False), (3, True), (5, False), (7, False)],
                         ids=["p3-chart", "p3-grassmannian", "p5-chart", "p7-chart"])
def test_compare_variety_matches_pointwise_reference(p, full):
    S = HeckeSetting(p)
    planes = enumerate_stable_planes(S, chart_only=not full)
    assert compare_variety(S, planes) == heckeref.compare_variety(S, planes)


def _chart_plane(t):
    t11, t12, t21, t22 = t
    return hecke.StablePlane(((1, 0, t11, t12), (0, 1, t21, t22)), tuple(t))


def test_compare_variety_matches_reference_on_tampered_planes():
    # three chart planes dropped, and three chart points off the variety
    # added: two with t11 = 0 on one line, (0, 1, 0, 0) = 2 * (0, 2, 0, 0)
    # over F_3, and one on another new line
    S = HeckeSetting(3)
    planes = enumerate_stable_planes(S, chart_only=False)
    tampered = planes[:1] + planes[4:] + [_chart_plane(t) for t in
                                           ((0, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, 0))]
    true, got = compare_variety(S, planes), compare_variety(S, tampered)
    assert got == heckeref.compare_variety(S, tampered)
    changed = {k for k in true if true[k] != got[k]}
    assert {"extra_variety_points", "displayed_polynomials_hold",
            "all_chart_equations_hold"} <= changed
    assert len(got["extra_variety_points"]) == len(true["extra_variety_points"]) + 3
    assert got["lines_through_origin"] == true["lines_through_origin"] + 2
    assert not got["displayed_polynomials_hold"] and not got["all_chart_equations_hold"]


def test_chart_equations_match_pointwise_reference_on_whole_chart():
    S = HeckeSetting(3)
    t = [g.reshape(-1) for g in
         np.meshgrid(*[S.field.elements()] * 4, indexing="ij")]
    got = chart_equations_hold(S, t)
    assert got.shape == (S.q ** 4,) and int(got.sum()) == 33
    assert got.tolist() == [heckeref.chart_equations_hold(S, x) for x in zip(*t)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_parametrized_set_matches_pointwise_reference(p):
    S = HeckeSetting(p)
    assert parametrized_chart_set(S) == heckeref.parametrized_chart_set(S)
