"""Brute-force enumeration of stable isotropic planes next to the pi-swap
superspecial point.

The ambient 4-space carries pi, a semilinear F, its inverse-twisted V, and
an alternating form; the probe lists every 2-plane stable under all three
and isotropic, straight from the definitions, and confirms the closed-form
picture: 1 + (p+1)(q-1) chart points forming p+1 lines through the origin,
cut out by t1^(p+1) = t2^(p+1), t1^2 + t2 t3 = 0 (whose extra F_q-points
all sit on the coordinate line t1 = t2 = 0 and extend to no stable plane).
"""

from dieumod.hecke import HeckeSetting, enumerate_stable_planes, compare_variety

for p in (3, 5):
    S = HeckeSetting(p, 1)
    planes = enumerate_stable_planes(S)
    rep = compare_variety(S, planes)
    print(f"p = {p}, q = {S.q}:")
    print(f"  stable planes in the chart: {rep['enumerated']} "
          f"(formula 1 + (p+1)(q-1) = {rep['expected_count']})")
    print(f"  chart equations all hold: {rep['all_chart_equations_hold']}")
    print(f"  lines through the origin: {rep['lines_through_origin']} "
          f"(expected {rep['expected_lines']})")
    print(f"  F_q-points of the displayed variety: {rep['variety_point_count']}")
    print(f"  points not reached by any stable plane: "
          f"{len(rep['extra_variety_points'])}, all on t1 = t2 = 0: "
          f"{rep['extra_points_on_t1_t2_zero']}")
    print()

# The full Grassmannian sweep finds the chart planes plus the p+1 boundary
# planes where the echelon pivots degenerate.
S = HeckeSetting(3, 1)
full = enumerate_stable_planes(S, chart_only=False)
outside = [pl.rref for pl in full if pl.chart is None]
print(f"p = 3 full Grassmannian: {len(full)} stable planes, "
      f"{len(outside)} outside the chart:")
for rr in outside:
    print("   rows", rr[0], "and", rr[1])
