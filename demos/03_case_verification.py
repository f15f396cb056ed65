#!/usr/bin/env python3
"""Tour 3: re-verifying the rank-3 maximal-defect case analysis.

With ||b_1||^2 normalized to 1 and parameters (lambda, mu, sigma, k, l), the
claim "no HKZ-reduced rank-3 basis has defect above 25/12" reduces to four
quadratic inequalities in sigma after the small-|sigma| corner bound and a
convexity argument in k.  Everything below re-checks those steps in exact
rational arithmetic; the scans and the convexity samples do so on a grid (the
original verification's own standard: pointwise, not interval, rigor).
"""

from fractions import Fraction as Fr

from hkzdefect import (
    CasePoint,
    case_quadratic,
    check_hkz_inequalities,
    convexity_scan,
    defect_from_parameters,
    scan_case,
    verify_extremal_form,
    verify_small_sigma_bound,
)
from hkzdefect.proofcheck import ALL_CASES

# The extremal parameters: lambda = mu = 1/2, sigma = +-1/2, k = 1, l = 3/4.
extremal = CasePoint(Fr(1, 2), Fr(1, 2), Fr(1, 2), Fr(1), Fr(3, 4))
print("defect at the extremal parameters:", defect_from_parameters(extremal))

# The five inequalities any HKZ-reduced rank-3 basis imposes on them;
# the fifth is tight here (l + k sigma^2 = k exactly).
report = check_hkz_inequalities(extremal)
print("inequalities (1)-(5) hold:", report.ok, " derived (6)-(8) hold:", report.derived_hold)

# For |sigma| <= 1/3 the defect envelope is a product of two positive,
# strictly decreasing factors, so over all k >= 3/4, l >= 2/3 it is largest
# at the corner, where it equals exactly 2 (below 25/12).  This is proven,
# not sampled: the check evaluates the envelope at the corner only.
small = verify_small_sigma_bound()
print("\nsmall-sigma corner value:", small.corner_value, " verified:", small.ok)

# The four remaining cases: each yields a quadratic Q(sigma) that must stay
# <= 0 over its region.  At lambda = mu = 1/2 the k-max cases are exact
# mirrors of one another.
neg = case_quadratic("NEG_KMAX", Fr(1, 2), Fr(1, 2))
pos = case_quadratic("POS_KMAX", Fr(1, 2), Fr(1, 2))
print("\nNEG_KMAX quadratic at (1/2, 1/2):", (neg.a, neg.b, neg.c))
print("POS_KMAX quadratic at (1/2, 1/2):", (pos.a, pos.b, pos.c))
print("Q(-1/2) for NEG_KMAX:", neg.value(Fr(-1, 2)), " (the only equality point)")

# Full scans at a coarse step (the library default is 1/100; acceptance runs
# 1/200).  Equality is permitted only at the documented extremal points.
print("\ngrid scans at step 1/50:")
for case_id in ALL_CASES:
    scan = scan_case(case_id, Fr(1, 50))
    eqs = [(p.lam, p.mu, p.sigma) for p in scan.equality_points]
    print(
        f"  {case_id}: {scan.points_checked} points, max Q = {scan.max_value},"
        f" equalities {eqs}, passed={scan.passed}"
    )

# Convexity of the defect envelope in k, the step that justifies pushing k to
# its endpoints: exact second differences and an exactly recomputed second
# derivative numerator, sampled across each case region.  The transcribed
# expanded displays are compared against the recomputed numerator; the
# positive-side sum form matches, the other three carry transcription typos.
print("\nconvexity certificates (per_axis=6):")
for case_id in ALL_CASES:
    cert = convexity_scan(case_id, per_axis=6)
    print(
        f"  {case_id}: {cert.samples_checked} samples, ok={cert.ok},"
        f" display match {cert.display_matches}"
    )

# And the form that attains the bound, in both sign variants.
extremal_report = verify_extremal_form()
print("\nextremal form certified:", extremal_report.ok)
for variant in extremal_report.variants:
    print(f"  sigma = {variant.sigma}: HKZ={variant.hkz_ok}, defect={variant.defect}")
