import math
import random
from fractions import Fraction as Fr

import pytest

from hkzdefect import (
    CasePoint,
    case_quadratic,
    check_hkz_inequalities,
    convexity_numerator,
    convexity_scan,
    defect_from_parameters,
    extremal_gram,
    gram_from_parameters,
    is_hkz_reduced,
    orthogonality_defect,
    scan_case,
    verify_extremal_form,
    verify_small_sigma_bound,
)
from hkzdefect.proofcheck import (
    ALL_CASES,
    NEG_KMAX,
    NEG_KMIN,
    POS_KMAX,
    POS_KMIN,
    case_region_contains,
    envelope_second_difference,
    envelope_second_difference_float,
    envelope_value,
    grid_points,
    implied_k_l,
    numerator_display_neg_grouped,
    numerator_display_neg_sum,
    numerator_display_pos_grouped,
    numerator_display_pos_sum,
    sigma_interval,
)

HALF = Fr(1, 2)


def kmin_region_contains(lam, mu):
    """Oracle for the negative-sigma k-minimal region, in Fraction form.

    The true lower boundary on mu is 1 + lambda - sqrt(lambda^2 + 2 lambda),
    irrational in general; since mu <= 1/2 < 1 + lambda it is equivalent to
    the all-rational test (1 + lambda - mu)^2 <= lambda^2 + 2 lambda.  The
    region is empty below lambda = 1/4 exactly.
    """
    return lam >= Fr(1, 4) and (1 + lam - mu) ** 2 <= lam * lam + 2 * lam


def bound_expression_value(case_id, lam, mu, sigma):
    """Oracle: the case's defect upper-bound expression evaluated directly,
    independent of the quadratic coefficients."""
    k, l = implied_k_l(case_id, lam, mu, sigma)
    if k <= 0 or l <= 0:
        raise ValueError("bound expression undefined: implied k or l nonpositive")
    return defect_from_parameters(CasePoint(lam, mu, sigma, k, l))


EXTREMAL_POS = CasePoint(HALF, HALF, HALF, Fr(1), Fr(3, 4))
EXTREMAL_NEG = CasePoint(HALF, HALF, -HALF, Fr(1), Fr(3, 4))


# --- parameter-level operations ---------------------------------------------


def test_defect_from_parameters_extremal():
    assert defect_from_parameters(EXTREMAL_POS) == Fr(25, 12)
    assert defect_from_parameters(EXTREMAL_NEG) == Fr(25, 12)


def test_defect_from_parameters_orthogonal():
    assert defect_from_parameters(CasePoint(Fr(0), Fr(0), Fr(0), Fr(1), Fr(1))) == 1


def test_defect_from_parameters_plane_case():
    point = CasePoint(HALF, Fr(0), Fr(0), Fr(3, 4), Fr(1))
    assert defect_from_parameters(point) == Fr(4, 3)


def test_gram_from_parameters_matches_extremal(extremal_plus, extremal_minus):
    assert gram_from_parameters(EXTREMAL_POS) == extremal_plus
    assert gram_from_parameters(EXTREMAL_NEG) == extremal_minus


def test_case_point_validation():
    with pytest.raises(ValueError, match="lambda"):
        CasePoint(Fr(3, 4), Fr(0), Fr(0), Fr(1), Fr(1)).validate()
    with pytest.raises(ValueError, match="positive"):
        CasePoint(Fr(0), Fr(0), Fr(0), Fr(1), Fr(0)).validate()


def test_inequalities_extremal_holds_with_equality():
    report = check_hkz_inequalities(EXTREMAL_POS)
    assert report.ok
    assert report.derived_hold
    # (5) is tight: l + k sigma^2 = 1 = k
    idx5 = dict((i, (lhs, rhs)) for i, lhs, rhs in report.values)
    assert idx5[5][0] == idx5[5][1] == 1


def test_inequalities_orthogonal_cube():
    report = check_hkz_inequalities(CasePoint(Fr(0), Fr(0), Fr(0), Fr(1), Fr(1)))
    assert report.ok and report.derived_hold


def test_inequalities_violation_when_projection_shorter():
    report = check_hkz_inequalities(CasePoint(Fr(0), Fr(0), Fr(0), Fr(1), Fr(1, 2)))
    assert not report.ok
    assert 5 in report.violated
    assert report.derived_hold is None


def test_inequalities_as_hkz_oracle():
    # parameters extracted from certified reduced bases always satisfy (1)-(5)
    from hkzdefect import hkz_reduce, ldl
    from hkzdefect.experiments import random_gram

    count = 0
    for seed in range(40):
        g = hkz_reduce(random_gram(3, 1700 + seed, 9)).reduced
        gso = ldl(g)
        scale = gso.bstar[0]
        lam, mu, sigma = gso.mu[1][0], gso.mu[2][0], gso.mu[2][1]
        if lam < 0 or mu < 0:
            continue  # the parameter normalization assumes lambda, mu >= 0
        point = CasePoint(lam, mu, sigma, gso.bstar[1] / scale, gso.bstar[2] / scale)
        report = check_hkz_inequalities(point)
        assert report.ok, (seed, report.violated)
        count += 1
    assert count > 5


# --- small sigma corner -----------------------------------------------------


def test_small_sigma_corner_is_two():
    report = verify_small_sigma_bound()
    assert report.ok and report.monotone
    assert report.corner_value == 2


def test_small_sigma_sample_value():
    from hkzdefect.proofcheck import small_sigma_bound_value

    assert small_sigma_bound_value(Fr(1), Fr(1)) == Fr(55, 32)
    assert small_sigma_bound_value(Fr(10**6), Fr(10**6)) > Fr(9, 8)


# --- quadratic coefficients -------------------------------------------------


def test_case_quadratic_neg_kmax():
    quad = case_quadratic(NEG_KMAX, HALF, HALF)
    assert (quad.a, quad.b, quad.c) == (Fr(7, 3), Fr(3, 2), Fr(1, 6))
    assert quad.value(-HALF) == 0


def test_case_quadratic_pos_kmax_mirror():
    quad = case_quadratic(POS_KMAX, HALF, HALF)
    assert (quad.a, quad.b, quad.c) == (Fr(7, 3), Fr(-3, 2), Fr(1, 6))
    neg = case_quadratic(NEG_KMAX, HALF, HALF)
    assert (quad.a, quad.b, quad.c) == (neg.a, -neg.b, neg.c)
    assert quad.value(HALF) == 0


def test_case_quadratic_neg_kmin():
    quad = case_quadratic(NEG_KMIN, HALF, HALF)
    assert (quad.a, quad.b, quad.c) == (Fr(75, 64), Fr(27, 32), Fr(7, 64))
    assert quad.value(-HALF) == Fr(-5, 256)
    assert quad.value(Fr(-1, 3)) == Fr(-1, 24)


def test_case_quadratic_rejects_out_of_region():
    with pytest.raises(ValueError, match="outside"):
        case_quadratic(NEG_KMIN, Fr(1, 8), HALF)  # lambda < 1/4
    with pytest.raises(ValueError, match="outside"):
        case_quadratic(POS_KMIN, Fr(1, 10), HALF)  # mu > 2 lambda
    with pytest.raises(ValueError, match="outside"):
        case_quadratic(NEG_KMAX, Fr(0), Fr(0))  # degenerate corner


# --- regions ---------------------------------------------------------------


def test_kmin_region_rational_test_matches_sqrt_form():
    rng = random.Random(5)
    for _ in range(300):
        lam = Fr(rng.randrange(0, 101), 200)
        mu = Fr(rng.randrange(0, 101), 200)
        lhs = float(mu)
        rhs = 1 + float(lam) - math.sqrt(float(lam) ** 2 + 2 * float(lam))
        if abs(lhs - rhs) < 1e-9:
            continue  # too close to the boundary for a float comparison
        assert kmin_region_contains(lam, mu) == (lam >= Fr(1, 4) and lhs >= rhs)
        assert case_region_contains(NEG_KMIN, lam, mu) == kmin_region_contains(lam, mu)


def test_kmin_region_empty_below_quarter():
    for num in range(0, 50):  # lambda = num/200 < 1/4
        lam = Fr(num, 200)
        assert not any(
            kmin_region_contains(lam, Fr(m, 200))
            or case_region_contains(NEG_KMIN, lam, Fr(m, 200))
            for m in range(0, 101)
        )
    assert kmin_region_contains(Fr(1, 4), HALF)  # boundary is attained exactly
    assert case_region_contains(NEG_KMIN, Fr(1, 4), HALF)


def test_scan_visits_no_small_lambda():
    report = scan_case(NEG_KMIN, Fr(1, 20))
    assert report.points_checked > 0
    # the recorded extrema all have lambda >= 1/4 by the region test
    assert report.argmax.lam >= Fr(1, 4)


def test_pos_kmax_region_includes_origin():
    assert case_region_contains(POS_KMAX, Fr(0), Fr(0))
    quad = case_quadratic(POS_KMAX, Fr(0), Fr(0))
    assert (quad.a, quad.b, quad.c) == (Fr(25, 12), Fr(0), Fr(-13, 12))


# --- scans -------------------------------------------------------------------


def test_grid_points_includes_exact_endpoints():
    pts = grid_points(Fr(1, 3), HALF, Fr(1, 100))
    assert pts[0] == Fr(1, 3)
    assert pts[-1] == HALF
    assert Fr(34, 100) in pts
    assert all(pts[i] < pts[i + 1] for i in range(len(pts) - 1))


@pytest.mark.parametrize("step", [Fr(0), Fr(-1, 100)], ids=["zero", "negative"])
def test_grid_points_refuses_a_nonpositive_step(step):
    # a negative step would walk away from hi forever, and 0 divides by zero
    with pytest.raises(ValueError, match="grid step must be positive"):
        grid_points(Fr(1, 3), HALF, step)


@pytest.mark.parametrize("case_id", ["BOGUS", "NEG", "neg_kmin"])
@pytest.mark.parametrize(
    "call",
    [
        lambda case_id: implied_k_l(case_id, Fr(1, 4), Fr(1, 4), Fr(1, 4)),
        lambda case_id: sigma_interval(case_id),
        lambda case_id: case_quadratic(case_id, Fr(1, 4), Fr(1, 4)),
        lambda case_id: scan_case(case_id, Fr(1, 50)),
        lambda case_id: convexity_scan(case_id, 3),
    ],
    ids=["implied_k_l", "sigma_interval", "case_quadratic", "scan_case", "convexity_scan"],
)
def test_unknown_case_ids_are_refused(case_id, call):
    with pytest.raises(ValueError, match=f"^unknown case {case_id!r}$"):
        call(case_id)


def test_scan_step_validation():
    with pytest.raises(ValueError, match="divide"):
        scan_case(NEG_KMAX, Fr(1, 3))
    with pytest.raises(ValueError, match="unknown case"):
        scan_case("SIDEWAYS", Fr(1, 100))


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_scan_cases_at_coarse_step(case_id):
    report = scan_case(case_id, Fr(1, 50))
    assert not report.violations
    assert report.passed
    found = {(p.lam, p.mu, p.sigma) for p in report.equality_points}
    if case_id == NEG_KMAX:
        assert found == {(HALF, HALF, -HALF)}
        assert report.max_value == 0
    elif case_id == POS_KMAX:
        assert found == {(HALF, HALF, HALF)}
        assert report.max_value == 0
    else:
        assert found == set()
        assert report.max_value == Fr(-5, 256)


def test_scan_at_the_finest_step():
    # 1/1000 is the finest step verify-proof accepts
    report = scan_case(NEG_KMIN, Fr(1, 1000))
    assert report.points_checked == 2_783_088
    assert report.passed
    assert report.max_value == Fr(-5, 256)


def test_scan_equality_point_carries_extremal_parameters():
    report = scan_case(NEG_KMAX, Fr(1, 50))
    point = report.equality_points[0]
    assert (point.k, point.l) == (Fr(1), Fr(3, 4))
    assert defect_from_parameters(point) == Fr(25, 12)


def test_quadratic_consistent_with_bound_expression():
    # Q(sigma) <= 0 is exactly the bound expression being <= 25/12:
    # bound = 25/12 + Q/(A N) for the k-min cases and
    # bound = 25/12 + Q/(D^2 (1 - sigma^2)) for the k-max cases.
    rng = random.Random(11)
    step = Fr(1, 100)
    for case_id in ALL_CASES:
        lo, hi = sigma_interval(case_id)
        sigmas = grid_points(lo, hi, step)
        lams = grid_points(Fr(0), HALF, step)
        checked = 0
        while checked < 100:
            lam, mu = rng.choice(lams), rng.choice(lams)
            if not case_region_contains(case_id, lam, mu):
                continue
            sigma = rng.choice(sigmas)
            q = case_quadratic(case_id, lam, mu).value(sigma)
            bound = bound_expression_value(case_id, lam, mu, sigma)
            k, l = implied_k_l(case_id, lam, mu, sigma)
            if case_id in (NEG_KMIN, POS_KMIN):
                assert bound == Fr(25, 12) + q / ((1 - lam * lam) * l)
            else:
                d = 1 - (1 - lam - mu) ** 2 if case_id == NEG_KMAX else 1 - (lam - mu) ** 2
                assert bound == Fr(25, 12) + q / (d * d * (1 - sigma**2))
            assert (q <= 0) == (bound <= Fr(25, 12))
            checked += 1


# --- convexity ---------------------------------------------------------------


def test_convexity_numerator_examples():
    # second derivative of the envelope is nonnegative at the extremal corner
    p_neg = CasePoint(HALF, HALF, -HALF, Fr(3, 4), Fr(1))
    p_pos = CasePoint(HALF, HALF, HALF, Fr(3, 4), Fr(1))
    assert convexity_numerator("NEG", p_neg) >= 0
    assert convexity_numerator("POS", p_pos) >= 0
    # degenerate sigma = 0 stays nonnegative
    p_zero = CasePoint(HALF, Fr(1, 4), Fr(0), Fr(1, 2), Fr(1))
    assert convexity_numerator("NEG", p_zero) >= 0


def test_convexity_numerator_outside_region():
    # N(k) <= 0 is rejected
    with pytest.raises(ValueError, match="outside case region"):
        convexity_numerator("NEG", CasePoint(Fr(0), Fr(0), -HALF, Fr(1), Fr(1)))


def test_second_difference_matches_derivative_sign():
    rng = random.Random(3)
    for side in ("NEG", "POS"):
        lo, hi = (Fr(-1, 2), Fr(-1, 3)) if side == "NEG" else (Fr(1, 3), Fr(1, 2))
        for _ in range(50):
            lam = Fr(rng.randrange(0, 51), 100)
            mu = Fr(rng.randrange(0, 51), 100)
            sigma = lo + (hi - lo) * Fr(rng.randrange(0, 11), 10)
            from hkzdefect.proofcheck import _envelope_pieces

            c_val, e_val = _envelope_pieces(side, lam, mu, sigma)
            k_top = c_val / e_val
            k = k_top * Fr(rng.randrange(1, 10), 10)
            h = k_top / 50
            h = min(h, k / 2, (k_top - k) / 2)
            if h <= 0:
                continue
            point = CasePoint(lam, mu, sigma, k, c_val - k * e_val)
            sd = envelope_second_difference(side, point, h)
            sd_half = envelope_second_difference(side, point, h / 2)
            assert sd >= 0 and sd_half >= 0
            assert convexity_numerator(side, point) >= 0
            assert envelope_second_difference_float(side, point, float(h)) >= -1e-12


def test_envelope_value_matches_defect_formula():
    # the envelope at the implied (k, l) is the case bound expression
    point = CasePoint(HALF, HALF, -HALF, Fr(3, 4), Fr(1))
    value = envelope_value("NEG", point.lam, point.mu, point.sigma, point.k)
    k, l = point.k, 1 - (1 - point.lam - point.mu) ** 2 - point.k * (1 + point.sigma) ** 2
    assert value == defect_from_parameters(
        CasePoint(point.lam, point.mu, point.sigma, k, l)
    )


def test_display_transcriptions_vs_recomputed_numerator():
    # the expanded displays are transcribed verbatim: the positive-side sum
    # form agrees with the recomputed numerator everywhere, the other three
    # carry known typos and must disagree somewhere (they are reported, not
    # silently fixed)
    rng = random.Random(17)
    agree = {"neg_sum": True, "neg_grouped": True, "pos_sum": True, "pos_grouped": True}
    for _ in range(200):
        lam = Fr(rng.randrange(0, 51), 100)
        mu = Fr(rng.randrange(0, 51), 100)
        for side, lo, hi in (("NEG", Fr(-1, 2), Fr(-1, 3)), ("POS", Fr(1, 3), Fr(1, 2))):
            sigma = lo + (hi - lo) * Fr(rng.randrange(0, 11), 10)
            from hkzdefect.proofcheck import _envelope_pieces

            c_val, e_val = _envelope_pieces(side, lam, mu, sigma)
            k = (c_val / e_val) * Fr(rng.randrange(1, 10), 10)
            point = CasePoint(lam, mu, sigma, k, c_val - k * e_val)
            truth = convexity_numerator(side, point)
            if side == "NEG":
                if numerator_display_neg_sum(lam, mu, sigma, k) != truth:
                    agree["neg_sum"] = False
                if numerator_display_neg_grouped(lam, mu, sigma, k) != truth:
                    agree["neg_grouped"] = False
            else:
                if numerator_display_pos_sum(lam, mu, sigma, k) != truth:
                    agree["pos_sum"] = False
                if numerator_display_pos_grouped(lam, mu, sigma, k) != truth:
                    agree["pos_grouped"] = False
    assert agree["pos_sum"] is True
    assert agree["neg_sum"] is False
    assert agree["neg_grouped"] is False
    assert agree["pos_grouped"] is False


def test_convexity_scan_small_grid():
    for case_id in ALL_CASES:
        cert = convexity_scan(case_id, per_axis=4)
        assert cert.ok
        assert cert.min_numerator >= 0
        assert cert.min_second_difference >= 0
        assert cert.min_float_check >= -1e-12
        if cert.side == "POS":
            assert cert.display_matches["pos_sum"] is True


def test_convexity_scan_retains_samples_on_request():
    cert = convexity_scan("NEG_KMIN", per_axis=3, keep_samples=True)
    assert len(cert.samples) == cert.samples_checked
    for sample in cert.samples:
        assert sample.numerator >= 0
        assert sample.second_difference >= 0
        assert sample.second_difference_half >= 0


# --- extremal form -----------------------------------------------------------


def test_verify_extremal_form():
    report = verify_extremal_form()
    assert report.ok
    assert [v.defect for v in report.variants] == [Fr(25, 12), Fr(25, 12)]
    assert all(v.hkz_ok for v in report.variants)
    assert report.scaled_defect == Fr(25, 12)


def test_extremal_gram_scale_invariance():
    big = extremal_gram(+1).scaled(4)
    assert orthogonality_defect(big) == Fr(25, 12)
    assert is_hkz_reduced(big).ok
