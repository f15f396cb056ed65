"""Differential tests: the integer proof scans against plain Fraction loops.

`reference_scan` and `reference_convexity` are the straightforward loops,
built only from public functions: `case_quadratic(...).value(sigma)` at every
grid point, and `convexity_numerator` with `envelope_second_difference` and
`envelope_second_difference_float` at every sample.  The library scans
compare integers over one common denominator instead, so every field of
both reports must agree exactly, apart from `wall_time`.
"""

import dataclasses
import math
import struct
from fractions import Fraction as Fr

import pytest

from hkzdefect import proofcheck
from hkzdefect.proofcheck import (
    ALL_CASES,
    HALF,
    QUARTER,
    CasePoint,
    ConvexityCertificate,
    ConvexitySample,
    case_quadratic,
    case_region_contains,
    convexity_numerator,
    convexity_scan,
    envelope_second_difference,
    envelope_second_difference_float,
    grid_points,
    implied_k_l,
    kmin_region_contains,
    numerator_display_neg_grouped,
    numerator_display_neg_sum,
    numerator_display_pos_grouped,
    numerator_display_pos_sum,
    scan_case,
    scaled_case_coefficients,
    sigma_interval,
)

DISPLAYS = {
    "NEG": (
        ("neg_sum", numerator_display_neg_sum),
        ("neg_grouped", numerator_display_neg_grouped),
    ),
    "POS": (
        ("pos_sum", numerator_display_pos_sum),
        ("pos_grouped", numerator_display_pos_grouped),
    ),
}


def reference_region(case_id, lam, mu):
    """The case regions in Fraction form."""
    if not (0 <= lam <= HALF and 0 <= mu <= HALF):
        return False
    if case_id == "NEG_KMIN":
        return lam >= QUARTER and (1 + lam - mu) ** 2 <= lam * lam + 2 * lam
    if case_id == "POS_KMIN":
        return mu <= 2 * lam
    if case_id == "NEG_KMAX":
        return lam != 0 or mu != 0
    return True


def reference_numerator(side, point):
    """num2 of the envelope f = P/Q as a Fraction polynomial in k, evaluated
    at point.k: the quotient rule applied twice."""
    lam, mu, sigma, k = point.lam, point.mu, point.sigma, point.k
    if side == "NEG":
        c_val, e_val = 1 - (1 - lam - mu) ** 2, (1 + sigma) ** 2
    else:
        c_val, e_val = 1 - (lam - mu) ** 2, (1 - sigma) ** 2

    def mul(p, q):
        out = [Fr(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def sub(p, q):
        n = max(len(p), len(q))
        p, q = p + [Fr(0)] * (n - len(p)), q + [Fr(0)] * (n - len(q))
        return [a - b for a, b in zip(p, q)]

    def deriv(p):
        return [i * a for i, a in enumerate(p)][1:]

    p_poly = mul([lam * lam, Fr(1)], [c_val + mu * mu, sigma * sigma - e_val])
    q_poly = [Fr(0), c_val, -e_val]
    num1 = sub(mul(deriv(p_poly), q_poly), mul(p_poly, deriv(q_poly)))
    num2 = sub(mul(deriv(num1), q_poly), mul([Fr(2)], mul(num1, deriv(q_poly))))
    return sum(a * k**i for i, a in enumerate(num2))


def reference_scan(case_id, grid_step):
    lo, hi = sigma_interval(case_id)
    sigmas = grid_points(lo, hi, grid_step)
    lm_values = grid_points(Fr(0), HALF, grid_step)
    checked = 0
    max_value = argmax = None
    equalities, violations = [], []
    for lam in lm_values:
        for mu in lm_values:
            if not reference_region(case_id, lam, mu):
                continue
            quad = case_quadratic(case_id, lam, mu)
            for sigma in sigmas:
                value = quad.value(sigma)
                checked += 1
                if max_value is None or value > max_value:
                    max_value, argmax = value, (lam, mu, sigma)
                if value == 0:
                    equalities.append((lam, mu, sigma))
                elif value > 0:
                    violations.append((lam, mu, sigma))

    def to_point(triple):
        return CasePoint(*triple, *implied_k_l(case_id, *triple))

    return dict(
        case_id=case_id,
        grid_step=grid_step,
        points_checked=checked,
        max_value=max_value,
        argmax=to_point(argmax),
        equality_points=tuple(map(to_point, equalities)),
        violations=tuple(map(to_point, violations)),
        argmax_roots_float=case_quadratic(case_id, *argmax[:2]).roots_float(),
    )


def reference_convexity(case_id, per_axis, compare_displays=200):
    """The certificate with every sample kept."""
    side = "NEG" if case_id.startswith("NEG") else "POS"
    lo, hi = sigma_interval(case_id)
    lam_grid = [Fr(i, 2 * (per_axis - 1)) for i in range(per_axis)]
    sig_grid = [lo + (hi - lo) * Fr(i, per_axis - 1) for i in range(per_axis)]
    checked = 0
    min_num = min_sd = worst = None
    min_float = math.inf
    matches = {name: True for name, _fn in DISPLAYS[side]}
    kept = []
    for lam in lam_grid:
        for mu in lam_grid:
            if not reference_region(case_id, lam, mu):
                continue
            for sigma in sig_grid:
                if side == "NEG":
                    c_val, e_val = 1 - (1 - lam - mu) ** 2, (1 + sigma) ** 2
                else:
                    c_val, e_val = 1 - (lam - mu) ** 2, (1 - sigma) ** 2
                k_top = c_val / e_val
                h = k_top / (4 * (per_axis + 1))
                for t in range(1, per_axis + 1):
                    k = k_top * Fr(t, per_axis + 1)
                    point = CasePoint(lam, mu, sigma, k, c_val - k * e_val)
                    num = convexity_numerator(side, point)
                    sd = envelope_second_difference(side, point, h)
                    sd_half = envelope_second_difference(side, point, h / 2)
                    fcheck = envelope_second_difference_float(side, point, float(h))
                    checked += 1
                    kept.append(ConvexitySample(point, num, sd, sd_half, fcheck))
                    if checked <= compare_displays:
                        for name, fn in DISPLAYS[side]:
                            if matches[name] and fn(lam, mu, sigma, k) != num:
                                matches[name] = False
                    if min_num is None or num < min_num:
                        min_num = num
                    if min_sd is None or min(sd, sd_half) < min_sd:
                        min_sd = min(sd, sd_half)
                        worst = kept[-1]
                    min_float = min(min_float, fcheck)
    return ConvexityCertificate(
        case_id=case_id,
        side=side,
        samples_checked=checked,
        min_numerator=min_num,
        min_second_difference=min_sd,
        min_float_check=min_float,
        display_matches=matches,
        worst_samples=(worst,),
        samples=tuple(kept),
    )


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("denominator", [50, 60])
def test_scan_case_matches_fraction_scan(case_id, denominator):
    # at 1/50 the +-1/3 sigma endpoint is off the grid, at 1/60 it is on it
    step = Fr(1, denominator)
    assert (Fr(1, 3) / step).denominator == (1 if denominator == 60 else 3)
    report = scan_case(case_id, step)
    expected = reference_scan(case_id, step)
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    fields.pop("wall_time")
    assert fields == expected
    assert repr(report.argmax_roots_float) == repr(expected["argmax_roots_float"])


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("per_axis", [3, 4, 5])
def test_convexity_scan_matches_fraction_scan(case_id, per_axis):
    expected = reference_convexity(case_id, per_axis)
    kept = convexity_scan(case_id, per_axis, keep_samples=True)
    assert kept == expected
    summary = convexity_scan(case_id, per_axis)
    assert summary == dataclasses.replace(expected, samples=())
    for cert in (kept, summary):
        assert float_bits(cert.min_float_check) == float_bits(expected.min_float_check)
    for got, want in zip(kept.samples, expected.samples):
        assert float_bits(got.float_check) == float_bits(want.float_check)


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_scaled_coefficients_match_displays(case_id):
    q = 100
    scale = 12 * q**4
    inside = 0
    for i in range(q // 2 + 1):
        for j in range(q // 2 + 1):
            lam, mu = Fr(i, q), Fr(j, q)
            if not reference_region(case_id, lam, mu):
                continue
            quad = case_quadratic(case_id, lam, mu)
            expected = (quad.a * scale, quad.b * scale, quad.c * scale)
            assert scaled_case_coefficients(case_id, i, j, q) == expected
            inside += 1
    assert inside > 0


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_region_matches_fraction_form(case_id):
    values = [Fr(i, 100) for i in range(-2, 53)] + [Fr(1, 3), Fr(2, 7), Fr(13, 27)]
    for lam in values:
        for mu in values:
            expected = reference_region(case_id, lam, mu)
            assert case_region_contains(case_id, lam, mu) == expected
            if case_id == "NEG_KMIN" and 0 <= lam <= HALF and 0 <= mu <= HALF:
                assert kmin_region_contains(lam, mu) == expected


def test_convexity_numerator_matches_fraction_polynomial():
    values = [Fr(0), Fr(1, 7), Fr(1, 4), Fr(3, 10), HALF]
    sigmas = [Fr(-1, 2), Fr(-2, 5), Fr(-1, 3), Fr(0), Fr(1, 3), Fr(5, 12), HALF]
    checked = 0
    for side in ("NEG", "POS"):
        for lam in values:
            for mu in values:
                for sigma in sigmas:
                    if side == "NEG":
                        c_val, e_val = 1 - (1 - lam - mu) ** 2, (1 + sigma) ** 2
                    else:
                        c_val, e_val = 1 - (lam - mu) ** 2, (1 - sigma) ** 2
                    if c_val <= 0:
                        continue
                    for frac in (Fr(1, 9), Fr(1, 2), Fr(7, 8)):
                        k = c_val / e_val * frac
                        point = CasePoint(lam, mu, sigma, k, c_val - k * e_val)
                        assert convexity_numerator(side, point) == reference_numerator(
                            side, point
                        )
                        checked += 1
    assert checked > 1000


def test_scan_tie_rule_keeps_the_first_point(monkeypatch):
    # a constant quadratic ties every point: the argmax is the first point
    # in (lambda, mu, sigma) order, and nothing is an equality or violation
    def constant(case_id, i, j, q):
        return 0, 0, -1

    monkeypatch.setattr(proofcheck, "scaled_case_coefficients", constant)
    step = Fr(1, 50)
    for case_id in ALL_CASES:
        report = scan_case(case_id, step)
        lm_values = grid_points(Fr(0), HALF, step)
        first = next(
            (lam, mu)
            for lam in lm_values
            for mu in lm_values
            if reference_region(case_id, lam, mu)
        )
        sigma = grid_points(*sigma_interval(case_id), step)[0]
        peak = report.argmax
        assert (peak.lam, peak.mu, peak.sigma) == (*first, sigma)
        assert report.max_value < 0
        assert not report.equality_points and not report.violations


def test_convexity_tie_rule_keeps_the_first_sample(monkeypatch):
    # P = 0 makes the envelope vanish: every second difference ties at 0 and
    # the worst sample is the first one of the scan
    real = proofcheck._envelope_polys

    def flat(*args):
        _p, q_poly, num2, f_scale, num_scale = real(*args)
        return [0, 0, 0], q_poly, num2, f_scale, num_scale

    monkeypatch.setattr(proofcheck, "_envelope_polys", flat)
    for case_id in ALL_CASES:
        cert = convexity_scan(case_id, 4, keep_samples=True)
        assert cert.min_second_difference == 0
        assert cert.worst_samples == (cert.samples[0],)


@pytest.mark.parametrize(
    "poison", [lambda c: -c, lambda c: 0], ids=["negative", "zero"]
)
def test_convexity_scan_rejects_a_nonpositive_denominator(monkeypatch, poison):
    # Q(k) = k N(k) must be positive before it divides anything
    real = proofcheck._envelope_polys

    def poisoned(*args):
        p_poly, q_poly, num2, f_scale, num_scale = real(*args)
        return p_poly, [poison(c) for c in q_poly], num2, f_scale, num_scale

    monkeypatch.setattr(proofcheck, "_envelope_polys", poisoned)
    with pytest.raises(ValueError, match="outside case region"):
        convexity_scan("POS_KMAX", 3)
