"""Differential tests: the integer proof scans against plain Fraction loops.

`reference_scan` and `reference_convexity` are the straightforward loops,
built only from public functions: the coefficients of `case_quadratic`,
evaluated exactly at every grid point of each row, and `convexity_numerator`
with `envelope_second_difference` and `envelope_second_difference_float` at
every sample.  The library scans bound each row by its exact maximum and
share one integer weight table per convexity scan instead, so every field of
both reports must agree exactly, apart from `wall_time`.  `case_quadratic`
reads the same integer coefficients the scan evaluates, so `reference_scan`
checks the scan itself (row maxima, region, ties), and
`test_case_coefficients_satisfy_the_defining_identity` checks the
coefficients against the defect formula.  `rational_convexity` is the
previous library `convexity_scan`, which built each triple's polynomials from
`Fraction`s, kept as a second oracle.
"""

import dataclasses
import math
import random
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
    defect_from_parameters,
    envelope_second_difference,
    envelope_second_difference_float,
    grid_points,
    implied_k_l,
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
    den = math.lcm(*(sigma.denominator for sigma in sigmas))
    nums = [int(sigma * den) for sigma in sigmas]
    checked = 0
    max_value = argmax = None
    equalities, violations = [], []
    for lam in lm_values:
        for mu in lm_values:
            if not reference_region(case_id, lam, mu):
                continue
            quad = case_quadratic(case_id, lam, mu)
            # every point of the row, exactly: with r (a, b, c) integers,
            # Q(n/den) = (r a n^2 + r b den n + r c den^2) / (r den^2)
            r = math.lcm(quad.a.denominator, quad.b.denominator, quad.c.denominator)
            a, b, c = int(quad.a * r), int(quad.b * r * den), int(quad.c * r * den * den)
            values = [(a * n + b) * n + c for n in nums]
            checked += len(values)
            top = max(values)
            if max_value is None or Fr(top, r * den * den) > max_value:
                max_value = Fr(top, r * den * den)
                argmax = (lam, mu, sigmas[values.index(top)])
            for sigma, value in zip(sigmas, values):
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
@pytest.mark.parametrize("denominator", [50, 60, 100, 202])
def test_scan_case_matches_fraction_scan(case_id, denominator):
    # the +-1/3 sigma endpoint is on the grid at 1/60 only
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
@pytest.mark.parametrize("q", [100, 21, 35])
def test_case_coefficients_satisfy_the_defining_identity(case_id, q):
    # Q(sigma) = (delta - 25/12) w with delta the defect at the case's (k, l)
    # and w = (1 - lambda^2) l (k-minimal) or C^2 (1 - sigma^2) (k-maximal);
    # three sigma per point pin down all three coefficients of the quadratic
    side = case_id[:3]
    lo, hi = sigma_interval(case_id)
    scale = 12 * q**4
    inside = 0
    for i in range(q // 2 + 1):
        for j in range(q // 2 + 1):
            lam, mu = Fr(i, q), Fr(j, q)
            if not reference_region(case_id, lam, mu):
                continue
            a, b, c = scaled_case_coefficients(case_id, i, j, q)
            for sigma in (lo, (lo + hi) / 2, hi):
                k, l = implied_k_l(case_id, lam, mu, sigma)
                delta = defect_from_parameters(CasePoint(lam, mu, sigma, k, l))
                if case_id.endswith("KMIN"):
                    weight = (1 - lam * lam) * l
                else:
                    big_c, _e = proofcheck._envelope_pieces(side, lam, mu, sigma)
                    weight = big_c * big_c * (1 - sigma * sigma)
                assert weight > 0
                assert (a * sigma + b) * sigma + c == scale * (delta - Fr(25, 12)) * weight
            inside += 1
    assert inside > 0


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_region_matches_fraction_form(case_id):
    values = [Fr(i, 100) for i in range(-2, 53)] + [Fr(1, 3), Fr(2, 7), Fr(13, 27)]
    for lam in values:
        for mu in values:
            expected = reference_region(case_id, lam, mu)
            assert case_region_contains(case_id, lam, mu) == expected


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
        _p, num_poly, f_scale, num_scale, k_top = real(*args)
        return [0, 0, 0], num_poly, f_scale, num_scale, k_top

    monkeypatch.setattr(proofcheck, "_envelope_polys", flat)
    for case_id in ALL_CASES:
        cert = convexity_scan(case_id, 4, keep_samples=True)
        assert cert.min_second_difference == 0
        assert cert.worst_samples == (cert.samples[0],)


@pytest.mark.parametrize(
    "poison", [lambda c: -c, lambda c: 0], ids=["negative", "zero"]
)
def test_convexity_scan_rejects_a_nonpositive_denominator(monkeypatch, poison):
    # Q(k) = k N(k) must be positive before it divides anything; q(m), its
    # form shared by every triple, is handed to the weight table
    real = proofcheck._difference_weights

    def poisoned(q_poly, m_values):
        return real([poison(c) for c in q_poly], m_values)

    monkeypatch.setattr(proofcheck, "_difference_weights", poisoned)
    with pytest.raises(ValueError, match="outside case region"):
        convexity_scan("POS_KMAX", 3)


# --- row maxima ---------------------------------------------------------------


def brute_peak(a, b, c, s_values):
    values = [(a * s + b) * s + c for s in s_values]
    top = max(values)
    return top, values.index(top)


def sigma_rows(denominator):
    """The scaled sigma grids `scan_case` walks at step 1/denominator."""
    den = math.lcm(denominator, 3)
    step = Fr(1, denominator)
    return [
        [int(sigma * den) for sigma in grid_points(lo, hi, step)]
        for lo, hi in (sigma_interval("NEG_KMIN"), sigma_interval("POS_KMIN"))
    ]


def test_row_peak_matches_brute_force():
    rng = random.Random(20)
    # at 1/202 the grid is spaced 3 in units of 1/606 and +-1/3 = +-202/606
    # is off it; at 1/60 and 1/50 the endpoints are on and off the grid
    rows = sigma_rows(202) + sigma_rows(60) + sigma_rows(50)
    rows += [[5], [-3, 4], list(range(-7, 8)), sorted(rng.sample(range(-500, 500), 40))]
    assert rows[0][:3] == [-303, -300, -297] and rows[0][-2:] == [-204, -202]
    cases = 0
    for s_values in rows:
        lo, hi = s_values[0], s_values[-1]
        quadratics = [(0, 0, rng.randint(-9, 9)), (0, rng.randint(1, 9), 0)]
        quadratics.append((0, -rng.randint(1, 9), rng.randint(-99, 99)))
        for _ in range(30):
            a = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            quadratics.append((a, rng.randint(-10**9, 10**9), rng.randint(-10**12, 10**12)))
        for a in (-rng.randint(1, 99), rng.randint(1, 99)):
            for vertex in (rng.choice(s_values), lo - 7, hi + 7, (lo + hi) // 2):
                # a (s - vertex)^2 + c: the vertex on a grid point or outside
                quadratics.append((a, -2 * a * vertex, a * vertex * vertex + 5))
            for left, right in zip(s_values, s_values[1:]):
                # vertex halfway between neighbours: the two tie
                quadratics.append((a, -a * (left + right), a * left * right))
            for quarter in range(4 * lo - 5, 4 * hi + 6):
                # a (4 s - quarter)^2 - 1: the vertex a quarter step apart
                quadratics.append((16 * a, -8 * a * quarter, a * quarter * quarter - 1))
        for a, b, c in quadratics:
            assert proofcheck._row_peak(a, b, c, s_values) == brute_peak(a, b, c, s_values)
            cases += 1
    assert cases > 5000


def test_row_peak_ties_pick_the_first_index():
    s_values = [-6, -3, 0, 3, 6]
    # -(s + 3) s is 0 at -3 and 0 and peaks between them
    assert proofcheck._row_peak(-1, -3, 0, s_values) == (0, 1)
    # s^2 takes 36 at both ends
    assert proofcheck._row_peak(1, 0, 0, s_values) == (36, 0)
    assert proofcheck._row_peak(0, 0, -4, s_values) == (-4, 0)


# --- the previous rational convexity scan, as an oracle -------------------------


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_sub(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)]


def _poly_deriv(p):
    return [i * a for i, a in enumerate(p)][1:] or [0]


def _integer_poly(coeffs):
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _rational_envelope_polys(lam, mu, sigma, c_val, e_val, unit):
    """(p, q, num2, f_scale, num_scale) with k = m unit: f(k) = f_scale p/q(m)
    and num2(k) = num_scale num2(m), built from Fraction coefficients."""
    first, d1 = _integer_poly([lam * lam, unit])
    second, d2 = _integer_poly([c_val + mu * mu, unit * (sigma * sigma - e_val)])
    q_poly, d3 = _integer_poly([Fr(0), unit * c_val, -unit * unit * e_val])
    p_poly = _poly_mul(first, second)
    q1 = _poly_deriv(q_poly)
    num1 = _poly_sub(_poly_mul(_poly_deriv(p_poly), q_poly), _poly_mul(p_poly, q1))
    num2 = _poly_sub(
        _poly_mul(_poly_deriv(num1), q_poly), _poly_mul([2], _poly_mul(num1, q1))
    )
    return (
        p_poly,
        q_poly,
        num2,
        Fr(d3, d1 * d2),
        Fr(1) / (unit * unit * d1 * d2 * d3 * d3),
    )


def _second_difference_scaled(p_poly, q_poly, m, step):
    (pa, pb, pc), (qa, qb, qc) = (
        [(c2 * x + c1) * x + c0 for x in (m - step, m, m + step)]
        for c0, c1, c2 in (p_poly, q_poly)
    )
    assert min(qa, qb, qc) > 0
    return pa * qb * qc - 2 * pb * qa * qc + pc * qa * qb, qa * qb * qc


def _envelope_value_float(side, lam, mu, sigma, k):
    if side == "NEG":
        c_val = 1.0 - (1.0 - lam - mu) ** 2
        e_val = (1.0 + sigma) ** 2
    else:
        c_val = 1.0 - (lam - mu) ** 2
        e_val = (1.0 - sigma) ** 2
    n_val = c_val - k * e_val
    return (1.0 + lam * lam / k) * (1.0 + (mu * mu + k * sigma * sigma) / n_val)


def _second_difference_float(side, lam, mu, sigma, k, step):
    return (
        _envelope_value_float(side, lam, mu, sigma, k - step)
        - 2.0 * _envelope_value_float(side, lam, mu, sigma, k)
        + _envelope_value_float(side, lam, mu, sigma, k + step)
    )


def _ratio_less(x, y):
    return x[0] * y[1] < y[0] * x[1]


def rational_convexity(case_id, per_axis):
    """The certificate with every sample kept, as the library computed it
    before the weight table: one Fraction setup per (lambda, mu, sigma)."""
    side = "NEG" if case_id.startswith("NEG") else "POS"
    lo, hi = sigma_interval(case_id)
    lam_grid = [Fr(i, 2 * (per_axis - 1)) for i in range(per_axis)]
    sig_grid = [lo + (hi - lo) * Fr(i, per_axis - 1) for i in range(per_axis)]
    parts = per_axis + 1
    checked = 0
    min_num = min_sd = worst = None
    min_float = math.inf
    matches = {name: True for name, _fn in DISPLAYS[side]}
    kept = []

    def exact(t, num, sd, sd_half, fcheck):
        k = k_top * Fr(t, parts)
        return ConvexitySample(
            CasePoint(lam, mu, sigma, k, c_val - k * e_val),
            num_scale * num,
            f_scale * Fr(*sd),
            f_scale * Fr(*sd_half),
            fcheck,
        )

    triples = [
        (lam, mu, sigma)
        for lam in lam_grid
        for mu in lam_grid
        if case_region_contains(case_id, lam, mu)
        for sigma in sig_grid
    ]
    for lam, mu, sigma in triples:
        if side == "NEG":
            c_val, e_val = 1 - (1 - lam - mu) ** 2, (1 + sigma) ** 2
        else:
            c_val, e_val = 1 - (lam - mu) ** 2, (1 - sigma) ** 2
        k_top = c_val / e_val
        p_poly, q_poly, num2, f_scale, num_scale = _rational_envelope_polys(
            lam, mu, sigma, c_val, e_val, k_top / (8 * parts)
        )
        floats = float(lam), float(mu), float(sigma)
        h_float = float(k_top / (4 * parts))
        row = []
        for t in range(1, parts):
            m = 8 * t
            num = 0
            for coeff in reversed(num2):
                num = num * m + coeff
            k_float = k_top.numerator * t / (k_top.denominator * parts)
            fcheck = _second_difference_float(side, *floats, k_float, h_float)
            sd = _second_difference_scaled(p_poly, q_poly, m, 2)
            sd_half = _second_difference_scaled(p_poly, q_poly, m, 1)
            row.append((t, num, sd, sd_half, fcheck))
        best = best_low = None
        for record in row:
            checked += 1
            sample = exact(*record)
            kept.append(sample)
            if checked <= 200:
                for name, fn in DISPLAYS[side]:
                    k = sample.point.k
                    if matches[name] and fn(lam, mu, sigma, k) != sample.numerator:
                        matches[name] = False
            _t, _num, sd, sd_half, fcheck = record
            low = sd_half if _ratio_less(sd_half, sd) else sd
            if best is None or _ratio_less(low, best_low):
                best, best_low = record, low
            min_float = min(min_float, fcheck)
        row_min_num = num_scale * min(record[1] for record in row)
        if min_num is None or row_min_num < min_num:
            min_num = row_min_num
        row_min_sd = f_scale * Fr(*best_low)
        if min_sd is None or row_min_sd < min_sd:
            min_sd = row_min_sd
            worst = exact(*best)
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


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("per_axis", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_convexity_scan_matches_rational_scan(case_id, per_axis):
    expected = rational_convexity(case_id, per_axis)
    kept = convexity_scan(case_id, per_axis, keep_samples=True)
    summary = convexity_scan(case_id, per_axis)
    assert kept == expected
    assert summary == dataclasses.replace(expected, samples=())
    for cert in (kept, summary):
        assert repr(cert.min_float_check) == repr(expected.min_float_check)
    assert len(kept.samples) == len(expected.samples) == expected.samples_checked
    for got, want in zip(kept.samples, expected.samples):
        assert repr(got.float_check) == repr(want.float_check)


def corrupted_pos_sum(lam, mu, sigma, k):
    """`numerator_display_pos_sum` with the factor 2 of its last term made 3."""
    v = 1 - (lam - mu) ** 2 - k * (1 - sigma) ** 2
    m2 = mu * mu + k * sigma * sigma
    e = (1 - sigma) ** 2
    return (
        2 * lam**2 * m2 * v**2
        + 2 * lam**2 * v**3
        - 2 * lam**2 * k * e * m2 * v
        - 2 * lam**2 * k * sigma**2 * v**2
        + 2 * lam**2 * k**2 * e**2 * m2
        + 2 * k**3 * e**2 * m2
        + 2 * lam**2 * k**2 * sigma**2 * e * v
        + 3 * k**3 * sigma**2 * e * v
    )


@pytest.mark.parametrize("case_id", ["POS_KMIN", "POS_KMAX"])
def test_a_corrupted_display_fails_only_its_match(monkeypatch, case_id):
    # the last term is nonzero at every sample, so the first comparison fails
    real = convexity_scan(case_id, 10)
    assert real.display_matches["pos_sum"] is True
    table = dict(proofcheck._DISPLAYS)
    table["POS"] = tuple(
        (name, corrupted_pos_sum if name == "pos_sum" else fn)
        for name, fn in table["POS"]
    )
    monkeypatch.setattr(proofcheck, "_DISPLAYS", table)
    control = convexity_scan(case_id, 10)
    assert control.display_matches == {**real.display_matches, "pos_sum": False}
    assert dataclasses.replace(control, display_matches=real.display_matches) == real
    assert repr(control.min_float_check) == repr(real.min_float_check)


@pytest.mark.parametrize("per_axis", [1, 0, -2])
def test_convexity_scan_needs_two_points_per_axis(per_axis):
    with pytest.raises(ValueError, match="per_axis must be at least 2"):
        convexity_scan("NEG_KMIN", per_axis)
