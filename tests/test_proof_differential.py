"""Differential tests: the integer proof scans against plain Fraction loops.

`reference_scan` and `reference_convexity` are the straightforward loops,
built only from public functions: the coefficients of `case_quadratic`,
evaluated exactly at every grid point of each row, and `convexity_numerator`
with `envelope_second_difference` and `envelope_second_difference_float` at
every sample.  The library scans bound each row by its exact maximum and
share one integer table per convexity pass instead, so every field of both
reports must agree exactly, apart from `wall_time`.  The convexity
certificate holds only minima, so `test_sample_tables_are_exact_per_point`
checks every row of that table against the exact value it stands for.  `case_quadratic`
reads the same integer coefficients the scan evaluates, so `reference_scan`
checks the scan itself (row maxima, region, ties).  `conftest.integer_scan`
is the integer scan with one direct `scaled_case_coefficients` call per row,
the oracle for the finite-difference stepping along mu.
`test_case_coefficients_satisfy_the_defining_identity` checks the
coefficients against the defect formula as polynomial identities.  The
display findings are polynomial identities too: each verbatim numerator
display minus the recomputed numerator, on `Poly` variables.
`rational_convexity` is an earlier library `convexity_scan`, which built
each triple's polynomials from `Fraction`s, kept as a second oracle.
`_convexity_pass` serves several cases in one pass per side; each of its
certificates is compared with the one-case `convexity_scan` and with
`rational_convexity`.
"""

import dataclasses
import math
import random
import struct
from fractions import Fraction as Fr

import pytest

from hkzdefect import proofcheck
from hkzdefect.displays import Poly
from hkzdefect.proofcheck import (
    ALL_CASES,
    HALF,
    QUARTER,
    CasePoint,
    ConvexityCertificate,
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
    run_full_verification,
    scan_case,
    scaled_case_coefficients,
    sigma_interval,
)

from conftest import integer_scan, poly_value

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
    """The certificate, from one exact evaluation per sample."""
    side = "NEG" if case_id.startswith("NEG") else "POS"
    lo, hi = sigma_interval(case_id)
    lam_grid = [Fr(i, 2 * (per_axis - 1)) for i in range(per_axis)]
    sig_grid = [lo + (hi - lo) * Fr(i, per_axis - 1) for i in range(per_axis)]
    checked = 0
    min_num = min_sd = None
    min_float = math.inf
    matches = {name: True for name, _fn in DISPLAYS[side]}
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
                    if checked <= compare_displays:
                        for name, fn in DISPLAYS[side]:
                            if matches[name] and fn(lam, mu, sigma, k) != num:
                                matches[name] = False
                    if min_num is None or num < min_num:
                        min_num = num
                    if min_sd is None or min(sd, sd_half) < min_sd:
                        min_sd = min(sd, sd_half)
                    min_float = min(min_float, fcheck)
    return ConvexityCertificate(
        case_id=case_id,
        side=side,
        samples_checked=checked,
        min_numerator=min_num,
        min_second_difference=min_sd,
        min_float_check=min_float,
        display_matches=matches,
    )


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def scan_fields(report):
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    fields.pop("wall_time")
    return fields


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("denominator", [2, 4, 6, 50, 60, 100, 202])
def test_scan_case_matches_fraction_scan(case_id, denominator):
    # the +-1/3 sigma endpoint is on the grid at 1/6 and 1/60 only
    step = Fr(1, denominator)
    assert (Fr(1, 3) / step).denominator == (1 if denominator in (6, 60) else 3)
    report = scan_case(case_id, step)
    expected = reference_scan(case_id, step)
    assert scan_fields(report) == expected
    assert repr(report.argmax_roots_float) == repr(expected["argmax_roots_float"])


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("q", [2, 4, 6, 50, 60, 100, 200, 202])
def test_scan_case_matches_integer_scan(case_id, q):
    # at q = 2 and 4 a row (j = 0..q/2) is shorter than the five seeds
    step = Fr(1, q)
    report = scan_case(case_id, step)
    expected = integer_scan(case_id, step)
    assert scan_fields(report) == expected
    assert repr(report.argmax_roots_float) == repr(expected["argmax_roots_float"])


def test_scan_case_steps_any_quartic_in_mu_exactly(monkeypatch):
    # c + q^4 j^4 shifts Q by (j/q)^4 / 12, still of degree 4 in j: the
    # stepped rows equal the direct ones, violations included
    real = proofcheck.scaled_case_coefficients

    def quartic(case_id, i, j, q):
        a, b, c = real(case_id, i, j, q)
        return a, b, c + q**4 * j**4

    monkeypatch.setattr(proofcheck, "scaled_case_coefficients", quartic)
    step = Fr(1, 50)
    for case_id in ALL_CASES:
        report = scan_case(case_id, step)
        assert report.violations
        assert scan_fields(report) == integer_scan(case_id, step)


@pytest.mark.parametrize("coeff", range(3), ids=["a", "b", "c"])
def test_scan_case_stepping_check_catches_degree_five(monkeypatch, coeff):
    # negative control: j^5 in one coefficient is not reproduced by stepping
    # the differences of j = 0..4, so the row-end check at j = q/2 raises
    # instead of a report being returned
    real = proofcheck.scaled_case_coefficients

    def quintic(case_id, i, j, q):
        coeffs = list(real(case_id, i, j, q))
        coeffs[coeff] += j**5
        return tuple(coeffs)

    monkeypatch.setattr(proofcheck, "scaled_case_coefficients", quintic)
    for case_id in ALL_CASES:
        with pytest.raises(RuntimeError, match="differ from scaled_case_coefficients"):
            scan_case(case_id, Fr(1, 50))


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("per_axis", [3, 4, 5])
def test_convexity_scan_matches_fraction_scan(case_id, per_axis):
    expected = reference_convexity(case_id, per_axis)
    cert = convexity_scan(case_id, per_axis)
    assert cert == expected
    assert float_bits(cert.min_float_check) == float_bits(expected.min_float_check)


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("q", [1, 100, 21, 35])
def test_case_coefficients_satisfy_the_defining_identity(case_id, q):
    # 12 Q(sigma) = 12 (delta - 25/12) w, delta the defect at the case's (k, l)
    # and w = (1 - lambda^2) l = k l (k-minimal) or C^2 (1 - sigma^2)
    # (k-maximal), as polynomials in (i, j, sigma) at lambda = i/q, mu = j/q.
    # Both sides are scaled by q^4; at q = 1 the right side reads
    #   12 (k + lambda^2)(l + mu^2 + k sigma^2) - 25 k l,
    #     k = 1 - lambda^2 and l = C - k E (k-minimal),
    #   12 (C + lambda^2 T)(C (1 - sigma^2) + mu^2 T + C sigma^2)
    #     - 25 C^2 (1 - sigma^2), T = 2 (1 +- sigma) (k-maximal).
    i, j, sigma = Poly.variables(3)
    a, b, c = scaled_case_coefficients(case_id, i, j, q)
    sign = -1 if case_id.startswith("NEG") else 1
    # q^2 C, with E = (1 - sign sigma)^2 and T = 2 (1 - sign sigma)
    big_c = q * q - (q - i - j) ** 2 if sign < 0 else q * q - (i - j) ** 2
    big_e, big_t = (1 - sign * sigma) ** 2, 2 * (1 - sign * sigma)
    if case_id.endswith("KMIN"):
        k = q * q - i * i  # q^2 k
        l = big_c - k * big_e  # q^2 l
        expected = 12 * (k + i * i) * (l + j * j + k * sigma**2) - 25 * k * l
    else:
        expected = 12 * (big_c + i * i * big_t) * (
            big_c * (1 - sigma**2) + j * j * big_t + big_c * sigma**2
        ) - 25 * big_c**2 * (1 - sigma**2)
    assert a * sigma**2 + b * sigma + c == expected


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_case_coefficients_give_the_defect_at_grid_points(case_id):
    # the identity at the in-region points of the 1/21 grid, through
    # implied_k_l and defect_from_parameters; three sigma per point pin down
    # all three coefficients of the quadratic
    q = 21
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
    # P = 0 makes the envelope vanish: every numerator and second difference
    # ties at 0, and a tie reports that value whichever sample attains it
    real = proofcheck._envelope_polys

    def flat(*args):
        _p, f_scale, num_scale, k_top = real(*args)
        return (0, 0, 0), f_scale, num_scale, k_top

    monkeypatch.setattr(proofcheck, "_envelope_polys", flat)
    for case_id in ALL_CASES:
        cert = convexity_scan(case_id, 4)
        assert cert.min_second_difference == cert.min_numerator == 0


@pytest.mark.parametrize(
    "poison", [lambda c: -c, lambda c: 0], ids=["negative", "zero"]
)
def test_convexity_scan_rejects_a_nonpositive_denominator(monkeypatch, poison):
    # Q(k) = k N(k) must be positive before it divides anything; q(m), its
    # form shared by every triple, is handed to the sample tables
    real = proofcheck._sample_tables

    def poisoned(q_poly, big_m, m_values):
        return real([poison(c) for c in q_poly], big_m, m_values)

    monkeypatch.setattr(proofcheck, "_sample_tables", poisoned)
    with pytest.raises(ValueError, match="outside case region"):
        convexity_scan("POS_KMAX", 3)


# --- the sample tables, row by row ------------------------------------------

# quadratics p = (p0, p1, p2), each coefficient reached alone; -1 and the last
# one make the second differences of p/q negative
TABLE_POLYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -7, 2), (-5, 11, -13), (-1, 0, 0)]


def dot(row, p):
    return sum(w * c for w, c in zip(row, p, strict=True))


def exact_table_values(big_m, m_values):
    """Per polynomial of TABLE_POLYS: M num(m) = 2 [p(0) (M - m)^3 + p(M) m^3]
    for each m, and the exact second difference of p/q with q(x) = x (M - x),
    for each m and then h = 2, 1."""
    nums, sds = [], []
    for p0, p1, p2 in TABLE_POLYS:
        def value(x):
            return (p2 * x + p1) * x + p0

        def ratio(x):
            return Fr(value(x), x * (big_m - x))

        nums.append([2 * (value(0) * (big_m - m) ** 3 + value(big_m) * m**3) for m in m_values])
        sds.append([
            ratio(m - h) - 2 * ratio(m) + ratio(m + h) for m in m_values for h in (2, 1)
        ])
    return nums, sds


def table_errors(num_rows, sd_rows, den, big_m, expected):
    """(kind, row index) of every row that misses its exact value for some
    polynomial of TABLE_POLYS."""
    nums, sds = expected
    errors = set()
    for p, num_values, sd_values in zip(TABLE_POLYS, nums, sds, strict=True):
        for t, (row, want) in enumerate(zip(num_rows, num_values, strict=True)):
            if big_m * dot(row, p) != want:
                errors.add(("num", t))
        for t, (row, want) in enumerate(zip(sd_rows, sd_values, strict=True)):
            if Fr(dot(row, p), den) != want:
                errors.add(("sd", t))
    return sorted(errors)


@pytest.mark.parametrize("per_axis", range(2, 11))
def test_sample_tables_are_exact_per_point(per_axis):
    # each row of the pass's table stands for one exact value at one sample;
    # the certificate keeps only their minima, so every row is checked here
    big_m = 8 * (per_axis + 1)
    m_values = range(8, big_m, 8)
    num_rows, sd_rows, den = proofcheck._sample_tables((0, big_m, -1), big_m, m_values)
    assert (len(num_rows), len(sd_rows)) == (per_axis, 2 * per_axis)
    expected = exact_table_values(big_m, m_values)
    assert table_errors(num_rows, sd_rows, den, big_m, expected) == []
    assert min(min(values) for values in expected[1]) < 0 < max(map(max, expected[1]))
    # control: adding 1 to any one weight fails that row, and only that row
    for kind, rows in (("num", num_rows), ("sd", sd_rows)):
        for index, row in enumerate(rows):
            for d in range(3):
                bumped = list(rows)
                bumped[index] = tuple(w + (e == d) for e, w in enumerate(row))
                tables = (bumped, sd_rows) if kind == "num" else (num_rows, bumped)
                errors = table_errors(*tables, den, big_m, expected)
                assert errors == [(kind, index)]


# --- the shared convexity pass ------------------------------------------------

SIDE_PAIRS = [("NEG_KMIN", "NEG_KMAX"), ("POS_KMIN", "POS_KMAX")]


def assert_same_certificate(got, want):
    assert got == want
    assert repr(got.min_float_check) == repr(want.min_float_check)


@pytest.mark.parametrize("pair", SIDE_PAIRS, ids=["NEG", "POS"])
@pytest.mark.parametrize("per_axis", [2, 3, 4, 5, 10])
@pytest.mark.parametrize("oracle", ["summary", "kept"])
def test_shared_convexity_pass_matches_one_case_scans(pair, per_axis, oracle):
    # one pass over the k-maximal region serves the k-minimal case inside it;
    # each certificate must be the one-case one, field by field: the library
    # scan's ("summary"), or that of `rational_convexity`, which keeps every
    # sample's exact values as Fractions and compares them one by one ("kept")
    one_case = convexity_scan if oracle == "summary" else rational_convexity
    alone = [one_case(case_id, per_axis) for case_id in pair]
    for order in (1, -1):
        shared = proofcheck._convexity_pass(pair[::order], per_axis)
        for cert, want in zip(shared, alone[::order], strict=True):
            assert_same_certificate(cert, want)


@pytest.mark.parametrize(
    "cases",
    [
        ("POS_KMIN", "NEG_KMAX", "POS_KMAX"),
        ("POS_KMAX", "NEG_KMIN", "POS_KMIN", "NEG_KMIN"),
    ],
    ids=["mixed", "duplicate"],
)
def test_full_verification_returns_certificates_in_case_order(cases):
    result = run_full_verification(Fr(1, 50), cases)
    assert [cert.case_id for cert in result.convexity] == list(cases)
    assert [scan.case_id for scan in result.scans] == list(cases)
    for cert, case_id in zip(result.convexity, cases):
        assert_same_certificate(cert, convexity_scan(case_id))


def test_shared_pass_tie_rule_keeps_each_case_first_sample(monkeypatch):
    # as `test_convexity_tie_rule_keeps_the_first_sample`, through one pass
    # for all four cases: each case's tied minimum is 0, as its own scan's
    real = proofcheck._envelope_polys

    def flat(*args):
        _p, f_scale, num_scale, k_top = real(*args)
        return (0, 0, 0), f_scale, num_scale, k_top

    monkeypatch.setattr(proofcheck, "_envelope_polys", flat)
    certs = proofcheck._convexity_pass(ALL_CASES, 4)
    for cert, case_id in zip(certs, ALL_CASES, strict=True):
        assert cert.case_id == case_id
        assert cert.min_second_difference == cert.min_numerator == 0
        assert cert == convexity_scan(case_id, 4)


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


def rational_convexity(case_id, per_axis):
    """The certificate as the library computed it before its integer tables:
    one Fraction setup per (lambda, mu, sigma), and each sample's exact
    values compared as Fractions."""
    side = "NEG" if case_id.startswith("NEG") else "POS"
    lo, hi = sigma_interval(case_id)
    lam_grid = [Fr(i, 2 * (per_axis - 1)) for i in range(per_axis)]
    sig_grid = [lo + (hi - lo) * Fr(i, per_axis - 1) for i in range(per_axis)]
    parts = per_axis + 1
    checked = 0
    min_num = min_sd = None
    min_float = math.inf
    matches = {name: True for name, _fn in DISPLAYS[side]}
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
        for t, num, sd, sd_half, fcheck in row:
            checked += 1
            if checked <= 200:
                k = k_top * Fr(t, parts)
                for name, fn in DISPLAYS[side]:
                    if matches[name] and fn(lam, mu, sigma, k) != num_scale * num:
                        matches[name] = False
            low = f_scale * min(Fr(*sd), Fr(*sd_half))
            if min_sd is None or low < min_sd:
                min_sd = low
            if min_num is None or num_scale * num < min_num:
                min_num = num_scale * num
            min_float = min(min_float, fcheck)
    return ConvexityCertificate(
        case_id=case_id,
        side=side,
        samples_checked=checked,
        min_numerator=min_num,
        min_second_difference=min_sd,
        min_float_check=min_float,
        display_matches=matches,
    )


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("per_axis", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_convexity_scan_matches_rational_scan(case_id, per_axis):
    expected = rational_convexity(case_id, per_axis)
    cert = convexity_scan(case_id, per_axis)
    assert cert == expected
    assert repr(cert.min_float_check) == repr(expected.min_float_check)


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
    # the corrupted display exceeds the recomputed numerator by k^3 sigma^2 E v,
    # a nonzero polynomial, so its identity check fails
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


# --- the display findings, as polynomial identities ---------------------------


def recomputed_numerator(side):
    """(num, C, E): num = (P'Q - PQ')'Q - 2 (P'Q - PQ') Q' with
    P = (k + lambda^2)(C + mu^2 + k (sigma^2 - E)) and Q = k (C - k E), as
    `Poly`s in (lambda, mu, sigma, k)."""
    lam, mu, sigma, k = Poly.variables(4)
    if side == "NEG":
        c_val, e_val = 1 - (1 - lam - mu) ** 2, (1 + sigma) ** 2
    else:
        c_val, e_val = 1 - (lam - mu) ** 2, (1 - sigma) ** 2
    p = (k + lam**2) * (c_val + mu**2 + k * (sigma**2 - e_val))
    q = k * (c_val - k * e_val)
    num1 = p.derivative(3) * q - p * q.derivative(3)
    return num1.derivative(3) * q - 2 * num1 * q.derivative(3), c_val, e_val


def display_finding(name):
    """display - num for each verbatim display, with w = C - k E on the NEG
    side and v = C - k E on the POS side."""
    lam, mu, sigma, k = Poly.variables(4)
    _num, c_val, e_val = recomputed_numerator(name[:3].upper())
    w = v = c_val - k * e_val  # N(k), named w on the NEG side and v on the POS side
    if name == "pos_sum":
        return 0
    if name in ("neg_sum", "neg_grouped"):
        return 2 * k**3 * sigma**2 * e_val * (1 - w)
    m2 = mu**2 + k * sigma**2
    return (
        (lam - lam**2) * m2 * (c_val - 2 * k * e_val) ** 2
        + (k**3 - lam**2 * k**2) * (2 * sigma**2 * e_val - sigma**4) * v
        + lam**2 * k**2 * sigma**2 * e_val * v
    )


@pytest.mark.parametrize("name", ["neg_sum", "neg_grouped", "pos_sum", "pos_grouped"])
def test_display_differs_from_the_numerator_by_its_finding(name):
    side = name[:3].upper()
    display = dict(DISPLAYS[side])[name]
    variables = Poly.variables(4)
    num, _c, _e = recomputed_numerator(side)
    finding = display_finding(name)
    assert display(*variables) - num == finding
    # control: a display with one factor changed fails the same identity
    assert corrupted_pos_sum(*variables) - num != finding


@pytest.mark.parametrize("side", ["NEG", "POS"])
def test_recomputed_numerator_is_the_convexity_numerator(side):
    # ties the polynomial num to `convexity_numerator` in the case region
    num, _c, _e = recomputed_numerator(side)
    rng = random.Random(side)
    checked = 0
    while checked < 50:
        lam, mu = Fr(rng.randrange(51), 100), Fr(rng.randrange(51), 100)
        sigma = Fr(rng.randrange(-50, 51), 100)
        c_val, e_val = proofcheck._envelope_pieces(side, lam, mu, sigma)
        if c_val <= 0:
            continue
        k = c_val / e_val * Fr(rng.randrange(1, 100), 100)
        point = CasePoint(lam, mu, sigma, k, c_val - k * e_val)
        assert poly_value(num, point.as_tuple()[:4]) == convexity_numerator(side, point)
        checked += 1


@pytest.mark.parametrize("per_axis", [1, 0, -2])
def test_convexity_scan_needs_two_points_per_axis(per_axis):
    with pytest.raises(ValueError, match="per_axis must be at least 2"):
        convexity_scan("NEG_KMIN", per_axis)
