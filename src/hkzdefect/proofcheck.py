"""Machine re-verification of the rank-3 maximal-defect case analysis.

The worst orthogonality defect of a rank-3 HKZ-reduced basis is 25/12.  The
argument normalizes ||b_1||^2 = 1 and works in the five parameters

    mu_21 = lambda, mu_31 = mu, mu_32 = sigma,
    ||b_2(2)||^2 = k,  ||b_3(3)||^2 = l,

with lambda, mu in [0, 1/2] and sigma in [-1/2, 1/2].  After disposing of
|sigma| <= 1/3 by a monotone corner bound, the remaining analysis fixes the
sign of sigma, replaces l by its minimum, and uses convexity in k to push k to
an endpoint; each of the four (sign, endpoint) combinations turns the claim
"defect >= 25/12" into a quadratic inequality Q(sigma) >= 0 whose coefficients
are polynomials in (lambda, mu).  Each quadratic is written once, as integer
coefficients at lambda = i/q, mu = j/q scaled by 12 q^4
(`scaled_case_coefficients`); `case_quadratic` divides them back into
rationals.  This module verifies, in exact rational arithmetic, that
Q(sigma) <= 0 on every grid point of each case region, with equality only at
the documented extremal points.

Grid scanning is an exact check at grid points, not an interval-arithmetic
proof over the continuum between them; reports carry that caveat.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

# sibling functions are read from their modules at call time: this module
# loads on demand, perhaps while a caller has rebound one of them
from . import bounds, reduction
from .core import GramMatrix, GSOData, format_rat
from .displays import (
    ScaledRational,
    numerator_display_neg_grouped,
    numerator_display_neg_sum,
    numerator_display_pos_grouped,
    numerator_display_pos_sum,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)
DEFECT_MAX_3 = Fraction(25, 12)

NEG_KMIN = "NEG_KMIN"
NEG_KMAX = "NEG_KMAX"
POS_KMIN = "POS_KMIN"
POS_KMAX = "POS_KMAX"
ALL_CASES = (NEG_KMIN, NEG_KMAX, POS_KMIN, POS_KMAX)

# equality Q(sigma) = 0 is allowed only at these (lambda, mu, sigma) points
EXPECTED_EQUALITIES = {
    NEG_KMIN: (),
    NEG_KMAX: ((HALF, HALF, -HALF),),
    POS_KMIN: (),
    POS_KMAX: ((HALF, HALF, HALF),),
}


@dataclass(frozen=True)
class CasePoint:
    """One admissible parameter tuple (lambda, mu, sigma, k, l)."""

    lam: Fraction
    mu: Fraction
    sigma: Fraction
    k: Fraction
    l: Fraction

    def validate(self) -> "CasePoint":
        if not 0 <= self.lam <= HALF:
            raise ValueError(f"lambda {self.lam} outside [0, 1/2]")
        if not 0 <= self.mu <= HALF:
            raise ValueError(f"mu {self.mu} outside [0, 1/2]")
        if not -HALF <= self.sigma <= HALF:
            raise ValueError(f"sigma {self.sigma} outside [-1/2, 1/2]")
        if self.k <= 0 or self.l <= 0:
            raise ValueError("k and l must be positive")
        return self

    def as_tuple(self):
        return (self.lam, self.mu, self.sigma, self.k, self.l)


EXTREMAL_POINT_POS = CasePoint(HALF, HALF, HALF, Fraction(1), Fraction(3, 4))
EXTREMAL_POINT_NEG = CasePoint(HALF, HALF, -HALF, Fraction(1), Fraction(3, 4))


def defect_from_parameters(point: CasePoint) -> Fraction:
    """Defect of the rank-3 basis with these parameters:
    (1 + lambda^2/k) * (1 + (mu^2 + k sigma^2)/l)."""
    if point.k <= 0 or point.l <= 0:
        raise ValueError("k and l must be positive")
    first = 1 + point.lam**2 / point.k
    second = 1 + (point.mu**2 + point.k * point.sigma**2) / point.l
    return first * second


def gram_from_parameters(point: CasePoint) -> GramMatrix:
    """Rank-3 Gram matrix with ||b_1||^2 = 1 and the given GSO parameters."""
    point.validate()
    gso = GSOData(
        mu=((), (point.lam,), (point.mu, point.sigma)),
        bstar=(Fraction(1), point.k, point.l),
    )
    return gso.reconstruct()


# ---------------------------------------------------------------------------
# the HKZ inequality system at rank 3


@dataclass(frozen=True)
class InequalitySystemReport:
    """Exact evaluation of the five rank-3 HKZ inequalities (1)-(5) plus the
    derived consequences (6)-(8)."""

    values: tuple[tuple[int, Fraction, Fraction], ...]  # (index, lhs, rhs), lhs >= rhs
    violated: tuple[int, ...]
    derived_hold: bool | None  # None when a base inequality already failed

    @property
    def ok(self) -> bool:
        return not self.violated


def check_hkz_inequalities(point: CasePoint) -> InequalitySystemReport:
    """The five necessary inequalities for (lam, mu, sigma, k, l) to come from
    an HKZ-reduced basis, each compared exactly; consequences (6)-(8) are
    asserted whenever (1)-(5) all hold."""
    point.validate()
    lam, mu, sigma, k, l = point.as_tuple()
    one = Fraction(1)
    checks = (
        (1, k + lam**2, one),
        (2, l + k * sigma**2 + mu**2, one),
        (3, l + k * (1 + sigma) ** 2 + (1 - lam - mu) ** 2, one),
        (4, l + k * (1 - sigma) ** 2 + (lam - mu) ** 2, one),
        (5, l + k * sigma**2, k),
    )
    violated = tuple(idx for idx, lhs, rhs in checks if lhs < rhs)
    derived = None
    if not violated:
        bound = l / (1 - sigma**2)
        derived = (
            bound >= k
            and lam**2 >= 1 - bound
            and mu**2 >= 1 - bound
        )
        if not derived:
            raise AssertionError(
                "derived inequalities (6)-(8) failed although (1)-(5) hold"
            )
    return InequalitySystemReport(checks, violated, derived)


# ---------------------------------------------------------------------------
# the |sigma| <= 1/3 corner bound


@dataclass(frozen=True)
class SmallSigmaReport:
    corner_value: Fraction
    samples: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (k, l, value)
    monotone: bool
    ok: bool


def small_sigma_bound_value(k: Fraction, l: Fraction) -> Fraction:
    """(1 + 1/(4k)) (9/8 + 1/(4l)), the defect envelope for |sigma| <= 1/3."""
    return (1 + Fraction(1, 4) / k) * (Fraction(9, 8) + Fraction(1, 4) / l)


def verify_small_sigma_bound() -> SmallSigmaReport:
    """Confirm the small-sigma envelope peaks at the corner k = 3/4, l = 2/3
    with value exactly 2, decreasing in each variable away from it.

    The samples are the 8 x 8 grid of steps 1/2 up from the corner.  Every
    sampled value must be strictly below 2 off the corner and strictly above
    the 9/8 floor.
    """
    k0, l0 = Fraction(3, 4), Fraction(2, 3)
    corner = small_sigma_bound_value(k0, l0)
    ks = [k0 + Fraction(i, 2) for i in range(8)]
    ls = [l0 + Fraction(i, 2) for i in range(8)]
    samples = []
    ok = corner == 2
    monotone = True
    for k in ks:
        for l in ls:
            v = small_sigma_bound_value(k, l)
            samples.append((k, l, v))
            if (k, l) != (k0, l0) and v >= corner:
                ok = False
            if v <= Fraction(9, 8):
                ok = False
    # monotone decrease along each axis
    for k_prev, k_next in zip(ks, ks[1:]):
        if small_sigma_bound_value(k_next, l0) >= small_sigma_bound_value(k_prev, l0):
            monotone = False
    for l_prev, l_next in zip(ls, ls[1:]):
        if small_sigma_bound_value(k0, l_next) >= small_sigma_bound_value(k0, l_prev):
            monotone = False
    return SmallSigmaReport(corner, tuple(samples), monotone, ok and monotone)


# ---------------------------------------------------------------------------
# the four quadratics in sigma


@dataclass(frozen=True)
class QuadraticCase:
    """Exact coefficients of Q(sigma) = a sigma^2 + b sigma + c for one case."""

    case_id: str
    a: Fraction
    b: Fraction
    c: Fraction

    def value(self, sigma: Fraction) -> Fraction:
        return (self.a * sigma + self.b) * sigma + self.c

    def roots_float(self) -> tuple[float, float] | None:
        """Real roots as floats, for report readability only."""
        if self.a == 0:
            return None
        disc = float(self.b * self.b - 4 * self.a * self.c)
        if disc < 0:
            return None
        s = math.sqrt(disc)
        r1 = (-float(self.b) - s) / (2 * float(self.a))
        r2 = (-float(self.b) + s) / (2 * float(self.a))
        return (min(r1, r2), max(r1, r2))


def _side_of(case_id: str) -> str:
    """The sign of sigma in the case, "NEG" or "POS"; refuses unknown ids."""
    if case_id not in ALL_CASES:
        raise ValueError(f"unknown case {case_id!r}")
    return case_id[:3]


def sigma_interval(case_id: str) -> tuple[Fraction, Fraction]:
    return (-HALF, -THIRD) if _side_of(case_id) == "NEG" else (THIRD, HALF)


def case_region_contains(case_id: str, lam: Fraction, mu: Fraction) -> bool:
    """Exact membership test for one case's (lambda, mu) region."""
    if not (0 <= lam <= HALF and 0 <= mu <= HALF):
        return False
    lam, mu = Fraction(lam), Fraction(mu)
    q = math.lcm(lam.denominator, mu.denominator)
    return _region_contains_scaled(case_id, int(lam * q), int(mu * q), q)


def _region_contains_scaled(case_id: str, i: int, j: int, q: int) -> bool:
    """Region test at lambda = i/q, mu = j/q, inside the box [0, 1/2]^2."""
    if case_id == NEG_KMIN:
        # the lower boundary mu = 1 + lambda - sqrt(lambda^2 + 2 lambda) is
        # irrational in general; as mu <= 1/2 < 1 + lambda the region is
        # lambda >= 1/4 and (1 + lambda - mu)^2 <= lambda^2 + 2 lambda
        return 4 * i >= q and (q + i - j) ** 2 <= i * i + 2 * i * q
    if case_id == POS_KMIN:
        return j <= 2 * i
    if case_id == NEG_KMAX:
        # lambda = mu = 0 makes 1 - (1 - lam - mu)^2 vanish: the case is empty
        # there (the k ceiling degenerates to 0) and Q collapses to 0
        # identically, so the corner is excluded rather than scanned.
        return i != 0 or j != 0
    if case_id == POS_KMAX:
        return True
    raise ValueError(f"unknown case {case_id!r}")


def case_quadratic(case_id: str, lam: Fraction, mu: Fraction) -> QuadraticCase:
    """The case's quadratic with exact coefficients (`scaled_case_coefficients`
    at the lcm q of the denominators, over 12 q^4); raises for (lambda, mu)
    outside the case region."""
    lam, mu = Fraction(lam), Fraction(mu)
    if not case_region_contains(case_id, lam, mu):
        raise ValueError(f"({lam}, {mu}) outside the {case_id} region")
    q = math.lcm(lam.denominator, mu.denominator)
    return _quadratic_scaled(case_id, int(lam * q), int(mu * q), q)


def _quadratic_scaled(case_id: str, i: int, j: int, q: int) -> QuadraticCase:
    """The case's quadratic at lambda = i/q, mu = j/q; no region check."""
    scale = 12 * q**4
    coeffs = scaled_case_coefficients(case_id, i, j, q)
    return QuadraticCase(case_id, *(Fraction(x, scale) for x in coeffs))


def scaled_case_coefficients(
    case_id: str, i: int, j: int, q: int
) -> tuple[int, int, int]:
    """12 q^4 (a, b, c) at lambda = i/q, mu = j/q, where the case's quadratic
    Q(sigma) = a sigma^2 + b sigma + c is defined by

        Q(sigma) = (delta - 25/12) w,

    delta the defect (`defect_from_parameters`) at the case's (k, l)
    (`implied_k_l`) and w > 0 a weight: w = (1 - lambda^2) l in the k-minimal
    cases and w = C^2 (1 - sigma^2) in the k-maximal ones, with C from
    `_envelope_pieces`.  So Q(sigma) <= 0 exactly when delta <= 25/12.  The
    coefficients have degree <= 4 in (lambda, mu), so the scaled ones are
    integer polynomials in (i, j, q).  The region is not checked here.
    """
    q2 = q * q
    if case_id in (NEG_KMIN, POS_KMIN):
        big_a = q2 - i * i  # q^2 (1 - lambda^2)
        a = 25 * big_a * big_a
        if case_id == NEG_KMIN:
            b = 50 * big_a * big_a - 24 * big_a * q2
            gap = (q - i - j) ** 2
        else:
            b = 24 * big_a * q2 - 50 * big_a * big_a
            gap = (i - j) ** 2
        c = (
            12 * q2 * q2
            - 12 * gap * q2
            - 37 * big_a * q2
            + 12 * j * j * q2
            + 25 * big_a * gap
            + 25 * big_a * big_a
        )
        return a, b, c
    # the k-maximal displays are symmetric in (lambda, mu) for NEG and in
    # (lambda, -mu) for POS; regrouped in p = i j and s = i + j or d = i - j
    p = i * j
    if case_id == NEG_KMAX:
        s = i + j
        s2 = s * s
        a = 25 * s2 * s2 + 48 * p * p - 100 * q * s * s2 + 100 * q2 * s2
        b = -24 * (s2 * s2 - 2 * p * s2 - 4 * p * p - 2 * q * s * (s2 - 2 * p))
        c = (
            -37 * s2 * s2
            + 48 * p * (s2 + p)
            + q * s * (100 * s2 - 96 * p)
            - 52 * q2 * s2
        )
        return a, b, c
    if case_id == POS_KMAX:
        d = i - j
        d2 = d * d
        a = 25 * d2 * d2 + 48 * p * p - 50 * q2 * d2 + 25 * q2 * q2
        b = 24 * (d2 * d2 + 2 * p * d2 - 4 * p * p - q2 * (d2 + 2 * p))
        c = (
            -37 * d2 * d2
            - 48 * p * (d2 - p)
            + q2 * (50 * d2 + 48 * p)
            - 13 * q2 * q2
        )
        return a, b, c
    raise ValueError(f"unknown case {case_id!r}")


def implied_k_l(
    case_id: str, lam: Fraction, mu: Fraction, sigma: Fraction
) -> tuple[Fraction, Fraction]:
    """The (k, l) values each case substitutes before taking the quadratic:
    k at its active endpoint, l at the binding lower bound."""
    c_val, e_val = _envelope_pieces(_side_of(case_id), lam, mu, sigma)
    if case_id in (NEG_KMIN, POS_KMIN):
        k = 1 - lam * lam
        return k, c_val - k * e_val
    k = c_val / (2 * (1 + sigma) if case_id == NEG_KMAX else 2 * (1 - sigma))
    return k, k * (1 - sigma**2)


# ---------------------------------------------------------------------------
# grid scan


@dataclass(frozen=True)
class CaseScanReport:
    case_id: str
    grid_step: Fraction
    points_checked: int
    max_value: Fraction
    argmax: CasePoint
    equality_points: tuple[CasePoint, ...]
    violations: tuple[CasePoint, ...]
    argmax_roots_float: tuple[float, float] | None
    wall_time: float

    @property
    def passed(self) -> bool:
        expected = EXPECTED_EQUALITIES[self.case_id]
        found = {(p.lam, p.mu, p.sigma) for p in self.equality_points}
        return not self.violations and found <= set(expected)


def grid_points(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    """Multiples of `step` inside [lo, hi], with both endpoints included
    exactly even when they are not multiples."""
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    first = math.ceil(lo / step)
    vals = []
    i = first
    while i * step <= hi:
        vals.append(i * step)
        i += 1
    if not vals or vals[0] != lo:
        vals.insert(0, lo)
    if vals[-1] != hi:
        vals.append(hi)
    return vals


def _row_peak(a: int, b: int, c: int, s_values: list[int]) -> tuple[int, int]:
    """Exact maximum of a s^2 + b s + c over the increasing `s_values`, and
    the first index attaining it.

    A concave row (a < 0) rises up to its vertex -b/(2a) and falls after it,
    so its maximum sits at the last point up to the vertex or the first one
    past it; any other row takes its maximum at an end.
    """
    last = len(s_values) - 1
    if a < 0:
        past = bisect.bisect_right(s_values, b // (-2 * a))  # first s > vertex
        indices = range(max(past - 1, 0), min(past, last) + 1)
    else:
        indices = (0, last)
    top = at = None
    for index in indices:
        s = s_values[index]
        value = (a * s + b) * s + c
        if top is None or value > top:
            top, at = value, index
    return top, at


def scan_case(case_id: str, grid_step: Fraction = Fraction(1, 100)) -> CaseScanReport:
    """Exact grid scan of one case: asserts Q(sigma) <= 0 at every in-region
    grid point, recording equality points and any strict violations.

    `grid_step` must divide 1/2 so the corners of the parameter box are grid
    points.  The sigma endpoints (+-1/3, +-1/2) are always included exactly.

    The values compared are exact integers: with grid_step = 1/q, lambda =
    i/q, mu = j/q and sigma = s/D for D = lcm(q, 3), the scan evaluates
    12 q^4 D^2 Q(sigma) = A s^2 + B D s + C D^2 from the integer coefficients
    (A, B, C) of `scaled_case_coefficients`.  The scale is the same for the
    whole case, so the maximum and the signs are those of Q itself.  Each
    row (i, j) is bounded by its exact maximum (`_row_peak`), and only a row
    whose maximum reaches 0 is walked point by point.
    """
    grid_step = Fraction(grid_step)
    if grid_step <= 0 or (HALF / grid_step).denominator != 1:
        raise ValueError("grid step must be positive and divide 1/2")
    lo, hi = sigma_interval(case_id)
    started = time.perf_counter()
    q = grid_step.denominator  # a step dividing 1/2 is 1/q with q even
    den = math.lcm(q, 3)
    s_values = [int(sigma * den) for sigma in grid_points(lo, hi, grid_step)]
    checked = 0
    best: int | None = None
    argmax: tuple[int, int, int] | None = None
    equalities: list[tuple[int, int, int]] = []
    violations: list[tuple[int, int, int]] = []
    for i in range(q // 2 + 1):
        for j in range(q // 2 + 1):
            if not _region_contains_scaled(case_id, i, j, q):
                continue
            a, b, c = scaled_case_coefficients(case_id, i, j, q)
            b *= den
            c *= den * den
            checked += len(s_values)
            # the first point of this row at its maximum is where a running
            # "strictly greater" maximum would have moved to
            top, at = _row_peak(a, b, c, s_values)
            if best is None or top > best:
                best = top
                argmax = (i, j, s_values[at])
            if top >= 0:
                for s in s_values:
                    value = (a * s + b) * s + c
                    if value == 0:
                        equalities.append((i, j, s))
                    elif value > 0:
                        violations.append((i, j, s))
    if best is None:
        raise RuntimeError(f"empty scan region for {case_id}")

    def to_point(triple):
        i, j, s = triple
        lam, mu, sigma = Fraction(i, q), Fraction(j, q), Fraction(s, den)
        k, l = implied_k_l(case_id, lam, mu, sigma)
        return CasePoint(lam, mu, sigma, k, l)

    return CaseScanReport(
        case_id=case_id,
        grid_step=grid_step,
        points_checked=checked,
        max_value=Fraction(best, 12 * q**4 * den * den),
        argmax=to_point(argmax),
        equality_points=tuple(to_point(t) for t in equalities),
        violations=tuple(to_point(t) for t in violations),
        argmax_roots_float=_quadratic_scaled(case_id, *argmax[:2], q).roots_float(),
        wall_time=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# convexity in k of the defect envelope


def _envelope_pieces(side: str, lam: Fraction, mu: Fraction, sigma: Fraction):
    """(C, E) with N(k) = C - k E the binding lower bound on l for this side."""
    if side == "NEG":
        return 1 - (1 - lam - mu) ** 2, (1 + sigma) ** 2
    if side == "POS":
        return 1 - (lam - mu) ** 2, (1 - sigma) ** 2
    raise ValueError(f"unknown side {side!r}")


def envelope_value(
    side: str, lam: Fraction, mu: Fraction, sigma: Fraction, k: Fraction
) -> Fraction:
    """The defect envelope as a function of the middle norm k:
    (1 + lambda^2/k)(1 + (mu^2 + k sigma^2)/N(k)) with N(k) = C - k E."""
    c_val, e_val = _envelope_pieces(side, lam, mu, sigma)
    n_val = c_val - k * e_val
    if k <= 0 or n_val <= 0:
        raise ValueError("outside case region: k and N(k) must be positive")
    return (1 + lam**2 / k) * (1 + (mu**2 + k * sigma**2) / n_val)


def _envelope_polys(
    side: str, i: int, j: int, s: int, big_l: int, big_s: int, big_m: int
):
    """Integer forms of the envelope and its convexity numerator at
    lambda = i/L, mu = j/L, sigma = s/S and k = k_top m/M, k_top = C/E.

    The envelope is f = P/Q with P = (k + lam^2)(C + mu^2 + k (sigma^2 - E))
    and Q = k (C - k E).  With C = Cn/L^2 and E = En/S^2 it is
    f(k) = f_scale p(m)/q(m) for q(m) = m (M - m), the same for every triple,
    and the integer quadratic

        p(m) = (Cn S^2 m + i^2 En M) ((Cn + j^2) En M + Cn (s^2 - En) m).

    The numerator of f'' over Q^3, num2 = (P'Q - PQ')'Q - 2 (P'Q - PQ') Q'
    (the quotient rule applied twice), is num_scale * num(m) with
    num(m) = 2 p0 (M^2 - 3 M m + 3 m^2) + 2 (p1 + M p2) m^3.  Returns
    (p, num, f_scale, num_scale, k_top): coefficients from the constant term
    up, and three positive rationals as unreduced (numerator, denominator)
    pairs of integers.
    """
    # (L^2 C, S^2 E); callers have already rejected an unknown side
    if side == "NEG":
        cn, en = big_l**2 - (big_l - i - j) ** 2, (big_s + s) ** 2
    else:
        cn, en = big_l**2 - (i - j) ** 2, (big_s - s) ** 2
    a0, a1 = i * i * en * big_m, cn * big_s**2
    b0, b1 = (cn + j * j) * en * big_m, cn * (s * s - en)
    p0, p1, p2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
    return (
        [p0, p1, p2],
        [2 * p0 * big_m**2, -6 * p0 * big_m, 6 * p0, 2 * (p1 + big_m * p2)],
        (1, en * cn * cn * big_s**2),
        (cn * cn, big_l**8 * en * en * big_m**4),
        (a1, en * big_l**2),
    )


def convexity_numerator(side: str, point: CasePoint) -> Fraction:
    """Numerator of d^2/dk^2 of the defect envelope over k^3 N(k)^3.

    Computed by exact differentiation of the closed form (quotient rule
    applied twice to the polynomial fraction, `_envelope_polys`), not
    transcribed from any expanded display.  Sign of the result is the sign of
    the second derivative wherever k > 0 and N(k) > 0.
    """
    lam, mu, sigma, k = point.lam, point.mu, point.sigma, point.k
    c_val, e_val = _envelope_pieces(side, lam, mu, sigma)
    if k <= 0 or e_val <= 0 or c_val - k * e_val <= 0:
        raise ValueError("outside case region: k and N(k) must be positive")
    big_l = math.lcm(lam.denominator, mu.denominator)
    ratio = k * e_val / c_val  # k/k_top = m/M
    _p, num, _f_scale, (scale_num, scale_den), _k_top = _envelope_polys(
        side, int(lam * big_l), int(mu * big_l), sigma.numerator,
        big_l, sigma.denominator, ratio.denominator,
    )
    m = ratio.numerator
    value = sum(coeff * m**d for d, coeff in enumerate(num))
    return Fraction(scale_num * value, scale_den)


def envelope_second_difference(
    side: str, point: CasePoint, step: Fraction
) -> Fraction:
    """Exact central second difference f(k-h) - 2 f(k) + f(k+h)."""
    lam, mu, sigma, k = point.lam, point.mu, point.sigma, point.k
    return (
        envelope_value(side, lam, mu, sigma, k - step)
        - 2 * envelope_value(side, lam, mu, sigma, k)
        + envelope_value(side, lam, mu, sigma, k + step)
    )


def _envelope_value_float(side, lam, mu, sigma, k) -> float:
    # int - float is the IEEE float subtraction, so (C, E) match 1.0 - x
    c_val, e_val = _envelope_pieces(side, lam, mu, sigma)
    n_val = c_val - k * e_val
    return (1.0 + lam * lam / k) * (1.0 + (mu * mu + k * sigma * sigma) / n_val)


def envelope_second_difference_float(side: str, point: CasePoint, step: float) -> float:
    lam, mu = float(point.lam), float(point.mu)
    sigma, k = float(point.sigma), float(point.k)
    return (
        _envelope_value_float(side, lam, mu, sigma, k - step)
        - 2.0 * _envelope_value_float(side, lam, mu, sigma, k)
        + _envelope_value_float(side, lam, mu, sigma, k + step)
    )


# the verbatim numerator displays (`displays`); mismatches are reported,
# never silently corrected
_DISPLAYS = {
    "NEG": (
        ("neg_sum", numerator_display_neg_sum),
        ("neg_grouped", numerator_display_neg_grouped),
    ),
    "POS": (
        ("pos_sum", numerator_display_pos_sum),
        ("pos_grouped", numerator_display_pos_grouped),
    ),
}
# convexity_scan compares this many leading samples with the displays
_DISPLAY_SAMPLES = 200


@dataclass(frozen=True)
class ConvexitySample:
    point: CasePoint
    numerator: Fraction
    second_difference: Fraction
    second_difference_half: Fraction
    float_check: float


@dataclass(frozen=True)
class ConvexityCertificate:
    """Pointwise convexity evidence for one case's envelope function.

    `samples` holds per-point records when requested; the minima fields
    summarize the whole grid either way.
    """

    case_id: str
    side: str
    samples_checked: int
    min_numerator: Fraction
    min_second_difference: Fraction
    min_float_check: float
    display_matches: dict[str, bool]
    worst_samples: tuple[ConvexitySample, ...] = field(default=())
    samples: tuple[ConvexitySample, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return (
            self.min_numerator >= 0
            and self.min_second_difference >= 0
            and self.min_float_check >= -1e-12
        )


def _difference_weights(q_poly, m_values) -> list[tuple]:
    """What every triple of a convexity scan shares, one entry per m.

    An entry is (m, m^2, m^3, at_2, at_1); at_h = (w0, w1, w2, d) gives
    p/q(m - h) - 2 p/q(m) + p/q(m + h) = (w0 p0 + w1 p1 + w2 p2)/d for every
    quadratic p, with d = q(m - h) q(m) q(m + h).  q has the sign of
    Q(k) = k N(k), and comparing second differences by cross-products needs
    each q > 0.
    """
    entries = []
    for m in m_values:
        entry = [m, m * m, m**3]
        for h in (2, 1):
            qa, qb, qc = (
                (q_poly[2] * x + q_poly[1]) * x + q_poly[0] for x in (m - h, m, m + h)
            )
            if min(qa, qb, qc) <= 0:
                raise ValueError("outside case region: k and N(k) must be positive")
            weights = (
                (m - h) ** d * qb * qc - 2 * m**d * qa * qc + (m + h) ** d * qa * qb
                for d in range(3)
            )
            entry.append((*weights, qa * qb * qc))
        entries.append(tuple(entry))
    return entries


def convexity_scan(
    case_id: str,
    per_axis: int = 10,
    keep_samples: bool = False,
) -> ConvexityCertificate:
    """Sample the case region on a per_axis^4 grid of (lambda, mu, sigma, k)
    and require, at every point: recomputed numerator >= 0, exact second
    differences at steps h and h/2 both >= 0, float second difference
    >= -1e-12.  The first `_DISPLAY_SAMPLES` samples are also evaluated
    against the verbatim numerator displays.  With `keep_samples` the
    certificate retains every per-point record.

    The samples sit at k = k_top t/(per_axis + 1), t = 1..per_axis, with
    k_top = C/E and h = k_top/(4 (per_axis + 1)).  With lambda = i/L,
    mu = j/L, sigma = s/S for L = 2 (per_axis - 1), S = 6 (per_axis - 1),
    all five abscissae k - h, k - h/2, k, k + h/2, k + h are k_top m/M for
    integers m and M = 8 (per_axis + 1), and the envelope is p(m)/q(m) over
    a positive scale of the triple, with q the same for every triple
    (`_envelope_polys`).  So the weights of p in both second differences are
    tabulated once per scan (`_difference_weights`), each sample is a few
    integer dot products and cross-products, and a `Fraction` is built only
    for the scan's minima and reported samples.  The displays are evaluated
    on `ScaledRational`s over D = lcm(L, S, k_den), with k = k_num t/k_den.
    """
    side = _side_of(case_id)
    if per_axis < 2:
        raise ValueError(f"per_axis must be at least 2, got {per_axis}")
    big_l, big_s, parts = 2 * (per_axis - 1), 6 * (per_axis - 1), per_axis + 1
    big_m = 8 * parts
    first_s = int(sigma_interval(case_id)[0] * big_s)
    # sample t at m = 8t, k -+ h at m -+ 2 and k -+ h/2 at m -+ 1
    shared = _difference_weights((0, big_m, -1), range(8, big_m, 8))
    checked = 0
    # the minima as (numerator, denominator) pairs, denominators positive
    min_num = min_sd = None
    min_float = math.inf
    matches = {name: True for name, _fn in _DISPLAYS[side]}
    worst: ConvexitySample | None = None
    kept: list[ConvexitySample] = []

    def exact(t, num, sd, sd_half, fcheck) -> ConvexitySample:
        # the record of sample t of the current triple as rationals
        lam, mu, sigma = Fraction(i, big_l), Fraction(j, big_l), Fraction(s, big_s)
        c_val, e_val = _envelope_pieces(side, lam, mu, sigma)
        k = Fraction(k_num * t, k_den)
        return ConvexitySample(
            CasePoint(lam, mu, sigma, k, c_val - k * e_val),
            Fraction(scale_num * num, scale_den),
            Fraction(f_num * sd[0], f_den * sd[1]),
            Fraction(f_num * sd_half[0], f_den * sd_half[1]),
            fcheck,
        )

    triples = [
        (i, j, s)
        for i in range(per_axis)
        for j in range(per_axis)
        if _region_contains_scaled(case_id, i, j, big_l)
        for s in range(first_s, first_s + per_axis)
    ]
    for i, j, s in triples:
        (
            (p0, p1, p2),
            (n0, n1, n2, n3),
            (f_num, f_den),
            (scale_num, scale_den),
            (k_num, k_den),
        ) = _envelope_polys(side, i, j, s, big_l, big_s, big_m)
        k_den *= parts
        # `_envelope_value_float` with the same operations in the same order,
        # so each float_check is bit for bit the float second difference;
        # int / int division rounds k and h correctly
        lam_f, mu_f, sigma_f = i / big_l, j / big_l, s / big_s
        c_f, e_f = _envelope_pieces(side, lam_f, mu_f, sigma_f)
        lam2, mu2 = lam_f * lam_f, mu_f * mu_f
        h_float = k_num / (4 * k_den)
        shown = ()
        if checked < _DISPLAY_SAMPLES:
            shown = [(name, fn) for name, fn in _DISPLAYS[side] if matches[name]]
            big_d = math.lcm(big_l, big_s, k_den)
            lam_x, mu_x, sigma_x = (
                ScaledRational(x * (big_d // y), 1, big_d)
                for x, y in ((i, big_l), (j, big_l), (s, big_s))
            )
            k_unit = k_num * (big_d // k_den)
        best = row_min = None
        for t, (m, m2, m3, (w0, w1, w2, d), (v0, v1, v2, d_half)) in enumerate(
            shared, 1
        ):
            num = n0 + n1 * m + n2 * m2 + n3 * m3
            sd = p0 * w0 + p1 * w1 + p2 * w2
            sd_half = p0 * v0 + p1 * v1 + p2 * v2
            k = k_num * t / k_den
            lo, hi = k - h_float, k + h_float
            fcheck = (
                (1.0 + lam2 / lo)
                * (1.0 + (mu2 + lo * sigma_f * sigma_f) / (c_f - lo * e_f))
                - 2.0
                * (
                    (1.0 + lam2 / k)
                    * (1.0 + (mu2 + k * sigma_f * sigma_f) / (c_f - k * e_f))
                )
                + (1.0 + lam2 / hi)
                * (1.0 + (mu2 + hi * sigma_f * sigma_f) / (c_f - hi * e_f))
            )
            checked += 1
            if keep_samples:
                kept.append(exact(t, num, (sd, d), (sd_half, d_half), fcheck))
            if shown and checked <= _DISPLAY_SAMPLES:
                k_x = ScaledRational(k_unit * t, 1, big_d)
                value = scale_num * num
                for name, fn in shown:
                    if (
                        matches[name]
                        and fn(lam_x, mu_x, sigma_x, k_x) * scale_den != value
                    ):
                        matches[name] = False
            if sd_half * d < sd * d_half:
                low, low_d = sd_half, d_half
            else:
                low, low_d = sd, d
            if best is None or low * best_d < best_low * low_d:
                best = (t, num, (sd, d), (sd_half, d_half), fcheck)
                best_low, best_d = low, low_d
            if row_min is None or num < row_min:
                row_min = num
            if fcheck < min_float:
                min_float = fcheck
        row_num = (scale_num * row_min, scale_den)
        if min_num is None or row_num[0] * min_num[1] < min_num[0] * row_num[1]:
            min_num = row_num
        row_sd = (f_num * best_low, f_den * best_d)
        if min_sd is None or row_sd[0] * min_sd[1] < min_sd[0] * row_sd[1]:
            min_sd = row_sd
            worst = exact(*best)
    if min_num is None:
        raise RuntimeError(f"empty convexity region for {case_id}")
    return ConvexityCertificate(
        case_id=case_id,
        side=side,
        samples_checked=checked,
        min_numerator=Fraction(*min_num),
        min_second_difference=Fraction(*min_sd),
        min_float_check=min_float,
        display_matches=matches,
        worst_samples=(worst,) if worst else (),
        samples=tuple(kept),
    )


# ---------------------------------------------------------------------------
# the extremal rank-3 form


@dataclass(frozen=True)
class ExtremalVariantReport:
    sigma: Fraction
    gram: GramMatrix
    hkz_ok: bool
    defect: Fraction

    @property
    def ok(self) -> bool:
        return self.hkz_ok and self.defect == DEFECT_MAX_3


@dataclass(frozen=True)
class ExtremalFormReport:
    variants: tuple[ExtremalVariantReport, ...]
    scaled_defect: Fraction

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.variants) and self.scaled_defect == DEFECT_MAX_3


def extremal_gram(sign: int = +1) -> GramMatrix:
    """The rank-3 Gram matrix attaining defect 25/12: parameters
    lambda = mu = 1/2, sigma = +-1/2, k = 1, l = 3/4."""
    point = EXTREMAL_POINT_POS if sign > 0 else EXTREMAL_POINT_NEG
    return gram_from_parameters(point)


def verify_extremal_form() -> ExtremalFormReport:
    """Both sign variants of the extremal form are HKZ reduced with defect
    exactly 25/12; the defect is invariant under scaling."""
    variants = []
    for sign in (+1, -1):
        gram = extremal_gram(sign)
        cert = reduction.is_hkz_reduced(gram)
        variants.append(
            ExtremalVariantReport(
                sigma=HALF if sign > 0 else -HALF,
                gram=gram,
                hkz_ok=cert.ok,
                defect=bounds.orthogonality_defect(gram),
            )
        )
    scaled = bounds.orthogonality_defect(extremal_gram(+1).scaled(4))
    return ExtremalFormReport(tuple(variants), scaled)


# ---------------------------------------------------------------------------
# full verification bundle (what the verify-proof command runs)


@dataclass(frozen=True)
class VerificationResult:
    grid_step: Fraction
    scans: tuple[CaseScanReport, ...]
    small_sigma: SmallSigmaReport
    convexity: tuple[ConvexityCertificate, ...]
    extremal: ExtremalFormReport
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return (
            all(s.passed for s in self.scans)
            and self.small_sigma.ok
            and all(c.ok for c in self.convexity)
            and self.extremal.ok
        )


def run_full_verification(
    grid_step: Fraction = Fraction(1, 100),
    cases: tuple[str, ...] = ALL_CASES,
) -> VerificationResult:
    started = time.perf_counter()
    scans = tuple(scan_case(case_id, grid_step) for case_id in cases)
    small = verify_small_sigma_bound()
    convexity = tuple(convexity_scan(case_id) for case_id in cases)
    extremal = verify_extremal_form()
    return VerificationResult(
        grid_step=Fraction(grid_step),
        scans=scans,
        small_sigma=small,
        convexity=convexity,
        extremal=extremal,
        wall_time=time.perf_counter() - started,
    )


def _point_json(point: CasePoint) -> dict:
    return {
        "lambda": format_rat(point.lam),
        "mu": format_rat(point.mu),
        "sigma": format_rat(point.sigma),
        "k": format_rat(point.k),
        "l": format_rat(point.l),
    }


def verification_json_dict(result: VerificationResult) -> dict:
    cases = {}
    for scan in result.scans:
        cases[scan.case_id] = {
            "points_checked": scan.points_checked,
            "max_value": format_rat(scan.max_value),
            "max_value_float": float(scan.max_value),
            "argmax": _point_json(scan.argmax),
            "argmax_roots_float": scan.argmax_roots_float,
            "equality_points": [_point_json(p) for p in scan.equality_points],
            "violations": [_point_json(p) for p in scan.violations],
            "passed": scan.passed,
            "wall_time": scan.wall_time,
        }
    convexity = {
        cert.case_id: {
            "samples_checked": cert.samples_checked,
            "min_numerator": format_rat(cert.min_numerator),
            "min_second_difference": format_rat(cert.min_second_difference),
            "min_float_check": cert.min_float_check,
            "display_matches": cert.display_matches,
            "passed": cert.ok,
        }
        for cert in result.convexity
    }
    return {
        "grid_step": format_rat(result.grid_step),
        "note": (
            "exact pointwise verification on the stated grids;"
            " not an interval-arithmetic proof over the continuum"
        ),
        "cases": cases,
        "small_sigma": {
            "corner_value": format_rat(result.small_sigma.corner_value),
            "passed": result.small_sigma.ok,
        },
        "convexity": convexity,
        "extremal_form": {
            "defects": [format_rat(v.defect) for v in result.extremal.variants],
            "hkz_certified": [v.hkz_ok for v in result.extremal.variants],
            "scaled_defect": format_rat(result.extremal.scaled_defect),
            "passed": result.extremal.ok,
        },
        "all_passed": result.all_passed,
        "wall_time": result.wall_time,
    }
