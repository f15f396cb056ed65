import math
import random
import sys
from fractions import Fraction as Fr

import pytest

from hkzdefect import GramMatrix, proofcheck
from hkzdefect.core import NotPositiveDefiniteError, ldl


def poly_value(poly, point):
    """The value of a `displays.Poly` at a point of Fractions, term by term
    over their common denominator."""
    den = math.lcm(*(x.denominator for x in point))
    nums = [x.numerator * (den // x.denominator) for x in point]
    top = max(map(len, poly.terms), default=0)
    total = 0
    for monomial, coeff in poly.terms.items():
        term = coeff * den ** (top - len(monomial))
        for v in monomial:
            term *= nums[v]
        total += term
    return Fr(total, den**top)


# Oracles: the Fraction versions of `core.apply_unimodular` and
# `reduction._independent_over_q` that the library used before its integer
# kernels, and the integer case scan before its finite-difference stepping,
# kept so that tests do not check the code against itself.


def fraction_apply_unimodular(gram, transform):
    """Gram matrix of the transformed basis b'_i = sum_j U[i][j] b_j, i.e. U G U^T."""
    n = gram.n
    if transform.n != n:
        raise ValueError("dimension mismatch")
    g = gram.entries
    # nonzero entries of each row of U; every row has one, so sums are Fractions
    support = [[(k, c) for k, c in enumerate(row) if c] for row in transform.entries]
    ug = [[sum(g[k][j] * c for k, c in row) for j in range(n)] for row in support]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = sum(ug[i][k] * c for k, c in support[j])
    return GramMatrix(tuple(map(tuple, rows)))


def fraction_independent_over_q(rows, candidate) -> bool:
    """Incremental rank test; mutates `rows` (kept in echelon form) on success."""
    vec = [Fr(v) for v in candidate]
    for row in rows:
        pivot = next(i for i, v in enumerate(row) if v != 0)
        if vec[pivot] != 0:
            factor = vec[pivot] / row[pivot]
            vec = [a - factor * b for a, b in zip(vec, row)]
    if any(v != 0 for v in vec):
        rows.append(vec)
        return True
    return False


def integer_scan(case_id, grid_step):
    """The fields of `proofcheck.scan_case`'s report but `wall_time`, from the
    scan's loop before it stepped rows by finite differences: one direct
    `scaled_case_coefficients` call and one `_row_peak` per (lambda, mu)."""
    q = grid_step.denominator
    den = math.lcm(q, 3)
    lo, hi = proofcheck.sigma_interval(case_id)
    s_values = [int(sigma * den) for sigma in proofcheck.grid_points(lo, hi, grid_step)]
    checked = 0
    best = argmax = None
    equalities, violations = [], []
    for i in range(q // 2 + 1):
        for j in range(q // 2 + 1):
            if not proofcheck._region_contains_scaled(case_id, i, j, q):
                continue
            a, b, c = proofcheck.scaled_case_coefficients(case_id, i, j, q)
            b *= den
            c *= den * den
            checked += len(s_values)
            top, at = proofcheck._row_peak(a, b, c, s_values)
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

    def to_point(triple):
        i, j, s = triple
        lam, mu, sigma = Fr(i, q), Fr(j, q), Fr(s, den)
        return proofcheck.CasePoint(
            lam, mu, sigma, *proofcheck.implied_k_l(case_id, lam, mu, sigma)
        )

    return dict(
        case_id=case_id,
        grid_step=grid_step,
        points_checked=checked,
        max_value=Fr(best, 12 * q**4 * den * den),
        argmax=to_point(argmax),
        equality_points=tuple(map(to_point, equalities)),
        violations=tuple(map(to_point, violations)),
        argmax_roots_float=proofcheck._quadratic_scaled(
            case_id, *argmax[:2], q
        ).roots_float(),
    )


def patch_everywhere(monkeypatch, original, replacement) -> int:
    """Rebind `original` to `replacement` in every loaded hkzdefect module
    that holds it; returns the number of binding sites."""
    sites = 0
    for name, module in list(sys.modules.items()):
        if name != "hkzdefect" and not name.startswith("hkzdefect."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                sites += 1
    return sites


def bounded_gram(rank: int, seed: int, bound: int = 10) -> GramMatrix:
    """Random positive-definite integer Gram with |entries| <= bound.

    Drawn by rejection; witnesses of shortest vectors for this ensemble stay
    within the +-5 coefficient box, which the box-scan oracles rely on.
    """
    rng = random.Random(seed)
    while True:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = rng.randint(1, bound)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        gram = GramMatrix.from_rows(rows)
        try:
            ldl(gram)
            return gram
        except NotPositiveDefiniteError:
            continue


@pytest.fixture
def identity3():
    return GramMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture
def hexagonal():
    # rank-2 Gram of the hexagonal lattice, defect exactly 4/3
    return GramMatrix.from_rows([[1, Fr(1, 2)], [Fr(1, 2), 1]])


@pytest.fixture
def extremal_plus():
    return GramMatrix.from_rows(
        [
            [1, Fr(1, 2), Fr(1, 2)],
            [Fr(1, 2), Fr(5, 4), Fr(3, 4)],
            [Fr(1, 2), Fr(3, 4), Fr(5, 4)],
        ]
    )


@pytest.fixture
def extremal_minus():
    return GramMatrix.from_rows(
        [
            [1, Fr(1, 2), Fr(1, 2)],
            [Fr(1, 2), Fr(5, 4), Fr(-1, 4)],
            [Fr(1, 2), Fr(-1, 4), Fr(5, 4)],
        ]
    )
