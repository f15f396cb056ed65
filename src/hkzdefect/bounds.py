"""Orthogonality defect, Hermite data, and the exact defect bounds.

The defect of a basis is prod ||b_i||^2 / det(G), an exactly rational quantity
here.  For HKZ-reduced bases it admits two families of upper bounds: the
classical product bound built from Hermite constants, and a sharper one that
splits off the leading rank-3 block (whose worst defect is exactly 25/12) and
bounds the remaining factors through projected successive minima.  Both are
evaluated exactly; Hermite constants are only used through their integral
powers gamma_n^n, which are rational for n <= 8.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .core import GramMatrix, determinant, format_rat
from .reduction import MAX_MINIMA_RANK, shortest_vector

# gamma_n^n for n = 1..8: the classically known exact values (Lagrange, Gauss,
# Korkine-Zolotarev, Blichfeldt, Cohn-Kumar).  No closed form is known beyond
# n = 8, so larger ranks are refused rather than estimated.
_HERMITE_POWER = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}

MAX_HERMITE_RANK = 8

# exact maximal defects over HKZ-reduced bases, known for ranks 1..3
_DELTA_EXACT = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(25, 12),
}


def orthogonality_defect(gram: GramMatrix) -> Fraction:
    """prod_i ||b_i||^2 / det(G); equals 1 exactly iff the basis is orthogonal."""
    num = Fraction(1)
    for d in gram.diagonal():
        num *= d
    return num / determinant(gram)


def hermite_invariant_power(gram: GramMatrix) -> Fraction:
    """(lambda_1^2)^n / det(G), the n-th power of the Hermite invariant.

    Exposed as the n-th power so the value stays rational (the invariant itself
    involves an n-th root).  Needs an exact shortest vector, hence rank at
    most `reduction.MAX_MINIMA_RANK`.
    """
    n = gram.n
    if n > MAX_MINIMA_RANK:
        raise ValueError(
            f"hermite invariant needs rank <= {MAX_MINIMA_RANK} (exact SVP)"
        )
    lam1 = shortest_vector(gram).norm_sq
    return lam1**n / determinant(gram)


def hermite_constant_power(n: int) -> Fraction:
    """gamma_n^n from the fixed table of known exact values, 1 <= n <= 8."""
    if n < 1:
        raise ValueError("rank must be positive")
    if n > MAX_HERMITE_RANK:
        raise ValueError(
            f"Hermite constant unknown for rank {n} (known up to {MAX_HERMITE_RANK})"
        )
    return _HERMITE_POWER[n]


def lls_bound(n: int) -> Fraction:
    """Classical defect bound for HKZ bases: gamma_n^n * prod_{i=1}^n (i+3)/4."""
    g = hermite_constant_power(n)
    prod = Fraction(1)
    for i in range(1, n + 1):
        prod *= Fraction(i + 3, 4)
    return g * prod


def new_bound(n: int) -> Fraction:
    """Sharper defect bound for n >= 4: 25/12 * gamma_{n-3}^{n-3} * prod_{i=4}^n (i/4 + 29/24).

    Comes from splitting off the leading rank-3 block (worst defect exactly
    25/12) and bounding each remaining ratio ||b_i||^2 / ||b_i(i)||^2 through
    the minima of the lattice projected past the first three vectors.
    """
    if n < 4:
        raise ValueError("bound only defined for rank >= 4")
    if n - 3 > MAX_HERMITE_RANK:
        raise ValueError(
            f"split bound unknown for rank {n}: needs gamma_{n - 3}^{n - 3},"
            f" and Hermite constants are known up to rank {MAX_HERMITE_RANK}"
        )
    g = hermite_constant_power(n - 3)
    prod = Fraction(1)
    for i in range(4, n + 1):
        prod *= Fraction(6 * i + 29, 24)
    return Fraction(25, 12) * g * prod


def delta_exact(n: int) -> Fraction:
    """Exact maximal defect over HKZ-reduced bases; known only for n <= 3."""
    if n < 1:
        raise ValueError("rank must be positive")
    if n > 3:
        raise ValueError(
            f"exact value conjectural for rank {n}: upper bounds are proven,"
            " and at ranks 4 to 6 the lower bound gamma_n^n, which an"
            " HKZ-reduced root-lattice basis attains; equality with gamma_n^n"
            " is this library's conjecture"
        )
    return _DELTA_EXACT[n]


def decimal_str(value: Fraction, significant: int = 12) -> str:
    """Decimal rendering to `significant` digits; the exact p/q string stays
    authoritative wherever both appear."""
    with localcontext() as ctx:
        ctx.prec = significant
        d = Decimal(value.numerator) / Decimal(value.denominator)
    return str(d)


@dataclass(frozen=True)
class BoundTable:
    """One rank's worth of defect bounds; None marks inapplicable entries."""

    n: int
    gamma_pow: Fraction
    lls_bound: Fraction
    new_bound: Fraction | None
    delta_exact: Fraction | None

    @property
    def new_bound_is_sharper(self) -> bool | None:
        if self.new_bound is None:
            return None
        return self.new_bound < self.lls_bound


def bound_table(n_max: int) -> list[BoundTable]:
    """Rows for n = 1..n_max with every applicable bound, compared exactly."""
    hermite_constant_power(n_max)  # refuses n_max outside the table
    rows = []
    for n in range(1, n_max + 1):
        rows.append(
            BoundTable(
                n=n,
                gamma_pow=hermite_constant_power(n),
                lls_bound=lls_bound(n),
                new_bound=new_bound(n) if n >= 4 else None,
                delta_exact=delta_exact(n) if n <= 3 else None,
            )
        )
    return rows


def bound_table_csv(rows: list[BoundTable]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "gamma_pow", "lls_bound", "new_bound", "delta_exact"])
    for row in rows:
        writer.writerow(
            [
                row.n,
                format_rat(row.gamma_pow),
                format_rat(row.lls_bound),
                format_rat(row.new_bound) if row.new_bound is not None else "",
                format_rat(row.delta_exact) if row.delta_exact is not None else "",
            ]
        )
    return out.getvalue()


def _rat_entry(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"exact": format_rat(value), "approx": decimal_str(value)}


def bound_table_json(rows: list[BoundTable]) -> str:
    payload = [
        {
            "n": row.n,
            "gamma_pow": _rat_entry(row.gamma_pow),
            "lls_bound": _rat_entry(row.lls_bound),
            "new_bound": _rat_entry(row.new_bound),
            "delta_exact": _rat_entry(row.delta_exact),
            "new_bound_is_sharper": row.new_bound_is_sharper,
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2)
