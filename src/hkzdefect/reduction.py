"""Basis reduction: size reduction, exact SVP enumeration, recursive HKZ, minima.

Everything here runs in exact rational arithmetic, so reduction outcomes and
shortness certificates are exact statements, not floating-point approximations.
Ranks are desk scale (enumeration is exhaustive); successive minima are capped
at rank 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    GramMatrix,
    GSOData,
    Unimodular,
    apply_unimodular,
    int_identity,
    ldl,
    quadratic_form_value,
)

MAX_MINIMA_RANK = 6


@dataclass(frozen=True)
class ShortestVectorResult:
    """A certified shortest nonzero vector, as coefficients in the given basis."""

    coeffs: tuple[int, ...]
    norm_sq: Fraction
    nodes_visited: int


@dataclass(frozen=True)
class ReductionReport:
    reduced: GramMatrix
    transform: Unimodular
    svp_calls: int
    total_nodes: int


@dataclass(frozen=True)
class SuccessiveMinima:
    minima_sq: tuple[Fraction, ...]
    witnesses: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HKZCertificate:
    ok: bool
    failing_condition: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _nearest_int(x: Fraction) -> int:
    # floor(x + 1/2): ties round up, which only matters for enumeration centers
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def _normalize_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if c > 0:
            return coeffs
        if c < 0:
            return tuple(-v for v in coeffs)
    return coeffs


def _preference_key(coeffs: tuple[int, ...]):
    # Prefer vectors supported on earlier basis vectors, then smaller trailing
    # coefficients.  Guarantees b_1 itself wins any tie it participates in.
    return (
        tuple(abs(c) for c in reversed(coeffs)),
        tuple(reversed(coeffs)),
    )


class _Enumerator:
    """Depth-first exact enumeration of x with x^T G x <= radius.

    Works on GSO data: the form value is sum_i bstar[i] * y_i^2 with
    y_i = x_i + sum_{j>i} mu[j][i] x_j.  Levels are processed from the last
    coordinate down, scanning each coordinate outward from its real center, so
    both scan directions can stop as soon as the partial norm overshoots.
    """

    def __init__(self, mu, bstar):
        self.mu = mu
        self.bstar = bstar
        self.n = len(bstar)
        self.nodes = 0

    def shortest(self, radius_sq: Fraction, seed: tuple[int, ...] | None = None):
        """Exact SVP: radius shrinks on strict improvement, ties all kept."""
        self.radius_sq = radius_sq
        self.best: list[tuple[int, ...]] = [seed] if seed is not None else []
        self.collect_all = False
        self.found: list[tuple[Fraction, tuple[int, ...]]] = []
        self._descend(self.n - 1, [0] * self.n, Fraction(0))
        return self.radius_sq, self.best, self.nodes

    def below(self, radius_sq: Fraction):
        """All nonzero x with form value <= radius_sq, one per +/- pair."""
        self.radius_sq = radius_sq
        self.best = []
        self.collect_all = True
        self.found = []
        self._descend(self.n - 1, [0] * self.n, Fraction(0))
        return self.found, self.nodes

    def _leaf(self, x: list[int], norm_sq: Fraction) -> None:
        if not any(x):
            return
        coeffs = tuple(x)
        if self.collect_all:
            if _normalize_sign(coeffs) == coeffs:
                self.found.append((norm_sq, coeffs))
            return
        if norm_sq < self.radius_sq:
            self.radius_sq = norm_sq
            self.best = [_normalize_sign(coeffs)]
        elif norm_sq == self.radius_sq:
            normalized = _normalize_sign(coeffs)
            if normalized not in self.best:
                self.best.append(normalized)

    def _descend(self, level: int, x: list[int], partial: Fraction) -> None:
        mu, bstar = self.mu, self.bstar
        center = -sum(
            (mu[j][level] * x[j] for j in range(level + 1, self.n)),
            Fraction(0),
        )
        b = bstar[level]

        def visit(value: int) -> bool:
            offset = value - center
            norm_here = partial + b * offset * offset
            if norm_here > self.radius_sq:
                return False
            self.nodes += 1
            x[level] = value
            if level == 0:
                self._leaf(x, norm_here)
            else:
                self._descend(level - 1, x, norm_here)
            return True

        start = _nearest_int(center)
        value = start
        while visit(value):
            value += 1
        value = start - 1
        while visit(value):
            value -= 1
        x[level] = 0


def shortest_vector(gram: GramMatrix) -> ShortestVectorResult:
    """Certified shortest nonzero lattice vector by exhaustive enumeration.

    Deterministic tie-break: among minimal vectors (signs normalized so the
    first nonzero coefficient is positive) the one supported on the earliest
    basis vectors wins.
    """
    gso = ldl(gram)
    return _shortest_from_gso(gso.mu, gso.bstar)


def _shortest_from_gso(mu, bstar) -> ShortestVectorResult:
    n = len(bstar)
    e1 = tuple([1] + [0] * (n - 1))
    enum = _Enumerator(mu, bstar)
    norm_sq, best, nodes = enum.shortest(bstar[0], seed=e1)
    coeffs = min(best, key=_preference_key)
    return ShortestVectorResult(coeffs, norm_sq, nodes)


def projected_gram(gram: GramMatrix, index: int) -> GramMatrix:
    """Gram matrix of the lattice projected orthogonally to b_1, ..., b_{index-1}.

    `index` is 1-based: index 1 returns the matrix itself, index i returns the
    rank n-i+1 Gram of the projections of b_i, ..., b_n.  Built exactly from
    the trailing LDL data as L' diag(bstar[i..n]) L'^T.
    """
    n = gram.n
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range 1..{n}")
    if index == 1:
        return gram
    gso = ldl(gram)
    start = index - 1
    tail_mu = tuple(row[start:] for row in gso.mu[start:])
    return GSOData(tail_mu, gso.bstar[start:]).reconstruct()


def _size_reduce(mu: list[list[Fraction]], rows: list[list[int]]) -> None:
    """Lazy size reduction in place: make every |mu_{i,j}| <= 1/2.

    `mu` holds the GSO coefficients of the basis whose rows, as integer
    combinations of some fixed basis, are `rows`; each step b_i -= q b_j is
    applied to both.  The orthogonalized norms bstar do not change.
    """
    for i in range(1, len(mu)):
        for j in range(i - 1, -1, -1):
            v = mu[i][j]
            if 2 * v <= 1 and 2 * v >= -1:
                continue
            # residual lands in (-1/2, 1/2]
            q = -((-2 * v.numerator + v.denominator) // (2 * v.denominator))
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
            for k in range(j):
                mu[i][k] -= q * mu[j][k]
            mu[i][j] = v - q


def size_reduce(gram: GramMatrix) -> tuple[GramMatrix, Unimodular]:
    """Make every |mu_{i,j}| <= 1/2 by integer row operations.

    Lazy: coefficients already in [-1/2, 1/2] are left untouched, so bases on
    the +-1/2 boundary are fixed points.  The orthogonalized norms bstar are
    invariant under this transform.
    """
    mu = [list(row) for row in ldl(gram).mu]
    rows = int_identity(gram.n)
    _size_reduce(mu, rows)
    u = Unimodular.from_rows(rows)
    return apply_unimodular(gram, u), u


def complete_primitive_row(coeffs) -> list[list[int]]:
    """Extend a primitive integer vector to a unimodular matrix with it as row 1.

    Column-reduces the vector to (1, 0, ..., 0) by Euclidean operations while
    accumulating the inverse operations; the accumulated matrix has the input
    as its first row and determinant +-1.  The identity comes back unchanged
    for coeffs = (1, 0, ..., 0).
    """
    row = [int(c) for c in coeffs]
    m = len(row)
    if not any(row):
        raise ValueError("zero vector cannot start a basis")
    inv = int_identity(m)

    def swap_cols(a: int, b: int) -> None:
        row[a], row[b] = row[b], row[a]
        inv[a], inv[b] = inv[b], inv[a]

    def add_col(src: int, dst: int, q: int) -> None:
        # column op col_dst -= q * col_src; inverse op on rows of `inv`
        row[dst] -= q * row[src]
        for k in range(m):
            inv[src][k] += q * inv[dst][k]

    for j in range(1, m):
        while row[j] != 0:
            if row[0] == 0:
                swap_cols(0, j)
                continue
            q = row[j] // row[0]
            add_col(0, j, q)
            if row[j] != 0:
                swap_cols(0, j)
    if row[0] == -1:
        row[0] = 1
        for k in range(m):
            inv[0][k] = -inv[0][k]
    if row[0] != 1:
        raise ValueError(f"vector is not primitive: content {abs(row[0])}")
    return inv


def hkz_reduce(gram: GramMatrix) -> ReductionReport:
    """Full HKZ reduction by the textbook recursion.

    At each level i the shortest vector of the lattice projected past
    b_1, ..., b_{i-1} is found by enumeration, lifted to a primitive vector,
    completed to a basis of the trailing block, and installed as the new b_i;
    a lazy size reduction then restores |mu| <= 1/2 and the recursion moves on.
    Finally b_t is negated whenever the first nonzero coefficient of its mu
    row is exactly -1/2, which fixes the sign freedom of the +-1/2 boundary.
    The output is a fixed point: reducing it again returns it unchanged.

    One integer transform, relative to the input basis, and the GSO data of
    the current basis are carried through the levels.  The Gram matrix is
    rebuilt and factored only at a level whose shortest vector is not already
    b_i, and once more at the end.
    """
    n = gram.n
    rows = int_identity(n)
    gso = ldl(gram)
    mu = [list(row) for row in gso.mu]
    bstar = gso.bstar
    svp_calls = 0
    total_nodes = 0
    for level in range(n):
        sub_mu = tuple(tuple(mu[i][level:i]) for i in range(level, n))
        best = _shortest_from_gso(sub_mu, bstar[level:])
        svp_calls += 1
        total_nodes += best.nodes_visited
        if any(best.coeffs[1:]):
            block = complete_primitive_row(best.coeffs)
            tail = rows[level:]
            rows[level:] = [
                [sum(a * row[c] for a, row in zip(block_row, tail)) for c in range(n)]
                for block_row in block
            ]
            gso = ldl(apply_unimodular(gram, Unimodular(tuple(map(tuple, rows)))))
            mu = [list(row) for row in gso.mu]
            bstar = gso.bstar
        _size_reduce(mu, rows)
    signs = [1] * n
    half = Fraction(1, 2)
    for t in range(1, n):
        for j in range(t):
            v = mu[t][j]
            if v != 0:
                if signs[j] * v == -half:
                    signs[t] = -1
                break
    transform = Unimodular.from_rows(
        [[signs[i] * v for v in row] for i, row in enumerate(rows)]
    )
    return ReductionReport(
        apply_unimodular(gram, transform), transform, svp_calls, total_nodes
    )


def is_hkz_reduced(gram: GramMatrix) -> HKZCertificate:
    """Certify the HKZ conditions: size reduction plus, at every level, the
    projected first vector being a shortest vector of the projected lattice."""
    gso = ldl(gram)
    n = gram.n
    half = Fraction(1, 2)
    for i in range(1, n):
        for j in range(i):
            if abs(gso.mu[i][j]) > half:
                return HKZCertificate(
                    False,
                    f"not size reduced: mu[{i + 1}][{j + 1}] = {gso.mu[i][j]}",
                )
    for level in range(n):
        sub_mu = tuple(tuple(gso.mu[i][level:i]) for i in range(level, n))
        sub_bstar = gso.bstar[level:]
        best = _shortest_from_gso(sub_mu, sub_bstar)
        if best.norm_sq < gso.bstar[level]:
            if level == 0:
                return HKZCertificate(False, "b1 not shortest")
            return HKZCertificate(
                False,
                f"b{level + 1}({level + 1}) not shortest in its projected lattice",
            )
    return HKZCertificate(True, None)


def _independent_over_q(rows: list[list[Fraction]], candidate) -> bool:
    """Incremental rank test; mutates `rows` (kept in echelon form) on success."""
    vec = [Fraction(v) for v in candidate]
    for row in rows:
        pivot = next(i for i, v in enumerate(row) if v != 0)
        if vec[pivot] != 0:
            factor = vec[pivot] / row[pivot]
            vec = [a - factor * b for a, b in zip(vec, row)]
    if any(v != 0 for v in vec):
        rows.append(vec)
        return True
    return False


def _minima_from_gso(mu, bstar) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The n successive minima of a size-reduced basis given by its GSO data,
    each with an independent witness in that basis, as (norm_sq, coeffs).

    Enumerates every vector of squared norm at most (n+3)/4 * max_i bstar[i]
    and greedily picks independent vectors in order of increasing norm.  With
    |mu| <= 1/2, ||b_i||^2 <= bstar[i] + 1/4 (bstar[1] + ... + bstar[i-1]), so
    that radius holds b_1, ..., b_n and with them witnesses for all n minima.
    """
    n = len(bstar)
    if n > MAX_MINIMA_RANK:
        raise ValueError(
            f"minima enumeration unsupported above rank {MAX_MINIMA_RANK}"
        )
    radius = Fraction(n + 3, 4) * max(bstar)
    found, _nodes = _Enumerator(mu, bstar).below(radius)
    found.sort(key=lambda item: (item[0],) + _preference_key(item[1]))
    echelon: list[list[Fraction]] = []
    picked = []
    for norm_sq, coeffs in found:
        if _independent_over_q(echelon, coeffs):
            picked.append((norm_sq, coeffs))
            if len(picked) == n:
                return picked
    raise RuntimeError("enumeration radius failed to produce n independent vectors")


def successive_minima(gram: GramMatrix) -> SuccessiveMinima:
    """All n successive minima with independent witness vectors, exactly.

    HKZ-reduces first, then enumerates inside a radius that provably contains
    witnesses for all n minima of the reduced basis (see `_minima_from_gso`).
    Witness coefficients refer to the original input basis.
    """
    n = gram.n
    if n > MAX_MINIMA_RANK:
        raise ValueError(
            f"minima enumeration unsupported above rank {MAX_MINIMA_RANK}"
        )
    report = hkz_reduce(gram)
    gso = ldl(report.reduced)
    t = report.transform.entries
    minima = []
    witnesses = []
    for norm_sq, coeffs in _minima_from_gso(gso.mu, gso.bstar):
        original = tuple(
            sum(coeffs[r] * t[r][c] for r in range(n)) for c in range(n)
        )
        minima.append(norm_sq)
        witnesses.append(_normalize_sign(original))
    return SuccessiveMinima(tuple(minima), tuple(witnesses))


@dataclass(frozen=True)
class InequalityCheck:
    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def ratio(self) -> Fraction:
        return self.lhs / self.rhs


@dataclass(frozen=True)
class PropositionReport:
    """Outcome of the classical inequality families for an HKZ-reduced basis."""

    adjacent_bstar: tuple[InequalityCheck, ...]
    skip_two_bstar: tuple[InequalityCheck, ...]
    minima_lower: tuple[InequalityCheck, ...]
    minima_upper: tuple[InequalityCheck, ...]
    bstar_vs_minima: tuple[InequalityCheck, ...]

    def all_checks(self) -> tuple[InequalityCheck, ...]:
        return (
            self.adjacent_bstar
            + self.skip_two_bstar
            + self.minima_lower
            + self.minima_upper
            + self.bstar_vs_minima
        )

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.all_checks())

    def tightest(self) -> InequalityCheck:
        return max(self.all_checks(), key=lambda c: c.ratio)


def check_propositions(gram: GramMatrix) -> PropositionReport:
    """Verify, exactly, the standard norm inequalities of HKZ-reduced bases.

    Families checked (all with exact rational comparisons):
      * bstar[i] <= 4/3 bstar[i+1] and bstar[i] <= 3/2 bstar[i+2];
      * 4/(i+3) lambda_i^2 <= ||b_i||^2 <= (i+3)/4 lambda_i^2;
      * bstar[i] <= lambda_i^2.
    Requires a certified HKZ-reduced input and rank <= 6 (successive minima).
    """
    cert = is_hkz_reduced(gram)
    if not cert.ok:
        raise ValueError(f"input not HKZ reduced: {cert.failing_condition}")
    gso = ldl(gram)
    minima = [norm_sq for norm_sq, _ in _minima_from_gso(gso.mu, gso.bstar)]
    n = gram.n
    adjacent = tuple(
        InequalityCheck(
            f"bstar[{i + 1}] <= 4/3 bstar[{i + 2}]",
            gso.bstar[i],
            Fraction(4, 3) * gso.bstar[i + 1],
        )
        for i in range(n - 1)
    )
    skip_two = tuple(
        InequalityCheck(
            f"bstar[{i + 1}] <= 3/2 bstar[{i + 3}]",
            gso.bstar[i],
            Fraction(3, 2) * gso.bstar[i + 2],
        )
        for i in range(n - 2)
    )
    lower = tuple(
        InequalityCheck(
            f"4/{i + 4} lambda_{i + 1}^2 <= ||b_{i + 1}||^2",
            Fraction(4, i + 4) * minima[i],
            gram[i][i],
        )
        for i in range(n)
    )
    upper = tuple(
        InequalityCheck(
            f"||b_{i + 1}||^2 <= {i + 4}/4 lambda_{i + 1}^2",
            gram[i][i],
            Fraction(i + 4, 4) * minima[i],
        )
        for i in range(n)
    )
    bstar_le = tuple(
        InequalityCheck(
            f"bstar[{i + 1}] <= lambda_{i + 1}^2",
            gso.bstar[i],
            minima[i],
        )
        for i in range(n)
    )
    return PropositionReport(adjacent, skip_two, lower, upper, bstar_le)
