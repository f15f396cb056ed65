"""Basis reduction: size reduction, exact SVP enumeration, recursive HKZ, minima.

Everything here runs in exact rational arithmetic, so reduction outcomes and
shortness certificates are exact statements, not floating-point approximations.
Ranks are desk scale (enumeration is exhaustive); successive minima, and the
proposition and chain checks built on them, are capped at rank 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .core import (
    GramMatrix,
    GSOData,
    Unimodular,
    apply_unimodular,
    int_identity,
    ldl,
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
    """U G U^T, the transform U, the work done, and the defect of U G U^T,
    exact from det(G) alone: det(U G U^T) = det(U)^2 det(G) = det(G)."""

    reduced: GramMatrix
    transform: Unimodular
    svp_calls: int
    total_nodes: int
    defect: Fraction


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


# (norm_sq, coefficients) of lattice vectors, one per +/- pair
_Vectors = list[tuple[Fraction, tuple[int, ...]]]


class _Walk(NamedTuple):
    """What one `_enumerate` walk returns."""

    radius_sq: Fraction
    found: _Vectors
    nodes: int
    tail: _Vectors


def _enumerate(
    gso: GSOData,
    radius_sq: Fraction,
    shrink: bool,
    first_below: bool = False,
    tail: int | None = None,
) -> _Walk:
    """Depth-first exact enumeration of the nonzero x with x^T G x <= radius_sq.

    Works on the GSO data of G: the form value is sum_i bstar[i] * y_i^2 with
    y_i = x_i + sum_{j>i} mu[j][i] x_j.  Levels are processed from the last
    coordinate down, scanning each coordinate outward from its real center, so
    both scan directions can stop as soon as the partial norm overshoots.
    `found` lists (norm_sq, x), one x per +/- pair, signs normalized.

    With `shrink`, a strictly shorter vector becomes the radius and empties
    `found`, which then holds exactly the shortest vectors; the walk visits
    both halves of the tree, so its node count is that of the full ball.

    Without it the radius is fixed and the walk visits one of each +/- pair:
    at a level whose higher coordinates are all zero it scans only values
    >= 0.  With `first_below` it keeps only partial norms < radius_sq and
    returns at the first nonzero vector, so `found` is empty exactly when no
    vector is strictly shorter than radius_sq.  With `tail = t` it also lists
    in `tail` the (partial norm, x[t:]) of every node of level t whose x[t:]
    is nonzero: the vectors of the projected block gso.block(t) within
    radius_sq, one per +/- pair.
    """
    mu, bstar, n = gso.mu, gso.bstar, gso.n
    x = [0] * n
    found: _Vectors = []
    projected: _Vectors = []
    nodes = 0
    half = not shrink

    def descend(level: int, partial: Fraction, top: bool) -> bool:
        # `top`: every coordinate above `level` is zero; returns True to stop
        nonlocal radius_sq, nodes
        center = -sum(
            (mu[j][level] * x[j] for j in range(level + 1, n)),
            Fraction(0),
        )
        b = bstar[level]
        start = _nearest_int(center)
        scans = ((start, 1),) if half and top else ((start, 1), (start - 1, -1))
        for value, step in scans:
            while True:
                offset = value - center
                norm_here = partial + b * offset * offset
                if norm_here > radius_sq or (first_below and norm_here == radius_sq):
                    break
                nodes += 1
                x[level] = value
                if level == tail and (value or not top):
                    projected.append((norm_here, _normalize_sign(tuple(x[level:]))))
                if level:
                    if descend(level - 1, norm_here, top and not value):
                        return True
                elif any(x):
                    coeffs = tuple(x)
                    if half:
                        found.append((norm_here, _normalize_sign(coeffs)))
                        if first_below:
                            return True
                    else:
                        if norm_here < radius_sq:
                            radius_sq = norm_here
                            found.clear()
                        if _normalize_sign(coeffs) == coeffs:
                            found.append((norm_here, coeffs))
                value += step
        x[level] = 0
        return False

    descend(n - 1, Fraction(0), True)
    return _Walk(radius_sq, found, nodes, projected)


def shortest_vector(gram: GramMatrix) -> ShortestVectorResult:
    """Certified shortest nonzero lattice vector by exhaustive enumeration.

    Deterministic tie-break: among minimal vectors (signs normalized so the
    first nonzero coefficient is positive) the one supported on the earliest
    basis vectors wins.
    """
    return _shortest_from_gso(ldl(gram))


def _shortest_from_gso(gso: GSOData) -> ShortestVectorResult:
    # b_1 has norm bstar[0], so the enumeration finds at least that vector
    walk = _enumerate(gso, gso.bstar[0], shrink=True)
    coeffs = min((x for _, x in walk.found), key=_preference_key)
    return ShortestVectorResult(coeffs, walk.radius_sq, walk.nodes)


def projected_gram(gram: GramMatrix, index: int) -> GramMatrix:
    """Gram matrix of the lattice projected orthogonally to b_1, ..., b_{index-1}.

    `index` is 1-based: index 1 returns the matrix itself, index i returns the
    rank n-i+1 Gram of the projections of b_i, ..., b_n.  Built exactly from
    the trailing LDL data as L' diag(bstar[i..n]) L'^T.
    """
    n = gram.n
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range 1..{n}")
    return ldl(gram).block(index - 1).reconstruct()


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
    row = list(coeffs)
    if not all(isinstance(c, int) for c in row):
        raise ValueError("coefficients must be integers")
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

    The defect divides by det(G) from the entry factorization, before any
    level runs; `Unimodular.from_rows` proves det(U) = +-1 before it is used.
    """
    n = gram.n
    rows = int_identity(n)
    gso = ldl(gram)
    mu = [list(row) for row in gso.mu]
    bstar = gso.bstar
    det = prod(bstar)
    svp_calls = 0
    total_nodes = 0
    for level in range(n):
        best = _shortest_from_gso(GSOData(tuple(map(tuple, mu)), bstar).block(level))
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
    reduced = apply_unimodular(gram, transform)
    return ReductionReport(
        reduced, transform, svp_calls, total_nodes, prod(reduced.diagonal()) / det
    )


def is_hkz_reduced(gram: GramMatrix) -> HKZCertificate:
    """Certify the HKZ conditions: size reduction plus, at every level, the
    projected first vector being a shortest vector of the projected lattice."""
    return _certify(ldl(gram))


def _certify(gso: GSOData) -> HKZCertificate:
    n = gso.n
    half = Fraction(1, 2)
    for i in range(1, n):
        for j in range(i):
            if abs(gso.mu[i][j]) > half:
                return HKZCertificate(
                    False,
                    f"not size reduced: mu[{i + 1}][{j + 1}] = {gso.mu[i][j]}",
                )
    for level in range(n):
        # b_l(l) is shortest unless some vector of its block is strictly
        # shorter; the walk stops at the first one
        block = gso.block(level)
        if _enumerate(block, block.bstar[0], False, first_below=True).found:
            if level == 0:
                return HKZCertificate(False, "b1 not shortest")
            return HKZCertificate(
                False,
                f"b{level + 1}({level + 1}) not shortest in its projected lattice",
            )
    return HKZCertificate(True, None)


def _independent_over_q(rows: list[list[int]], candidate) -> bool:
    """Incremental rank test on integer vectors, mutating `rows` (kept in
    echelon form) on success.  Fraction-free: vec = a vec - b row, with a the
    row's pivot and b vec's entry there, keeps the zeros at earlier pivots."""
    vec = list(candidate)
    for row in rows:
        pivot = next(i for i, v in enumerate(row) if v)
        b = vec[pivot]
        if b:
            a = row[pivot]
            vec = [a * x - b * y for x, y in zip(vec, row)]
    if any(vec):
        rows.append(vec)
        return True
    return False


def _basis_norms(gso: GSOData) -> tuple[Fraction, ...]:
    """||b_i||^2 = bstar[i] + sum_{j<i} mu[i][j]^2 bstar[j] for each i."""
    return tuple(
        gso.bstar[i] + sum(gso.mu[i][j] ** 2 * gso.bstar[j] for j in range(i))
        for i in range(gso.n)
    )


def _require_minima_rank(n: int) -> None:
    if n > MAX_MINIMA_RANK:
        raise ValueError(f"minima enumeration unsupported above rank {MAX_MINIMA_RANK}")


def _pick_minima(found: _Vectors, n: int) -> _Vectors:
    """Greedily pick n independent vectors from `found` in order of increasing
    norm, ties broken by `_preference_key`: the n successive minima, with
    witnesses, whenever `found` holds every vector up to lambda_n."""
    found.sort(key=lambda item: (item[0],) + _preference_key(item[1]))
    echelon: list[list[int]] = []
    picked = []
    for norm_sq, coeffs in found:
        if _independent_over_q(echelon, coeffs):
            picked.append((norm_sq, coeffs))
            if len(picked) == n:
                return picked
    raise RuntimeError("enumeration radius failed to produce n independent vectors")


def _minima_from_gso(
    gso: GSOData, tail: int | None = None
) -> tuple[_Vectors, _Vectors]:
    """The n successive minima of the basis given by its GSO data, each with
    an independent witness in that basis, as (norm_sq, coeffs); and with
    `tail = t` also those of the projected block gso.block(t) (else []).

    Enumerates every vector of squared norm at most max_i ||b_i||^2 and
    greedily picks independent vectors in order of increasing norm.  That
    radius holds the n independent vectors b_1, ..., b_n, so lambda_n is
    within it, and with lambda_n the witnesses for all n minima.  The same
    walk passes every vector of block(t) within that radius, and the last
    minimum of block(t) is at most max_{i>t} ||b_i(t+1)||^2 <= max_i ||b_i||^2,
    so its minima need no walk of their own.  Callers check the rank
    (`_require_minima_rank`) before any enumeration.
    """
    walk = _enumerate(gso, max(_basis_norms(gso)), shrink=False, tail=tail)
    tail_minima = [] if tail is None else _pick_minima(walk.tail, gso.n - tail)
    return _pick_minima(walk.found, gso.n), tail_minima


def successive_minima(gram: GramMatrix) -> SuccessiveMinima:
    """All n successive minima with independent witness vectors, exactly.

    HKZ-reduces first, then enumerates inside a radius that provably contains
    witnesses for all n minima of the reduced basis (see `_minima_from_gso`).
    Witness coefficients refer to the original input basis.
    """
    n = gram.n
    _require_minima_rank(n)
    report = hkz_reduce(gram)
    gso = ldl(report.reduced)
    t = report.transform.entries
    minima = []
    witnesses = []
    for norm_sq, coeffs in _minima_from_gso(gso)[0]:
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
    _require_minima_rank(gram.n)
    return _propositions(gram, ldl(gram))[0]


def _propositions(
    gram: GramMatrix, gso: GSOData, tail: int | None = None
) -> tuple[PropositionReport, list[Fraction]]:
    """The report of `check_propositions`, and the minima of gso.block(tail)
    taken from the same minima walk (see `_minima_from_gso`)."""
    cert = _certify(gso)
    if not cert.ok:
        raise ValueError(
            f"input not HKZ reduced (not HKZ certified: {cert.failing_condition})"
        )
    picked, tail_picked = _minima_from_gso(gso, tail)
    minima = [norm_sq for norm_sq, _ in picked]
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
    report = PropositionReport(adjacent, skip_two, lower, upper, bstar_le)
    return report, [norm_sq for norm_sq, _ in tail_picked]


@dataclass(frozen=True)
class ChainReport:
    """Exact verification of the inequality chain behind the rank-split bound,
    for a certified HKZ-reduced basis of rank >= 4, whose 3x3 prefix is HKZ."""

    bstar_vs_fourth: tuple[InequalityCheck, ...]
    norm_vs_projected: tuple[InequalityCheck, ...]
    norm_vs_projected_minima: tuple[InequalityCheck, ...]
    propositions: PropositionReport

    @property
    def bstar_vs_full_minima(self) -> tuple[InequalityCheck, ...]:
        """||b_i(i)||^2 <= lambda_i^2 in the full lattice."""
        return self.propositions.bstar_vs_minima

    def all_checks(self) -> tuple[InequalityCheck, ...]:
        return (
            self.bstar_vs_fourth
            + self.norm_vs_projected
            + self.norm_vs_projected_minima
            + self.propositions.all_checks()
        )

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.all_checks())


def check_defect_chain(gram: GramMatrix) -> ChainReport:
    """Verify, exactly, every link used to bound the defect of a rank >= 4
    HKZ basis by the rank-3 maximum times per-index factors:

      * the leading 3x3 block is HKZ reduced: a prefix of an HKZ basis is, so
        the certificate `check_propositions` requires already covers it;
      * ||b_1||^2 <= 2 B4, ||b_2(2)||^2 <= 3/2 B4, ||b_3(3)||^2 <= 4/3 B4,
        writing B4 for ||b_4(4)||^2;
      * ||b_i||^2 <= ||b_i(4)||^2 + 29/24 B4 for i >= 4;
      * ||b_i||^2 <= (i/4 + 29/24) lambda_{i-3}^2 of the lattice projected
        past b_1, b_2, b_3 (its minima indexed from 1, read off the walk
        that finds the minima of the whole lattice);
      * every family of `check_propositions`, which certifies the input and
        includes ||b_i(i)||^2 <= lambda_i^2 in the full lattice.
    """
    n = gram.n
    if not 4 <= n <= MAX_MINIMA_RANK:
        raise ValueError(f"chain check needs rank 4..{MAX_MINIMA_RANK}")
    gso = ldl(gram)
    propositions, tail_minima = _propositions(gram, gso, tail=3)
    b4 = gso.bstar[3]
    bstar_vs_fourth = tuple(
        InequalityCheck(label, gso.bstar[i], factor * b4)
        for i, factor, label in (
            (0, Fraction(2), "||b_1||^2 <= 2 ||b_4(4)||^2"),
            (1, Fraction(3, 2), "||b_2(2)||^2 <= 3/2 ||b_4(4)||^2"),
            (2, Fraction(4, 3), "||b_3(3)||^2 <= 4/3 ||b_4(4)||^2"),
        )
    )
    tail = gso.block(3)
    norm_vs_projected = tuple(
        InequalityCheck(
            f"||b_{i + 1}||^2 <= ||b_{i + 1}(4)||^2 + 29/24 ||b_4(4)||^2",
            gram[i][i],
            proj_norm + Fraction(29, 24) * b4,
        )
        for i, proj_norm in enumerate(_basis_norms(tail), start=3)
    )
    norm_vs_minima = tuple(
        InequalityCheck(
            f"||b_{i + 1}||^2 <= ({i + 1}/4 + 29/24) lambda_{i - 2}(4)^2",
            gram[i][i],
            (Fraction(i + 1, 4) + Fraction(29, 24)) * tail_minima[i - 3],
        )
        for i in range(3, n)
    )
    return ChainReport(
        bstar_vs_fourth=bstar_vs_fourth,
        norm_vs_projected=norm_vs_projected,
        norm_vs_projected_minima=norm_vs_minima,
        propositions=propositions,
    )
