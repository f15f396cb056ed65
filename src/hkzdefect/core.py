"""Exact rational lattice kernels: Gram matrices, LDL orthogonalization, unimodular maps.

A lattice is represented by the Gram matrix of a basis, G[i][j] = <b_i, b_j>,
with `fractions.Fraction` entries.  `ldl` works in Fractions; U G U^T is formed
on integers over one common denominator.  Working on Gram matrices
instead of coordinate vectors keeps every quantity rational: lattices such as
the hexagonal one need irrational coordinates but have a perfectly rational
Gram matrix.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

import errno
import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod


class SingularBasisError(ValueError):
    """Raised when supposedly independent generators are dependent."""


class NotPositiveDefiniteError(ValueError):
    """Raised when an LDL pivot fails to be positive.

    `pivot_index` is 1-based, matching the usual b_1, ..., b_n numbering.
    """

    def __init__(self, pivot_index: int, pivot_value: Fraction):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"not positive definite: pivot {pivot_index} is {pivot_value}"
        )


class GramFormatError(ValueError):
    """Raised on malformed Gram matrix text, with 1-based line/column info."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" + (f", entry {column}" if column is not None else "")
        super().__init__(f"{where}: {message}")


def _to_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected exact rational, got {type(value).__name__}")


def format_rat(value: Fraction) -> str:
    """Render a rational as 'p/q', or just 'p' when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise inner products, exact rational entries.

    Positive definiteness is not enforced at construction; it is certified by
    `ldl`, which every consumer that needs it calls anyway.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "GramMatrix":
        mat = tuple(tuple(_to_rat(v) for v in row) for row in rows)
        n = len(mat)
        if n == 0:
            raise ValueError("empty Gram matrix")
        for i, row in enumerate(mat):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
        for i in range(n):
            for j in range(i):
                if mat[i][j] != mat[j][i]:
                    raise ValueError(
                        f"not symmetric: entry ({i + 1},{j + 1}) = {format_rat(mat[i][j])}"
                        f" differs from ({j + 1},{i + 1}) = {format_rat(mat[j][i])}"
                    )
        return cls(mat)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))

    def scaled(self, factor) -> "GramMatrix":
        c = _to_rat(factor)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return GramMatrix(tuple(tuple(c * v for v in row) for row in self.entries))


@dataclass(frozen=True)
class VectorBasis:
    """Row vectors with exact rational coordinates, rows assumed independent."""

    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "VectorBasis":
        mat = tuple(tuple(_to_rat(v) for v in row) for row in rows)
        if not mat:
            raise ValueError("empty basis")
        m = len(mat[0])
        if any(len(row) != m for row in mat):
            raise ValueError("rows have inconsistent lengths")
        return cls(mat)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class GSOData:
    """Gram-Schmidt data as an LDL factorization of the Gram matrix.

    `mu[i]` holds the projection coefficients mu_{i,j} for j < i (row i has i
    entries), and `bstar[i]` is the squared norm of the i-th orthogonalized
    vector.  Reconstruction: G = L diag(bstar) L^T with L unit lower
    triangular, L[i][j] = mu[i][j].
    """

    mu: tuple[tuple[Fraction, ...], ...]
    bstar: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.bstar)

    def block(self, start: int, stop: int | None = None) -> "GSOData":
        """GSO data of b_start, ..., b_{stop-1} (0-based) projected past the
        earlier vectors: the rows and columns of `mu` from `start`, and
        `bstar[start:stop]`.  Every projected block is cut here."""
        stop = self.n if stop is None else stop
        if not 0 <= start < stop <= self.n:
            raise ValueError(f"block [{start}, {stop}) out of range 0..{self.n}")
        mu = tuple(row[start:] for row in self.mu[start:stop])
        return GSOData(mu, self.bstar[start:stop])

    def reconstruct(self) -> GramMatrix:
        n = self.n
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                # the k = j term carries the unit diagonal of L
                s = (self.mu[i][j] if j < i else 1) * self.bstar[j]
                for k in range(j):
                    s += self.mu[i][k] * self.mu[j][k] * self.bstar[k]
                rows[i][j] = rows[j][i] = s
        return GramMatrix(tuple(map(tuple, rows)))


def gram_from_vectors(basis: VectorBasis) -> GramMatrix:
    """Gram matrix of explicit row vectors; rejects dependent rows."""
    if not isinstance(basis, VectorBasis):
        basis = VectorBasis.from_rows(basis)
    rows = basis.rows
    n = len(rows)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = sum((a * b for a, b in zip(rows[i], rows[j])), Fraction(0))
            gram[i][j] = gram[j][i] = v
    g = GramMatrix.from_rows(gram)
    try:
        ldl(g)
    except NotPositiveDefiniteError as exc:
        raise SingularBasisError("singular basis: rows are linearly dependent") from exc
    return g


def ldl(gram: GramMatrix) -> GSOData:
    """Exact LDL factorization; raises NotPositiveDefiniteError on a bad pivot.

    The unit lower-triangular factor is exactly the matrix of Gram-Schmidt
    coefficients mu_{i,j}, and the diagonal holds the squared norms of the
    orthogonalized vectors.
    """
    n = gram.n
    mu: list[list[Fraction]] = []
    bstar: list[Fraction] = []
    for i in range(n):
        row = []
        for j in range(i):
            v = gram[i][j]
            for k in range(j):
                v -= row[k] * mu[j][k] * bstar[k]
            row.append(v / bstar[j])
        d = gram[i][i]
        for k in range(i):
            d -= row[k] * row[k] * bstar[k]
        if d <= 0:
            raise NotPositiveDefiniteError(i + 1, d)
        mu.append(row)
        bstar.append(d)
    return GSOData(tuple(tuple(r) for r in mu), tuple(bstar))


def quadratic_form_value(gram: GramMatrix, coeffs) -> Fraction:
    """x^T G x for an integer coefficient vector x."""
    n = gram.n
    x = list(coeffs)
    if len(x) != n:
        raise ValueError(f"coefficient vector has length {len(x)}, expected {n}")
    if not all(isinstance(v, int) for v in x):
        raise ValueError("coefficients must be integers")
    total = Fraction(0)
    for i in range(n):
        if x[i] == 0:
            continue
        total += gram[i][i] * x[i] * x[i]
        for j in range(i):
            if x[j]:
                total += 2 * gram[i][j] * x[i] * x[j]
    return total


def determinant(gram: GramMatrix) -> Fraction:
    """det(G), computed as the product of LDL pivots; always positive."""
    return prod(ldl(gram).bstar, start=Fraction(1))


# ---------------------------------------------------------------------------
# integer matrices and unimodular transforms


def int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_det(matrix: list[list[int]]) -> int:
    """Integer determinant via fraction-free (Bareiss) elimination."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class Unimodular:
    """Integer matrix with determinant +1 or -1 (a change of lattice basis)."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "Unimodular":
        mat = tuple(tuple(row) for row in rows)
        n = len(mat)
        if n == 0:
            raise ValueError("empty unimodular matrix")
        if not all(isinstance(v, int) for row in mat for v in row):
            raise ValueError("unimodular entries must be integers")
        if any(len(row) != n for row in mat):
            raise ValueError("unimodular matrix must be square")
        d = int_det([list(r) for r in mat])
        if d not in (1, -1):
            raise ValueError(f"matrix is not unimodular: determinant {d}")
        return cls(mat)

    @classmethod
    def identity(cls, n: int) -> "Unimodular":
        return cls(tuple(tuple(row) for row in int_identity(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def det(self) -> int:
        return int_det([list(r) for r in self.entries])

    def is_identity(self) -> bool:
        return all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )


def apply_unimodular(gram: GramMatrix, transform: Unimodular) -> GramMatrix:
    """Gram matrix of the transformed basis b'_i = sum_j U[i][j] b_j, i.e. U G U^T.

    Computed on integers over one denominator: with D the lcm of the entries'
    denominators, D G is an integer matrix, U (D G) U^T is formed in Python
    ints over the nonzero support of U, and each entry of the lower triangle
    becomes one Fraction(value, D), mirrored above the diagonal.
    """
    n = gram.n
    if transform.n != n:
        raise ValueError("dimension mismatch")
    den = lcm(*(v.denominator for row in gram.entries for v in row))
    g = [[v.numerator * (den // v.denominator) for v in row] for row in gram.entries]
    support = [[(k, c) for k, c in enumerate(row) if c] for row in transform.entries]
    ug = [[sum(g[k][j] * c for k, c in row) for j in range(n)] for row in support]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            value = sum(ug[i][k] * c for k, c in support[j])
            rows[i][j] = rows[j][i] = Fraction(value, den)
    return GramMatrix(tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# text format: line 1 is n, then n rows of n whitespace-separated rationals

# ASCII integers and p/q only: Fraction() alone also takes 0.5, 1_000 and ١
_RANK_TOKEN = re.compile(r"[+-]?[0-9]+")
_RATIONAL_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(token: str) -> Fraction:
    """The rational an ASCII integer or p/q token stands for, with an
    optional sign and a positive q.  Raises ValueError for any other text,
    a zero denominator included: unlike Fraction(), no decimals, exponents
    (10**exponent is unbounded), digit separators, spaces or non-ASCII digits.
    """
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ValueError(f"invalid rational {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def parse_gram_text(text: str) -> GramMatrix:
    """Parse the Gram matrix text format, rejecting asymmetric or non-PD input.

    Diagnostics carry 1-based line numbers; positive definiteness failures
    name the failing pivot.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GramFormatError("expected rank on first line", 1)
    head = lines[0].strip()
    try:
        if not _RANK_TOKEN.fullmatch(head):
            raise ValueError(head)
        n = int(head)
    except ValueError:
        raise GramFormatError(f"invalid rank {head!r}", 1) from None
    if n <= 0:
        raise GramFormatError(f"rank must be positive, got {n}", 1)
    rows = []
    lineno = 1
    for i in range(n):
        lineno = i + 2
        if lineno - 1 >= len(lines) or not lines[lineno - 1].strip():
            raise GramFormatError(f"expected matrix row {i + 1}", lineno)
        parts = lines[lineno - 1].split()
        if len(parts) != n:
            raise GramFormatError(
                f"expected {n} entries, got {len(parts)}", lineno
            )
        row = []
        for j, token in enumerate(parts):
            # Fraction() also reads exponents, and 10**exponent is unbounded
            if "e" in token or "E" in token:
                raise GramFormatError(
                    f"exponent notation not allowed: {token!r}", lineno, j + 1
                )
            try:
                row.append(parse_rational(token))
            except ValueError:
                raise GramFormatError(
                    f"invalid rational {token!r}", lineno, j + 1
                ) from None
        rows.append(row)
    for extra, line in enumerate(lines[n + 1 :], start=n + 2):
        if line.strip():
            raise GramFormatError(f"unexpected line after row {n}", extra)
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise GramFormatError(
                    f"not symmetric: entry ({i + 1},{j + 1}) != ({j + 1},{i + 1})",
                    i + 2,
                    j + 1,
                )
    gram = GramMatrix(tuple(tuple(r) for r in rows))
    ldl(gram)  # raises NotPositiveDefiniteError naming the failing pivot
    return gram


def format_gram_text(gram: GramMatrix) -> str:
    lines = [str(gram.n)]
    for row in gram.entries:
        lines.append(" ".join(format_rat(v) for v in row))
    return "\n".join(lines) + "\n"


# `load_gram` refuses longer input, reading at most one chunk past this
MAX_INPUT_CHARS = 2**24
_READ_CHUNK = 2**16


def load_gram(path) -> GramMatrix:
    # read(n) allocates n bytes up front whatever the file holds; chunks do not
    with open(path, "r", encoding="utf-8") as handle:
        chunks = iter(functools.partial(handle.read, _READ_CHUNK), "")
        text = "".join(itertools.islice(chunks, MAX_INPUT_CHARS // _READ_CHUNK + 1))
    if len(text) > MAX_INPUT_CHARS:
        raise OSError(errno.EFBIG, f"input longer than {MAX_INPUT_CHARS} characters")
    return parse_gram_text(text)
