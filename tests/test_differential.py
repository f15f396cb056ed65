"""Differential tests: the reduction and minima paths against step-by-step
references built only from public functions.

`reference_hkz` is the textbook recursion written out level by level: the SVP
of each projected lattice, its completion to a unimodular block, a full
U G U^T rebuild, a size reduction, and at the end the +-1/2 sign flip.  The
library carries one transform and the GSO data through the levels instead,
so both must agree exactly, node counts included.  Its rebuilds use the
Fraction oracle `fraction_apply_unimodular`, not the library's integer one.

The integer kernels `apply_unimodular` and `_independent_over_q` are checked
against their Fraction oracles in `conftest.py` on inputs the other tests do
not draw: large and mixed denominators, integer entries, huge vectors.

`_Enumerator` is the enumeration class the library used before its one
`_enumerate` function; kept unchanged here, it is the oracle for that
function's radius, vectors and node counts.

`hkz_reduce` rebuilds and factors U G U^T only at a level that moves a
vector; everywhere else it trusts the GSO data it carried.  The carried-GSO
test checks that data at every level against a fresh factorization of the
Fraction oracle's U G U^T, and the defect test checks the defect taken from
the entry factorization against `orthogonality_defect` of the output.
"""

import math
import random
from fractions import Fraction
from fractions import Fraction as Fr

import pytest

from hkzdefect import (
    GramMatrix,
    GSOData,
    Unimodular,
    apply_unimodular,
    check_defect_chain,
    check_propositions,
    hkz_reduce,
    ldl,
    orthogonality_defect,
    projected_gram,
    quadratic_form_value,
    shortest_vector,
    size_reduce,
    successive_minima,
)
from hkzdefect import reduction
from hkzdefect.experiments import random_gram
from hkzdefect.reduction import (
    _basis_norms,
    _enumerate,
    _independent_over_q,
    _minima_from_gso,
    _nearest_int,
    _normalize_sign,
    _pick_minima,
    complete_primitive_row,
)

from conftest import (
    bounded_gram,
    fraction_apply_unimodular,
    fraction_independent_over_q,
)


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def reference_hkz(gram):
    n = gram.n
    current = gram
    transform = _identity(n)
    svp_calls = total_nodes = 0
    for level in range(n):
        best = shortest_vector(projected_gram(current, level + 1))
        svp_calls += 1
        total_nodes += best.nodes_visited
        block = complete_primitive_row(best.coeffs)
        step = _identity(n)
        for a, row in enumerate(block):
            step[level + a][level:] = row
        current = fraction_apply_unimodular(current, Unimodular.from_rows(step))
        transform = _mat_mul(step, transform)
        _, u_sr = size_reduce(current)
        current = fraction_apply_unimodular(current, u_sr)
        transform = _mat_mul([list(r) for r in u_sr.entries], transform)
    mu = ldl(current).mu
    signs = [1] * n
    for t in range(1, n):
        for j in range(t):
            if mu[t][j] != 0:
                if signs[j] * mu[t][j] == Fr(-1, 2):
                    signs[t] = -1
                break
    flip = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    current = fraction_apply_unimodular(current, Unimodular.from_rows(flip))
    transform = _mat_mul(flip, transform)
    return current, Unimodular.from_rows(transform), svp_calls, total_nodes


def scrambled_rational_gram(rank, seed):
    """A random lattice in a bad basis, with mixed row denominators."""
    rng = random.Random(seed)
    g = random_gram(rank, 3000 + seed, 6)
    u = _identity(rank)
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    g = apply_unimodular(g, Unimodular.from_rows(u))
    d = [rng.choice((1, 2, 3)) for _ in range(rank)]
    return GramMatrix.from_rows(
        [[g[i][j] / (d[i] * d[j]) for j in range(rank)] for i in range(rank)]
    )


# mu[2][1] = -1/2 flips b_2, and then mu[3][2] = +1/2 flips b_3 as well
SIGN_CASCADE = GramMatrix.from_rows(
    [[1, Fr(-1, 2), 0], [Fr(-1, 2), 1, Fr(3, 8)], [0, Fr(3, 8), 1]]
)

ENSEMBLE = (
    [random_gram(rank, seed) for rank in range(2, 7) for seed in range(6)]
    + [scrambled_rational_gram(rank, seed) for rank in range(2, 6) for seed in range(3)]
    + [SIGN_CASCADE]
)


@pytest.mark.parametrize("index", range(len(ENSEMBLE)))
def test_hkz_reduce_matches_step_by_step_reference(index):
    gram = ENSEMBLE[index]
    report = hkz_reduce(gram)
    reduced, transform, svp_calls, total_nodes = reference_hkz(gram)
    assert report.reduced == reduced
    assert report.transform == transform
    assert report.svp_calls == svp_calls
    assert report.total_nodes == total_nodes


@pytest.mark.parametrize("index", range(len(ENSEMBLE)))
def test_carried_gso_matches_a_fresh_factorization(monkeypatch, index):
    gram = ENSEMBLE[index]
    n = gram.n
    shortest, reduce_sizes = reduction._shortest_from_gso, reduction._size_reduce
    rows_now = [[int(i == j) for j in range(n)] for i in range(n)]
    levels, size_reductions = [], []

    def fresh(rows):
        return ldl(fraction_apply_unimodular(gram, Unimodular(tuple(map(tuple, rows)))))

    def checked_shortest(block):
        # level l enumerates the carried tail block of the current basis
        level = n - block.n
        want = fresh(rows_now)
        assert tuple(block.bstar) == want.bstar[level:]
        assert tuple(map(tuple, block.mu)) == tuple(
            want.mu[i][level:i] for i in range(level, n)
        )
        levels.append(level)
        return shortest(block)

    def checked_size_reduce(gso, rows):
        rows_before = [list(row) for row in rows]
        assert gso == fresh(rows)
        reduced = reduce_sizes(gso, rows)
        assert reduced == fresh(rows)
        # the input still describes the basis before the size reduction
        assert gso == fresh(rows_before)
        rows_now[:] = [list(row) for row in rows]
        size_reductions.append(len(levels))
        return reduced

    monkeypatch.setattr(reduction, "_shortest_from_gso", checked_shortest)
    monkeypatch.setattr(reduction, "_size_reduce", checked_size_reduce)
    report = hkz_reduce(gram)
    assert levels == list(range(n))
    assert size_reductions == list(range(1, n + 1))
    # the output differs from the last carried basis only by row signs
    for row, final in zip(rows_now, report.transform.entries):
        assert list(final) in (row, [-v for v in row])


DEFECT_GRAMS = (
    [random_gram(rank, seed) for rank in range(1, 7) for seed in range(4)]
    + [bounded_gram(rank, seed) for rank in range(1, 6) for seed in range(3)]
    + [scrambled_rational_gram(rank, seed) for rank in range(2, 6) for seed in range(3)]
    + [SIGN_CASCADE]
)


def _assert_report_defect_exact(gram):
    report = hkz_reduce(gram)
    want = orthogonality_defect(report.reduced)
    assert type(report.defect) is Fraction
    assert (report.defect.numerator, report.defect.denominator) == (
        want.numerator,
        want.denominator,
    )
    return report.defect


@pytest.mark.parametrize("index", range(len(DEFECT_GRAMS)))
def test_report_defect_matches_orthogonality_defect(index):
    _assert_report_defect_exact(DEFECT_GRAMS[index])


@pytest.mark.parametrize(
    "name, defect",
    [
        ("identity3", Fr(1)),
        ("hexagonal", Fr(4, 3)),
        ("extremal_plus", Fr(25, 12)),
        ("extremal_minus", Fr(25, 12)),
    ],
)
def test_report_defect_on_the_fixture_forms(request, name, defect):
    assert _assert_report_defect_exact(request.getfixturevalue(name)) == defect


def _certified_variants(gram):
    """The reduced basis and a copy with some vectors negated: both are HKZ
    certified, but only the first is a fixed point of hkz_reduce."""
    reduced = hkz_reduce(gram).reduced
    n = reduced.n
    flip = [[(-1 if i % 2 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return reduced, apply_unimodular(reduced, Unimodular.from_rows(flip))


@pytest.mark.parametrize("index", range(len(ENSEMBLE)))
def test_check_minima_match_successive_minima(index):
    for basis in _certified_variants(ENSEMBLE[index]):
        full = successive_minima(basis).minima_sq
        report = check_propositions(basis)
        assert tuple(c.rhs for c in report.bstar_vs_minima) == full
        if not 4 <= basis.n <= 6:
            continue
        chain = check_defect_chain(basis)
        assert chain.propositions == report
        assert tuple(c.rhs for c in chain.bstar_vs_full_minima) == full
        tail = successive_minima(projected_gram(basis, 4)).minima_sq
        factors = [Fr(i + 1, 4) + Fr(29, 24) for i in range(3, basis.n)]
        assert (
            tuple(c.rhs / f for c, f in zip(chain.norm_vs_projected_minima, factors))
            == tail
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


def _gso_blocks(gram):
    """GSO data of a basis, of its HKZ-reduced form and of every projected
    tail of that form."""
    yield ldl(gram)
    reduced = ldl(hkz_reduce(gram).reduced)
    n = gram.n
    for level in range(n):
        sub_mu = tuple(tuple(reduced.mu[i][level:i]) for i in range(level, n))
        yield GSOData(sub_mu, reduced.bstar[level:])


ORACLE_BASES = [
    random_gram(rank, seed)
    for rank in range(1, 7)
    for seed in range(12 if rank < 6 else 4)
]


def _primitive(vectors):
    """The (norm_sq, x) of `vectors` whose x has gcd 1: the fixed-radius walk
    keeps only those, since a multiple k w is never a minimum's witness."""
    return {(norm_sq, x) for norm_sq, x in vectors if math.gcd(*x) == 1}


@pytest.mark.parametrize("index", range(len(ORACLE_BASES)))
def test_enumerate_matches_old_enumerator(index):
    for gso in _gso_blocks(ORACLE_BASES[index]):
        mu, bstar = gso.mu, gso.bstar
        e1 = tuple([1] + [0] * (gso.n - 1))
        radius, best, nodes = _Enumerator(mu, bstar).shortest(bstar[0], seed=e1)
        walk = _enumerate(gso, bstar[0], shrink=True)
        assert walk.radius_sq == radius
        assert sorted(x for _, x in walk.found) == sorted(best)
        assert all(norm_sq == radius for norm_sq, _ in walk.found)
        assert walk.nodes == nodes

        # the fixed-radius walk visits one of each +/- pair: the n all-zero
        # prefixes once, every other node of the oracle's walk half as often
        radius = max(_basis_norms(gso))
        below, nodes = _Enumerator(mu, bstar).below(radius)
        walk = _enumerate(gso, radius, shrink=False)
        assert walk.radius_sq == radius
        assert len(walk.found) == len(_primitive(below))
        assert set(walk.found) == _primitive(below)
        assert 2 * walk.nodes == nodes + gso.n


@pytest.mark.parametrize("index", range(len(ORACLE_BASES)))
def test_walk_records_every_projected_block(index):
    # each projected block's own minima walk, at the block's radius, picks
    # the minima and witnesses that a pick over the oracle's enumeration of
    # block(l) at the whole basis's larger radius gives
    for gso in _gso_blocks(ORACLE_BASES[index]):
        radius = max(_basis_norms(gso))
        for level in range(gso.n):
            block = gso.block(level)
            below, _ = _Enumerator(block.mu, block.bstar).below(radius)
            oracle = _pick_minima(sorted(_primitive(below)), block.n)
            assert _minima_from_gso(block) == oracle


def _random_blocks(seeds):
    """Every projected block of random_gram(rank, seed) and of its HKZ form."""
    for rank in range(1, 7):
        for seed in seeds:
            gram = random_gram(rank, seed)
            for gso in (ldl(gram), ldl(hkz_reduce(gram).reduced)):
                for level in range(rank):
                    yield gso.block(level)


def test_first_shorter_vector_matches_the_shortest_vector():
    # the certificate walk stops at the first vector strictly shorter than
    # b*_1; it gives the SVP's verdict and visits a subsequence of its nodes
    shorter = 0
    for block in _random_blocks(range(40)):
        walk = _enumerate(block, block.bstar[0], False, first_below=True)
        best = reduction._shortest_from_gso(block)
        assert bool(walk.found) == (best.norm_sq < block.bstar[0])
        assert walk.nodes <= best.nodes_visited
        if walk.found:
            shorter += 1
            ((norm_sq, coeffs),) = walk.found
            assert any(coeffs) and _normalize_sign(coeffs) == coeffs
            assert norm_sq < block.bstar[0]
            assert norm_sq == quadratic_form_value(block.reconstruct(), coeffs)
    assert shorter > 0


# --- integer kernels against their Fraction oracles --------------------------

MERSENNE_61 = 2**61 - 1


def mixed_denominator_gram(rank, seed):
    """A symmetric Gram (not necessarily positive definite) whose rows mix
    entries over 1, 7, 11*13 and 2^61 - 1, signs included."""
    rng = random.Random(seed)
    rows = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1):
            den = rng.choice((1, 7, 11 * 13, MERSENNE_61))
            num = rng.choice((rng.randint(-60, 60), rng.randint(-(10**20), 10**20)))
            rows[i][j] = rows[j][i] = Fr(num, den)
    return GramMatrix.from_rows(rows)


def kernel_transforms(rank, seed):
    """Identity, a permutation, a sign flip and products of elementary
    row operations, as unimodular matrices."""
    rng = random.Random(seed)
    perm = list(range(rank))
    rng.shuffle(perm)
    yield Unimodular.identity(rank)
    yield Unimodular.from_rows([[int(j == perm[i]) for j in range(rank)] for i in range(rank)])
    yield Unimodular.from_rows(
        [[rng.choice((-1, 1)) if i == j else 0 for j in range(rank)] for i in range(rank)]
    )
    for _ in range(4):
        u = _identity(rank)
        for _ in range(3 * rank):
            i, j = rng.randrange(rank), rng.randrange(rank)
            if i == j:
                u[i] = [-v for v in u[i]]
            else:
                q = rng.choice((-3, -2, -1, 1, 2, 3))
                u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        yield Unimodular.from_rows(u)


KERNEL_GRAMS = (
    [mixed_denominator_gram(rank, seed) for rank in range(1, 7) for seed in range(4)]
    + [
        # built directly, so the entries stay Python ints
        GramMatrix(((4, -1, 2), (-1, 3, 0), (2, 0, 5))),
        GramMatrix(((-7, 10**25), (10**25, 3))),
        # ints and Fractions side by side
        GramMatrix(((2, Fr(1, 7)), (Fr(1, 7), Fr(-5, MERSENNE_61)))),
    ]
)


@pytest.mark.parametrize("index", range(len(KERNEL_GRAMS)))
def test_apply_unimodular_matches_fraction_oracle(index):
    gram = KERNEL_GRAMS[index]
    for u in kernel_transforms(gram.n, index):
        got = apply_unimodular(gram, u)
        want = fraction_apply_unimodular(gram, u)
        assert got.entries == want.entries
        assert all(type(v) is Fraction for row in got.entries for v in row)


def test_apply_unimodular_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_unimodular(KERNEL_GRAMS[0], Unimodular.identity(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_unimodular(mixed_denominator_gram(3, 0), Unimodular.identity(4))


def vector_sequence(dim, seed):
    """Integer vectors mixing fresh draws, the zero vector, exact multiples
    and sums of earlier vectors, with some entries near 10^30."""
    rng = random.Random(seed)
    seq = []
    for _ in range(3 * dim + 4):
        kind = rng.randrange(6)
        if kind == 0 or not seq:
            vec = [0] * dim if rng.random() < 0.3 else [rng.randint(-3, 3) for _ in range(dim)]
        elif kind == 1:
            vec = [rng.choice((-(10**30), 10**30)) + rng.randint(-9, 9) for _ in range(dim)]
        elif kind == 2:
            q = rng.choice((-(10**30), -2, -1, 2, 3, 10**30))
            vec = [q * v for v in rng.choice(seq)]
        elif kind == 3:
            a, b = rng.choice(seq), rng.choice(seq)
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            vec = [p * x + q * y for x, y in zip(a, b)]
        elif kind == 4:
            vec = [0] * dim
        else:
            vec = [rng.randint(-5, 5) for _ in range(dim)]
        seq.append(vec)
    return seq


@pytest.mark.parametrize("dim", range(1, 7))
def test_independence_test_matches_fraction_oracle(dim):
    for seed in range(25):
        seq = vector_sequence(dim, 100 * dim + seed)
        rows, oracle_rows = [], []
        got = [_independent_over_q(rows, v) for v in seq]
        want = [fraction_independent_over_q(oracle_rows, v) for v in seq]
        assert got == want, seed
        assert len(rows) == len(oracle_rows) == sum(want)
