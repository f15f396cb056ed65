"""Differential tests: the reduction and minima paths against step-by-step
references built only from public functions.

`reference_hkz` is the textbook recursion written out level by level: the SVP
of each projected lattice, its completion to a unimodular block, a full
U G U^T rebuild, a size reduction, and at the end the +-1/2 sign flip.  The
library carries one transform and the GSO data through the levels instead,
so both must agree exactly, node counts included.
"""

import random
from fractions import Fraction as Fr

import pytest

from hkzdefect import (
    GramMatrix,
    Unimodular,
    apply_unimodular,
    check_defect_chain,
    check_propositions,
    hkz_reduce,
    ldl,
    projected_gram,
    shortest_vector,
    size_reduce,
    successive_minima,
)
from hkzdefect.experiments import random_gram
from hkzdefect.reduction import complete_primitive_row


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
        current = apply_unimodular(current, Unimodular.from_rows(step))
        transform = _mat_mul(step, transform)
        current, u_sr = size_reduce(current)
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
    current = apply_unimodular(current, Unimodular.from_rows(flip))
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
        assert tuple(c.rhs for c in chain.bstar_vs_full_minima) == full
        tail = successive_minima(projected_gram(basis, 4)).minima_sq
        factors = [Fr(i + 1, 4) + Fr(29, 24) for i in range(3, basis.n)]
        assert (
            tuple(c.rhs / f for c, f in zip(chain.norm_vs_projected_minima, factors))
            == tail
        )
