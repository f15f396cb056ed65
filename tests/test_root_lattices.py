"""Root lattices as oracles for the Hermite table and the enumeration.

The critical lattices of ranks 2 to 6 are the root lattices A2, A3, D4, D5
and E6 (Conway & Sloane, *Sphere Packings, Lattices and Groups*, ch. 4).
Their Cartan Gram matrices are read off the Dynkin diagrams: 2 on the
diagonal and -1 for each edge.  On each of them the Hermite invariant attains
gamma_n^n, every successive minimum is 2, and the HKZ-reduced basis has defect
exactly gamma_n^n.  E6 has 72 minimal vectors, so ties are everywhere.
"""

from fractions import Fraction as Fr

import pytest

from hkzdefect import (
    GramMatrix,
    hermite_constant_power,
    hermite_invariant_power,
    hkz_reduce,
    is_hkz_reduced,
    ldl,
    orthogonality_defect,
    successive_minima,
)

# Dynkin edges, nodes numbered from 0
DYNKIN = {
    "A2": (2, [(0, 1)]),
    "A3": (3, [(0, 1), (1, 2)]),
    "D4": (4, [(0, 1), (1, 2), (1, 3)]),
    "D5": (5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
    "E6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
}

GAMMA_POW = {"A2": Fr(4, 3), "A3": Fr(2), "D4": Fr(4), "D5": Fr(8), "E6": Fr(64, 3)}


def cartan_gram(name):
    n, edges = DYNKIN[name]
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return GramMatrix.from_rows(rows)


@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_hermite_table_attained(name):
    gram = cartan_gram(name)
    assert hermite_invariant_power(gram) == hermite_constant_power(gram.n)
    assert hermite_constant_power(gram.n) == GAMMA_POW[name]


@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_every_minimum_is_two(name):
    gram = cartan_gram(name)
    n = gram.n
    result = successive_minima(gram)
    assert result.minima_sq == (2,) * n
    # the witnesses have norm 2 and are independent: their Gram is definite
    w = result.witnesses
    rows = [
        [sum(w[a][i] * gram[i][j] * w[b][j] for i in range(n) for j in range(n))
         for b in range(n)]
        for a in range(n)
    ]
    assert [rows[a][a] for a in range(n)] == [2] * n
    ldl(GramMatrix.from_rows(rows))


@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_hkz_defect_attains_gamma_pow(name):
    report = hkz_reduce(cartan_gram(name))
    assert is_hkz_reduced(report.reduced)
    assert orthogonality_defect(report.reduced) == GAMMA_POW[name]
    # the report's defect comes from the input's factorization, not the output's
    assert report.defect == GAMMA_POW[name]
    assert type(report.defect) is Fr
