#!/usr/bin/env python3
"""Tour 1: exact Gram arithmetic and HKZ reduction.

Lattices are handled through Gram matrices with `fractions.Fraction` entries,
so every result below is an exact rational statement.
"""

from fractions import Fraction as Fr

from hkzdefect import (
    GramMatrix,
    format_gram_text,
    gram_from_vectors,
    hkz_reduce,
    is_hkz_reduced,
    ldl,
    projected_gram,
    shortest_vector,
    size_reduce,
    successive_minima,
)

# A lattice can be given by explicit basis vectors; the Gram matrix of their
# inner products is all the rest of the library ever needs.
gram = gram_from_vectors([[1, 0], [Fr(1, 2), 1]])
print("Gram of rows (1,0) and (1/2,1):")
print(format_gram_text(gram))

# The hexagonal lattice needs irrational coordinates but its Gram matrix is
# rational, which is exactly why the library works at the Gram level.
hexagonal = GramMatrix.from_rows([[1, Fr(1, 2)], [Fr(1, 2), 1]])
gso = ldl(hexagonal)
print("hexagonal GSO: mu_21 =", gso.mu[1][0], " bstar =", gso.bstar)

# Size reduction clears large projection coefficients by integer row moves.
skewed = GramMatrix.from_rows([[1, 3], [3, 10]])
reduced, transform = size_reduce(skewed)
print("\nsize reduction of [[1,3],[3,10]]:")
print(format_gram_text(reduced).rstrip())
print("transform rows:", transform.entries)

# Full HKZ reduction: at every level the projected first vector becomes a
# certified shortest vector of its projected lattice.
swap_me = GramMatrix.from_rows([[4, 0], [0, 1]])
report = hkz_reduce(swap_me)
print("\nHKZ of diag(4, 1) promotes the short generator:")
print(format_gram_text(report.reduced).rstrip())
print("svp calls:", report.svp_calls, " enumeration nodes:", report.total_nodes)
print("certified:", is_hkz_reduced(report.reduced).ok)
# The defect prod ||b_i||^2 / det(G) of the reduced basis comes with the
# report: det(G) is unchanged by the unimodular transform, so the input's
# factorization supplies it exactly.
print("defect of the reduced basis:", report.defect)

# The rank-3 worst case for the orthogonality defect; already HKZ reduced,
# so reduction leaves it untouched.
extremal = GramMatrix.from_rows(
    [
        [1, Fr(1, 2), Fr(1, 2)],
        [Fr(1, 2), Fr(5, 4), Fr(3, 4)],
        [Fr(1, 2), Fr(3, 4), Fr(5, 4)],
    ]
)
print("\nextremal rank-3 form:")
print("  reduction is a fixed point:", hkz_reduce(extremal).transform.is_identity())
print("  shortest vector:", shortest_vector(extremal))
print("  projection past b1:", projected_gram(extremal, 2).entries)

# Successive minima with certified witnesses: note the second minimum is 1,
# realized by the coefficient vector (0, 1, -1).
minima = successive_minima(extremal)
for i, (value, witness) in enumerate(zip(minima.minima_sq, minima.witnesses), 1):
    print(f"  lambda_{i}^2 = {value}  witness {witness}")
