"""Property tests on small integral and rational Gram matrices.

Derandomized with a bounded example count, so every run checks the same
inputs and the suite stays deterministic.
"""

from fractions import Fraction as Fr

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkzdefect import (
    GramMatrix,
    NotPositiveDefiniteError,
    Unimodular,
    apply_unimodular,
    hkz_reduce,
    is_hkz_reduced,
    ldl,
    successive_minima,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def grams(draw, max_rank=4):
    """A A^T for a small integer A, with rows optionally divided by small
    denominators so that the Gram is rational."""
    n = draw(st.integers(2, max_rank))
    a = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    gram = GramMatrix.from_rows(
        [
            [Fr(sum(x * y for x, y in zip(a[i], a[j])), d[i] * d[j]) for j in range(n)]
            for i in range(n)
        ]
    )
    try:
        ldl(gram)
    except NotPositiveDefiniteError:
        assume(False)
    return gram


@st.composite
def unimodulars(draw, n):
    """A product of elementary row operations b_i += q b_j and sign flips."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)
            ),
            max_size=3 * n,
        )
    )
    for i, j, q in ops:
        if i == j:
            rows[i] = [-v for v in rows[i]]
        else:
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return Unimodular.from_rows(rows)


@PROPERTY_SETTINGS
@given(grams())
def test_reduced_is_transformed_input(gram):
    report = hkz_reduce(gram)
    assert report.transform.det() in (1, -1)
    assert apply_unimodular(gram, report.transform) == report.reduced


@PROPERTY_SETTINGS
@given(grams())
def test_hkz_reduce_is_certified_and_idempotent(gram):
    reduced = hkz_reduce(gram).reduced
    assert is_hkz_reduced(reduced).ok
    again = hkz_reduce(reduced)
    assert again.reduced == reduced
    assert again.transform.is_identity()


@PROPERTY_SETTINGS
@given(st.data())
def test_minima_invariant_under_change_of_basis(data):
    gram = data.draw(grams(max_rank=3))
    u = data.draw(unimodulars(gram.n))
    moved = apply_unimodular(gram, u)
    assert successive_minima(moved).minima_sq == successive_minima(gram).minima_sq
