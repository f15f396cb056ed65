"""Property tests on small integral and rational Gram matrices.

Derandomized with a bounded example count, so every run checks the same
inputs and the suite stays deterministic.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkzdefect import (
    GramFormatError,
    GramMatrix,
    NotPositiveDefiniteError,
    Unimodular,
    apply_unimodular,
    delta_exact,
    hkz_reduce,
    is_hkz_reduced,
    ldl,
    lls_bound,
    new_bound,
    orthogonality_defect,
    parse_gram_text,
    successive_minima,
)
from hkzdefect import cli
from hkzdefect.displays import (
    Poly,
    numerator_display_neg_grouped,
    numerator_display_neg_sum,
    numerator_display_pos_grouped,
    numerator_display_pos_sum,
)

from conftest import poly_value

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
def diagonal_grams(draw, max_rank=5):
    """A diagonal Gram with small positive rational entries."""
    n = draw(st.integers(1, max_rank))
    entries = draw(
        st.lists(st.fractions(min_value=Fr(1, 4), max_value=9), min_size=n, max_size=n)
    )
    return GramMatrix.from_rows(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def _is_diagonal(gram):
    return all(gram[i][j] == 0 for i in range(gram.n) for j in range(i))


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
@given(st.data())
def test_apply_unimodular_matches_naive_product(data):
    gram = data.draw(grams())
    transform = data.draw(unimodulars(gram.n))
    u, n = transform.entries, gram.n
    ug = [
        [sum(Fr(u[i][k]) * gram[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    naive = [
        [sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert apply_unimodular(gram, transform) == GramMatrix.from_rows(naive)


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


@PROPERTY_SETTINGS
@given(st.one_of(grams(max_rank=5), diagonal_grams()))
def test_defect_at_least_one_and_one_exactly_when_diagonal(gram):
    defect = orthogonality_defect(gram)
    assert defect >= 1
    assert (defect == 1) == _is_diagonal(gram)


@PROPERTY_SETTINGS
@given(grams(max_rank=5))
def test_reduced_defect_within_every_applicable_bound(gram):
    n = gram.n
    defect = orthogonality_defect(hkz_reduce(gram).reduced)
    assert defect <= lls_bound(n)
    if n >= 4:
        assert defect <= new_bound(n)
    else:
        assert defect <= delta_exact(n)


@PROPERTY_SETTINGS
@given(grams(max_rank=5), st.fractions(min_value=Fr(1, 7), max_value=7))
def test_minima_scale_with_the_gram(gram, factor):
    minima = successive_minima(gram)
    scaled = successive_minima(gram.scaled(factor))
    assert scaled.minima_sq == tuple(factor * m for m in minima.minima_sq)
    assert scaled.witnesses == minima.witnesses


# --- the Gram text parser on arbitrary input ------------------------------------

_TEXT_CHARS = list("0123456789/+-. \t\r\n\x0b\x0c\x1c\x85\u2028e_x#\x00") + ["١", "é"]
_TOKENS = ["0", "1", "2", "-1", "+4", "3/2", "-5/7", "99999999999999999999"] * 2 + [
    "1/0", "0/0", "--1", "1/2/3", "2/-3", "0.5", "1e3", "1_0", "١", "/", "x", "#"
]


@st.composite
def gram_texts(draw):
    """Arbitrary text, or text shaped like a Gram file with odd tokens."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=st.sampled_from(_TEXT_CHARS), max_size=40))
    n = draw(st.integers(1, 3))
    rank = draw(st.sampled_from([str(n)] * 4 + [f" +{n} ", f"{n}.0", "0", "-1", "", "١"]))
    # mostly n rows of n tokens, sometimes one more or one fewer
    sizes = st.sampled_from([n, n, n, n - 1, n + 1])
    rows = [
        " ".join(draw(st.sampled_from(_TOKENS)) for _ in range(draw(sizes)))
        for _ in range(draw(sizes))
    ]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", newline, newline * 2 + "junk"]))
    return newline.join([rank, *rows]) + tail


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.gram"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gram_texts())
def test_parser_rejects_bad_text_with_one_error_line(fuzz_path, text):
    # any other exception type escapes and fails the test
    try:
        parse_gram_text(text)
        parsed = True
    except (GramFormatError, NotPositiveDefiniteError, ValueError):
        parsed = False
    fuzz_path.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["defect", str(fuzz_path)])
    if parsed:
        assert code == 0 and err.getvalue() == ""
        return
    assert code in (2, 3)
    assert out.getvalue() == ""
    message = err.getvalue()
    assert message.startswith("error: ") and message.count("\n") == 1
    assert message.endswith("\n") and message.count("error:") == 1


@PROPERTY_SETTINGS
@given(
    st.lists(st.fractions(-2, 2, max_denominator=1000), min_size=4, max_size=4),
    st.integers(0, 3),
    st.fractions(-2, 2, max_denominator=1000),
)
def test_polys_evaluate_the_displays_exactly(point, v, h):
    # each display built on Poly variables takes the display's value, and its
    # derivatives in x_v give the exact Taylor expansion
    # f(x + h e_v) = sum_n (d^n f/dx_v^n)(x) h^n / n!
    variables = Poly.variables(4)
    shifted = [x + h if index == v else x for index, x in enumerate(point)]
    for display in (
        numerator_display_neg_sum,
        numerator_display_neg_grouped,
        numerator_display_pos_sum,
        numerator_display_pos_grouped,
    ):
        poly = display(*variables)
        assert poly_value(poly, point) == display(*point)
        taylor, term, n = Fr(0), poly, 0
        while term != 0:
            taylor += poly_value(term, point) * h**n / math.factorial(n)
            term, n = term.derivative(v), n + 1
        assert n > 1
        assert taylor == display(*shifted)


def test_poly_refuses_what_would_make_it_inexact():
    x, y = Poly.variables(2)
    assert (x + 1) * (x - 1) == x**2 - 1 and (x + y) ** 0 == 1
    assert 2 - x != x - 2 and x != Fr(1, 2)
    with pytest.raises(TypeError, match="cannot combine a Poly with Fraction"):
        x * Fr(1, 2)
    with pytest.raises(TypeError, match="cannot combine a Poly with float"):
        x + 0.5
    with pytest.raises(ValueError, match="negative exponent"):
        x**-1
