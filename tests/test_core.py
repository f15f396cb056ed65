import time
from fractions import Fraction as Fr
from itertools import product

import pytest

from hkzdefect import (
    GramFormatError,
    GramMatrix,
    NotPositiveDefiniteError,
    SingularBasisError,
    Unimodular,
    VectorBasis,
    apply_unimodular,
    determinant,
    format_gram_text,
    format_rat,
    gram_from_vectors,
    ldl,
    parse_gram_text,
    quadratic_form_value,
)
from hkzdefect.core import parse_rational
from hkzdefect.experiments import random_gram


def test_gram_from_vectors_orthonormal(identity3):
    assert gram_from_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == identity3


def test_gram_from_vectors_hand_inner_products():
    g = gram_from_vectors([[1, 0], [Fr(1, 2), 1]])
    assert g.entries == ((Fr(1), Fr(1, 2)), (Fr(1, 2), Fr(5, 4)))


def test_gram_from_vectors_diagonal():
    g = gram_from_vectors([[2, 0], [0, 1]])
    assert g.entries == ((Fr(4), Fr(0)), (Fr(0), Fr(1)))


def test_gram_from_vectors_rejects_dependent_rows():
    with pytest.raises(SingularBasisError):
        gram_from_vectors([[1, 2], [2, 4]])


def test_gram_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        GramMatrix.from_rows([[1, 2], [3, 1]])


def test_ldl_identity(identity3):
    gso = ldl(identity3)
    assert gso.bstar == (Fr(1), Fr(1), Fr(1))
    assert all(all(v == 0 for v in row) for row in gso.mu)


def test_ldl_hexagonal(hexagonal):
    gso = ldl(hexagonal)
    assert gso.mu == ((), (Fr(1, 2),))
    assert gso.bstar == (Fr(1), Fr(3, 4))


def test_ldl_extremal(extremal_plus):
    gso = ldl(extremal_plus)
    assert gso.mu == ((), (Fr(1, 2),), (Fr(1, 2), Fr(1, 2)))
    assert gso.bstar == (Fr(1), Fr(1), Fr(3, 4))


def test_ldl_rejects_indefinite():
    g = GramMatrix.from_rows([[1, 2], [2, 1]])
    with pytest.raises(NotPositiveDefiniteError) as info:
        ldl(g)
    assert info.value.pivot_index == 2
    assert info.value.pivot_value == Fr(-3)


def test_ldl_reconstruction_roundtrip():
    for seed in range(30):
        rank = 2 + seed % 4
        g = random_gram(rank, 100 + seed, 8)
        assert ldl(g).reconstruct() == g


def test_quadratic_form_examples(extremal_plus):
    assert quadratic_form_value(extremal_plus, (1, 0, 0)) == 1
    assert quadratic_form_value(extremal_plus, (0, 0, 1)) == Fr(5, 4)
    assert quadratic_form_value(extremal_plus, (-1, 1, 0)) == Fr(5, 4)


def test_quadratic_form_length_mismatch(extremal_plus):
    with pytest.raises(ValueError, match="length"):
        quadratic_form_value(extremal_plus, (1, 0))


@pytest.mark.parametrize("coeffs", [(Fr(1, 2), 0, 0), (0.5, 0, 0), (1.0, 0, 0)])
def test_quadratic_form_refuses_non_integers(extremal_plus, coeffs):
    with pytest.raises(ValueError, match="integers"):
        quadratic_form_value(extremal_plus, coeffs)


def test_quadratic_form_positive_on_box():
    for seed in range(5):
        g = random_gram(3, 200 + seed, 6)
        for x in product(range(-3, 4), repeat=3):
            value = quadratic_form_value(g, x)
            if any(x):
                assert value > 0
            else:
                assert value == 0


def test_apply_unimodular_identity(extremal_plus):
    assert apply_unimodular(extremal_plus, Unimodular.identity(3)) == extremal_plus


def test_apply_unimodular_row_op():
    g = GramMatrix.from_rows([[1, 3], [3, 10]])
    u = Unimodular.from_rows([[1, 0], [-3, 1]])
    assert apply_unimodular(g, u).entries == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))


def test_apply_unimodular_swap(hexagonal):
    u = Unimodular.from_rows([[0, 1], [1, 0]])
    g = GramMatrix.from_rows([[1, Fr(1, 3)], [Fr(1, 3), 2]])
    swapped = apply_unimodular(g, u)
    assert swapped.entries == ((Fr(2), Fr(1, 3)), (Fr(1, 3), Fr(1)))


def test_unimodular_rejects_non_unit_determinant():
    with pytest.raises(ValueError, match="unimodular"):
        Unimodular.from_rows([[2, 0], [0, 1]])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1.5]], "must be integers"),  # int() would truncate it to the identity
        ([[1.0, 0], [0, 1]], "must be integers"),
        ([[Fr(1), 0], [0, 1]], "must be integers"),
        ([], "empty"),
        ([[1, 0], [0]], "square"),
    ],
)
def test_unimodular_refuses_non_integer_and_empty_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        Unimodular.from_rows(rows)


def test_determinant_examples(identity3, extremal_plus, hexagonal):
    assert determinant(identity3) == 1
    assert determinant(extremal_plus) == Fr(3, 4)
    assert determinant(hexagonal) == Fr(3, 4)


def test_determinant_matches_bstar_product():
    for seed in range(20):
        g = random_gram(2 + seed % 4, 300 + seed, 9)
        prod = Fr(1)
        for d in ldl(g).bstar:
            prod *= d
        assert determinant(g) == prod


def test_determinant_invariant_under_unimodular():
    u = Unimodular.from_rows([[1, 2, 0], [0, 1, 5], [0, 0, -1]])
    for seed in range(10):
        g = random_gram(3, 400 + seed, 9)
        assert determinant(apply_unimodular(g, u)) == determinant(g)


# text format


def test_parse_format_roundtrip(extremal_plus):
    assert parse_gram_text(format_gram_text(extremal_plus)) == extremal_plus


def test_parse_accepts_integers_and_fractions():
    g = parse_gram_text("2\n4 0\n0 1\n")
    assert g.entries == ((Fr(4), Fr(0)), (Fr(0), Fr(1)))


def test_parse_rejects_empty():
    with pytest.raises(GramFormatError, match="line 1"):
        parse_gram_text("")


@pytest.mark.parametrize(
    "head",
    # digit separators, non-ASCII digits (Arabic-Indic, fullwidth), non-integers
    ["0_1", "\u0661", "\uff12", "1.0", "2/1", "1e0", "+-1", "0x1", "two"],
)
def test_parse_rejects_rank_outside_the_grammar(head):
    with pytest.raises(GramFormatError, match=r"^line 1: invalid rank"):
        parse_gram_text(f"{head}\n4\n")


def test_parse_rank_grammar():
    assert parse_gram_text("+01\n4\n") == parse_gram_text(" 1 \n4\n")
    for head in ("0", "-1", "-0"):
        with pytest.raises(GramFormatError, match="line 1: rank must be positive"):
            parse_gram_text(f"{head}\n4\n")
    # the grammar allows any digit count; int() refuses over 4300 by default
    with pytest.raises(GramFormatError, match="line 1: invalid rank"):
        parse_gram_text("1" * 5000 + "\n4\n")


def test_parse_rejects_bad_token():
    with pytest.raises(GramFormatError, match="entry 2"):
        parse_gram_text("2\n1 x\n0 1\n")


def test_parse_rejects_exponent_notation():
    # Fraction() would build 10**2000000 before any other check
    with pytest.raises(GramFormatError, match="line 2, entry 1: exponent"):
        parse_gram_text("1\n1e2000000\n")
    with pytest.raises(GramFormatError, match="line 3, entry 2: exponent"):
        parse_gram_text("2\n1 0\n0 1E0\n")


OUTSIDE_THE_GRAMMAR = [
    # decimals, digit separators, non-ASCII digits (Arabic-Indic, fullwidth)
    "0.5", ".5", "1.", "1_000", "1/2_0", "\u0661", "1/\u0662", "\uff11",
    # zero denominators, misplaced signs and slashes, non-numbers
    "1/0", "-3/00", "1/-2", "+-1", "/2", "2/", "1//2", "inf", "nan", "0x10",
]


@pytest.mark.parametrize("token", OUTSIDE_THE_GRAMMAR)
def test_parse_rejects_tokens_outside_the_grammar(token):
    with pytest.raises(GramFormatError, match="line 3, entry 2: invalid rational"):
        parse_gram_text(f"2\n1 0\n0 {token}\n")


def test_parse_rejects_entries_too_long_to_convert():
    # the grammar allows any digit count; int() refuses over 4300 by default
    with pytest.raises(GramFormatError, match="line 2, entry 1: invalid rational"):
        parse_gram_text("1\n" + "1" * 5000 + "\n")


def test_parse_accepts_the_grammar():
    g = parse_gram_text("2\n+6/4 -1/02\n-1/2 007\n")
    assert g.entries == ((Fr(3, 2), Fr(-1, 2)), (Fr(-1, 2), Fr(7)))


@pytest.mark.parametrize(
    "token", OUTSIDE_THE_GRAMMAR + ["", " 1/2", "1/2 ", "1/2\n", "5e-3", "1e-2000000"]
)
def test_parse_rational_rejects_tokens_outside_the_grammar(token):
    # a parse is never attempted, so no exponent is ever expanded
    with pytest.raises(ValueError, match=r"invalid rational|zero denominator"):
        parse_rational(token)


def test_parse_rational_accepts_the_grammar():
    assert parse_rational("+6/4") == Fr(3, 2)
    assert parse_rational("-1/02") == Fr(-1, 2)
    assert parse_rational("007") == 7
    assert parse_rational("0/5") == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda entry: GramMatrix.from_rows([[entry]]),
        lambda entry: VectorBasis.from_rows([[entry, 0]]),
        lambda entry: GramMatrix.from_rows([[1]]).scaled(entry),
    ],
    ids=["GramMatrix.from_rows", "VectorBasis.from_rows", "GramMatrix.scaled"],
)
def test_string_entries_follow_the_grammar(build):
    assert build("1/2") == build(Fr(1, 2))
    for token in ("1e6000000", "0.5", "1_000"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="invalid rational"):
            build(token)
        # refused before any exponent is expanded
        assert time.perf_counter() - start < 0.1


def test_parse_rejects_extra_rows():
    with pytest.raises(GramFormatError, match="line 4: unexpected line after row 2"):
        parse_gram_text("2\n1 0\n0 1\n7 7 7\n")
    with pytest.raises(GramFormatError, match="line 5"):
        parse_gram_text("2\n1 0\n0 1\n\n7\n")
    assert parse_gram_text("2\n1 0\n0 1\n\n  \n") == parse_gram_text("2\n1 0\n0 1")


def test_parse_rejects_short_row():
    with pytest.raises(GramFormatError, match="expected 2 entries"):
        parse_gram_text("2\n1\n0 1\n")


def test_parse_rejects_asymmetric():
    with pytest.raises(GramFormatError, match="not symmetric"):
        parse_gram_text("2\n1 2\n3 1\n")


def test_parse_names_failing_pivot():
    with pytest.raises(NotPositiveDefiniteError, match="pivot 2"):
        parse_gram_text("2\n1 2\n2 1\n")


def test_format_rat():
    assert format_rat(Fr(5, 4)) == "5/4"
    assert format_rat(Fr(3)) == "3"
    assert format_rat(Fr(-1, 2)) == "-1/2"
