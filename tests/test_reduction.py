import tracemalloc
from fractions import Fraction as Fr
from itertools import product

import pytest

from hkzdefect import (
    GramMatrix,
    apply_unimodular,
    determinant,
    check_propositions,
    hkz_reduce,
    is_hkz_reduced,
    ldl,
    projected_gram,
    quadratic_form_value,
    shortest_vector,
    size_reduce,
    successive_minima,
)
from hkzdefect import reduction
from hkzdefect.experiments import random_gram
from hkzdefect.reduction import complete_primitive_row

from test_root_lattices import cartan_gram


# --- size reduction ---------------------------------------------------------


def test_size_reduce_identity(identity3):
    reduced, transform = size_reduce(identity3)
    assert reduced == identity3
    assert transform.is_identity()


def test_size_reduce_large_mu():
    g = GramMatrix.from_rows([[1, 3], [3, 10]])
    reduced, transform = size_reduce(g)
    assert reduced.entries == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))
    assert transform.entries == ((1, 0), (-3, 1))


def test_size_reduce_keeps_half_boundary(extremal_plus, extremal_minus):
    # mu values of exactly +-1/2 are already size reduced and must not move
    for g in (extremal_plus, extremal_minus):
        reduced, transform = size_reduce(g)
        assert reduced == g
        assert transform.is_identity()


def test_size_reduce_preserves_bstar():
    for seed in range(20):
        g = random_gram(4, 500 + seed, 9)
        reduced, transform = size_reduce(g)
        assert ldl(reduced).bstar == ldl(g).bstar
        assert apply_unimodular(g, transform) == reduced
        for row in ldl(reduced).mu:
            assert all(abs(v) <= Fr(1, 2) for v in row)


# --- shortest vector --------------------------------------------------------


def test_shortest_vector_identity(identity3):
    result = shortest_vector(identity3)
    assert result.norm_sq == 1
    assert result.coeffs == (1, 0, 0)
    assert result.nodes_visited > 0


def test_shortest_vector_hexagonal(hexagonal):
    assert shortest_vector(hexagonal).norm_sq == 1


def test_shortest_vector_extremal(extremal_plus):
    result = shortest_vector(extremal_plus)
    assert result.norm_sq == 1
    assert result.coeffs == (1, 0, 0)


def test_shortest_vector_prefers_early_support():
    # two tied shortest basis vectors: the earlier one wins
    g = GramMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert shortest_vector(g).coeffs == (0, 1, 0)


def _brute_force_min(gram, box=5):
    n = gram.n
    best = None
    for x in product(range(-box, box + 1), repeat=n):
        if not any(x):
            continue
        v = quadratic_form_value(gram, x)
        if best is None or v < best:
            best = v
    return best


def test_shortest_vector_matches_brute_force():
    from conftest import bounded_gram

    for seed in range(30):
        rank = 2 + seed % 3
        g = bounded_gram(rank, 600 + seed)
        assert shortest_vector(g).norm_sq == _brute_force_min(g)


# --- projections ------------------------------------------------------------


def test_projected_gram_full(extremal_plus):
    assert projected_gram(extremal_plus, 1) == extremal_plus


def test_projected_gram_examples(extremal_plus):
    assert projected_gram(extremal_plus, 2).entries == (
        (Fr(1), Fr(1, 2)),
        (Fr(1, 2), Fr(1)),
    )
    assert projected_gram(extremal_plus, 3).entries == ((Fr(3, 4),),)


def test_projected_gram_range(extremal_plus):
    with pytest.raises(ValueError, match="out of range"):
        projected_gram(extremal_plus, 4)


BLOCK_BASES = [random_gram(rank, 40 + rank) for rank in range(2, 7)] + [
    cartan_gram(name) for name in ("D4", "D5", "E6")
]


@pytest.mark.parametrize("index", range(len(BLOCK_BASES)))
def test_gso_block_cuts_projected_blocks(index):
    gram = BLOCK_BASES[index]
    gso, n = ldl(gram), gram.n
    assert gso.block(0) == gso
    for i in range(n):
        assert gso.block(i).reconstruct() == projected_gram(gram, i + 1)
        for j in range(n - i):
            assert gso.block(i).block(j) == gso.block(i + j)
        # a leading block is the factorization of the leading principal minor
        lead = GramMatrix(tuple(row[: i + 1] for row in gram.entries[: i + 1]))
        assert gso.block(0, i + 1) == ldl(lead)


@pytest.mark.parametrize("start, stop", [(-1, None), (2, 2), (0, 4), (3, None)])
def test_gso_block_refuses_empty_or_outside_ranges(extremal_plus, start, stop):
    with pytest.raises(ValueError, match="out of range"):
        ldl(extremal_plus).block(start, stop)


# --- unimodular completion --------------------------------------------------


def test_complete_primitive_row_identity_vector():
    assert complete_primitive_row((1, 0, 0)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_complete_primitive_row_generic():
    from hkzdefect.core import int_det

    for w in [(0, 1), (2, 3), (-3, 5, 7), (4, 6, 9), (0, 0, -1), (10, -7, 3, 2)]:
        mat = complete_primitive_row(w)
        assert tuple(mat[0]) == w
        assert int_det(mat) in (1, -1)


@pytest.mark.parametrize("coeffs", [(1.5, 2.7), (Fr(1), 0), (1.0, 0)])
def test_complete_primitive_row_refuses_non_integers(coeffs):
    with pytest.raises(ValueError, match="integers"):
        complete_primitive_row(coeffs)


def test_complete_primitive_row_rejects_imprimitive():
    with pytest.raises(ValueError, match="primitive"):
        complete_primitive_row((2, 4))
    with pytest.raises(ValueError, match="zero"):
        complete_primitive_row((0, 0))


# --- HKZ reduction ----------------------------------------------------------


def test_hkz_reduce_identity(identity3):
    report = hkz_reduce(identity3)
    assert report.reduced == identity3
    assert report.transform.is_identity()


def test_hkz_reduce_promotes_short_vector():
    g = GramMatrix.from_rows([[4, 0], [0, 1]])
    report = hkz_reduce(g)
    assert report.reduced.entries == ((Fr(1), Fr(0)), (Fr(0), Fr(4)))
    assert report.transform.det() in (1, -1)


def test_hkz_reduce_extremal_fixed_points(extremal_plus, extremal_minus):
    for g in (extremal_plus, extremal_minus):
        report = hkz_reduce(g)
        assert report.reduced == g
        assert report.transform.is_identity()


def test_hkz_reduce_idempotent():
    for seed in range(40):
        rank = 2 + seed % 4
        g = random_gram(rank, 700 + seed, 10)
        first = hkz_reduce(g)
        second = hkz_reduce(first.reduced)
        assert second.reduced == first.reduced
        assert second.transform.is_identity()


def test_hkz_reduce_random_suite():
    # 200 seeds across ranks 2..5: certified output, exact determinant
    # preservation, transform consistency
    seed = 0
    for rank in (2, 3, 4, 5):
        for _ in range(50):
            g = random_gram(rank, 800 + seed, 10)
            seed += 1
            report = hkz_reduce(g)
            assert is_hkz_reduced(report.reduced).ok
            assert determinant(report.reduced) == determinant(g)
            assert report.transform.det() in (1, -1)
            assert apply_unimodular(g, report.transform) == report.reduced


# --- certification ----------------------------------------------------------


def test_is_hkz_reduced_identity(identity3):
    assert is_hkz_reduced(identity3).ok


def test_is_hkz_reduced_flags_short_later_vector():
    cert = is_hkz_reduced(GramMatrix.from_rows([[4, 0], [0, 1]]))
    assert not cert.ok
    assert cert.failing_condition == "b1 not shortest"


def test_is_hkz_reduced_flags_size_reduction():
    cert = is_hkz_reduced(GramMatrix.from_rows([[1, 3], [3, 10]]))
    assert not cert.ok
    assert "not size reduced" in cert.failing_condition


def test_is_hkz_reduced_extremal(extremal_plus, extremal_minus):
    assert is_hkz_reduced(extremal_plus).ok
    assert is_hkz_reduced(extremal_minus).ok


# --- successive minima ------------------------------------------------------


def test_minima_identity(identity3):
    result = successive_minima(identity3)
    assert result.minima_sq == (Fr(1), Fr(1), Fr(1))


def test_minima_hexagonal(hexagonal):
    assert successive_minima(hexagonal).minima_sq == (Fr(1), Fr(1))


def test_minima_extremal(extremal_plus):
    # note (0, 1, -1) also has norm 1, so the second minimum is 1
    result = successive_minima(extremal_plus)
    assert result.minima_sq == (Fr(1), Fr(1), Fr(5, 4))
    for value, witness in zip(result.minima_sq, result.witnesses):
        assert quadratic_form_value(extremal_plus, witness) == value


def test_minima_nondecreasing_and_witnesses_independent():
    from conftest import fraction_independent_over_q

    for seed in range(15):
        g = random_gram(4, 900 + seed, 8)
        result = successive_minima(g)
        assert all(
            a <= b for a, b in zip(result.minima_sq, result.minima_sq[1:])
        )
        rows = []
        for witness in result.witnesses:
            assert fraction_independent_over_q(rows, witness)


def test_minima_rank_cap():
    g = GramMatrix.from_rows(
        [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    )
    with pytest.raises(ValueError, match="rank 6"):
        successive_minima(g)


def test_minima_walk_keeps_no_multiples():
    # every multiple k b_1 with k <= 10^4 lies inside the walk's radius
    # max ||b_i||^2 = 10^8; the walk visits them all but keeps only the
    # primitive b_1, so memory does not grow with the radius
    gram = GramMatrix.from_rows([[1, 0], [0, 10**8]])
    tracemalloc.start()
    try:
        result = successive_minima(gram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.minima_sq == (1, 10**8)
    assert result.witnesses == ((1, 0), (0, 1))
    assert peak < 500_000


def _brute_force_minima(gram, box=5):
    """Independent oracle: box scan plus greedy independent selection."""
    n = gram.n
    vecs = []
    for x in product(range(-box, box + 1), repeat=n):
        if any(x):
            vecs.append((quadratic_form_value(gram, x), x))
    vecs.sort(key=lambda t: t[0])
    from conftest import fraction_independent_over_q

    rows, got = [], []
    for norm, x in vecs:
        if fraction_independent_over_q(rows, x):
            got.append(norm)
            if len(got) == n:
                break
    return tuple(got)


def test_minima_match_brute_force():
    from conftest import bounded_gram

    for seed in range(10):
        g = bounded_gram(3, 1000 + seed)
        assert successive_minima(g).minima_sq == _brute_force_minima(g)


# --- classical inequalities -------------------------------------------------


def test_propositions_identity(identity3):
    report = check_propositions(identity3)
    assert report.ok
    assert report.tightest().ratio == 1


def test_propositions_hexagonal_tight(hexagonal):
    report = check_propositions(hexagonal)
    assert report.ok
    # bstar ratio 1 : 3/4 makes the adjacent inequality tight at 3/4 of 4/3
    check = report.adjacent_bstar[0]
    assert check.lhs == 1 and check.rhs == 1


def test_propositions_extremal(extremal_plus):
    report = check_propositions(extremal_plus)
    assert report.ok
    gso = ldl(extremal_plus)
    minima = successive_minima(extremal_plus).minima_sq
    assert gso.bstar[1] == 1 and minima[1] == 1  # bstar <= lambda^2 is tight here
    assert extremal_plus[2][2] <= Fr(6, 4) * minima[2]


def test_propositions_rejects_unreduced():
    with pytest.raises(ValueError, match="not HKZ reduced"):
        check_propositions(GramMatrix.from_rows([[4, 0], [0, 1]]))


@pytest.mark.parametrize(
    "rows",
    [
        [[10**12, 0], [0, 1]],
        [[1, Fr(1, 2), 0], [Fr(1, 2), Fr(3, 4), 0], [0, 0, 10**12]],
    ],
)
def test_propositions_refuse_a_short_vector_in_a_few_nodes(monkeypatch, rows):
    # the certificate asks only for a vector shorter than b*_l, so a huge
    # basis norm does not make the refusal walk the ball of radius 10^12
    walk, nodes = reduction._enumerate, []

    def counting_walk(*args, **kwargs):
        result = walk(*args, **kwargs)
        nodes.append(result.nodes)
        return result

    monkeypatch.setattr(reduction, "_enumerate", counting_walk)
    with pytest.raises(ValueError, match="b1 not shortest"):
        check_propositions(GramMatrix.from_rows(rows))
    assert sum(nodes) <= 20


def test_propositions_refuse_rank_7_before_certifying(monkeypatch):
    def no_certify(gso):
        raise AssertionError("rank 7 was certified before the rank check")

    monkeypatch.setattr(reduction, "_certify", no_certify)
    identity7 = GramMatrix.from_rows([[int(i == j) for j in range(7)] for i in range(7)])
    with pytest.raises(ValueError) as refused:
        check_propositions(identity7)
    assert str(refused.value) == "minima enumeration unsupported above rank 6"
    with pytest.raises(ValueError) as minima_refused:
        successive_minima(identity7)
    assert str(minima_refused.value) == str(refused.value)


def test_propositions_random_reduced_suite():
    for seed in range(20):
        rank = 2 + seed % 4
        g = hkz_reduce(random_gram(rank, 1100 + seed, 9)).reduced
        report = check_propositions(g)
        assert report.ok
