import json
from fractions import Fraction as Fr

import pytest

from hkzdefect import (
    GramMatrix,
    Unimodular,
    apply_unimodular,
    bound_table,
    bound_table_csv,
    bound_table_json,
    delta_exact,
    hermite_constant_power,
    hermite_invariant_power,
    hkz_reduce,
    lls_bound,
    new_bound,
    orthogonality_defect,
)
from hkzdefect import bounds
from hkzdefect.bounds import MAX_HERMITE_RANK, decimal_str
from hkzdefect.experiments import random_gram


def test_defect_identity(identity3):
    assert orthogonality_defect(identity3) == 1


def test_defect_hexagonal(hexagonal):
    assert orthogonality_defect(hexagonal) == Fr(4, 3)


def test_defect_extremal(extremal_plus, extremal_minus):
    assert orthogonality_defect(extremal_plus) == Fr(25, 12)
    assert orthogonality_defect(extremal_minus) == Fr(25, 12)


def test_defect_at_least_one_equality_iff_diagonal():
    diag = GramMatrix.from_rows([[3, 0], [0, 7]])
    assert orthogonality_defect(diag) == 1
    for seed in range(20):
        g = random_gram(3, 1200 + seed, 9)
        defect = orthogonality_defect(g)
        assert defect >= 1
        is_diagonal = all(
            g[i][j] == 0 for i in range(g.n) for j in range(g.n) if i != j
        )
        assert (defect == 1) == is_diagonal


def test_defect_invariant_under_sign_and_permutation():
    flip = Unimodular.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    perm = Unimodular.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    for seed in range(10):
        g = random_gram(3, 1300 + seed, 9)
        defect = orthogonality_defect(g)
        assert orthogonality_defect(apply_unimodular(g, flip)) == defect
        assert orthogonality_defect(apply_unimodular(g, perm)) == defect


def test_hermite_invariant_examples(hexagonal, extremal_plus):
    eye2 = GramMatrix.from_rows([[1, 0], [0, 1]])
    assert hermite_invariant_power(eye2) == 1
    assert hermite_invariant_power(hexagonal) == Fr(4, 3)
    assert hermite_invariant_power(extremal_plus) == Fr(4, 3)
    assert hermite_invariant_power(extremal_plus) < hermite_constant_power(3)


def test_hermite_constant_table():
    expected = {
        1: Fr(1),
        2: Fr(4, 3),
        3: Fr(2),
        4: Fr(4),
        5: Fr(8),
        6: Fr(64, 3),
        7: Fr(64),
        8: Fr(256),
    }
    for n, value in expected.items():
        assert hermite_constant_power(n) == value
    with pytest.raises(ValueError, match="unknown"):
        hermite_constant_power(9)


def test_hermite_invariant_below_constant():
    for seed in range(15):
        rank = 2 + seed % 4
        g = random_gram(rank, 1400 + seed, 8)
        assert hermite_invariant_power(g) <= hermite_constant_power(rank)


def test_lls_bound_values():
    assert lls_bound(1) == 1
    assert lls_bound(3) == Fr(15, 4)
    assert lls_bound(4) == Fr(105, 8)


def test_new_bound_values():
    assert new_bound(4) == Fr(1325, 288)
    assert new_bound(5) == Fr(78175, 5184)
    with pytest.raises(ValueError):
        new_bound(3)
    with pytest.raises(ValueError, match="unknown"):
        new_bound(12)  # would need gamma_9


def test_new_bound_names_its_rank_and_the_constant_it_needs():
    assert new_bound(11) > 0  # gamma_8 is the last known constant
    with pytest.raises(ValueError) as info:
        new_bound(12)
    message = str(info.value)
    assert message == (
        "split bound unknown for rank 12: needs gamma_9^9,"
        f" and Hermite constants are known up to rank {MAX_HERMITE_RANK}"
    )
    assert "rank 9" not in message


def test_hermite_invariant_refuses_ranks_above_the_minima_cap(monkeypatch):
    def eye(n):
        return GramMatrix.from_rows([[int(r == c) for c in range(n)] for r in range(n)])

    with pytest.raises(ValueError, match=r"rank <= 6 \(exact SVP\)"):
        hermite_invariant_power(eye(7))
    assert hermite_invariant_power(eye(6)) == 1
    # the cap is the enumeration's own, not a second constant
    monkeypatch.setattr(bounds, "MAX_MINIMA_RANK", 5)
    with pytest.raises(ValueError, match=r"rank <= 5 \(exact SVP\)"):
        hermite_invariant_power(eye(6))


def test_hermite_messages_follow_the_table(monkeypatch):
    monkeypatch.setattr(bounds, "MAX_HERMITE_RANK", 7)
    with pytest.raises(ValueError, match=r"rank 8 \(known up to 7\)"):
        hermite_constant_power(8)
    with pytest.raises(ValueError, match=r"rank 8 \(known up to 7\)"):
        bound_table(8)
    with pytest.raises(ValueError, match="rank 11: needs gamma_8\\^8.* up to rank 7"):
        new_bound(11)


def test_new_bound_sharper_up_to_rank_8():
    for n in range(4, 9):
        assert new_bound(n) < lls_bound(n)


def test_delta_exact_values():
    assert delta_exact(1) == 1
    assert delta_exact(2) == Fr(4, 3)
    assert delta_exact(3) == Fr(25, 12)
    with pytest.raises(ValueError, match="conjectural"):
        delta_exact(4)


def test_bound_table_rows():
    rows = bound_table(4)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    assert rows[2].delta_exact == Fr(25, 12)
    assert rows[2].new_bound is None
    assert rows[3].new_bound == Fr(1325, 288)
    assert rows[3].delta_exact is None
    assert rows[3].new_bound_is_sharper is True
    single = bound_table(1)
    assert len(single) == 1 and single[0].lls_bound == 1


def test_bound_table_csv():
    text = bound_table_csv(bound_table(4))
    lines = text.strip().splitlines()
    assert lines[0] == "n,gamma_pow,lls_bound,new_bound,delta_exact"
    assert lines[3] == "3,2,15/4,,25/12"
    assert lines[4] == "4,4,105/8,1325/288,"


def test_bound_table_json_roundtrip():
    payload = json.loads(bound_table_json(bound_table(5)))
    row4 = payload[3]
    assert Fr(row4["new_bound"]["exact"]) == new_bound(4)
    assert Fr(row4["lls_bound"]["exact"]) == lls_bound(4)
    assert row4["new_bound"]["approx"].startswith("4.6006944444")


def test_decimal_str_12_significant_digits():
    assert decimal_str(Fr(1325, 288)) == "4.60069444444"
    assert decimal_str(Fr(25, 12)) == "2.08333333333"
    assert decimal_str(Fr(2)) == "2"


def test_reduced_defect_within_envelopes():
    # rank <= 3: within the exact maxima; rank 4..5: within both bounds
    for seed in range(30):
        rank = 2 + seed % 2
        g = hkz_reduce(random_gram(rank, 1500 + seed, 10)).reduced
        assert orthogonality_defect(g) <= delta_exact(rank)
    for seed in range(20):
        rank = 4 + seed % 2
        g = hkz_reduce(random_gram(rank, 1600 + seed, 10)).reduced
        defect = orthogonality_defect(g)
        assert defect <= new_bound(rank) <= lls_bound(rank)
