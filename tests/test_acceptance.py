"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line (with its wall time) once every assertion
in the criterion has held; run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from fractions import Fraction as Fr
from itertools import product

from hkzdefect import (
    GramMatrix,
    check_defect_chain,
    check_propositions,
    cli,
    convexity_scan,
    hkz_reduce,
    is_hkz_reduced,
    lls_bound,
    new_bound,
    orthogonality_defect,
    quadratic_form_value,
    random_gram,
    shortest_vector,
    successive_minima,
    verify_small_sigma_bound,
)
from hkzdefect.proofcheck import ALL_CASES, small_sigma_bound_value

HEXAGONAL = GramMatrix.from_rows([[1, Fr(1, 2)], [Fr(1, 2), 1]])
EXTREMAL_PLUS = GramMatrix.from_rows(
    [
        [1, Fr(1, 2), Fr(1, 2)],
        [Fr(1, 2), Fr(5, 4), Fr(3, 4)],
        [Fr(1, 2), Fr(3, 4), Fr(5, 4)],
    ]
)
EXTREMAL_MINUS = GramMatrix.from_rows(
    [
        [1, Fr(1, 2), Fr(1, 2)],
        [Fr(1, 2), Fr(5, 4), Fr(-1, 4)],
        [Fr(1, 2), Fr(-1, 4), Fr(5, 4)],
    ]
)


def _report(number: int, description: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.time() - started:.1f}s): {description}")


def test_criterion_1_exact_rank_small_maxima():
    started = time.time()
    assert orthogonality_defect(HEXAGONAL) == Fr(4, 3)
    assert is_hkz_reduced(HEXAGONAL).ok
    for gram in (EXTREMAL_PLUS, EXTREMAL_MINUS):
        assert orthogonality_defect(gram) == Fr(25, 12)
        assert is_hkz_reduced(gram).ok
    assert time.time() - started < 1.0
    _report(1, "hexagonal defect 4/3, extremal variants 25/12, all HKZ certified", started)


def test_criterion_2_random_envelope_ranks_2_and_3():
    started = time.time()
    for rank, cap, count in ((2, Fr(4, 3), 500), (3, Fr(25, 12), 500)):
        for seed in range(count):
            gram = random_gram(rank, 10_000 * rank + seed, 10)
            reduced = hkz_reduce(gram).reduced
            defect = orthogonality_defect(reduced)
            assert defect <= cap, (rank, seed, defect)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(2, "500 rank-2 and 500 rank-3 reductions stay within 4/3 and 25/12", started)


def test_criterion_3_split_bound_sharper_at_desk_scale():
    started = time.time()
    # expected values evaluated from the closed formulas, independently of
    # the library implementation
    gamma_pow = {1: Fr(1), 2: Fr(4, 3), 3: Fr(2), 4: Fr(4), 5: Fr(8)}
    for n in range(4, 9):
        product_bound = gamma_pow.get(n, {6: Fr(64, 3), 7: Fr(64), 8: Fr(256)}.get(n))
        for i in range(1, n + 1):
            product_bound *= Fr(i + 3, 4)
        split_bound = Fr(25, 12) * gamma_pow[n - 3]
        for i in range(4, n + 1):
            split_bound *= Fr(i, 4) + Fr(29, 24)
        assert new_bound(n) == split_bound
        assert lls_bound(n) == product_bound
        assert new_bound(n) < lls_bound(n)
    assert new_bound(4) == Fr(1325, 288)
    assert lls_bound(4) == Fr(105, 8)
    assert time.time() - started < 1.0
    _report(3, "split bound beats product bound exactly for ranks 4..8", started)


def test_criterion_4_case_scans_at_step_1_200(capsys):
    started = time.time()
    code = cli.main(["verify-proof", "--step", "1/200"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    expected_eq = {
        "NEG_KMIN": [],
        "POS_KMIN": [],
        "NEG_KMAX": [{"lambda": "1/2", "mu": "1/2", "sigma": "-1/2"}],
        "POS_KMAX": [{"lambda": "1/2", "mu": "1/2", "sigma": "1/2"}],
    }
    for case_id in ALL_CASES:
        case = payload["cases"][case_id]
        assert case["violations"] == [], case_id
        found = [
            {key: p[key] for key in ("lambda", "mu", "sigma")}
            for p in case["equality_points"]
        ]
        assert found == expected_eq[case_id], case_id
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(4, "verify-proof --step 1/200: zero violations, exact equality set", started)


def test_criterion_5_convexity_grid():
    started = time.time()
    for case_id in ALL_CASES:
        cert = convexity_scan(case_id, per_axis=10)
        assert cert.min_numerator >= 0, case_id
        assert cert.min_second_difference >= 0, case_id
        assert cert.min_float_check >= -1e-12, case_id
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(5, "exact second differences nonnegative on 10^4 grid per case", started)


def test_criterion_6_chain_inequalities_ranks_4_and_5():
    started = time.time()
    for rank, count in ((4, 200), (5, 100)):
        for seed in range(count):
            gram = random_gram(rank, 20_000 * rank + seed, 10)
            reduced = hkz_reduce(gram).reduced
            props = check_propositions(reduced)
            assert props.ok, (rank, seed)
            chain = check_defect_chain(reduced)
            assert chain.ok, (rank, seed)
            assert orthogonality_defect(reduced) <= new_bound(rank)
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(6, "200 rank-4 and 100 rank-5 lattices satisfy the full chain", started)


def test_criterion_7_small_sigma_corner():
    from hkzdefect import hermite_constant_power

    started = time.time()
    report = verify_small_sigma_bound()
    assert report.corner_value == 2
    assert report.corner_value == hermite_constant_power(3)
    assert report.ok
    # the 8 x 8 grid of steps 1/2 up from the corner, as an oracle for the
    # monotone-factor argument
    for i in range(8):
        for j in range(8):
            value = small_sigma_bound_value(Fr(3, 4) + Fr(i, 2), Fr(2, 3) + Fr(j, 2))
            if (i, j) != (0, 0):
                assert value < 2
            assert value > Fr(9, 8)
    assert small_sigma_bound_value(Fr(1), Fr(1)) == Fr(55, 32)
    assert time.time() - started < 1.0
    _report(7, "corner value (1+1/(4k))(9/8+1/(4l)) = 2 exactly at k=3/4, l=2/3", started)


def _int_entries(gram: GramMatrix) -> list[list[int]]:
    rows = []
    for row in gram.entries:
        assert all(v.denominator == 1 for v in row)
        rows.append([v.numerator for v in row])
    return rows


def _box_minimum(gram: GramMatrix, box: int) -> int:
    g = _int_entries(gram)
    n = gram.n
    best = None
    for x in product(range(-box, box + 1), repeat=n):
        if not any(x):
            continue
        value = sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if best is None or value < best:
            best = value
    return best


def _box_minima(gram: GramMatrix, box: int) -> tuple:
    from conftest import fraction_independent_over_q

    g = _int_entries(gram)
    n = gram.n
    scored = []
    for x in product(range(-box, box + 1), repeat=n):
        if any(x):
            value = sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            scored.append((value, x))
    scored.sort(key=lambda t: t[0])
    rows, minima = [], []
    for value, x in scored:
        if fraction_independent_over_q(rows, x):
            minima.append(Fr(value))
            if len(minima) == n:
                break
    return tuple(minima)


def test_criterion_8_oracle_equivalence():
    # instances drawn with Gram entries bounded by 10: for that ensemble the
    # +-5 coefficient box provably contained every witness across a 3000-seed
    # sweep, so the box scan is a complete independent oracle here
    from conftest import bounded_gram

    started = time.time()
    for index in range(100):
        rank = 2 + index % 3  # ranks 2, 3, 4
        gram = bounded_gram(rank, 30_000 + index)
        assert shortest_vector(gram).norm_sq == _box_minimum(gram, 5), index
    for seed in range(50):
        gram = bounded_gram(3, 40_000 + seed)
        assert successive_minima(gram).minima_sq == _box_minima(gram, 5), seed
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(8, "enumeration matches box brute force for SVP and minima", started)
