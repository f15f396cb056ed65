import json
import random
from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from hkzdefect import (
    ExperimentConfig,
    GramMatrix,
    check_defect_chain,
    hkz_reduce,
    is_hkz_reduced,
    ldl,
    random_gram,
    records_to_csv,
    run_experiment,
    summary_json,
)
from hkzdefect import bounds, core, experiments, reduction
from hkzdefect.experiments import _A2_GRAM, _trial_gram

from conftest import patch_everywhere
from test_root_lattices import DYNKIN, cartan_gram


def test_random_gram_deterministic():
    a = random_gram(3, 42, 10)
    b = random_gram(3, 42, 10)
    assert a == b
    assert a != random_gram(3, 43, 10)


def test_random_gram_rank_one():
    g = random_gram(1, 5, 10)
    value = g[0][0]
    assert 1 <= value <= 100  # a^2 for 1 <= |a| <= 10


def test_random_gram_positive_definite():
    for seed in range(25):
        g = random_gram(2 + seed % 5, 1800 + seed, 10)
        ldl(g)  # raises if not PD


def _int_det_random_gram(rank, seed, entry_bound):
    """random_gram's draws, rejecting a singular A by its integer
    determinant; also returns how many draws were rejected."""
    rng = random.Random(seed)
    for rejected in range(1000):
        rows = [
            [rng.randint(-entry_bound, entry_bound) for _ in range(rank)]
            for _ in range(rank)
        ]
        if core.int_det(rows) == 0:
            continue
        gram = GramMatrix.from_rows(
            [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
        )
        return gram, rejected
    raise AssertionError("no nonsingular draw")


def test_random_gram_rejects_exactly_the_singular_draws():
    # factoring A A^T fails exactly when the square A is singular; at entry
    # bound 1 singular draws are common, so many draws are rejected
    rejected = 0
    for rank in range(1, 7):
        for seed in range(60):
            gram, skipped = _int_det_random_gram(rank, seed, 1)
            assert random_gram(rank, seed, 1) == gram
            rejected += skipped
    assert rejected > 100


def test_chain_check_identity_rank4():
    eye4 = GramMatrix.from_rows(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    report = check_defect_chain(eye4)
    assert report.ok
    for check in report.all_checks():
        assert check.holds


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_certified_basis_has_a_certified_leading_block(rank):
    # the chain relies on this instead of certifying the block itself: a
    # prefix of an HKZ basis is HKZ
    grams = [
        hkz_reduce(random_gram(rank, 2300 + seed, 10)).reduced for seed in range(8)
    ]
    grams += [
        hkz_reduce(cartan_gram(name)).reduced
        for name, (n, _edges) in DYNKIN.items()
        if n == rank
    ]
    for gram in grams:
        assert is_hkz_reduced(gram).ok
        gso = ldl(gram)
        assert reduction._certify(gso.block(0, 3)).ok


def test_chain_follows_the_bound_row(monkeypatch):
    # the chain runs exactly where the split bound it proves applies
    row = replace(bounds.bound_row(4), new_bound=None)
    monkeypatch.setattr(experiments, "bound_row", lambda n: row)
    result = run_experiment(ExperimentConfig(rank=4, trials=3, seed=9))
    assert [record.chain_ok for record in result.records] == [None, None, None]
    lines = records_to_csv(result.records).strip().splitlines()
    assert all(line.split(",")[6:8] == ["", "n/a"] for line in lines[1:])
    payload = json.loads(summary_json(result))
    assert payload["new_bound"] is None
    assert payload["all_chain_checks_ok"] is None


def test_chain_check_random_reduced():
    for seed in range(10):
        g = hkz_reduce(random_gram(4, 1900 + seed, 10)).reduced
        report = check_defect_chain(g)
        assert report.ok, [c.label for c in report.all_checks() if not c.holds]


def test_chain_check_requires_certified_input():
    bad = GramMatrix.from_rows(
        [[4, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(ValueError, match="not HKZ certified"):
        check_defect_chain(bad)


def test_chain_check_rank_range(identity3):
    with pytest.raises(ValueError, match="rank 4"):
        check_defect_chain(identity3)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(rank=7, trials=1).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(rank=3, trials=0).validate()
    ExperimentConfig(rank=3, trials=1).validate()


def test_trial_zero_references():
    assert _trial_gram(ExperimentConfig(rank=2, trials=5, seed=1), 0) == _A2_GRAM
    ext = _trial_gram(ExperimentConfig(rank=3, trials=5, seed=1), 0)
    assert ext[0][0] == 1 and ext[1][2] == Fr(3, 4)


def test_run_experiment_rank3_reaches_exact_maximum():
    result = run_experiment(ExperimentConfig(rank=3, trials=10, seed=3))
    assert result.records[0].defect == Fr(25, 12)
    assert result.max_defect == Fr(25, 12)
    assert all(r.defect <= Fr(25, 12) for r in result.records)
    assert all(r.chain_ok is None for r in result.records)


def test_run_experiment_rank4_chain_and_bounds():
    result = run_experiment(ExperimentConfig(rank=4, trials=6, seed=9))
    for record in result.records:
        assert record.defect <= record.new_bound <= record.lls_bound
        assert record.chain_ok is True
        assert record.nodes > 0


def test_each_trial_certified_once(monkeypatch):
    # one certificate for the basis (its leading block needs none of its
    # own), one full-rank fixed-radius walk, one fixed-radius walk of
    # block(3), and one factorization, per trial; the defect comes with the
    # reduction, so no determinant is taken
    def no_determinant(*args):
        raise AssertionError("a trial took a determinant of its own")

    assert patch_everywhere(monkeypatch, core.determinant, no_determinant) >= 1
    assert patch_everywhere(monkeypatch, bounds.orthogonality_defect, no_determinant) >= 1
    certify, walk = reduction._certify, reduction._enumerate
    factor, chain = reduction.ldl, experiments.check_defect_chain
    calls = {"certified": 0, "full_walks": 0, "tail_walks": 0, "ldl": 0}
    chain_ldl = []

    def counting_certify(gso):
        calls["certified"] += 1
        return certify(gso)

    def counting_walk(gso, radius_sq, shrink, first_below=False):
        if not shrink and not first_below:
            calls["full_walks"] += gso.n == 5
            calls["tail_walks"] += gso.n == 2
        return walk(gso, radius_sq, shrink, first_below)

    def counting_ldl(gram):
        calls["ldl"] += 1
        return factor(gram)

    def counting_chain(gram):
        before = calls["ldl"]
        report = chain(gram)
        chain_ldl.append(calls["ldl"] - before)
        return report

    monkeypatch.setattr(reduction, "_certify", counting_certify)
    monkeypatch.setattr(reduction, "_enumerate", counting_walk)
    monkeypatch.setattr(reduction, "ldl", counting_ldl)
    monkeypatch.setattr(experiments, "check_defect_chain", counting_chain)
    result = run_experiment(ExperimentConfig(rank=5, trials=4, seed=1))
    assert all(record.chain_ok for record in result.records)
    assert calls["certified"] == 4 and calls["full_walks"] == 4
    assert calls["tail_walks"] == 4
    assert chain_ldl == [1, 1, 1, 1]


def test_csv_reproducible_and_exact():
    cfg = ExperimentConfig(rank=3, trials=8, seed=21)
    first = records_to_csv(run_experiment(cfg).records)
    second = records_to_csv(run_experiment(cfg).records)
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == (
        "trial,rank,defect_exact,defect_float,gamma_pow,lls_bound,"
        "new_bound,chain_ok,nodes"
    )
    assert len(lines) == 9
    assert lines[1].startswith("0,3,25/12,")


def test_summary_json_fields():
    result = run_experiment(ExperimentConfig(rank=4, trials=4, seed=2))
    payload = json.loads(summary_json(result))
    assert payload["rank"] == 4
    assert Fr(payload["max_defect"]) == result.max_defect
    assert Fr(payload["new_bound"]) == Fr(1325, 288)
    assert payload["max_defect_le_gamma_pow"] in (True, False)
    assert payload["all_chain_checks_ok"] is True
    witness = payload["max_defect_gram"]
    assert len(witness) == 4 and len(witness[0]) == 4


def test_summary_json_rank3_reports_delta_not_conjecture():
    result = run_experiment(ExperimentConfig(rank=3, trials=3, seed=2))
    payload = json.loads(summary_json(result))
    assert payload["max_defect_le_gamma_pow"] is None
    assert Fr(payload["delta_exact"]) == Fr(25, 12)
