import json
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
from hkzdefect.experiments import _A2_GRAM, _trial_gram, _worker_count


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


def test_chain_check_identity_rank4():
    eye4 = GramMatrix.from_rows(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    report = check_defect_chain(eye4)
    assert report.ok
    assert report.leading_block_hkz
    for check in report.all_checks():
        assert check.holds


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


def test_parallel_trials_match_serial(monkeypatch):
    cfg = ExperimentConfig(rank=3, trials=6, seed=33)
    serial = records_to_csv(run_experiment(cfg).records)
    monkeypatch.setenv("HKZ_THREADS", "2")
    parallel = records_to_csv(run_experiment(cfg).records)
    assert serial == parallel


@pytest.mark.parametrize(
    "raw, cpus, trials, expected",
    [
        (None, 8, 100, 1),  # HKZ_THREADS unset
        ("1", 8, 100, 1),
        ("3", 8, 100, 3),
        ("100000", 2, 100, 2),  # clamped to the CPU count
        ("100000", 64, 5, 5),  # clamped to the number of trials
        ("100000", None, 100, 1),  # CPU count unknown
        ("4", 8, 1, 1),
        ("0", 8, 100, 1),
        ("-3", 8, 100, 1),
        ("2.5", 8, 100, 1),
        ("many", 8, 100, 1),
        ("", 8, 100, 1),
    ],
)
def test_worker_count_clamp(raw, cpus, trials, expected):
    assert _worker_count(raw, cpus, trials) == expected


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
