"""Tests of the benchmark itself: gates catch corrupted outputs, the tracer
leaves nothing behind and changes no output, and the command refuses to run
without the program's sources.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import call_cli, repeats_first_batch, run_batch, run_tail  # noqa: E402

from hkzdefect import cli, core, reduction  # noqa: E402


def responses_for(workload):
    _wall, responses, _lat = run_batch(cli, workload.requests())
    return responses


@pytest.fixture
def skewed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SKEWED_PER_CLASS", 1)
    workload = workloads.ReduceSkewed(3, tmp_path)
    workload.prepare()
    return workload


@pytest.fixture
def experiment(monkeypatch):
    monkeypatch.setattr(workloads, "EXPERIMENT_TRIALS", 3)
    return workloads.ExperimentR5(2, Path("."))


def edit_json(response, change):
    payload = json.loads(response.out)
    change(payload)
    return workloads.Response(response.code, json.dumps(payload))


def test_skewed_inputs_repeat_for_a_seed(skewed, tmp_path):
    again = workloads.ReduceSkewed(3, tmp_path / "again")
    again.prepare()
    assert [g for _p, g in again.inputs] == [g for _p, g in skewed.inputs]
    rational = [any(v.denominator != 1 for row in g for v in row) for _p, g in skewed.inputs]
    assert rational == [False, False, False, True, True, True]
    assert [len(g) for _p, g in skewed.inputs] == [4, 5, 6, 4, 5, 6]


def test_skewed_gate_passes_real_outputs(skewed):
    gate = skewed.gate(responses_for(skewed))
    assert gate.attempted == 12
    assert (gate.failed, gate.problems) == (0, [])
    assert gate.counts["nodes"] == sum(gate.counts["per_input_nodes"]) > 0


def _negate_first_reduced_entry(p):
    p["reduced"][0][0] = "-" + p["reduced"][0][0]


@pytest.mark.parametrize(
    "index, change",
    [
        (0, _negate_first_reduced_entry),
        (0, lambda p: p["transform"][0].__setitem__(0, p["transform"][0][0] + 1)),
        (0, lambda p: p.__setitem__("hkz_certified", False)),
        (0, lambda p: p.__setitem__("defect", "1")),
        (1, lambda p: p["minima_sq"].__setitem__(0, "1/7")),
        (1, lambda p: p["witnesses"].__setitem__(1, p["witnesses"][0])),
    ],
    ids=["reduced", "transform", "certified", "defect", "minimum", "witnesses"],
)
def test_skewed_gate_catches_corruption(skewed, index, change):
    responses = responses_for(skewed)
    responses[index] = edit_json(responses[index], change)
    gate = skewed.gate(responses)
    assert gate.failed >= 1 and gate.problems


def test_skewed_gate_counts_a_failed_request(skewed):
    responses = responses_for(skewed)
    responses[3] = workloads.Response(3, "", "error: boom")
    assert skewed.gate(responses).failed == 1


def test_digest_ignores_node_counts_only(skewed):
    responses = responses_for(skewed)
    base = skewed.gate(responses).digest
    nodes_changed = list(responses)
    nodes_changed[0] = edit_json(responses[0], lambda p: p.__setitem__("total_nodes", 1))
    assert skewed.gate(nodes_changed).digest == base
    svp_changed = list(responses)
    svp_changed[0] = edit_json(responses[0], lambda p: p.__setitem__("svp_calls", 99))
    assert skewed.gate(svp_changed).digest != base


def test_experiment_gate(experiment):
    (resp,) = responses_for(experiment)
    gate = experiment.gate([resp])
    assert (gate.attempted, gate.failed, gate.problems) == (3, 0, [])
    assert gate.counts["nodes"] > 0

    lines = resp.out.splitlines()
    chain_broken = resp.out.replace(lines[2], lines[2].replace(",true,", ",false,"))
    assert experiment.gate([workloads.Response(0, chain_broken)]).failed == 1

    fields = lines[1].split(",")
    fields[2] = "99"  # defect far above both bounds
    above_bound = resp.out.replace(lines[1], ",".join(fields))
    assert experiment.gate([workloads.Response(0, above_bound)]).failed >= 1

    row_missing = resp.out.replace(lines[3] + "\n", "")
    assert experiment.gate([workloads.Response(0, row_missing)]).failed >= 1

    assert experiment.gate([workloads.Response(1, resp.out)]).failed == 3
    # node counts may change without changing the digest
    renumbered = resp.out.replace(lines[1], ",".join(lines[1].split(",")[:-1] + ["1"]))
    assert experiment.gate([workloads.Response(0, renumbered)]).digest == gate.digest


def proof_payload():
    case = {"passed": True, "violations": [], "points_checked": 10, "wall_time": 0.5}
    return {
        "grid_step": workloads.PROOF_STEP,
        "cases": {c: dict(case) for c in ("NEG_KMIN", "NEG_KMAX", "POS_KMIN", "POS_KMAX")},
        "convexity": {"NEG_KMIN": {"passed": True, "samples_checked": 5}},
        "all_passed": True,
        "wall_time": 1.0,
    }


def test_proof_gate():
    workload = workloads.ProofGrid(1, Path("."))
    good = proof_payload()
    gate = workload.gate([workloads.Response(0, json.dumps(good))])
    assert (gate.failed, gate.counts) == (0, {"scan_points": 40, "convexity_samples": 5})

    slower = dict(good, wall_time=9.0)
    assert workload.gate([workloads.Response(0, json.dumps(slower))]).digest == gate.digest

    for corrupt in (
        dict(good, all_passed=False),
        dict(good, grid_step="1/100"),
        dict(good, cases={**good["cases"], "POS_KMAX": {"passed": False}}),
        dict(good, convexity={"NEG_KMIN": {"passed": False}}),
    ):
        assert workload.gate([workloads.Response(0, json.dumps(corrupt))]).failed == 1
    assert workload.gate([workloads.Response(1, json.dumps(good))]).failed == 1


def test_independent_helpers():
    assert workloads.determinant([[2, 1], [1, 1]]) == 1
    assert workloads.determinant([[1, 2], [2, 4]]) == 0
    assert workloads.rank_of([[1, 2, 3], [2, 4, 6], [0, 1, 0]]) == 2
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert workloads.form_value(g, [1, -1]) == 3


def binding_sites(obj):
    return [
        (module.__name__, attr)
        for module in tracer.package_modules()
        for attr, value in vars(module).items()
        if value is obj
    ]


def test_tracer_patches_every_binding_site_and_restores_them():
    ldl = core.ldl
    ldl_sites = binding_sites(ldl)
    # defined in core, imported by reduction, experiments and the package
    assert {"hkzdefect.core", "hkzdefect.reduction", "hkzdefect.experiments", "hkzdefect"} <= {
        m for m, _a in ldl_sites
    }
    from_rows = core.Unimodular.__dict__["from_rows"]
    with tracer.Tracer() as t:
        assert binding_sites(ldl) == []
        assert len(tracer.leftover_wrappers()) > len(tracer.TARGETS)
        core.Unimodular.from_rows([[1, 0], [0, 1]])
        reduction.ldl(core.GramMatrix.from_rows([[2, 1], [1, 2]]))
    assert tracer.leftover_wrappers() == []
    assert binding_sites(ldl) == ldl_sites
    assert core.Unimodular.__dict__["from_rows"] is from_rows
    summary = t.summary()
    assert summary["core.Unimodular.from_rows.calls"] == 1
    assert summary["core.ldl.calls"] == 1


def test_tracer_restores_after_an_exception():
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("stop")
    assert tracer.leftover_wrappers() == []


def test_traced_and_untraced_outputs_match(skewed, experiment):
    for workload in (skewed, experiment):
        plain = responses_for(workload)
        t = tracer.Tracer()
        with t:
            _wall, traced, _lat = run_batch(cli, workload.requests(), t)
        assert workload.normalized(traced) == workload.normalized(plain)
        summary = t.summary()
        assert summary["cli.main.calls"] == len(workload.requests())
        spans = t.spans
        assert all(s[3] < i for i, s in enumerate(spans))  # parents open first
        assert all(s[2] >= s[1] for s in spans)
        self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
        top = sum(s[2] - s[1] for s in spans if s[3] == -1)
        assert self_total == pytest.approx(top, rel=1e-6, abs=1e-9)
    gate = skewed.gate(responses_for(skewed))
    nodes = 0
    t = tracer.Tracer()
    with t:
        for path, _g in skewed.inputs:
            nodes += json.loads(call_cli(cli, ["reduce", path, "--format", "json"]).out)[
                "total_nodes"
            ]
    assert nodes == gate.counts["nodes"]
    # a reduce request calls hkz_reduce once, so the traced count equals the outputs' sum
    assert t.counts["reduction.hkz_reduce.nodes"] == nodes


def test_tail_stops_at_the_first_request_that_would_not_fit():
    sent = []

    class EchoCli:
        @staticmethod
        def main(argv):
            sent.append(argv)
            print(argv[0])
            return 0

    requests = [workloads.Request([str(i)]) for i in range(4)]
    deadline = time.perf_counter() + 60
    responses, latencies = run_tail(EchoCli, requests, [0.0, 0.0, 3600.0, 0.0], deadline)
    assert [r.out for r in responses] == ["0\n", "1\n"] and len(latencies) == 2
    assert sent == [["0"], ["1"]]
    assert run_tail(EchoCli, requests, [0.0] * 4, time.perf_counter() - 1) == ([], [])


def test_partial_batch_must_repeat_the_first_batch(skewed, experiment):
    first = responses_for(skewed)
    assert repeats_first_batch(skewed, first, first[:3])
    assert repeats_first_batch(skewed, first, [])
    assert not repeats_first_batch(skewed, first, first[:2] + [first[3]])
    (trial_run,) = responses_for(experiment)
    assert repeats_first_batch(experiment, [trial_run], [trial_run])
    renumbered = workloads.Response(0, trial_run.out.replace("\n0,", "\n7,", 1))
    assert not repeats_first_batch(experiment, [trial_run], [renumbered])


def test_p95_needs_ten_requests_beyond_it():
    import run

    assert run.tail_percentile(list(range(1, 201)), 95) == 190
    assert run.tail_percentile(list(range(1, 200)), 95) == 100
    assert run.tail_percentile([12.5, 9.0, 15.25], 95) == 12.5
    assert run.tail_percentile([9.0, 15.0], 95) == 12.0


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proof_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
