"""`tools/bench_pair.py` on a fixture directory of perfbench result files.

The tool's runner spawns perfbench and pytest; these tests feed the summary
functions hand-written result files instead, so nothing is spawned.
"""

import importlib.util
import io
import json
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "bench_pair", ROOT / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pair)

WORKLOADS = ["proof_grid", "experiment_r5"]
MACHINE = {"python": "3.11.7", "nproc": 2, "platform": "Linux-x86_64"}
ENVIRONMENT = {**MACHINE, "commit": "c0ffee"}


def write_result(copy, workload, seed, trace, metrics, problems=(), fail_frac=0.0,
                 cpu_s=1.0):
    """A result file, and for an untraced run the CPU seconds `main` records."""
    out = copy / ".perfbench_run" / "out"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": ENVIRONMENT,
        "batches": 10 * seed, "fail_frac": fail_frac, "problems": list(problems),
        "golden_checked": True,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (out / name).write_text(json.dumps(record))
    if trace == 0:
        cpu_name = f"cpu-{workload}-seed{seed}-trace{trace}.json"
        (out / cpu_name).write_text(json.dumps({"cpu_s": cpu_s}))


@pytest.fixture
def copies(tmp_path):
    """Three seeds per side; the change's wall_s is the parent's minus 0.01,
    and its CPU seconds are half the parent's."""
    sides = {side: tmp_path / side for side in bench_pair.SIDES}
    for workload in WORKLOADS:
        for seed, wall, cpu in zip((1, 2, 3), (0.30, 0.10, 0.20), (2.0, 3.0, 9.0)):
            write_result(sides["parent"], workload, seed, 0,
                         {"wall_s": (wall, "s"), "peak_rss_mb": (24.0, "MB")},
                         cpu_s=cpu)
            write_result(sides["change"], workload, seed, 0,
                         {"wall_s": (wall - 0.01, "s"), "peak_rss_mb": (24.0, "MB")},
                         problems=["gate"] if workload == "experiment_r5" else (),
                         cpu_s=cpu / 2)
        traced = {
            "proofcheck.scan_case.points": (1006040, "count"),
            "core.ldl.calls": (0, "count"),
            "cli.main.self_s": (0.0231, "s"),
        }
        write_result(sides["parent"], workload, 1, 1, traced)
        traced["core.ldl.calls"] = (5, "count")
        write_result(sides["change"], workload, 1, 1, traced)
    return sides


def build(copies, pairs=3):
    tier1 = bench_pair.tier1_summary([
        ("parent", "... 829 passed in 26.75s"),
        ("change", "838 passed in 23.10s\n"),
        ("change", "838 passed, 1 warning in 23.40s"),
        ("parent", "829 passed in 26.20s"),
    ])
    return bench_pair.build_bench(
        copies, "0005806", pairs, 40.0, WORKLOADS, tier1, "none",
        {"note": "not measured"},
    )


def test_record_keeps_the_earlier_schema(copies):
    record = build(copies)
    earlier = json.loads((ROOT / "BENCH_20.json").read_text())
    assert record.keys() == earlier.keys()
    section = record["workloads"]["proof_grid"]
    assert section.keys() == (
        earlier["workloads"]["proof_grid"].keys() | {"cpu_s_per_batch"}
    )
    assert section["end_to_end"]["wall_s"].keys() == (
        earlier["workloads"]["proof_grid"]["end_to_end"]["wall_s"].keys()
        | {"parent_spread", "resolved"}
    )
    assert record["tier1"].keys() == earlier["tier1"].keys() - {"note"}
    assert "compare only within this file" in record["harness"]
    assert record["machine"] == MACHINE
    assert record["gain_claimed"] is False
    claimed = bench_pair.build_bench(copies, "0005806", 3, 40.0, WORKLOADS, {},
                                     "wall_s falls 30%", {})
    assert claimed["gain_claimed"] is True
    json.dumps(record)


def test_runs_and_medians_per_metric(copies):
    wall = build(copies)["workloads"]["proof_grid"]["end_to_end"]["wall_s"]
    assert wall["parent_runs"] == [0.3, 0.1, 0.2]
    assert wall["change_runs"] == [0.29, 0.09, 0.19]
    assert (wall["parent_median"], wall["change_median"]) == (0.2, 0.19)
    assert wall["change_vs_parent"] == -0.05
    assert wall["unit"] == "s"
    two = build(copies, pairs=2)["workloads"]["proof_grid"]["end_to_end"]["wall_s"]
    assert two["parent_runs"] == [0.3, 0.1] and two["parent_median"] == 0.2


def test_a_parent_spread_wider_than_the_bound_is_unresolved(copies):
    # BENCHMARK.json bounds wall_s at 0.25 and peak_rss_mb at 0.05; the
    # parent's wall_s runs 0.1, 0.2, 0.3 have quartiles 0.15 and 0.25
    sections = build(copies)["workloads"]
    wall = sections["proof_grid"]["end_to_end"]["wall_s"]
    assert wall["parent_spread"] == 0.5
    assert wall["resolved"] is False
    rss = sections["proof_grid"]["end_to_end"]["peak_rss_mb"]
    assert (rss["parent_spread"], rss["resolved"]) == (0.0, True)
    # the same spread is resolved when every change run beats every parent run
    for seed, wall_s in zip((1, 2, 3), (0.05, 0.09, 0.07)):
        write_result(copies["change"], "proof_grid", seed, 0,
                     {"wall_s": (wall_s, "s"), "peak_rss_mb": (24.0, "MB")})
    wall = build(copies)["workloads"]["proof_grid"]["end_to_end"]["wall_s"]
    assert (wall["parent_spread"], wall["resolved"]) == (0.5, True)
    # items_per_s is better higher: change runs above every parent run win
    rule = {"better": "higher", "bound": 0.25}
    parent = [1, 2, 3]
    spread = bench_pair.parent_spread(parent)
    assert spread == 0.5
    assert bench_pair.is_resolved({"parent": parent, "change": [4, 5, 6]}, spread, rule)
    assert not bench_pair.is_resolved({"parent": parent, "change": [0.5]}, spread, rule)
    assert bench_pair.parent_spread([2.0]) is None


def test_cpu_seconds_per_batch_per_side(copies):
    # batches are 10, 20, 30 at seeds 1, 2, 3; the parent used 2, 3 and 9 s
    record = build(copies)
    assert record["workloads"]["proof_grid"]["cpu_s_per_batch"] == {
        "parent_median": 0.2,
        "parent_runs": [0.2, 0.15, 0.3],
        "change_median": 0.1,
        "change_runs": [0.1, 0.075, 0.15],
    }
    assert "four setup-only interpreters" in record["harness"]
    # a two-pair record reads only the first two runs of each side
    two = build(copies, pairs=2)["workloads"]["proof_grid"]["cpu_s_per_batch"]
    assert two["parent_runs"] == [0.2, 0.15] and two["parent_median"] == 0.175


def test_bookkeeping_and_traced_values(copies):
    record = build(copies)
    proof, experiment = (record["workloads"][name] for name in WORKLOADS)
    assert proof["batches_per_run"] == {"parent": [10, 20, 30], "change": [10, 20, 30]}
    assert proof["all_runs_correct"] == {"parent": True, "change": True}
    assert experiment["all_runs_correct"] == {"parent": True, "change": False}
    assert proof["traced_counts_per_batch"] == {
        "proofcheck.scan_case.points": {"parent": 1006040, "change": 1006040},
        "core.ldl.calls": {"parent": 0, "change": 5},
    }
    assert proof["traced_self_s_per_batch"] == {
        "cli.main.self_s": {"parent": 0.0231, "change": 0.0231}
    }
    assert record["unchanged_work_counts"] == {
        "proofcheck.scan_case.points": {"proof_grid": 1006040, "experiment_r5": 1006040}
    }
    assert record["tier1"]["parent_runs"] == [26.75, 26.2]
    assert record["tier1"]["change_runs"] == [23.1, 23.4]
    assert record["tier1"]["parent_passed"] == 829
    assert record["tier1"]["change_passed"] == 838


def test_pytest_output_without_a_summary_is_refused():
    with pytest.raises(ValueError, match="no pytest summary"):
        bench_pair.parse_tier1("collected 0 items\n")


def test_run_order_alternates_the_first_side():
    order = list(bench_pair.run_order(WORKLOADS, 10))
    untraced = [run for run in order if run[3] == 0]
    assert len(untraced) == 10 * len(WORKLOADS) * 2
    for seed in range(1, 11):
        first = next(side for s, _w, side, _t in untraced if s == seed)
        assert first == ("parent" if seed % 2 else "change")
    traced = order[len(untraced):]
    assert traced == [(1, w, side, 1) for w in WORKLOADS for side in bench_pair.SIDES]


def test_run_order_gives_the_focus_workload_every_pair():
    order = list(bench_pair.run_order(WORKLOADS, 10, focus="experiment_r5"))
    untraced = [run for run in order if run[3] == 0]
    seeds = {
        workload: sorted({s for s, w, _side, _t in untraced if w == workload})
        for workload in WORKLOADS
    }
    assert seeds == {"proof_grid": [1, 2, 3], "experiment_r5": list(range(1, 11))}
    assert len(untraced) == (10 + 3) * 2
    for seed in range(1, 11):
        first = next(side for s, _w, side, _t in untraced if s == seed)
        assert first == ("parent" if seed % 2 else "change")
    assert order[len(untraced):] == [
        (1, w, side, 1) for w in WORKLOADS for side in bench_pair.SIDES
    ]
    assert list(bench_pair.run_order(WORKLOADS, 2, focus="proof_grid")) == list(
        bench_pair.run_order(WORKLOADS, 2)
    )
    with pytest.raises(ValueError, match="unknown workload"):
        list(bench_pair.run_order(WORKLOADS, 10, focus="reduce"))


def test_focus_record_reads_each_workload_s_own_pairs(copies):
    for seed in (4, 5):
        for side in bench_pair.SIDES:
            write_result(copies[side], "experiment_r5", seed, 0,
                         {"wall_s": (0.5, "s"), "peak_rss_mb": (24.0, "MB")})
    record = bench_pair.build_bench(
        copies, "0005806", 5, 40.0, WORKLOADS, {}, "none", {},
        focus="experiment_r5",
    )
    sections = record["workloads"]
    assert sections["proof_grid"]["end_to_end"]["wall_s"]["parent_runs"] == [
        0.3, 0.1, 0.2
    ]
    assert sections["experiment_r5"]["end_to_end"]["wall_s"]["parent_runs"] == [
        0.3, 0.1, 0.2, 0.5, 0.5
    ]
    assert sections["experiment_r5"]["batches_per_run"]["change"] == [
        10, 20, 30, 40, 50
    ]
    assert "seeds 1..5 for experiment_r5, 1..3 for the others" in record["harness"]


def test_change_copy_takes_untracked_files_that_are_not_ignored(tmp_path, monkeypatch):
    # git is faked: an empty archive for the parent, a listing for the change
    root, asked = tmp_path / "repo", []
    (root / "src").mkdir(parents=True)
    (root / "src" / "tracked.py").write_text("old = 1\n")
    (root / "src" / "new_module.py").write_text("new = 1\n")
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()

    def fake_git(*args):
        asked.append(args)
        if args[0] == "archive":
            return empty_tar.getvalue()
        listed = ["src/tracked.py"]
        if "--others" in args and "--exclude-standard" in args:
            listed.append("src/new_module.py")
        return "\0".join(listed).encode() + b"\0"

    monkeypatch.setattr(bench_pair, "ROOT", root)
    monkeypatch.setattr(bench_pair, "git", fake_git)
    copies = bench_pair.make_copies("c0ffee", tmp_path / "work")
    change = copies["change"] / "src"
    assert sorted(p.name for p in change.iterdir()) == ["new_module.py", "tracked.py"]
    assert (change / "new_module.py").read_text() == "new = 1\n"
    assert [args[0] for args in asked] == ["archive", "ls-files"]
