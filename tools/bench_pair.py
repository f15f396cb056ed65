"""Benchmark a change against its parent and write BENCH_<N>.json.

    python3 tools/bench_pair.py PARENT N [--pairs 3] [--focus WORKLOAD]
        [--claim TEXT] [--in-process FILE] [--workdir DIR]

Run from the root of the repository.  Two copies are made under the work
directory: PARENT by `git archive`, and the change from the working tree's
tracked files and its untracked files that are not ignored.  In each copy
`perfbench/run.py` runs every workload of BENCHMARK.json for its
`run_seconds`, with `--trace 0` at seeds 1..pairs, the side that runs first
alternating by seed (the parent first at odd seeds), then once with
`--trace 1` at seed 1.  The tier-1 suite runs twice per side in the order
parent, change, change, parent.  Runs are serial, one process at a time.
`--pairs 10` gives the ten alternating pairs a gain claim needs; with
`--focus W` only workload W runs `--pairs` seeds and every other workload
runs at most three, which cuts ten pairs of every workload (about 45
minutes on 2 vCPUs) to about 30.  A claim that does not start with "none" marks the
record as claiming a gain.

The output keeps the schema of the earlier BENCH files: per end-to-end
metric the runs and medians of each side, the batch counts, failure
fractions and golden checks, and the traced per-batch counts and self times.
Numbers compare only within one file: machines and their load differ.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIER1_ORDER = ("parent", "change", "change", "parent")
UNFOCUSED_PAIRS = 3
PYTEST_SUMMARY = re.compile(r"(\d+) passed.* in ([\d.]+)s")


def _round(value):
    return round(value, 6) if isinstance(value, float) else value


def read_result(copy: Path, workload: str, seed: int, trace: int) -> dict:
    """One `perfbench/run.py` record, from the copy it ran in."""
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads((copy / ".perfbench_run" / "out" / name).read_text())


def pairs_per_workload(workloads, pairs, focus=None) -> dict:
    """workload -> seeds per side: `pairs` each, or with a `focus` workload
    `pairs` for it and at most UNFOCUSED_PAIRS for the others."""
    if focus is not None and focus not in workloads:
        raise ValueError(f"unknown workload {focus!r}")
    return {
        workload: pairs if focus in (None, workload) else min(pairs, UNFOCUSED_PAIRS)
        for workload in workloads
    }


def run_order(workloads, pairs, focus=None):
    """(seed, workload, side, trace) of every perfbench run, in run order."""
    counts = pairs_per_workload(workloads, pairs, focus)
    for seed in range(1, pairs + 1):
        sides = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            if seed <= counts[workload]:
                for side in sides:
                    yield seed, workload, side, 0
    for workload in workloads:
        for side in SIDES:
            yield 1, workload, side, 1


def workload_summary(copies: dict, workload: str, pairs: int) -> dict:
    """One workload's section: end-to-end runs and medians per side, the
    runs' bookkeeping, and the traced per-layer values of seed 1."""
    seeds = range(1, pairs + 1)
    runs = {
        side: [read_result(copies[side], workload, seed, 0) for seed in seeds]
        for side in SIDES
    }
    end_to_end = {}
    for metric, entry in runs["parent"][0]["metrics"].items():
        values = {
            side: [r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES
        }
        medians = {side: statistics.median(values[side]) for side in SIDES}
        end_to_end[metric] = {
            "parent_median": _round(medians["parent"]),
            "parent_runs": [_round(v) for v in values["parent"]],
            "change_median": _round(medians["change"]),
            "change_runs": [_round(v) for v in values["change"]],
            "unit": entry["unit"],
            "change_vs_parent": (
                round(medians["change"] / medians["parent"] - 1, 4)
                if medians["parent"] else None
            ),
        }
    section = {
        "end_to_end": end_to_end,
        "batches_per_run": {side: [r["batches"] for r in runs[side]] for side in SIDES},
        "all_runs_correct": {
            side: all(not r["problems"] and r["fail_frac"] == 0 for r in runs[side])
            for side in SIDES
        },
        "failed_frac": {side: [r["fail_frac"] for r in runs[side]] for side in SIDES},
        "golden_checked": {
            side: [r["golden_checked"] for r in runs[side]] for side in SIDES
        },
    }
    traced = {
        side: read_result(copies[side], workload, 1, 1)["metrics"] for side in SIDES
    }
    counts, times = {}, {}
    for metric, entry in traced["parent"].items():
        pair = {side: _round(traced[side][metric]["value"]) for side in SIDES}
        if not any(pair.values()):
            continue
        (times if entry["unit"] == "s" else counts)[metric] = pair
    section["traced_counts_per_batch"] = counts
    section["traced_self_s_per_batch"] = times
    return section


def unchanged_counts(workloads: dict) -> dict:
    """metric -> {workload: value} of every traced count equal on both sides."""
    unchanged = {}
    for name, section in workloads.items():
        for metric, pair in section["traced_counts_per_batch"].items():
            if pair["parent"] == pair["change"]:
                unchanged.setdefault(metric, {})[name] = pair["parent"]
    return unchanged


def parse_tier1(output: str) -> tuple[int, float]:
    """(passed, session seconds) from pytest's last summary line."""
    found = PYTEST_SUMMARY.findall(output)
    if not found:
        raise ValueError("no pytest summary line found")
    passed, seconds = found[-1]
    return int(passed), float(seconds)


def build_bench(copies: dict, parent: str, pairs: int, seconds: float, workloads,
                tier1: dict, claim: str, in_process, focus=None) -> dict:
    """The BENCH_<N>.json record from the result files under each copy."""
    counts = pairs_per_workload(workloads, pairs, focus)
    sections = {
        name: workload_summary(copies, name, counts[name]) for name in workloads
    }
    seeds = f"1..{pairs}"
    if focus is not None:
        seeds += f" for {focus}, 1..{min(pairs, UNFOCUSED_PAIRS)} for the others"
    environment = read_result(copies["change"], workloads[0], 1, 0)["environment"]
    return {
        "harness": (
            f"tools/bench_pair.py: python3 perfbench/run.py --workload W --seed N"
            f" --seconds {seconds:g} --trace T in a copy of each side (git archive"
            f" {parent}; the change); end-to-end metrics from --trace 0 at seeds"
            f" {seeds}, the side that runs first alternating by seed (parent first"
            " at odd seeds); counts from one --trace 1 run at seed 1. Numbers compare"
            " only within this file."
        ),
        "machine": {key: environment[key] for key in ("python", "nproc", "platform")},
        "parent": parent,
        "gain_claimed": not claim.startswith("none"),
        "claim": claim,
        "workloads": sections,
        "tier1": {
            "command": "PYTHONPATH=src " + " ".join(["python", *TIER1[1:]]),
            "unit": "s",
            "source": (
                "pytest's reported session time, two runs per side in the order"
                " parent, change, change, parent, after the benchmark runs"
            ),
            **tier1,
        },
        "in_process": in_process,
        "unchanged_work_counts": unchanged_counts(sections),
    }


def tier1_summary(outputs: list[tuple[str, str]]) -> dict:
    """The tier-1 fields from (side, pytest output) in run order."""
    summary = {f"{side}_runs": [] for side in SIDES}
    for side, output in outputs:
        passed, seconds = parse_tier1(output)
        summary[f"{side}_runs"].append(seconds)
        summary[f"{side}_passed"] = passed
    return summary


# --- running (not exercised by the tests, which feed result files) -----------


def git(*args) -> bytes:
    run = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True)
    return run.stdout


def make_copies(parent: str, workdir: Path) -> dict:
    copies = {side: workdir / side for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(git("archive", parent))) as archive:
        archive.extractall(copies["parent"])
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = copies["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(source.read_bytes())
    return copies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("number", type=int, help="N of the BENCH_<N>.json to write")
    parser.add_argument("--pairs", type=int, default=3, help="seeds per side")
    parser.add_argument("--focus", default=None, metavar="WORKLOAD",
                        help="run --pairs seeds of this workload only, and at most"
                        f" {UNFOCUSED_PAIRS} of every other")
    parser.add_argument("--claim", default="none")
    parser.add_argument("--in-process", type=Path, default=None,
                        help="JSON file of in-process timings to copy into the record")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in declared["workloads"]]
    if args.focus is not None and args.focus not in workloads:
        parser.error(f"--focus must be one of {', '.join(workloads)}")
    seconds = declared["run_seconds"]
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pair-"))
    copies = make_copies(parent, workdir)
    for seed, workload, side, trace in run_order(workloads, args.pairs, args.focus):
        print(f"{side} {workload} seed {seed} trace {trace}", flush=True)
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", f"{seconds:g}",
             "--trace", str(trace)],
            cwd=copies[side], check=True, capture_output=True,
        )
    outputs = []
    for side in TIER1_ORDER:
        print(f"{side} tier-1", flush=True)
        run = subprocess.run(TIER1, cwd=copies[side], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": "src"})
        outputs.append((side, run.stdout))
    in_process = (json.loads(args.in_process.read_text()) if args.in_process
                  else {"note": "not measured"})
    record = build_bench(
        copies, parent, args.pairs, seconds, workloads,
        tier1_summary(outputs), args.claim, in_process, args.focus,
    )
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
