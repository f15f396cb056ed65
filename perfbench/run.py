"""hkzdefect benchmark: one closed-loop workload run, metrics on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/hkzdefect).  A single
client sends the workload's requests serially, in-process through
hkzdefect.cli.main, inside a fresh interpreter with HKZ_THREADS=1.  Set-up is
repeated in separate fresh interpreters and reported as a median.  Outputs
are checked outside the timed phase.  With --trace 0 the last line carries
the end-to-end metrics; with --trace 1 the per-layer metrics of a traced run.
Lines before it are a readable report; the full record goes to
.perfbench_run/out/.  Exit status is 0 only when the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per run: 4 set-up-only interpreters plus the measured one
WORKER_TIMEOUT_S = 170
SETUP_TIMEOUT_S = 60
GOLDEN = HERE / "golden.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics read from the worker's layer summaries, with their units;
# identity_frac, cli.out_bytes and trace.overhead_s are derived in main()
CALL_COUNTS = (
    "core.apply_unimodular", "core.ldl", "core.Unimodular.from_rows",
    "reduction.hkz_reduce", "reduction.successive_minima", "reduction.is_hkz_reduced",
    "reduction.size_reduce", "proofcheck.case_quadratic",
    "proofcheck.convexity_numerator", "proofcheck.envelope_second_difference",
    "experiments.check_defect_chain", "bounds.orthogonality_defect", "cli.main",
)
SELF_TIMES = (
    "core.apply_unimodular", "core.ldl", "core.Unimodular.from_rows", "core.determinant",
    "core.parse_gram_text", "reduction.hkz_reduce", "reduction.successive_minima",
    "reduction.is_hkz_reduced", "reduction.check_propositions", "reduction.projected_gram",
    "reduction.size_reduce", "reduction.complete_primitive_row", "proofcheck.scan_case",
    "proofcheck.case_quadratic", "proofcheck.convexity_scan",
    "proofcheck.convexity_numerator", "proofcheck.envelope_second_difference",
    "proofcheck.envelope_second_difference_float", "proofcheck.verify_extremal_form",
    "experiments.run_experiment", "experiments.check_defect_chain",
    "experiments.random_gram", "experiments.records_to_csv", "experiments.summary_json",
    "bounds.orthogonality_defect", "cli.main",
)
WORK_COUNTS = (
    "reduction.hkz_reduce.nodes", "reduction.hkz_reduce.svp_calls",
    "proofcheck.scan_case.points", "proofcheck.convexity_scan.samples",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{name: "count" for name in WORK_COUNTS},
}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(values, q, beyond=10):
    """Nearest-rank percentile q when at least `beyond` samples lie above it;
    otherwise the run has too few samples for it and the median stands in.
    proof_grid and experiment_r5 send one request per batch, so their runs
    hold 1 to 4 requests and their p95 would be the slowest batch alone."""
    if len(values) - len(values) * q / 100 < beyond:
        return statistics.median(values)
    return percentile(values, q)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "HKZ_THREADS": "1",
    }


def worker_command(args, workdir: Path, setup_only: bool, spans_out: Path | None):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    return cmd


def spawn(cmd, timeout: float):
    """Run one worker; returns (spawn instant, its JSON result)."""
    env = dict(os.environ, HKZ_THREADS="1")
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return started, json.loads(out.strip().splitlines()[-1])


def golden_digest(workload: str, seed: int):
    if not GOLDEN.exists():
        return None
    table = json.loads(GOLDEN.read_text())
    entry = table.get(workload, {})
    return entry.get("any") or entry.get(str(seed))


def summarize_layers(layers: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced batches: counts must repeat exactly;
    times are medians."""
    problems = []
    metrics = {}
    for metric, unit in PER_LAYER.items():
        values = [batch[metric] for batch in layers]
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"{metric} differs between traced batches: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
    first = layers[0]
    calls = first["reduction.hkz_reduce.calls"]
    metrics["reduction.hkz_reduce.identity_frac"] = {
        "value": first["reduction.hkz_reduce.identity"] / calls if calls else 0.0,
        "unit": "ratio",
    }
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hkzdefect" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'hkzdefect'} not found; run from a source checkout",
              file=sys.stderr)
        return 2

    out_dir = RUN_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = RUN_DIR / "work" / f"{args.workload}-seed{args.seed}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = out_dir / f"spans-{tag}.json" if args.trace else None

    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            started, probe = spawn(worker_command(args, workdir, True, None), SETUP_TIMEOUT_S)
            setups.append(probe["ready"] - started)
        started, res = spawn(worker_command(args, workdir, False, spans_out), WORKER_TIMEOUT_S)
        setups.append(res["ready"] - started)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = list(res["problems"])
    failed = res["failed"]
    expected = golden_digest(args.workload, args.seed)
    if expected is not None and res["digest"] != expected:
        problems.append("output digest differs from golden.json")
        failed = res["attempted"]

    walls = res["untraced_wall_s"]
    lat_ms = [1000 * v for v in res["latencies_s"]]
    items = res["items_per_batch"] * len(walls) + res["tail_items"]
    if args.trace:
        metrics, layer_problems = summarize_layers(res["layers"])
        if layer_problems:
            problems += layer_problems
            failed = res["attempted"]
        metrics["cli.out_bytes"] = {"value": res["out_bytes_per_batch"], "unit": "bytes"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(res["traced_wall_s"]) - statistics.median(walls),
            "unit": "s",
        }
    else:
        items_per_s = items / (sum(walls) + res["tail_wall_s"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": res["items_per_batch"] / items_per_s,
            "items_per_s": items_per_s,
            "request_p50_ms": statistics.median(lat_ms),
            "request_p95_ms": tail_percentile(lat_ms, 95),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "recipe": res["recipe"],
        "setup_samples_s": setups, "batches": len(walls),
        "untraced_wall_s": walls, "traced_wall_s": res["traced_wall_s"],
        "tail_wall_s": res["tail_wall_s"], "tail_items": res["tail_items"],
        "requests": len(lat_ms), "latencies_ms": lat_ms,
        "items": items, "items_name": WORKLOADS[args.workload].items_name,
        "fail_frac": failed / res["attempted"], "problems": problems,
        "digest": res["digest"], "golden_checked": expected is not None,
        "counts": res["counts"], "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("  " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  batches={len(walls)} tail_items={res['tail_items']} requests={len(lat_ms)}"
          f" {record['items_name']}={items}"
          f" setups={len(setups)} golden={'checked' if expected else 'none for this seed'}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':<48} {record['fail_frac']:>16.6g} ({failed}/{res['attempted']} items)")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
