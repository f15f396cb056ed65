"""Record the benchmark's reference data at the current commit.

    python3 perfbench/record.py golden     # writes perfbench/golden.json
    python3 perfbench/record.py baseline   # writes perfbench/baseline.json

`golden` runs each workload's batch once per default seed, untimed, and
stores the digest of its outputs (wall-clock and node-count fields left out).
`baseline` makes one traced run per workload at seed 1 and stores, next to
each workload's reason and input recipe, the share of traced time each layer
spent in its own code, and for reduce_skewed the per-input node counts.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFAULT_SEEDS = range(1, 11)
BASELINE_SEED = 1


def record_golden() -> None:
    from worker import import_package, run_batch

    cli = import_package()
    table = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_run") as tmp:
        for name, cls in workloads.WORKLOADS.items():
            seeds = ["any"] if name == "proof_grid" else [str(s) for s in DEFAULT_SEEDS]
            table[name] = {}
            for seed in seeds:
                workload = cls(1 if seed == "any" else int(seed), Path(tmp) / f"{name}-{seed}")
                workload.prepare()
                _wall, responses, _lat = run_batch(cli, workload.requests())
                gate = workload.gate(responses)
                if gate.failed:
                    raise SystemExit(f"{name} seed {seed} fails its gate: {gate.problems[:3]}")
                table[name][seed] = gate.digest
                print(name, seed, gate.digest[:16], flush=True)
    (HERE / "golden.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def layer_shares(layers: dict, traced_wall: float) -> dict:
    by_module = {}
    for key, value in layers.items():
        if key.endswith(".self_s"):
            module = key.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + value["value"]
    shares = {m: round(t / traced_wall, 4) for m, t in sorted(by_module.items())}
    shares["outside wrapped functions"] = round(1 - sum(by_module.values()) / traced_wall, 4)
    functions = {
        key[: -len(".self_s")]: round(value["value"] / traced_wall, 4)
        for key, value in layers.items()
        if key.endswith(".self_s") and value["value"] / traced_wall >= 0.005
    }
    return {"modules": shares, "functions_at_least_0.5pct": functions}


def node_distribution(nodes: list[int]) -> dict:
    ordered = sorted(nodes)
    q = statistics.quantiles(ordered, n=100, method="inclusive")
    return {
        "inputs": len(ordered),
        "min": ordered[0],
        "p50": q[49],
        "p90": q[89],
        "p95": q[94],
        "p99": q[98],
        "max": ordered[-1],
        "sorted": ordered,
    }


def record_baseline() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    out = {"seed": BASELINE_SEED, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(BASELINE_SEED), "--seconds", str(bench["run_seconds"]), "--trace", "1",
        ]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        record = json.loads(
            (ROOT / ".perfbench_run" / "out" / f"result-{name}-seed{BASELINE_SEED}-trace1.json").read_text()
        )
        out["environment"] = record["environment"]
        traced_wall = statistics.median(record["traced_wall_s"])
        entry = {
            "why": why[name],
            "recipe": record["recipe"],
            "traced_wall_s": round(traced_wall, 3),
            "untraced_wall_s": round(statistics.median(record["untraced_wall_s"]), 3),
            "layer_shares": layer_shares(record["metrics"], traced_wall),
            "work_counts": {
                k: v["value"] for k, v in record["metrics"].items() if v["unit"] == "count"
            },
        }
        if name == "reduce_skewed":
            entry["per_input_nodes"] = node_distribution(record["counts"]["per_input_nodes"])
        out["workloads"][name] = entry
        print(name, entry["layer_shares"]["modules"], flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("golden", "baseline"):
        raise SystemExit(__doc__)
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    {"golden": record_golden, "baseline": record_baseline}[sys.argv[1]]()
