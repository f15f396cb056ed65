"""One workload run inside a fresh interpreter; started by run.py.

Set-up (imports and input generation) ends when the timed phase starts; the
worker reports that instant on the monotonic clock so the parent can measure
set-up from the moment it spawned this process.  The timed phase repeats the
workload's batch while another batch still fits in --seconds, at least once.
With --trace 0 it then sends the next batch's requests in order while each
still fits, so the run measures for the whole of --seconds and not only for
its complete batches.  With --trace 1 it alternates untraced and traced
batches instead.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Response  # noqa: E402


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hkzdefect
    from hkzdefect import cli

    if not Path(hkzdefect.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hkzdefect imported from {hkzdefect.__file__}, not {src}")
    return cli


def call_cli(cli_module, argv) -> Response:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed request, not a failed run
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return Response(code, out.getvalue(), err.getvalue())


def run_batch(cli_module, requests, tracer=None, first_request=0):
    responses, latencies = [], []
    started = time.perf_counter()
    for offset, request in enumerate(requests):
        if tracer is not None:
            tracer.request = first_request + offset
        t0 = time.perf_counter()
        responses.append(call_cli(cli_module, request.argv))
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - started, responses, latencies


def run_tail(cli_module, requests, expected_s, deadline):
    """Requests of a last, partial batch, in order, while each is expected
    (from its latency in the first batch) to end by the deadline."""
    responses, latencies = [], []
    for request, expected in zip(requests, expected_s):
        t0 = time.perf_counter()
        if t0 + expected > deadline:
            break
        responses.append(call_cli(cli_module, request.argv))
        latencies.append(time.perf_counter() - t0)
    return responses, latencies


def repeats_first_batch(workload, first, tail) -> bool:
    """A partial batch must repeat the first batch's outputs request by request."""
    return workload.normalized(tail) == workload.normalized(first[: len(tail)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli_module = import_package()
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.prepare()
    requests = workload.requests()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    from tracer import Tracer, write_spans

    untraced, traced = [], []  # (wall_s, responses, latencies)
    tracers = []
    phase_start = time.perf_counter()
    next_request = 0
    while True:
        batch = run_batch(cli_module, requests)
        untraced.append(batch)
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced.append(run_batch(cli_module, requests, tracer, next_request))
            tracers.append(tracer)
            next_request += len(requests)
        elapsed = time.perf_counter() - phase_start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > args.seconds:
            break
    tail, tail_lat = [], []
    if not args.trace:
        tail, tail_lat = run_tail(
            cli_module, requests, untraced[0][2], phase_start + args.seconds
        )
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # correctness gate, outside the timed phase
    gates = [workload.gate(responses) for _wall, responses, _lat in untraced + traced]
    reference = workload.normalized(untraced[0][1])
    mismatched = [
        i
        for i, (_wall, responses, _lat) in enumerate(untraced + traced)
        if workload.normalized(responses) != reference
    ]
    tail_items = sum(r.items for r in requests[: len(tail)])
    tail_ok = repeats_first_batch(workload, untraced[0][1], tail)
    result = {
        "ready": ready,
        "items_per_batch": sum(r.items for r in requests),
        "untraced_wall_s": [b[0] for b in untraced],
        "traced_wall_s": [b[0] for b in traced],
        "latencies_s": [lat for b in untraced for lat in b[2]] + tail_lat,
        "tail_wall_s": sum(tail_lat),
        "tail_items": tail_items,
        "out_bytes_per_batch": sum(len(r.out.encode()) for r in untraced[0][1]),
        "peak_rss_kb": peak_rss_kb,
        "attempted": sum(g.attempted for g in gates) + tail_items,
        "failed": sum(
            g.attempted if i in mismatched else g.failed for i, g in enumerate(gates)
        )
        + (0 if tail_ok else tail_items),
        "problems": [p for g in gates for p in g.problems][:20]
        + [f"batch {i} output differs from batch 0 (work counts included)" for i in mismatched]
        + ([] if tail_ok else ["the partial last batch differs from batch 0"]),
        "digest": gates[0].digest,
        "counts": gates[0].counts,
        "recipe": workload.recipe(),
    }
    if tracers:
        result["layers"] = [t.summary() for t in tracers]
        if args.spans_out:
            write_spans(args.spans_out, tracers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
