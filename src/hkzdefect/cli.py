"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse error or unreadable
input file, 3 invalid input or unwritable --out file, 4 unsupported
parameter.  All exact quantities are printed as p/q strings; decimal
renderings are 12 significant digits and are informational only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .bounds import (
    bound_table,
    bound_table_csv,
    bound_table_json,
    decimal_str,
    orthogonality_defect,
)
from .core import (
    GramFormatError,
    format_gram_text,
    format_rat,
    load_gram,
    parse_rational,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    records_to_csv,
    run_experiment,
    summary_json,
)
from .reduction import (
    hkz_reduce,
    is_hkz_reduced,
    successive_minima,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_UNSUPPORTED = 4


def _read_gram(path: str):
    try:
        return load_gram(path), EXIT_OK
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None, EXIT_PARSE
    except UnicodeDecodeError as exc:  # a ValueError, but unreadable input
        print(f"error: cannot read {path}: not UTF-8 ({exc.reason})", file=sys.stderr)
        return None, EXIT_PARSE
    except GramFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except ValueError as exc:  # includes NotPositiveDefiniteError
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_INVALID


def _emit(text: str, out_path: str | None) -> int:
    """Write `text` to `out_path`, or to stdout; returns the exit code."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc.strerror}", file=sys.stderr)
            return EXIT_INVALID
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def cmd_reduce(args) -> int:
    gram, code = _read_gram(args.file)
    if gram is None:
        return code
    report = hkz_reduce(gram)
    defect = report.defect
    cert = is_hkz_reduced(report.reduced)
    if args.format == "json":
        payload = {
            "reduced": [[format_rat(v) for v in row] for row in report.reduced.entries],
            "transform": [list(row) for row in report.transform.entries],
            "already_reduced": report.transform.is_identity(),
            "hkz_certified": cert.ok,
            "defect": format_rat(defect),
            "defect_float": float(defect),
            "svp_calls": report.svp_calls,
            "total_nodes": report.total_nodes,
        }
        return _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        if report.transform.is_identity():
            lines.append("already HKZ reduced")
        lines.append("reduced Gram matrix:")
        lines.append(format_gram_text(report.reduced).rstrip("\n"))
        lines.append("transform (rows give new basis in terms of old):")
        for row in report.transform.entries:
            lines.append("  " + " ".join(str(v) for v in row))
        lines.append(f"HKZ certified: {cert.ok}")
        lines.append(f"defect = {format_rat(defect)} ({decimal_str(defect)})")
        lines.append(f"svp calls: {report.svp_calls}, nodes: {report.total_nodes}")
        return _emit("\n".join(lines) + "\n", args.out)


def cmd_defect(args) -> int:
    gram, code = _read_gram(args.file)
    if gram is None:
        return code
    defect = orthogonality_defect(gram)
    if args.format == "json":
        payload = {"defect": format_rat(defect), "defect_float": float(defect)}
        return _emit(json.dumps(payload, indent=2), args.out)
    else:
        return _emit(f"defect = {format_rat(defect)} ({decimal_str(defect)})\n", args.out)


def cmd_minima(args) -> int:
    gram, code = _read_gram(args.file)
    if gram is None:
        return code
    try:
        minima = successive_minima(gram)
    except ValueError as exc:  # the rank cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.format == "json":
        payload = {
            "minima_sq": [format_rat(v) for v in minima.minima_sq],
            "witnesses": [list(w) for w in minima.witnesses],
        }
        return _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        for i, (value, witness) in enumerate(
            zip(minima.minima_sq, minima.witnesses), start=1
        ):
            coeffs = " ".join(str(c) for c in witness)
            lines.append(
                f"lambda_{i}^2 = {format_rat(value)} ({decimal_str(value)})"
                f"  witness coeffs: {coeffs}"
            )
        return _emit("\n".join(lines) + "\n", args.out)


def cmd_bounds(args) -> int:
    if args.max_rank < 1:
        print("error: max rank must be positive", file=sys.stderr)
        return EXIT_INVALID
    try:
        rows = bound_table(args.max_rank)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.format == "json":
        return _emit(bound_table_json(rows), args.out)
    elif args.format == "csv":
        return _emit(bound_table_csv(rows), args.out)
    else:
        lines = [
            f"{'n':>2}  {'gamma_n^n':>12}  {'product bound':>16}"
            f"  {'split bound':>30}  {'exact max':>10}"
        ]
        for row in rows:
            newb = (
                f"{format_rat(row.new_bound)} ({decimal_str(row.new_bound, 6)})"
                if row.new_bound is not None
                else "-"
            )
            exact = format_rat(row.delta_exact) if row.delta_exact is not None else "-"
            lines.append(
                f"{row.n:>2}  {format_rat(row.gamma_pow):>12}"
                f"  {format_rat(row.lls_bound):>16}  {newb:>30}  {exact:>10}"
            )
        return _emit("\n".join(lines) + "\n", args.out)


def cmd_verify_proof(args) -> int:
    try:
        step = parse_rational(args.step)
    except ValueError:
        print(f"error: invalid step {args.step!r}", file=sys.stderr)
        return EXIT_PARSE
    if step <= 0 or step > Fraction(1, 50):
        print("error: step must be a positive rational <= 1/50", file=sys.stderr)
        return EXIT_INVALID
    if step < Fraction(1, 1000):
        # a case scan visits about N^3/24 points at step 1/N
        print("error: step must be >= 1/1000", file=sys.stderr)
        return EXIT_INVALID
    if (Fraction(1, 2) / step).denominator != 1:
        print("error: step must divide 1/2", file=sys.stderr)
        return EXIT_INVALID
    from . import proofcheck  # loaded only for a step that passed the checks

    cases = proofcheck.ALL_CASES
    if args.case is not None:
        if args.case not in proofcheck.ALL_CASES:
            print(
                f"error: unknown case {args.case!r}"
                f" (one of {', '.join(proofcheck.ALL_CASES)})",
                file=sys.stderr,
            )
            return EXIT_INVALID
        cases = (args.case,)
    result = proofcheck.run_full_verification(step, cases)
    code = _emit(
        json.dumps(proofcheck.verification_json_dict(result), indent=2), args.out
    )
    if code == EXIT_OK and not result.all_passed:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFICATION
    return code


def cmd_experiment(args) -> int:
    try:
        cfg = ExperimentConfig(
            rank=args.rank,
            trials=args.trials,
            seed=args.seed,
            entry_bound=args.entry_bound,
        ).validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        result = run_experiment(cfg)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    code = _emit(records_to_csv(result.records), args.out)
    if code == EXIT_OK:
        print(summary_json(result))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkzdefect",
        description=(
            "Exact HKZ lattice reduction, orthogonality-defect bounds, and the"
            " machine re-verification of the rank-3 maximal-defect analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("reduce", "HKZ-reduce a Gram matrix file", cmd_reduce),
        ("defect", "orthogonality defect of a Gram matrix file", cmd_defect),
        ("minima", "successive minima with witnesses (rank <= 6)", cmd_minima),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("bounds", help="defect bound table for ranks 1..N")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "verify-proof",
        help="re-run the rank-3 case analysis scans; JSON certificate to stdout",
    )
    p.add_argument(
        "--step",
        default="1/100",
        help="grid step as p/q, from 1/1000 to 1/50, dividing 1/2",
    )
    p.add_argument("--case", default=None, help="restrict to one case id")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_proof)

    p = sub.add_parser("experiment", help="random-lattice defect experiment")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-bound", type=int, default=10)
    p.add_argument("--out", default=None, help="write per-trial CSV here")
    p.set_defaults(func=cmd_experiment)

    return parser


# parsing leaves a parser unchanged, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
