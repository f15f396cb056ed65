"""The three benchmark workloads: input recipes, request lists and correctness gates.

Every workload is a fixed *batch* of CLI requests made from the seed.  The
gates check the program's outputs with exact arithmetic written here, not
with the library's own functions, so a defect in the library cannot vouch for
itself.  Gates run outside the timed phase.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PROOF_STEP = "1/200"

EXPERIMENT_RANK = 5
EXPERIMENT_TRIALS = 200

# reduce_skewed recipe.  The base lattice is A A^T with A = DIAG*I + noise in
# [-NOISE, NOISE]; DIAG > 6*NOISE makes A strictly diagonally dominant up to
# rank 6, so the lattice is well conditioned and the scramble alone makes the
# basis bad.  A pure random_gram base (entries +-10, no diagonal) was
# rejected: such bases include, about once in a few hundred to a few thousand
# draws, inputs whose enumeration runs for minutes, which no bounded run holds.
SKEWED_RANKS = (4, 5, 6)
SKEWED_PER_CLASS = 40  # inputs per (rank, integral|rational) class
SKEWED_DIAG = 13
SKEWED_NOISE = 2
SKEWED_DENOMINATORS = (2, 3)
SKEWED_MULTIPLIERS = (-2, -1, 1, 2)
SKEWED_FILL = Fraction(1, 2)  # chance that a source row is added to a target row

@dataclass
class Request:
    argv: list[str]
    items: int = 1


@dataclass
class Response:
    code: int
    out: str
    error: str = ""


@dataclass
class GateResult:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact helpers, independent of the library


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def mat_mul(a, b):
    inner = len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def congruent(u, g):
    """U G U^T."""
    return mat_mul(mat_mul(u, g), transpose(u))


def determinant(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            if factor:
                for c in range(k, n):
                    m[r][c] -= factor * m[k][c]
    return det


def rank_of(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                factor = m[r][c] / m[rank][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def form_value(gram, x) -> Fraction:
    n = len(x)
    return sum(
        (x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)), Fraction(0)
    )


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def drop_keys(obj, keys):
    """Copy of a JSON value without the given keys at any depth."""
    if isinstance(obj, dict):
        return {k: drop_keys(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [drop_keys(v, keys) for v in obj]
    return obj


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    items_name = "requests"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Make the inputs (the set-up phase)."""

    def requests(self) -> list[Request]:
        raise NotImplementedError

    def gate(self, responses: list[Response]) -> GateResult:
        raise NotImplementedError

    def normalized(self, responses: list[Response]) -> list[str]:
        """Outputs without wall-clock fields; equal batches must match here,
        node counts included."""
        raise NotImplementedError

    def recipe(self) -> dict:
        raise NotImplementedError


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class ProofGrid(Workload):
    """verify-proof at step 1/200, all four cases.  The input is fixed; the
    seed does not change it."""

    name = "proof_grid"

    def requests(self):
        return [Request(["verify-proof", "--step", PROOF_STEP])]

    def normalized(self, responses):
        out = []
        for r in responses:
            payload = _json_or_none(r.out)
            out.append(
                canonical(drop_keys(payload, {"wall_time"}))
                if payload is not None
                else r.out
            )
        return out

    def gate(self, responses):
        problems = []
        counts = {}
        (resp,) = responses
        payload = _json_or_none(resp.out)
        if resp.code != 0:
            problems.append(f"verify-proof exited {resp.code}: {resp.error.strip()}")
        elif payload is None:
            problems.append("verify-proof printed no JSON certificate")
        else:
            if payload.get("all_passed") is not True:
                problems.append("verify-proof: all_passed is not true")
            if payload.get("grid_step") != PROOF_STEP:
                problems.append(f"verify-proof: grid_step {payload.get('grid_step')}")
            cases = payload.get("cases", {})
            if sorted(cases) != ["NEG_KMAX", "NEG_KMIN", "POS_KMAX", "POS_KMIN"]:
                problems.append(f"verify-proof: cases {sorted(cases)}")
            for case_id, case in sorted(cases.items()):
                if case.get("passed") is not True or case.get("violations"):
                    problems.append(f"verify-proof: case {case_id} failed")
            for case_id, cert in sorted(payload.get("convexity", {}).items()):
                if cert.get("passed") is not True:
                    problems.append(f"verify-proof: convexity {case_id} failed")
            counts = {
                "scan_points": sum(c.get("points_checked", 0) for c in cases.values()),
                "convexity_samples": sum(
                    c.get("samples_checked", 0)
                    for c in payload.get("convexity", {}).values()
                ),
            }
        return GateResult(
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            digest=digest(self.normalized(responses)),
            counts=counts,
        )

    def recipe(self):
        return {
            "request": ["hkzdefect", "verify-proof", "--step", PROOF_STEP],
            "seed_used": False,
            "note": "fixed input; the seed does not change it",
        }


class ExperimentR5(Workload):
    """experiment --rank 5 --trials 200: one request of 200 trials."""

    name = "experiment_r5"
    items_name = "trials"

    def requests(self):
        return [
            Request(
                [
                    "experiment",
                    "--rank",
                    str(EXPERIMENT_RANK),
                    "--trials",
                    str(EXPERIMENT_TRIALS),
                    "--seed",
                    str(self.seed),
                ],
                items=EXPERIMENT_TRIALS,
            )
        ]

    @staticmethod
    def _split(text: str):
        """(csv rows as dicts, summary dict) or raise ValueError."""
        start = text.find("\n{")
        if start < 0:
            raise ValueError("no JSON summary after the CSV rows")
        rows = list(csv.DictReader(io.StringIO(text[: start + 1])))
        summary = json.loads(text[start + 1 :])
        return rows, summary

    def normalized(self, responses, keep_nodes=True):
        out = []
        for r in responses:
            try:
                rows, summary = self._split(r.out)
            except ValueError:
                out.append(r.out)
                continue
            if not keep_nodes:
                rows = [{k: v for k, v in row.items() if k != "nodes"} for row in rows]
            out.append(canonical(rows))
            out.append(canonical(summary))
        return out

    def gate(self, responses):
        (resp,) = responses
        problems = []
        failed_trials = set()
        counts = {}
        if resp.code != 0:
            problems.append(f"experiment exited {resp.code}: {resp.error.strip()}")
            failed_trials = set(range(EXPERIMENT_TRIALS))
        else:
            try:
                rows, summary = self._split(resp.out)
            except ValueError as exc:
                problems.append(f"experiment output unreadable: {exc}")
                rows, summary = [], {}
                failed_trials = set(range(EXPERIMENT_TRIALS))
            seen = set()
            max_defect = None
            for row in rows:
                trial = int(row.get("trial", -1))
                seen.add(trial)
                try:
                    defect = Fraction(row["defect_exact"])
                    ok = (
                        int(row["rank"]) == EXPERIMENT_RANK
                        and row["chain_ok"] == "true"
                        and Fraction(1) <= defect <= Fraction(row["new_bound"])
                        and defect <= Fraction(row["lls_bound"])
                        and Fraction(row["new_bound"]) < Fraction(row["lls_bound"])
                    )
                except (KeyError, ValueError, ZeroDivisionError):
                    ok = False
                    defect = None
                if not ok:
                    failed_trials.add(trial)
                    problems.append(f"experiment: trial {trial} fails its bounds or chain")
                elif max_defect is None or defect > max_defect:
                    max_defect = defect
            missing = set(range(EXPERIMENT_TRIALS)) - seen
            if missing:
                failed_trials |= missing
                problems.append(f"experiment: {len(missing)} trials missing")
            if rows and (
                summary.get("all_chain_checks_ok") is not True
                or summary.get("trials") != EXPERIMENT_TRIALS
                or summary.get("seed") != self.seed
                or max_defect is None
                or Fraction(summary.get("max_defect", "0")) != max_defect
            ):
                problems.append("experiment: summary disagrees with its rows")
                if not failed_trials:
                    failed_trials = set(range(EXPERIMENT_TRIALS))
            counts = {"nodes": sum(int(row.get("nodes", 0)) for row in rows)}
        return GateResult(
            attempted=EXPERIMENT_TRIALS,
            failed=len(failed_trials & set(range(EXPERIMENT_TRIALS))),
            problems=problems,
            digest=digest(self.normalized(responses, keep_nodes=False)),
            counts=counts,
        )

    def recipe(self):
        return {
            "request": [
                "hkzdefect", "experiment", "--rank", str(EXPERIMENT_RANK),
                "--trials", str(EXPERIMENT_TRIALS), "--seed", "<seed>",
            ],
            "seed_used": True,
            "note": "trial t draws random_gram(5, seed + t, 10)",
        }


def skewed_gram(rng: random.Random, n: int, rational: bool):
    """One reduce_skewed input: a well-conditioned lattice in a scrambled basis."""
    a = [
        [(SKEWED_DIAG if i == j else 0) + rng.randint(-SKEWED_NOISE, SKEWED_NOISE) for j in range(n)]
        for i in range(n)
    ]
    gram = [[Fraction(v) for v in row] for row in mat_mul(a, transpose(a))]
    if rational:
        while True:
            den = [rng.choice(SKEWED_DENOMINATORS) for _ in range(n)]
            if len(set(den)) > 1:
                break
        gram = [[gram[i][j] / (den[i] * den[j]) for j in range(n)] for i in range(n)]
    # Two rounds of elementary row operations.  Rows are split into sources S
    # and targets T; round one adds multiples of S rows to T rows, round two
    # multiples of T rows to S rows.  Each round is unimodular (I + N with
    # N^2 = 0) and grows a row's norm by a bounded factor, so no input
    # enumerates without limit.
    order = list(range(n))
    rng.shuffle(order)
    sources, targets = order[: n // 2], order[n // 2 :]
    scramble = [[int(i == j) for j in range(n)] for i in range(n)]
    for dst, src in ((targets, sources), (sources, targets)):
        step = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in dst:
            for j in src:
                if rng.random() < SKEWED_FILL:
                    step[i][j] = rng.choice(SKEWED_MULTIPLIERS)
        scramble = mat_mul(step, scramble)
    return congruent(scramble, gram)


def gram_text(gram) -> str:
    lines = [str(len(gram))] + [" ".join(format_rat(v) for v in row) for row in gram]
    return "\n".join(lines) + "\n"


class ReduceSkewed(Workload):
    """A stream of reduce and minima requests on scrambled Gram files."""

    name = "reduce_skewed"

    def prepare(self):
        rng = random.Random(f"reduce_skewed/{self.seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        count = len(SKEWED_RANKS) * 2 * SKEWED_PER_CLASS
        for k in range(count):
            n = SKEWED_RANKS[k % len(SKEWED_RANKS)]
            rational = (k // len(SKEWED_RANKS)) % 2 == 1
            gram = skewed_gram(rng, n, rational)
            path = self.workdir / f"in{k:03d}.gram"
            path.write_text(gram_text(gram), encoding="utf-8")
            self.inputs.append((str(path), gram))

    def requests(self):
        reqs = []
        for path, _gram in self.inputs:
            reqs.append(Request(["reduce", path, "--format", "json"]))
            reqs.append(Request(["minima", path, "--format", "json"]))
        return reqs

    def normalized(self, responses):
        return [r.out for r in responses]

    def gate(self, responses):
        problems = []
        failed = 0
        nodes = []
        svp_calls = 0
        stripped = []
        for index, (path, gram) in enumerate(self.inputs):
            reduce_resp, minima_resp = responses[2 * index], responses[2 * index + 1]
            red = _json_or_none(reduce_resp.out) if reduce_resp.code == 0 else None
            mins = _json_or_none(minima_resp.out) if minima_resp.code == 0 else None
            red_problem = self._check_reduce(gram, red)
            min_problem = self._check_minima(gram, mins)
            if red_problem is None and min_problem is None:
                if Fraction(mins["minima_sq"][0]) != Fraction(red["reduced"][0][0]):
                    min_problem = "lambda_1^2 differs from the reduced b_1 norm"
            for kind, problem, resp in (
                ("reduce", red_problem, reduce_resp),
                ("minima", min_problem, minima_resp),
            ):
                if problem is not None:
                    failed += 1
                    detail = resp.error.strip() or problem
                    problems.append(f"{Path(path).name} {kind} (exit {resp.code}): {detail}")
            if red is not None:
                nodes.append(red.get("total_nodes", 0))
                svp_calls += red.get("svp_calls", 0)
                stripped.append(canonical(drop_keys(red, {"total_nodes"})))
            else:
                stripped.append(reduce_resp.out)
            stripped.append(minima_resp.out)
        return GateResult(
            attempted=len(responses),
            failed=failed,
            problems=problems,
            digest=digest(stripped),
            counts={
                "nodes": sum(nodes),
                "svp_calls": svp_calls,
                "per_input_nodes": nodes,
            },
        )

    @staticmethod
    def _check_reduce(gram, payload):
        if payload is None:
            return "no JSON output"
        try:
            reduced = [[Fraction(v) for v in row] for row in payload["reduced"]]
            transform = [[int(v) for v in row] for row in payload["transform"]]
            defect = Fraction(payload["defect"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return "malformed reduce output"
        n = len(gram)
        if len(transform) != n or any(len(row) != n for row in transform):
            return "transform has the wrong shape"
        if congruent(transform, gram) != reduced:
            return "reduced != U G U^T"
        if determinant(transform) not in (1, -1):
            return "det U is not +-1"
        if payload.get("hkz_certified") is not True:
            return "hkz_certified is not true"
        diag = Fraction(1)
        for i in range(n):
            diag *= reduced[i][i]
        if defect != diag / determinant(gram):
            return "defect != prod ||b_i||^2 / det G"
        return None

    @staticmethod
    def _check_minima(gram, payload):
        if payload is None:
            return "no JSON output"
        try:
            minima = [Fraction(v) for v in payload["minima_sq"]]
            witnesses = [[int(c) for c in w] for w in payload["witnesses"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return "malformed minima output"
        n = len(gram)
        if len(minima) != n or len(witnesses) != n or any(len(w) != n for w in witnesses):
            return "minima output has the wrong shape"
        if any(form_value(gram, w) != m for w, m in zip(witnesses, minima)):
            return "a witness norm differs from its minimum"
        if any(a > b for a, b in zip(minima, minima[1:])):
            return "minima are not non-decreasing"
        if rank_of(witnesses) != n:
            return "witnesses are dependent"
        return None

    def recipe(self):
        return {
            "requests": "for each input: reduce FILE --format json, then minima FILE --format json",
            "inputs": len(SKEWED_RANKS) * 2 * SKEWED_PER_CLASS,
            "ranks": list(SKEWED_RANKS),
            "per_rank_and_kind": SKEWED_PER_CLASS,
            "kinds": "half integral, half rational with mixed row denominators",
            "base": f"A A^T, A = {SKEWED_DIAG} I + uniform integer noise in [-{SKEWED_NOISE}, {SKEWED_NOISE}]",
            "row_denominators": list(SKEWED_DENOMINATORS),
            "scramble": (
                "rows split at random into sources and targets; round 1 adds to"
                " each target each source with probability 1/2, round 2 the reverse"
            ),
            "scramble_multipliers": list(SKEWED_MULTIPLIERS),
            "rng": "random.Random('reduce_skewed/<seed>')",
        }


WORKLOADS = {cls.name: cls for cls in (ProofGrid, ExperimentR5, ReduceSkewed)}
