"""Random-lattice ensembles: defect envelopes, chain inequalities, conjecture tracking.

Random Gram matrices are drawn as A A^T for seeded random integer matrices,
HKZ-reduced exactly, and their defects compared against every applicable
bound.  The observed maximum defect per rank is *reported* against gamma_n^n
(the conjectured exact value for n >= 4) but never asserted: that comparison
is an open question, not a theorem.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    delta_exact,
    hermite_constant_power,
    lls_bound,
    new_bound,
    orthogonality_defect,
)
from .core import (
    GramMatrix,
    NotPositiveDefiniteError,
    format_rat,
    ldl,
)
from .proofcheck import extremal_gram
from .reduction import (
    InequalityCheck,
    _minima_from_gso,
    check_propositions,
    hkz_reduce,
    is_hkz_reduced,
)

MAX_EXPERIMENT_RANK = 6

# seeded references inserted as trial 0 at small ranks: the hexagonal Gram at
# rank 2 and the extremal form at rank 3 realize the exact maximal defects
_A2_GRAM = GramMatrix.from_rows(
    [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
)


class ExperimentError(RuntimeError):
    """A trial violated a proven bound; carries the offending trial index."""

    def __init__(self, message: str, trial: int):
        self.trial = trial
        super().__init__(f"trial {trial}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    rank: int
    trials: int
    seed: int = 0
    entry_bound: int = 10

    def validate(self) -> "ExperimentConfig":
        if not 2 <= self.rank <= MAX_EXPERIMENT_RANK:
            raise ValueError(f"rank must be in 2..{MAX_EXPERIMENT_RANK}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.entry_bound < 1:
            raise ValueError("entry bound must be positive")
        return self


def random_gram(rank: int, seed: int, entry_bound: int = 10) -> GramMatrix:
    """A A^T for a seeded random integer matrix A with entries in
    [-entry_bound, entry_bound], redrawn until nonsingular.  Deterministic for
    a fixed seed."""
    if rank < 1:
        raise ValueError("rank must be positive")
    rng = random.Random(seed)
    for _attempt in range(1000):
        rows = [
            [rng.randint(-entry_bound, entry_bound) for _ in range(rank)]
            for _ in range(rank)
        ]
        gram = GramMatrix.from_rows(
            [
                [sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(rank)]
                for i in range(rank)
            ]
        )
        try:
            ldl(gram)
        except NotPositiveDefiniteError:
            continue
        return gram
    raise RuntimeError("could not draw a nonsingular generator in 1000 attempts")


@dataclass(frozen=True)
class ChainReport:
    """Exact verification of the inequality chain behind the rank-split bound,
    for a certified HKZ-reduced basis of rank >= 4."""

    leading_block_hkz: bool
    bstar_vs_fourth: tuple[InequalityCheck, ...]
    norm_vs_projected: tuple[InequalityCheck, ...]
    norm_vs_projected_minima: tuple[InequalityCheck, ...]
    bstar_vs_full_minima: tuple[InequalityCheck, ...]

    def all_checks(self) -> tuple[InequalityCheck, ...]:
        return (
            self.bstar_vs_fourth
            + self.norm_vs_projected
            + self.norm_vs_projected_minima
            + self.bstar_vs_full_minima
        )

    @property
    def ok(self) -> bool:
        return self.leading_block_hkz and all(c.holds for c in self.all_checks())


def check_defect_chain(gram: GramMatrix) -> ChainReport:
    """Verify, exactly, every link used to bound the defect of a rank >= 4
    HKZ basis by the rank-3 maximum times per-index factors:

      * the leading 3x3 block is itself HKZ reduced;
      * ||b_1||^2 <= 2 B4, ||b_2(2)||^2 <= 3/2 B4, ||b_3(3)||^2 <= 4/3 B4,
        writing B4 for ||b_4(4)||^2;
      * ||b_i||^2 <= ||b_i(4)||^2 + 29/24 B4 for i >= 4;
      * ||b_i||^2 <= (i/4 + 29/24) lambda_{i-3}^2 of the lattice projected
        past b_1, b_2, b_3 (its minima indexed from 1);
      * ||b_i(i)||^2 <= lambda_i^2 in the full lattice.
    """
    n = gram.n
    if not 4 <= n <= MAX_EXPERIMENT_RANK:
        raise ValueError(f"chain check needs rank 4..{MAX_EXPERIMENT_RANK}")
    cert = is_hkz_reduced(gram)
    if not cert.ok:
        raise ValueError(f"input not HKZ certified: {cert.failing_condition}")
    gso = ldl(gram)
    block_ok = is_hkz_reduced(gram.submatrix(3)).ok
    b4 = gso.bstar[3]
    bstar_vs_fourth = tuple(
        InequalityCheck(label, gso.bstar[i], factor * b4)
        for i, factor, label in (
            (0, Fraction(2), "||b_1||^2 <= 2 ||b_4(4)||^2"),
            (1, Fraction(3, 2), "||b_2(2)||^2 <= 3/2 ||b_4(4)||^2"),
            (2, Fraction(4, 3), "||b_3(3)||^2 <= 4/3 ||b_4(4)||^2"),
        )
    )
    norm_vs_projected = []
    for i in range(3, n):
        proj_norm = gso.bstar[i] + sum(
            gso.mu[i][j] ** 2 * gso.bstar[j] for j in range(3, i)
        )
        norm_vs_projected.append(
            InequalityCheck(
                f"||b_{i + 1}||^2 <= ||b_{i + 1}(4)||^2 + 29/24 ||b_4(4)||^2",
                gram[i][i],
                proj_norm + Fraction(29, 24) * b4,
            )
        )
    tail_mu = tuple(row[3:] for row in gso.mu[3:])
    tail_minima = [m for m, _ in _minima_from_gso(tail_mu, gso.bstar[3:])]
    norm_vs_minima = tuple(
        InequalityCheck(
            f"||b_{i + 1}||^2 <= ({i + 1}/4 + 29/24) lambda_{i - 2}(4)^2",
            gram[i][i],
            (Fraction(i + 1, 4) + Fraction(29, 24)) * tail_minima[i - 3],
        )
        for i in range(3, n)
    )
    full_minima = [m for m, _ in _minima_from_gso(gso.mu, gso.bstar)]
    bstar_vs_full = tuple(
        InequalityCheck(
            f"||b_{i + 1}({i + 1})||^2 <= lambda_{i + 1}^2",
            gso.bstar[i],
            full_minima[i],
        )
        for i in range(n)
    )
    return ChainReport(
        leading_block_hkz=block_ok,
        bstar_vs_fourth=bstar_vs_fourth,
        norm_vs_projected=tuple(norm_vs_projected),
        norm_vs_projected_minima=norm_vs_minima,
        bstar_vs_full_minima=bstar_vs_full,
    )


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    rank: int
    defect: Fraction
    gamma_pow: Fraction
    lls_bound: Fraction
    new_bound: Fraction | None
    chain_ok: bool | None  # None below rank 4 (chain not applicable)
    nodes: int
    reduced: GramMatrix


def _trial_gram(cfg: ExperimentConfig, trial: int) -> GramMatrix:
    # known extremal inputs as trial 0 at small ranks, random otherwise
    if trial == 0 and cfg.rank == 2:
        return _A2_GRAM
    if trial == 0 and cfg.rank == 3:
        return extremal_gram(+1)
    return random_gram(cfg.rank, cfg.seed + trial, cfg.entry_bound)


def _run_trial(args: tuple[ExperimentConfig, int]) -> TrialRecord:
    cfg, trial = args
    gram = _trial_gram(cfg, trial)
    report = hkz_reduce(gram)
    defect = orthogonality_defect(report.reduced)
    n = cfg.rank
    lls = lls_bound(n)
    newb = new_bound(n) if n >= 4 else None
    if defect > lls:
        raise ExperimentError(
            f"defect {defect} exceeds product bound {lls}", trial
        )
    if newb is not None and defect > newb:
        raise ExperimentError(
            f"defect {defect} exceeds split bound {newb}", trial
        )
    if n <= 3 and defect > delta_exact(n):
        raise ExperimentError(
            f"defect {defect} exceeds exact maximum {delta_exact(n)}", trial
        )
    chain_ok: bool | None = None
    if n >= 4:
        chain_ok = (
            check_defect_chain(report.reduced).ok
            and check_propositions(report.reduced).ok
        )
    return TrialRecord(
        trial=trial,
        rank=n,
        defect=defect,
        gamma_pow=hermite_constant_power(n),
        lls_bound=lls,
        new_bound=newb,
        chain_ok=chain_ok,
        nodes=report.total_nodes,
        reduced=report.reduced,
    )


def _worker_count(raw: str | None, cpu_count: int | None, trials: int) -> int:
    """Worker processes for `trials` trials given the HKZ_THREADS value `raw`.

    The request is clamped to the CPU count and to the number of trials, since
    the pool starts every worker up front; a missing, non-integer or
    non-positive request means one worker.
    """
    try:
        requested = int(raw)
    except (TypeError, ValueError):
        return 1
    return max(1, min(requested, cpu_count or 1, trials))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]

    @property
    def max_defect(self) -> Fraction:
        return max(r.defect for r in self.records)

    def max_defect_record(self) -> TrialRecord:
        return max(self.records, key=lambda r: (r.defect, -r.trial))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials (in parallel when HKZ_THREADS > 1, with at most one
    worker per CPU and per trial; records are identical either way because
    every trial owns its own seed)."""
    cfg.validate()
    jobs = [(cfg, trial) for trial in range(cfg.trials)]
    workers = _worker_count(os.environ.get("HKZ_THREADS"), os.cpu_count(), cfg.trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, jobs, chunksize=8))
    else:
        records = [_run_trial(job) for job in jobs]
    records.sort(key=lambda r: r.trial)
    return ExperimentResult(cfg, tuple(records))


def records_to_csv(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "trial",
            "rank",
            "defect_exact",
            "defect_float",
            "gamma_pow",
            "lls_bound",
            "new_bound",
            "chain_ok",
            "nodes",
        ]
    )
    for r in records:
        writer.writerow(
            [
                r.trial,
                r.rank,
                format_rat(r.defect),
                repr(float(r.defect)),
                format_rat(r.gamma_pow),
                format_rat(r.lls_bound),
                format_rat(r.new_bound) if r.new_bound is not None else "",
                {True: "true", False: "false", None: "n/a"}[r.chain_ok],
                r.nodes,
            ]
        )
    return out.getvalue()


def summary_json(result: ExperimentResult) -> str:
    cfg = result.config
    best = result.max_defect_record()
    payload = {
        "rank": cfg.rank,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "entry_bound": cfg.entry_bound,
        "max_defect": format_rat(best.defect),
        "max_defect_float": float(best.defect),
        "max_defect_trial": best.trial,
        "max_defect_gram": [
            [format_rat(v) for v in row] for row in best.reduced.entries
        ],
        "gamma_pow": format_rat(hermite_constant_power(cfg.rank)),
        "lls_bound": format_rat(lls_bound(cfg.rank)),
        "new_bound": format_rat(new_bound(cfg.rank)) if cfg.rank >= 4 else None,
        "delta_exact": format_rat(delta_exact(cfg.rank)) if cfg.rank <= 3 else None,
        # reported, not asserted: whether the observed maximum stayed within
        # gamma_n^n, the conjectured exact value for n >= 4
        "max_defect_le_gamma_pow": (
            best.defect <= hermite_constant_power(cfg.rank)
            if cfg.rank >= 4
            else None
        ),
        "all_chain_checks_ok": all(r.chain_ok for r in result.records)
        if cfg.rank >= 4
        else None,
    }
    return json.dumps(payload, indent=2)
