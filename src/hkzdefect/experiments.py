"""Random-lattice ensembles: defect envelopes, chain inequalities, conjecture tracking.

Random Gram matrices are drawn as A A^T for seeded random integer matrices,
HKZ-reduced exactly, and their defects compared against every applicable
bound.  The observed maximum defect per rank is *reported* against gamma_n^n
for n >= 4 but never asserted.  At ranks 4 to 6 gamma_n^n is attained by an
HKZ-reduced root-lattice basis, so it is a proven lower bound on the maximal
defect; that it is the exact maximum is this library's conjecture, an open
question rather than a theorem.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import delta_exact, hermite_constant_power, lls_bound, new_bound
from .core import (
    GramMatrix,
    NotPositiveDefiniteError,
    format_rat,
    ldl,
)
from .reduction import MAX_MINIMA_RANK, check_defect_chain, hkz_reduce

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
        # every trial of rank >= 4 runs the chain check, which enumerates minima
        if not 2 <= self.rank <= MAX_MINIMA_RANK:
            raise ValueError(f"rank must be in 2..{MAX_MINIMA_RANK}")
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
        from .proofcheck import extremal_gram
        return extremal_gram(+1)
    return random_gram(cfg.rank, cfg.seed + trial, cfg.entry_bound)


def _run_trial(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    gram = _trial_gram(cfg, trial)
    report = hkz_reduce(gram)
    defect = report.defect
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
        chain_ok = check_defect_chain(report.reduced).ok
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
    """Run all trials in order in this process; every trial owns its own seed,
    so each record depends only on `cfg` and its trial index."""
    cfg.validate()
    return ExperimentResult(
        cfg, tuple(_run_trial(cfg, trial) for trial in range(cfg.trials))
    )


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
        # gamma_n^n, a proven lower bound on the maximal defect at ranks 4 to 6
        # and this library's conjectured exact value for n >= 4
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
