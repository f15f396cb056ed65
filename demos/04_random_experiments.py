#!/usr/bin/env python3
"""Tour 4: random-lattice experiments and conjecture tracking.

Seeded random Gram matrices (A A^T for integer A) are HKZ-reduced exactly and
their defects compared against every applicable bound.  At ranks 2 and 3 the
known extremal lattices ride along as trial 0 and attain the exact maxima; at
rank >= 4 the observed maximum is reported against gamma_n^n without asserting
it.  At ranks 4 to 6 gamma_n^n is attained by an HKZ-reduced root-lattice basis,
so it is a proven lower bound on the maximal defect; that it is the exact value
is this library's conjecture.
"""

import json

from hkzdefect import (
    ExperimentConfig,
    check_defect_chain,
    hkz_reduce,
    random_gram,
    records_to_csv,
    run_experiment,
    summary_json,
)

for rank, trials in ((2, 60), (3, 60), (4, 40), (5, 20)):
    cfg = ExperimentConfig(rank=rank, trials=trials, seed=2024)
    result = run_experiment(cfg)
    summary = json.loads(summary_json(result))
    line = (
        f"rank {rank}: {trials} trials, max defect {summary['max_defect']}"
        f" (~{summary['max_defect_float']:.4f})"
    )
    if rank <= 3:
        line += f", exact maximum {summary['delta_exact']}"
    else:
        line += (
            f", gamma^n {summary['gamma_pow']},"
            f" within conjectured value: {summary['max_defect_le_gamma_pow']},"
            f" chain checks all ok: {summary['all_chain_checks_ok']}"
        )
    print(line)

# Per-trial records serialize to CSV with exact p/q defects; identical seeds
# reproduce the file byte for byte.
cfg = ExperimentConfig(rank=3, trials=5, seed=7)
print("\nper-trial CSV for a tiny rank-3 run:")
print(records_to_csv(run_experiment(cfg).records))

# The chain of inequalities behind the rank-split bound, on one random case.
reduced = hkz_reduce(random_gram(4, seed=99, entry_bound=10)).reduced
chain = check_defect_chain(reduced)
print("chain report for one random rank-4 lattice: ok =", chain.ok)
for check in chain.all_checks():
    print(f"  {check.label}: {check.lhs} <= {check.rhs}")
