"""Digests of the library's reports, computed in process.

`golden_reports.json` holds one sha256 per report family over its values on
fixed inputs, and one more digest over every enumeration node count those
reports carry.  Node counts are kept out of the family digests, so a change
to the enumeration order re-records only the node digest.

The lattice inputs are `random_gram` at ranks 2-6, seeds 0-19, with every
third rank-4 basis scaled by 3/7, and the D4, D5 and E6 Cartan Grams.  The
rank-3 inputs are a grid of (lambda, mu, sigma) on each side, with k at
quarters of the side's ceiling C/E, the last of them outside the domain.
A refused call is pinned by its message; the float second difference is
pinned, as `float.hex()`, only where the exact one is defined.

Re-recording is a deliberate edit of the JSON file:
`PYTHONPATH=src python tests/test_golden_reports.py` prints the digests of
the current code, and nothing rewrites the file.
"""

import dataclasses
import hashlib
import json
import math
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from hkzdefect import proofcheck, reduction
from hkzdefect.experiments import random_gram
from hkzdefect.proofcheck import CasePoint
from test_root_lattices import cartan_gram

GOLDEN = Path(__file__).with_name("golden_reports.json")
SIDES = {"NEG": ("NEG_KMIN", "NEG_KMAX"), "POS": ("POS_KMIN", "POS_KMAX")}


def lattice_inputs() -> dict:
    """name -> Gram matrix of every lattice input."""
    grams = {}
    for rank in range(2, 7):
        for seed in range(20):
            gram = random_gram(rank, seed)
            if rank == 4 and seed % 3 == 0:
                gram = gram.scaled(Fr(3, 7))
            grams[f"random_{rank}_{seed}"] = gram
    grams.update((name, cartan_gram(name)) for name in ("D4", "D5", "E6"))
    return grams


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"refused: {exc}"


def checks(report):
    """(label, lhs, rhs) of each check of a report, or its refusal text."""
    if isinstance(report, str):
        return report
    return [[c.label, c.lhs, c.rhs] for c in report.all_checks()]


def lattice_reports(grams: dict):
    """({family: entries}, node entries) of the lattice reports on `grams`."""
    families = {
        name: []
        for name in (
            "hkz_reduce", "successive_minima", "shortest_vector", "is_hkz_reduced",
            "check_propositions", "check_defect_chain",
        )
    }
    nodes = []
    for name, gram in grams.items():
        report = reduction.hkz_reduce(gram)
        reduced = report.reduced
        families["hkz_reduce"].append(
            [name, reduced.entries, report.transform.entries, report.defect]
        )
        nodes.append([name, "hkz_reduce", report.total_nodes])
        minima = reduction.successive_minima(gram)
        families["successive_minima"].append([name, minima.minima_sq, minima.witnesses])
        shortest = reduction.shortest_vector(gram)
        families["shortest_vector"].append([name, shortest.coeffs, shortest.norm_sq])
        nodes.append([name, "shortest_vector", shortest.nodes_visited])
        for basis, matrix in (("raw", gram), ("reduced", reduced)):
            cert = reduction.is_hkz_reduced(matrix)
            families["is_hkz_reduced"].append(
                [name, basis, cert.ok, cert.failing_condition]
            )
            report = outcome(reduction.check_propositions, matrix)
            families["check_propositions"].append([name, basis, checks(report)])
        chain = outcome(reduction.check_defect_chain, reduced)
        families["check_defect_chain"].append([name, checks(chain)])
    return families, nodes


def rank3_points():
    """(side, lam, mu, sigma, k, h) of the rank-3 grid: lambda and mu in
    eighths of [0, 1/2], sigma in 24ths of the side's interval, k at t/4 of
    the ceiling C/E for t = 1..4 and the step h of an eighth of it."""
    for side, (case_id, _) in SIDES.items():
        lo, hi = proofcheck.sigma_interval(case_id)
        sigmas = [lo + Fr(m, 24) for m in range(int((hi - lo) * 24) + 1)]
        for i in range(5):
            for j in range(5):
                lam, mu = Fr(i, 8), Fr(j, 8)
                for sigma in sigmas:
                    c_val, e_val = proofcheck._envelope_pieces(side, lam, mu, sigma)
                    top = c_val / e_val
                    for t in range(1, 5):
                        yield side, lam, mu, sigma, top * t / 4, top / 8


def rank3_reports(points):
    """{family: entries} of the rank-3 functions at `points`, as yielded by
    `rank3_points`."""
    families = {
        name: []
        for name in (
            "defect_from_parameters", "envelope_value", "envelope_second_difference",
            "envelope_second_difference_float", "convexity_numerator",
            "implied_k_l", "check_hkz_inequalities",
        )
    }
    seen = set()
    for side, lam, mu, sigma, k, h in points:
        where = [side, lam, mu, sigma, k]
        c_val, e_val = proofcheck._envelope_pieces(side, lam, mu, sigma)
        point = CasePoint(lam, mu, sigma, k, c_val - k * e_val)
        families["defect_from_parameters"].append(
            [*where, outcome(proofcheck.defect_from_parameters, point)]
        )
        families["envelope_value"].append(
            [*where, outcome(proofcheck.envelope_value, side, lam, mu, sigma, k)]
        )
        exact = outcome(proofcheck.envelope_second_difference, side, point, h)
        families["envelope_second_difference"].append([*where, exact])
        if not isinstance(exact, str):  # the float check runs inside the domain
            value = proofcheck.envelope_second_difference_float(side, point, float(h))
            families["envelope_second_difference_float"].append([*where, value.hex()])
        families["convexity_numerator"].append(
            [*where, outcome(proofcheck.convexity_numerator, side, point)]
        )
        if (side, lam, mu, sigma) in seen:
            continue
        seen.add((side, lam, mu, sigma))
        for case_id in SIDES[side]:
            k_l = outcome(proofcheck.implied_k_l, case_id, lam, mu, sigma)
            families["implied_k_l"].append([case_id, lam, mu, sigma, k_l])
            case_point = CasePoint(lam, mu, sigma, *k_l)
            report = outcome(proofcheck.check_hkz_inequalities, case_point)
            if not isinstance(report, str):
                report = [report.values, report.violated, report.derived_hold]
            families["check_hkz_inequalities"].append(
                [case_id, *case_point.as_tuple(), report]
            )
    return families


def sha256(entries) -> str:
    text = json.dumps(entries, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(families: dict, nodes=None) -> dict:
    result = {"reports": {name: sha256(entries) for name, entries in families.items()}}
    if nodes is not None:
        result["nodes"] = sha256(nodes)
    return result


def collect() -> dict:
    """{"reports": {family: digest}, "nodes": digest} of the current code."""
    families, nodes = lattice_reports(lattice_inputs())
    families.update(rank3_reports(rank3_points()))
    return digests(families, nodes)


@pytest.fixture(scope="module")
def current():
    return collect()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_report_family_matches(current, golden):
    assert current["reports"].keys() == golden["reports"].keys()
    changed = [
        name
        for name, digest in golden["reports"].items()
        if current["reports"][name] != digest
    ]
    assert changed == []


def test_node_counts_match(current, golden):
    assert current["nodes"] == golden["nodes"]


def test_the_rank3_grid_has_values_and_refusals():
    points = list(rank3_points())
    assert len(points) == 1000
    refused = 0
    for side, lam, mu, sigma, k, _h in points:
        value = outcome(proofcheck.envelope_value, side, lam, mu, sigma, k)
        refused += isinstance(value, str)
    assert 0 < refused < len(points)


# --- controls: a changed report fails its own digest -------------------------

# the controls compare digests of a few inputs with and without the change
SMALL = {"random_4_1": random_gram(4, 1), "D4": cartan_gram("D4")}
FEW_POINTS = list(rank3_points())[100:140]


def changed_families(before, after):
    return [n for n, d in after["reports"].items() if d != before["reports"][n]]


def test_one_ulp_in_the_float_second_difference_fails(monkeypatch):
    before = digests(rank3_reports(FEW_POINTS))
    real = proofcheck.envelope_second_difference_float

    def nudged(side, point, step):
        return math.nextafter(real(side, point, step), math.inf)

    monkeypatch.setattr(proofcheck, "envelope_second_difference_float", nudged)
    after = digests(rank3_reports(FEW_POINTS))
    assert changed_families(before, after) == ["envelope_second_difference_float"]


def test_swapped_proposition_labels_fail(monkeypatch):
    before = digests(*lattice_reports(SMALL))
    real = reduction.check_propositions

    def swapped(gram):
        report = real(gram)
        first, second, *rest = report.minima_lower
        lower = (
            dataclasses.replace(first, label=second.label),
            dataclasses.replace(second, label=first.label),
            *rest,
        )
        return dataclasses.replace(report, minima_lower=lower)

    monkeypatch.setattr(reduction, "check_propositions", swapped)
    after = digests(*lattice_reports(SMALL))
    assert changed_families(before, after) == ["check_propositions"]


def test_changed_node_count_fails_only_the_node_digest(monkeypatch):
    before = digests(*lattice_reports(SMALL))
    real = reduction.hkz_reduce

    def more_nodes(gram):
        report = real(gram)
        if gram != SMALL["D4"]:
            return report
        return dataclasses.replace(report, total_nodes=report.total_nodes + 1)

    monkeypatch.setattr(reduction, "hkz_reduce", more_nodes)
    after = digests(*lattice_reports(SMALL))
    assert changed_families(before, after) == []
    assert after["nodes"] != before["nodes"]


if __name__ == "__main__":
    json.dump(collect(), sys.stdout, indent=2)
    print()
