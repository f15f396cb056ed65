"""Each `demos/` walkthrough runs to the end and prints one known exact value.

The demos run in this process with `runpy.run_path`, as `__main__`, so a
change to a public name or value they use shows up here.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

EXPECTED_LINES = {
    "01_exact_reduction.py": "  lambda_3^2 = 5/4  witness (0, 1, 0)",
    "02_defect_bounds.py": "rank 4 comparison: split 1325/288 vs product 105/8",
    "03_case_verification.py": (
        "NEG_KMAX quadratic at (1/2, 1/2):"
        " (Fraction(7, 3), Fraction(3, 2), Fraction(1, 6))"
    ),
    "04_random_experiments.py": (
        "rank 3: 60 trials, max defect 25/12 (~2.0833), exact maximum 25/12"
    ),
}


def test_every_demo_is_covered():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(EXPECTED_LINES)


@pytest.mark.parametrize("name", sorted(EXPECTED_LINES))
def test_demo_prints_its_value(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert EXPECTED_LINES[name] in out.splitlines()
