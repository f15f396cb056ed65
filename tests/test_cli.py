import json
import sys
import time
from fractions import Fraction as Fr

import pytest

import hkzdefect
from hkzdefect import bounds, cli, core, format_gram_text, reduction

from conftest import patch_everywhere


EXTREMAL_TEXT = "3\n1 1/2 1/2\n1/2 5/4 3/4\n1/2 3/4 5/4\n"


@pytest.fixture
def extremal_file(tmp_path):
    path = tmp_path / "extremal.gram"
    path.write_text(EXTREMAL_TEXT)
    return str(path)


def test_reduce_already_reduced(extremal_file, capsys):
    code = cli.main(["reduce", extremal_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "already HKZ reduced" in out
    assert "defect = 25/12" in out


def test_reduce_diagonal_swap(tmp_path, capsys):
    path = tmp_path / "d.gram"
    path.write_text("2\n4 0\n0 1\n")
    code = cli.main(["reduce", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced"] == [["1", "0"], ["0", "4"]]
    assert payload["hkz_certified"] is True
    assert payload["already_reduced"] is False


def test_reduce_factors_the_reduced_gram_once(tmp_path, monkeypatch, capsys):
    # after hkz_reduce returns, the one factorization is the certificate's;
    # the defect comes with the report, so no determinant is taken
    path = tmp_path / "skewed.gram"
    path.write_text("3\n14 9 -13\n9 9 -5\n-13 -5 19\n")
    events = []
    ldl, hkz = core.ldl, reduction.hkz_reduce

    def counting_ldl(gram):
        events.append(("ldl", gram))
        return ldl(gram)

    def recording_hkz(gram):
        report = hkz(gram)
        events.append(("hkz_reduce", report.reduced))
        return report

    def no_determinant(*args):
        raise AssertionError("reduce took a determinant of its own")

    assert patch_everywhere(monkeypatch, ldl, counting_ldl) >= 2
    patch_everywhere(monkeypatch, hkz, recording_hkz)
    patch_everywhere(monkeypatch, core.determinant, no_determinant)
    patch_everywhere(monkeypatch, bounds.orthogonality_defect, no_determinant)
    assert cli.main(["reduce", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    done = [kind for kind, _ in events].index("hkz_reduce")
    reduced = events[done][1]
    assert payload["already_reduced"] is False
    assert [[Fr(v) for v in row] for row in payload["reduced"]] == [
        list(row) for row in reduced.entries
    ]
    assert events[done + 1 :] == [("ldl", reduced)]
    assert payload["hkz_certified"] is True
    monkeypatch.undo()
    assert Fr(payload["defect"]) == bounds.orthogonality_defect(reduced)


def test_reduce_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.gram"
    path.write_text("")
    assert cli.main(["reduce", str(path)]) == 2


def test_reduce_not_positive_definite(tmp_path, capsys):
    path = tmp_path / "npd.gram"
    path.write_text("2\n1 2\n2 1\n")
    assert cli.main(["reduce", str(path)]) == 3
    assert "pivot 2" in capsys.readouterr().err


def test_unreadable_input_exits_2(tmp_path, capsys):
    assert cli.main(["reduce", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}:")
    assert cli.main(["minima", str(tmp_path / "missing.gram")]) == 2


def test_exponent_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.gram"
    path.write_text("1\n1e2000000\n")
    assert cli.main(["defect", str(path)]) == 2
    assert "line 2, entry 1: exponent" in capsys.readouterr().err


def test_decimal_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "dec.gram"
    path.write_text("2\n2 0.5\n0.5 1_000\n")
    assert cli.main(["defect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: line 2, entry 2: invalid rational '0.5'"
    ]


def test_non_ascii_rank_exits_2(tmp_path, capsys):
    path = tmp_path / "rank.gram"
    path.write_text("\u0661\n4\n", encoding="utf-8")
    assert cli.main(["defect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: line 1: invalid rank '\u0661'"]


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.gram"
    path.write_bytes(b"\xff\xfe\x00")
    assert cli.main(["defect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}:")


def test_oversized_input_exits_2(tmp_path, capsys, monkeypatch):
    # /dev/zero reads the same way: the limit is checked, not the file size
    monkeypatch.setattr(core, "MAX_INPUT_CHARS", len(EXTREMAL_TEXT) - 1)
    path = tmp_path / "big.gram"
    path.write_text(EXTREMAL_TEXT)
    assert cli.main(["defect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot read {path}: input longer than"
        f" {len(EXTREMAL_TEXT) - 1} characters"
    ]
    # at the limit the file is read as before
    monkeypatch.setattr(core, "MAX_INPUT_CHARS", len(EXTREMAL_TEXT))
    assert cli.main(["defect", str(path)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "{gram}"],
        ["minima", "{gram}", "--format", "json"],
        ["bounds", "--max-rank", "3"],
        ["experiment", "--rank", "2", "--trials", "2"],
    ],
)
def test_unwritable_out_exits_3(argv, extremal_file, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    argv = [a.format(gram=extremal_file) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot write {out}: No such file or directory"
    ]


def test_defect_json_roundtrip(extremal_file, capsys):
    code = cli.main(["defect", extremal_file, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert Fr(payload["defect"]) == Fr(25, 12)


def test_minima_output(extremal_file, capsys):
    code = cli.main(["minima", extremal_file, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [Fr(v) for v in payload["minima_sq"]] == [Fr(1), Fr(1), Fr(5, 4)]


def test_minima_rank_cap(tmp_path, capsys):
    rows = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    text = "7\n" + "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"
    path = tmp_path / "big.gram"
    path.write_text(text)
    assert cli.main(["minima", str(path)]) == 4


def test_bounds_table(capsys):
    assert cli.main(["bounds", "--max-rank", "3"]) == 0
    out = capsys.readouterr().out
    assert "25/12" in out


def test_bounds_rank4_values(capsys):
    assert cli.main(["bounds", "--max-rank", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload[3]
    assert row["new_bound"]["exact"] == "1325/288"
    assert row["lls_bound"]["exact"] == "105/8"
    assert row["new_bound"]["approx"].startswith("4.600694")


def test_bounds_unknown_rank(capsys):
    assert cli.main(["bounds", "--max-rank", "9"]) == 4
    assert "Hermite constant unknown" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "max_rank, code, message",
    [
        (0, 3, "max rank must be positive"),
        (-1, 3, "max rank must be positive"),
        (9, 4, "Hermite constant unknown for rank 9 (known up to 8)"),
        (12, 4, "Hermite constant unknown for rank 12 (known up to 8)"),
    ],
)
def test_bounds_refusals_exact(max_rank, code, message, fmt, capsys):
    argv = ["bounds", "--max-rank", str(max_rank), "--format", fmt]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bounds_json_roundtrip(capsys):
    assert cli.main(["bounds", "--max-rank", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from hkzdefect import lls_bound, new_bound

    for row in payload:
        assert Fr(row["lls_bound"]["exact"]) == lls_bound(row["n"])
        if row["new_bound"] is not None:
            assert Fr(row["new_bound"]["exact"]) == new_bound(row["n"])


def test_verify_proof_single_case(capsys):
    code = cli.main(["verify-proof", "--step", "1/50", "--case", "NEG_KMIN"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["cases"]["NEG_KMIN"]["max_value"] == "-5/256"
    assert payload["cases"]["NEG_KMIN"]["violations"] == []


def test_verify_proof_rejects_coarse_step(capsys):
    assert cli.main(["verify-proof", "--step", "1/10"]) == 3
    assert cli.main(["verify-proof", "--step", "0"]) == 3
    assert cli.main(["verify-proof", "--step", "1/51"]) == 3  # does not divide 1/2
    assert cli.main(["verify-proof", "--step", "nonsense"]) == 2


@pytest.mark.parametrize(
    "step", ["1e-2000000", "5e-3", "0.005", " 1/200", "1/200 ", "1/0", "1_000"]
)
def test_verify_proof_step_follows_the_rational_grammar(monkeypatch, capsys, step):
    # Fraction() would read all of these, and build 10**2000000 for the first
    from hkzdefect import proofcheck

    def no_work(*args, **kwargs):
        raise AssertionError("verify-proof started a scan")

    monkeypatch.setattr(proofcheck, "run_full_verification", no_work)
    started = time.perf_counter()
    assert cli.main(["verify-proof", "--step", step]) == 2
    assert time.perf_counter() - started < 0.1
    captured = capsys.readouterr()
    assert captured.err == f"error: invalid step {step!r}\n"
    assert captured.out == ""


def test_verify_proof_rejects_fine_step(monkeypatch, capsys):
    # 1/1002 divides 1/2 but is below the 1/1000 floor: refused before any scan
    from hkzdefect import proofcheck

    def no_work(*args, **kwargs):
        raise AssertionError("verify-proof started a scan")

    monkeypatch.setattr(proofcheck, "run_full_verification", no_work)
    assert cli.main(["verify-proof", "--step", "1/1002"]) == 3
    assert cli.main(["verify-proof", "--step", "1/1000000"]) == 3
    assert "1/1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "step, code", [("0.5", 2), ("nonsense", 2), ("0", 3), ("1/51", 3), ("1/1002", 3)]
)
def test_verify_proof_checks_the_step_before_loading_proofcheck(
    monkeypatch, capsys, step, code
):
    monkeypatch.delitem(sys.modules, "hkzdefect.proofcheck", raising=False)
    monkeypatch.delattr(hkzdefect, "proofcheck", raising=False)
    assert cli.main(["verify-proof", "--step", step]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert "hkzdefect.proofcheck" not in sys.modules
    assert "proofcheck" not in vars(hkzdefect)


def test_verify_proof_rejects_unknown_case(capsys):
    assert cli.main(["verify-proof", "--case", "DIAGONAL"]) == 3
    # an empty id is an unknown case too, not "every case"
    capsys.readouterr()
    assert cli.main(["verify-proof", "--step", "1/50", "--case="]) == 3
    assert "error: unknown case ''" in capsys.readouterr().err


def test_verify_proof_corrupted_coefficients(monkeypatch, capsys):
    # negative control: poison the integer coefficients the scan evaluates,
    # c + 1/10 scaled by 12 q^4 (exact at q = 50), and expect exit 1
    from hkzdefect import proofcheck

    real = proofcheck.scaled_case_coefficients

    def corrupted(case_id, i, j, q):
        a, b, c = real(case_id, i, j, q)
        assert 12 * q**4 % 10 == 0
        return a, b, c + 12 * q**4 // 10

    monkeypatch.setattr(proofcheck, "scaled_case_coefficients", corrupted)
    code = cli.main(["verify-proof", "--step", "1/50", "--case", "NEG_KMIN"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    assert payload["cases"]["NEG_KMIN"]["violations"]


def test_verify_proof_corrupted_convexity(monkeypatch, capsys):
    # negative control: flip the envelope of the first (lambda, mu, sigma)
    # triple only; its numerator and second differences, all linear in its
    # quadratic p, turn negative, and nothing else does
    from hkzdefect import proofcheck

    real = proofcheck._envelope_polys
    calls = []

    def corrupted(*args):
        p_poly, f_scale, num_scale, k_top = real(*args)
        calls.append(args)
        if len(calls) == 1:
            p_poly = [-coeff for coeff in p_poly]
        return p_poly, f_scale, num_scale, k_top

    monkeypatch.setattr(proofcheck, "_envelope_polys", corrupted)
    code = cli.main(["verify-proof", "--step", "1/50", "--case", "NEG_KMIN"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    assert payload["cases"]["NEG_KMIN"]["passed"] is True
    cert = payload["convexity"]["NEG_KMIN"]
    assert cert["passed"] is False
    assert Fr(cert["min_second_difference"]) < 0
    assert Fr(cert["min_numerator"]) < 0
    assert cert["min_float_check"] >= -1e-12


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = cli.main(
        [
            "experiment",
            "--rank",
            "2",
            "--trials",
            "5",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    summary = json.loads(capsys.readouterr().out)
    assert Fr(summary["max_defect"]) <= Fr(4, 3)


def test_experiment_rejects_bad_rank(capsys):
    # rank >= 4 trials run the chain check, which enumerates minima, so the
    # experiment reads that enumeration's cap instead of keeping its own
    from hkzdefect import experiments

    assert not hasattr(experiments, "MAX_EXPERIMENT_RANK")
    assert reduction.MAX_MINIMA_RANK == 6
    for rank in ("1", "7", "9"):
        assert cli.main(["experiment", "--rank", rank, "--trials", "2"]) == 3
        assert capsys.readouterr().err == "error: rank must be in 2..6\n"


def test_cli_deterministic(extremal_file, capsys):
    cli.main(["minima", extremal_file, "--format", "json"])
    first = capsys.readouterr().out
    cli.main(["minima", extremal_file, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def _call(argv, capsys):
    """Exit code, stdout and stderr of one `cli.main` call; an argparse exit
    (an error or --help) gives its exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_carries_no_state_between_calls(extremal_file, capsys):
    valid = ["reduce", extremal_file, "--format", "json"]
    invalid = ["reduce", extremal_file, "--format", "xml"]
    first = _call(valid, capsys)
    error = _call(invalid, capsys)
    second = _call(valid, capsys)
    assert first[0] == 0 and json.loads(first[1])["defect"] == "25/12"
    assert error[0] == 2 and error[1] == "" and "invalid choice: 'xml'" in error[2]
    assert second == first
    assert _call(invalid, capsys) == error
    assert _call(["minima", extremal_file], capsys)[0] == 0
    assert _call([], capsys)[0] == 2
    assert _call(valid, capsys) == first
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize(
    "command",
    [[], ["reduce"], ["defect"], ["minima"], ["bounds"], ["verify-proof"], ["experiment"]],
)
def test_help_matches_a_fresh_parser(command, extremal_file, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = command + ["--help"]
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    assert exit_info.value.code == 0
    fresh = capsys.readouterr().out
    assert fresh.startswith("usage: hkzdefect")
    assert _call(argv, capsys) == (0, fresh, "")
    _call(["defect", extremal_file], capsys)
    assert _call(argv, capsys) == (0, fresh, "")


def test_gram_text_roundtrip_through_files(tmp_path):
    from hkzdefect import load_gram, parse_gram_text

    g = parse_gram_text(EXTREMAL_TEXT)
    path = tmp_path / "roundtrip.gram"
    path.write_text(format_gram_text(g))
    assert load_gram(str(path)) == g
