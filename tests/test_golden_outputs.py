"""Digests of every documented command output, run in process through `cli.main`.

`golden_outputs.json` holds one sha256 per command line, over its stdout,
stderr, exit code and `--out` file, and one more digest over every node
count those outputs print.  Node counts are cut out of the per-command
digests, so a change to the enumeration order re-records only the node
digest.  `verify-proof` output is hashed with its `wall_time` values replaced
by `null`, and the input directory's path by `<dir>`.

Re-recording is a deliberate edit of the JSON file:
`PYTHONPATH=src python tests/test_golden_outputs.py` prints the digests of
the current code, and nothing rewrites the file.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from hkzdefect import GramMatrix, cli, format_gram_text
from hkzdefect.experiments import random_gram

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# the Cartan Grams of `test_root_lattices.py`, ties everywhere
ROOT_GRAMS = {
    "D4": (4, [(0, 1), (1, 2), (1, 3)]),
    "D5": (5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
    "E6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
}
NODE_COUNT = re.compile(r'(?<=nodes: )\d+|(?<="total_nodes": )\d+')
WALL_TIME = re.compile(r'(?<="wall_time": )[^,\n]+')


def cartan_gram(n, edges):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return GramMatrix.from_rows(rows)


def input_files(workdir: Path) -> dict[str, str]:
    """name -> path of each Gram file the file commands read."""
    shapes = ((3, 1), (4, 2), (5, 3), (6, 4))
    grams = {f"random_{r}_{s}": random_gram(r, s) for r, s in shapes}
    grams["rational_4_5"] = random_gram(4, 5).scaled(Fr(2, 3))
    grams.update((name, cartan_gram(*spec)) for name, spec in ROOT_GRAMS.items())
    grams["identity_7"] = GramMatrix.from_rows(
        [[int(i == j) for j in range(7)] for i in range(7)]
    )
    texts = {name: format_gram_text(gram) for name, gram in grams.items()}
    texts["bad_rank"] = "three\n1 0 0\n0 1 0\n0 0 1\n"
    paths = {}
    for name, text in texts.items():
        paths[name] = workdir / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    paths["latin1"] = workdir / "latin1.txt"
    paths["latin1"].write_bytes("2\n1 0\n0 \xe9\n".encode("latin-1"))
    return {name: str(path) for name, path in paths.items()}


def command_lines(files: dict[str, str], workdir: Path):
    """(label, argv, out path or None) for every pinned command line."""
    for rank in range(2, 7):
        out = str(workdir / f"experiment_{rank}.csv")
        argv = ["experiment", "--rank", str(rank), "--trials", "50", "--seed", "1"]
        yield f"experiment rank {rank}", [*argv, "--out", out], out
    for max_rank in (-1, 0, 1, 3, 4, 8, 9, 12):
        for fmt in ("text", "json", "csv"):
            argv = ["bounds", "--max-rank", str(max_rank), "--format", fmt]
            yield f"bounds {max_rank} {fmt}", argv, None
    yield "verify-proof", ["verify-proof", "--step", "1/50"], None
    for case_id in ("NEG_KMIN", "NEG_KMAX", "POS_KMIN", "POS_KMAX"):
        argv = ["verify-proof", "--step", "1/50", "--case", case_id]
        yield f"verify-proof {case_id}", argv, None
    drawn = [name for name in files if name.startswith(("random", "rational"))]
    for name in (*drawn, *ROOT_GRAMS):
        for command in ("reduce", "defect", "minima"):
            for fmt in ("text", "json"):
                argv = [command, files[name], "--format", fmt]
                yield f"{command} {name} {fmt}", argv, None
    # refusals
    yield "reduce latin1", ["reduce", files["latin1"]], None
    yield "defect bad_rank", ["defect", files["bad_rank"]], None
    yield "minima identity_7", ["minima", files["identity_7"]], None
    yield "reduce missing", ["reduce", str(workdir / "missing.txt")], None
    yield "experiment rank 7", ["experiment", "--rank", "7", "--trials", "1"], None
    for step in ("1/10", "1/2000", "1/75", "x"):
        yield f"verify-proof step {step}", ["verify-proof", "--step", step], None
    for case_id in ("NEG", ""):
        argv = ["verify-proof", "--step", "1/50", f"--case={case_id}"]
        yield f"verify-proof case {case_id!r}", argv, None


def run_cli(argv, out_path, workdir: Path):
    """(text, node counts) of one command line; the text joins stdout,
    stderr, the --out file and the exit code, with node counts, wall times
    and the input directory masked."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out_file = Path(out_path).read_text(encoding="utf-8") if out_path else ""
    # the experiment CSV's last column is its node count
    csv_rows = [line.rpartition(",") for line in out_file.splitlines()]
    nodes = [last for _rest, _comma, last in csv_rows]
    csv_text = "".join(rest + "\n" for rest, _comma, _last in csv_rows)
    masked = []
    for part in (stdout.getvalue(), stderr.getvalue(), csv_text):
        part = part.replace(str(workdir), "<dir>")
        nodes += NODE_COUNT.findall(part)
        masked.append(WALL_TIME.sub("null", NODE_COUNT.sub("N", part)))
    return json.dumps([*masked, code]), nodes


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def collect() -> dict:
    """{"outputs": {label: digest}, "nodes": digest} of the current code."""
    outputs, nodes = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        files = input_files(workdir)
        for label, argv, out_path in command_lines(files, workdir):
            text, counts = run_cli(argv, out_path, workdir)
            outputs[label] = sha256(text)
            nodes.append([label, counts])
    return {"outputs": outputs, "nodes": sha256(json.dumps(nodes))}


@pytest.fixture(scope="module")
def current():
    return collect()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_pinned_output_matches(current, golden):
    assert current["outputs"].keys() == golden["outputs"].keys()
    changed = [
        label
        for label, digest in golden["outputs"].items()
        if current["outputs"][label] != digest
    ]
    assert changed == []


def test_node_counts_match(current, golden):
    assert current["nodes"] == golden["nodes"]


def test_wall_time_and_input_paths_are_masked(tmp_path):
    argv = ["verify-proof", "--step", "1/50", "--case", "POS_KMIN"]
    text, nodes = run_cli(argv, None, tmp_path)
    assert nodes == []
    assert '\\"wall_time\\": null' in text and "<dir>" not in text
    missing = str(tmp_path / "missing.txt")
    text, _nodes = run_cli(["defect", missing], None, tmp_path)
    assert "<dir>/missing.txt" in text


# --- controls: a changed output fails its own digest -------------------------


def one_digest(label, tmp_path):
    files = input_files(tmp_path)
    for name, argv, out_path in command_lines(files, tmp_path):
        if name == label:
            text, nodes = run_cli(argv, out_path, tmp_path)
            return sha256(text), nodes
    raise KeyError(label)


def test_swapped_csv_columns_fail(monkeypatch, tmp_path, golden):
    real = cli.records_to_csv

    def swapped(records):
        lines = []
        for line in real(records).splitlines():
            fields = line.split(",")
            fields[2], fields[3] = fields[3], fields[2]
            lines.append(",".join(fields) + "\n")
        return "".join(lines)

    label = "experiment rank 2"
    assert one_digest(label, tmp_path)[0] == golden["outputs"][label]
    monkeypatch.setattr(cli, "records_to_csv", swapped)
    assert one_digest(label, tmp_path)[0] != golden["outputs"][label]


def test_changed_rational_format_fails(monkeypatch, tmp_path, golden):
    label = "defect rational_4_5 text"
    monkeypatch.setattr(cli, "format_rat", lambda v: f"{v.numerator} / {v.denominator}")
    assert one_digest(label, tmp_path)[0] != golden["outputs"][label]


def test_changed_node_count_fails_only_the_node_digest(monkeypatch, tmp_path, golden):
    label = "reduce D4 json"
    digest, nodes = one_digest(label, tmp_path)
    real = cli.hkz_reduce

    def more_nodes(gram):
        report = real(gram)
        return dataclasses.replace(report, total_nodes=report.total_nodes + 1)

    monkeypatch.setattr(cli, "hkz_reduce", more_nodes)
    digest_after, nodes_after = one_digest(label, tmp_path)
    assert digest_after == digest == golden["outputs"][label]
    assert nodes_after == [str(int(nodes[0]) + 1)]


if __name__ == "__main__":
    json.dump(collect(), sys.stdout, indent=2)
    print()
