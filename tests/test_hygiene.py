"""Hygiene of the package modules, read from their source with `ast` and
`tokenize`.

No module imports a private (`_`-prefixed) name from a sibling module, and no
module other than the package `__init__` imports a name it never uses.  No
module reaches the parser-token cliff: compiling source of 8,192 tokens or
more costs noticeably more memory (compiling a padded copy of `proofcheck.py`
peaked at 2.70 MB under tracemalloc with 8,178 tokens and at 3.17 MB with
8,194), and every run that finds no usable `.pyc` pays it.

Importing the package loads only what every command needs: no module imports
`proofcheck` outside a function body, no module but `proofcheck` imports
`displays`, and the package serves the `proofcheck` names it exports on first
access.  No module imports a process, thread or pool module anywhere, so the
library never starts a process or a thread.
"""

import ast
import importlib.util
import io
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import hkzdefect
from hkzdefect import bounds, proofcheck, reduction

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


# modules that a command loads inside the function that needs them
DEFERRED_IMPORTS = {".proofcheck"}

# modules that start processes or threads; no library module imports them
PROCESS_IMPORTS = {"concurrent", "multiprocessing", "subprocess", "threading"}


def _named_modules(node):
    """Every module an import statement names, as written (relative ones with
    their dots, `from . import x` as `.x`); nothing for any other node."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        prefix = "." * node.level
        if node.module:
            yield prefix + node.module
        else:
            yield from (prefix + alias.name for alias in node.names)


def _all_imports(tree):
    """Every module any import names, function bodies included."""
    for node in ast.walk(tree):
        yield from _named_modules(node)


def _import_time_imports(tree):
    """Every module an import outside a function body names."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield from _named_modules(node)
        nodes.extend(ast.iter_child_nodes(node))


def _deferred(imported):
    """Whether an imported module name falls under DEFERRED_IMPORTS."""
    dot = "." if imported.startswith(".") else ""
    return dot + imported.lstrip(".").split(".")[0] in DEFERRED_IMPORTS


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


def test_no_import_time_pool_or_proofcheck():
    offenders = [
        f"{path.name}: {imported}"
        for path in MODULES
        for imported in _import_time_imports(_tree(path))
        if _deferred(imported)
    ]
    assert offenders == []


def test_import_time_check_catches_offenders():
    tree = ast.parse(
        "from . import bounds, proofcheck\n"
        "if True:\n"
        "    from .proofcheck import ALL_CASES\n"
        "class Holder:\n"
        "    from .proofcheck import extremal_gram\n"
        "from .reduction import hkz_reduce\n"
        "def run():\n"
        "    from . import proofcheck\n"
    )
    flagged = sorted(name for name in _import_time_imports(tree) if _deferred(name))
    assert flagged == [".proofcheck", ".proofcheck", ".proofcheck"]


def _starts_processes(imported):
    """Whether an imported module name falls under PROCESS_IMPORTS."""
    return imported.split(".")[0] in PROCESS_IMPORTS


def test_library_starts_no_process():
    offenders = [
        f"{path.name}: {imported}"
        for path in MODULES
        for imported in _all_imports(_tree(path))
        if _starts_processes(imported)
    ]
    assert offenders == []


def test_process_check_catches_offenders():
    tree = ast.parse(
        "import concurrent.futures\n"
        "from . import bounds\n"
        "from .threading_notes import x\n"
        "import concurrently\n"
        "def run():\n"
        "    from multiprocessing import Pool\n"
        "    import os, subprocess as sp\n"
        "class Holder:\n"
        "    def start(self):\n"
        "        from threading import Thread\n"
    )
    flagged = sorted(name for name in _all_imports(tree) if _starts_processes(name))
    assert flagged == [
        "concurrent.futures",
        "multiprocessing",
        "subprocess",
        "threading",
    ]


def _imports_displays(tree):
    """Whether any import, in a function body or not, names `displays`."""
    return any(
        name in (".displays", "hkzdefect.displays") for name in _all_imports(tree)
    )


def test_only_proofcheck_imports_displays():
    # the display transcriptions serve the convexity scan alone, so they load
    # with `proofcheck` and never with `import hkzdefect`
    importers = [path.name for path in MODULES if _imports_displays(_tree(path))]
    assert importers == ["proofcheck.py"]
    for text in (
        "def f():\n    from . import bounds, displays\n",
        "from .displays import Poly\n",
        "import hkzdefect.displays\n",
    ):
        assert _imports_displays(ast.parse(text))
    assert not _imports_displays(ast.parse("from . import display_utils\n"))


def test_every_export_resolves():
    missing = [name for name in hkzdefect.__all__ if not hasattr(hkzdefect, name)]
    assert missing == []
    assert len(set(hkzdefect.__all__)) == len(hkzdefect.__all__)


def test_proofcheck_names_served_on_access():
    lazy = [name for name in hkzdefect.__all__ if name not in vars(hkzdefect)]
    assert {"ALL_CASES", "extremal_gram", "run_full_verification"} <= set(lazy)
    listed = dir(hkzdefect)
    for name in lazy:
        assert getattr(hkzdefect, name) is getattr(proofcheck, name)
        assert name in listed
    assert set(vars(hkzdefect)) <= set(listed)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hkzdefect.no_such_name
    assert not hasattr(hkzdefect, "scaled_case_coefficients")


def test_proofcheck_loaded_late_calls_current_bindings(monkeypatch):
    # `proofcheck` is loaded on first use, which may come while a caller has
    # rebound a sibling's function; a copy loaded then must still call the
    # function bound when it runs, not the one bound when it was loaded
    spec = importlib.util.spec_from_file_location(
        "hkzdefect.proofcheck", PACKAGE_DIR / "proofcheck.py"
    )
    late = importlib.util.module_from_spec(spec)
    with monkeypatch.context() as patched:
        patched.setattr(bounds, "orthogonality_defect", lambda gram: Fraction(-1))
        patched.setattr(reduction, "is_hkz_reduced", lambda gram: None)
        spec.loader.exec_module(late)
    report = late.verify_extremal_form()
    assert report.ok
    assert [v.defect for v in report.variants] == [Fraction(25, 12)] * 2
