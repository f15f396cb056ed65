"""Spans around the public functions of each hkzdefect layer, from outside.

The tracer replaces each target function at every binding site: its defining
module, every hkzdefect module that imported the name, and, for a method, its
class.  `restore` puts the original objects back.  Spans stay in memory as
[name, start, end, parent, request] lists until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute path) of every wrapped function, named in the per-layer
# metrics as "<module>.<attribute path>"
TARGETS = (
    ("core", "ldl"),
    ("core", "apply_unimodular"),
    ("core", "Unimodular.from_rows"),
    ("core", "determinant"),
    ("core", "parse_gram_text"),
    ("reduction", "hkz_reduce"),
    ("reduction", "successive_minima"),
    ("reduction", "is_hkz_reduced"),
    ("reduction", "check_propositions"),
    ("reduction", "projected_gram"),
    ("reduction", "size_reduce"),
    ("reduction", "complete_primitive_row"),
    ("bounds", "orthogonality_defect"),
    ("proofcheck", "scan_case"),
    ("proofcheck", "case_quadratic"),
    ("proofcheck", "convexity_scan"),
    ("proofcheck", "convexity_numerator"),
    ("proofcheck", "envelope_second_difference"),
    ("proofcheck", "envelope_second_difference_float"),
    ("proofcheck", "verify_extremal_form"),
    ("experiments", "run_experiment"),
    ("experiments", "check_defect_chain"),
    ("experiments", "random_gram"),
    ("experiments", "records_to_csv"),
    ("experiments", "summary_json"),
    ("cli", "main"),
)

PACKAGE = "hkzdefect"
WRAPPED_MARK = "__perfbench_wrapped__"


def _work_counts(name: str, result, counts: dict) -> None:
    """Deterministic work done by one call, read from its return value."""
    if name == "reduction.hkz_reduce":
        counts["reduction.hkz_reduce.nodes"] += result.total_nodes
        counts["reduction.hkz_reduce.svp_calls"] += result.svp_calls
        counts["reduction.hkz_reduce.identity"] += result.transform.is_identity()
    elif name == "proofcheck.scan_case":
        counts["proofcheck.scan_case.points"] += result.points_checked
    elif name == "proofcheck.convexity_scan":
        counts["proofcheck.convexity_scan.samples"] += result.samples_checked


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TARGETS]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts = {
            "reduction.hkz_reduce.nodes": 0,
            "reduction.hkz_reduce.svp_calls": 0,
            "reduction.hkz_reduce.identity": 0,
            "proofcheck.scan_case.points": 0,
            "proofcheck.convexity_scan.samples": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for index, (mod_name, attr_path) in enumerate(TARGETS):
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                owner = getattr(module, cls_name)
                descriptor = owner.__dict__[meth]
                if not isinstance(descriptor, classmethod):
                    raise TypeError(f"{attr_path} is not a classmethod")
                wrapper = self._wrap(index, descriptor.__func__)
                self._restore.append((owner, meth, descriptor))
                setattr(owner, meth, classmethod(wrapper))
                continue
            original = getattr(module, attr_path)
            wrapper = self._wrap(index, original)
            for site in modules:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._restore.append((site, attr, original))
                        setattr(site, attr, wrapper)

    def restore(self) -> None:
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, index: int, func):
        spans, stack, counts = self.spans, self.stack, self.counts
        name = self.names[index]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [index, perf_counter(), 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _work_counts(name, result, counts)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """calls and self_s per wrapped name, plus the work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        out = dict(self.counts)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        return out



def write_spans(path, tracers) -> None:
    """One JSON file: the span fields, the names, and each traced batch's spans."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "request"],
                "names": tracers[0].names,
                "batches": [t.spans for t in tracers],
            },
            handle,
            separators=(",", ":"),
        )


def leftover_wrappers() -> list[str]:
    """Names of tracer wrappers still bound anywhere in the package."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for meth, desc in vars(value).items():
                    func = getattr(desc, "__func__", desc)
                    if getattr(func, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{attr}.{meth}")
    return found
