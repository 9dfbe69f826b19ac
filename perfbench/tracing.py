"""Span recorder for the traced run.

Wraps the public entry points of each layer of `umbilic` from outside:
module functions are replaced wherever a module of the package holds a
reference to them (so names re-bound by `from ... import` in `cli` and
`congruence` are wrapped too), methods are replaced on the class that
defines them, and every registry `FamilySpec.build` is wrapped on its
spec.  A target that cannot be found is listed in `Recorder.missing`,
and the traced run fails on it rather than report a layer it did not
measure.

Spans (name, start, end, parent, op) live in memory; `write` dumps them
once the run is over.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from stats import union_length

# (layer name, module, class or None, attribute)
TARGETS = [
    ("jets.evaluate", "jets", None, "evaluate"),
    ("jets.fd_oracle", "jets", None, "fd_oracle"),
    ("charts.ExprChart.value", "charts", "ExprChart", "value"),
    ("charts.jet_arrays", "charts", "ImmersionChart", "jet_arrays"),
    ("charts.CompositeChart.jet_list", "charts", "CompositeChart", "jet_list"),
    ("charts.transform_chart", "charts", None, "transform_chart"),
    ("analysis.build_frame", "analysis", None, "build_frame"),
    ("analysis.umbilicity_data", "analysis", None, "umbilicity_data"),
    ("analysis.parallelism_residual", "analysis", None, "parallelism_residual"),
    ("analysis.analyze_point", "analysis", None, "analyze_point"),
    ("analysis.reduction_report", "analysis", None, "reduction_report"),
    ("analysis.fullness", "analysis", None, "fullness"),
    ("analysis.verify_family", "analysis", None, "verify_family"),
    ("bilinear.signature_of", "bilinear", None, "signature_of"),
    ("bilinear.numerical_rank", "bilinear", None, "numerical_rank"),
    ("congruence.classify", "congruence", None, "classify"),
    ("congruence.congruence_test", "congruence", None, "congruence_test"),
    ("congruence.moduli_demo", "congruence", None, "moduli_demo"),
    ("cli.main", "cli", None, "main"),
]
BUILD = "catalog.build"
LAYERS = [t[0] for t in TARGETS] + [BUILD]


class Recorder:
    """Collects one span per wrapped call; `op` tags spans with the unit."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package: str = "umbilic"):
        """Wrap every target in the package; list those not found."""
        for modname in sorted({t[1] for t in TARGETS} | {"catalog"}):
            try:
                importlib.import_module(f"{package}.{modname}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for name, modname, clsname, attr in TARGETS:
            module = sys.modules.get(f"{package}.{modname}")
            if clsname is not None:
                cls = getattr(module, clsname, None)
                if cls is None or attr not in vars(cls):
                    self.missing.append(name)
                    continue
                self._replace(cls, attr, self.wrap(name, vars(cls)[attr]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        catalog = sys.modules.get(f"{package}.catalog")
        fids = catalog.family_ids() if hasattr(catalog, "family_ids") else []
        if not fids:
            self.missing.append(BUILD)
        for fid in fids:
            spec = catalog.get_family(fid)
            self._replace(spec, "build", self.wrap(BUILD, spec.build))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_stats(spans, keep=lambda op: True, layers=LAYERS) -> dict:
    """Calls, self time and busy time of each layer.

    Self time is a span's duration minus the part of it that its child
    spans cover; busy time is the union of a layer's own spans, so a layer
    that calls itself is not counted twice.  Only spans whose op passes
    `keep` are counted; the list itself stays whole so that parent
    indices stay valid.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    calls = dict.fromkeys(layers, 0)
    self_s = dict.fromkeys(layers, 0.0)
    own = defaultdict(list)
    for idx, (name, start, end, _, op) in enumerate(spans):
        if name not in calls or not keep(op):
            continue
        calls[name] += 1
        covered = union_length((max(s, start), min(e, end))
                               for s, e in children.get(idx, ()))
        self_s[name] += (end - start) - covered
        own[name].append((start, end))
    return {n: {"calls": calls[n], "self_s": self_s[n],
                "busy_s": union_length(own[n])} for n in layers}
