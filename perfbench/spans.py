"""Layer spans recorded from outside the wavenvelope package.

Tracing rebinds the layer functions in every package namespace that holds
them (module globals and module-level registries such as
``measures._FAMILIES``) and the traced methods on their classes, so the
package itself is not edited.  Each call of a wrapped function records one
span: function, start, end and the enclosing span.  Spans stay in memory
until the run ends.

A layer is one module of ``src/wavenvelope``.  A layer's self time is the
time of its spans minus the time covered by their child spans, so the self
times of all layers add up to the time of the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "wavenvelope"
LAYERS = ("torus", "geometry", "measures", "envelope", "decomp",
          "schrodinger", "cli")

# Utilities that live in one layer but do another layer's bookkeeping: the
# exponent fit is called by cli for every growth fit, and the fits belong to
# cli's self time.
UNWRAPPED = {("schrodinger", "fit_exponent")}


def _n_points(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _weight_cap_key(a):
    H, cap = a["H"], a["cap"]
    return (H.label, H.spec.R, H.n_atoms, cap.s, cap.k)


# Metric names drop the class of a traced method where the layer has one
# such method.
METRIC_NAMES = {"TorusField.samples_on": "samples_on"}

# Traced functions with counters, as (layer, qualified name, counters).  A
# counter maps the bound call arguments (and the result) to a number.  Keys
# named "distinct" hold a value whose distinct count is reported.
COUNTED = (
    ("torus", "TorusField.samples_on", {
        "calls": lambda a, r: 1,
        "cells": lambda a, r: a["m"] * a["m"]}),
    ("torus", "lp_norm", {}),
    ("torus", "point_eval", {
        "terms": lambda a, r: _n_points(a["points"]) * a["field"].n_modes}),
    ("geometry", "locate_grid_envelopes", {
        "points": lambda a, r: int(np.size(a["j1"]))}),
    ("geometry", "locate_grid_tubes", {
        "points": lambda a, r: int(np.size(a["j1"]))}),
    ("geometry", "wrap_envelope_index", {}),
    ("measures", "make_weight", {}),
    ("measures", "ball_weight", {
        "atoms": lambda a, r: r.n_atoms}),
    ("measures", "dual_tube_weight", {}),
    ("envelope", "verify_weighted_sq", {}),
    ("envelope", "kappa_max", {}),
    ("envelope", "cap_decompose", {}),
    ("envelope", "weighted_cell_integrals", {
        "cells": lambda a, r: int(np.size(a["C"]))}),
    ("envelope", "kappa_table", {
        "calls": lambda a, r: 1,
        "atoms": lambda a, r: a["H"].n_atoms,
        "distinct": lambda a, r: _weight_cap_key(a)}),
    ("decomp", "broad_narrow", {}),
    ("decomp", "bilinear_trials", {}),
    ("decomp", "bilinear_check", {}),
    ("decomp", "RescaledField.point_eval", {
        "terms": lambda a, r: _n_points(a["points"]) * a["self"].n_modes}),
    ("schrodinger", "lattice_ratio", {
        "calls": lambda a, r: 1,
        "distinct": lambda a, r: (float(a["R"]), float(a["kappa"]))}),
    ("schrodinger", "propagate", {}),
    ("schrodinger", "propagator_at", {
        "terms": lambda a, r: _n_points(a["points"]) * np.size(a["freqs"])}),
    ("schrodinger", "nikodym_max", {}),
    ("schrodinger", "fls_experiment", {}),
    ("schrodinger", "nikodym_experiment", {}),
    ("cli", "run", {}),
)


@dataclass
class Traced:
    """One wrapped function: its layer, name and running counts."""

    layer: str
    name: str
    counters: dict
    counts: dict = field(default_factory=dict)
    distinct: set = field(default_factory=set)
    active: int = 0


@dataclass
class Recorder:
    """Spans of one traced run: (function index, start, end, parent, outer).

    parent is the index of the enclosing span or -1; outer is False when the
    span runs inside another span of the same function (recursion or an
    internal call), so per-function times count each interval once.
    """

    funcs: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    def wrap(self, fn, layer: str, name: str, counters: dict):
        fid = len(self.funcs)
        info = Traced(layer, name, counters)
        self.funcs.append(info)
        sig = inspect.signature(fn) if counters else None
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = info.active == 0
            info.active += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                info.active -= 1
                spans[idx] = (fid, t0, t1, parent, outer)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                _count(info, bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the counted functions and every function one layer imports
        from another; returns self."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        package = importlib.import_module(PACKAGE)
        targets = {}
        for layer, qualname, counters in COUNTED:
            obj = _lookup(modules[layer], qualname)
            if obj is None:
                self.missing.append(f"{layer}.{qualname}")
                continue
            targets[id(obj)] = (obj, layer, qualname, counters)
        for mod_name, mod in modules.items():
            for value in list(vars(mod).values()):
                layer = _layer_of(value)
                if (layer is None or layer == mod_name or id(value) in targets
                        or (layer, value.__name__) in UNWRAPPED):
                    continue
                targets[id(value)] = (value, layer, value.__name__, {})
        namespaces = [package, *modules.values()]
        for obj, layer, qualname, counters in targets.values():
            wrapper = self.wrap(obj, layer, qualname, counters)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(modules[layer], cls_name)
                self._set(cls, meth, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        self._set(ns, key, wrapper)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is obj:
                                value[k] = wrapper
                                self._undo.append((value.__setitem__, k, obj))
        return self

    def _set(self, owner, key, wrapper):
        self._undo.append((functools.partial(setattr, owner), key,
                           getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _lookup(module, qualname: str):
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _layer_of(value):
    """The layer that defines a plain function of the package, else None."""
    if not inspect.isfunction(value):
        return None
    mod = getattr(value, "__module__", "") or ""
    head, _, tail = mod.partition(".")
    if head != PACKAGE or tail not in LAYERS:
        return None
    return tail


def _count(info: Traced, args: dict, result):
    for key, counter in info.counters.items():
        value = counter(args, result)
        if key == "distinct":
            info.distinct.add(value)
        else:
            info.counts[key] = info.counts.get(key, 0) + value


def aggregate(funcs, spans) -> dict:
    """Per-layer self time and per-function totals from recorded spans.

    funcs holds objects with layer and name attributes; spans are
    (function index, start, end, parent index, outer) tuples.  Returns a
    dict with "self" (layer -> s), "time" ((layer, name) -> s over outer
    spans) and "root" (the summed time of spans without a parent).
    """
    child_time = [0.0] * len(spans)
    for fid, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_s = dict.fromkeys(LAYERS, 0.0)
    per_fn = {}
    root = 0.0
    for i, (fid, t0, t1, parent, outer) in enumerate(spans):
        info = funcs[fid]
        dur = t1 - t0
        self_s[info.layer] += dur - child_time[i]
        if outer:
            key = (info.layer, info.name)
            per_fn[key] = per_fn.get(key, 0.0) + dur
        if parent < 0:
            root += dur
    return {"self": self_s, "time": per_fn, "root": root}


def layer_metrics(recorder: Recorder) -> dict:
    """The per-layer metrics of one traced round, keyed by metric name."""
    agg = aggregate(recorder.funcs, recorder.spans)
    out = {f"{layer}.self_s": agg["self"][layer] for layer in LAYERS}
    infos = {(f.layer, f.name): f for f in recorder.funcs}
    for layer, qualname, counters in COUNTED:
        prefix = f"{layer}.{METRIC_NAMES.get(qualname, qualname)}"
        info = infos.get((layer, qualname))
        out[f"{prefix}.s"] = agg["time"].get((layer, qualname), 0.0)
        for key in counters:
            if key == "distinct":
                calls = info.counts.get("calls", 0) if info else 0
                seen = len(info.distinct) if info else 0
                out[f"{prefix}.repeat_ratio"] = calls / seen if seen else 0.0
            else:
                out[f"{prefix}.{key}"] = info.counts.get(key, 0) if info else 0
    out["trace.self_sum_s"] = sum(agg["self"].values())
    out["trace.spans"] = len(recorder.spans)
    return out


def write_spans(recorder: Recorder, path, header: dict) -> None:
    """Write the spans as JSON lines: a header line, then one per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for fid, t0, t1, parent, outer in recorder.spans:
            info = recorder.funcs[fid]
            fh.write(json.dumps({"fn": f"{info.layer}.{info.name}",
                                 "start": t0, "end": t1, "parent": parent,
                                 "outer": outer}) + "\n")
