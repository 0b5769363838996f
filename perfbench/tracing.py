"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of each dieumod layer by monkeypatching
module and class attributes at run time; nothing under src/ is edited.
Every wrapped call becomes a span (name, start, end, parent span, item id)
kept in flat arrays in memory and written out once when the run ends.
Self time is a span's duration minus the time covered by its child spans.
"""

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute path, span name).  Span names are "<layer>.<function>".
TARGETS = [
    ("fppoly", "smallest_primitive", "fppoly.smallest_primitive"),
    ("fppoly", "teichmuller_modulus", "fppoly.teichmuller_modulus"),
    ("modp", "ResidueField.random_unit", "modp.ResidueField.random_unit"),
    ("modp", "ResidueField.gen_pow", "modp.ResidueField.gen_pow"),
    ("modp", "smith_exponents", "modp.smith_exponents"),
    ("modp", "mat_rank_over_field", "modp.mat_rank_over_field"),
    ("wittring", "CoeffTower.__init__", "wittring.CoeffTower.init"),
    ("wittring", "CoeffTower.teichmuller", "wittring.CoeffTower.teichmuller"),
    ("wittring", "RamElem.__mul__", "wittring.RamElem.mul"),
    ("wittring", "RamElem.sigma", "wittring.RamElem.sigma"),
    ("wittring", "RamElem.inverse", "wittring.RamElem.inverse"),
    ("wittring", "RamElem.div_pi", "wittring.RamElem.div_pi"),
    ("modules", "DModule.__init__", "modules.DModule.init"),
    ("modules", "DModule.twisted_power", "modules.DModule.twisted_power"),
    ("modules", "DModule.min_valuation_doublings",
     "modules.DModule.min_valuation_doublings"),
    ("modules", "DModule.vbar_matrix", "modules.DModule.vbar_matrix"),
    ("modules", "DModule.fbar_matrix", "modules.DModule.fbar_matrix"),
    ("invariants", "lie_type", "invariants.lie_type"),
    ("invariants", "a_type", "invariants.a_type"),
    ("invariants", "a_index", "invariants.a_index"),
    ("invariants", "classify", "invariants.classify"),
    ("invariants", "newton_point", "invariants.newton_point"),
    ("invariants", "invariant_report", "invariants.invariant_report"),
    ("families", "slope_family", "families.slope_family"),
    ("families", "normal_form", "families.normal_form"),
    ("families", "deform_specialize", "families.deform_specialize"),
    ("strata", "verify_det_identity", "strata.verify_det_identity"),
    ("strata", "atype_poset", "strata.atype_poset"),
    ("hecke", "enumerate_stable_planes", "hecke.enumerate_stable_planes"),
    ("hecke", "compare_variety", "hecke.compare_variety"),
]

# newton_point is reported per method, so its span name carries the method
NEWTON_METHODS = ("fast", "oracle")
VERIFY_CRITERIA = range(1, 14)


def span_names():
    """Names of the function spans reported with .calls and .self_s."""
    out = []
    for _, _, name in TARGETS:
        if name == "invariants.newton_point":
            out += [f"{name}.{m}" for m in NEWTON_METHODS]
        else:
            out.append(name)
    return out


def criterion_span(cid):
    return f"verify.c{cid:02d}"


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in span_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs.append(("wittring.CoeffTower.distinct_ratio", "ratio", "higher"))
    specs.append(("invariants.lie_type.per_report", "ratio", "lower"))
    specs += [(f"{criterion_span(c)}_s", "s", "lower") for c in VERIFY_CRITERIA]
    specs += [("trace.run_s", "s", "lower"),
              ("trace.untraced_run_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = Counter()
        self.tower_keys = []
        self.item_id = -1
        self._stack = []
        self._undo = []

    # -- span recording ------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        calls, open_, close = self.calls, self._open, self._close
        if name == "invariants.newton_point":
            nids = {m: self._name_id(f"{name}.{m}") for m in NEWTON_METHODS}

            @functools.wraps(fn)
            def newton_wrapper(M, method="fast", *args, **kwargs):
                calls[f"{name}.{method}"] += 1
                idx = open_(nids[method])
                try:
                    return fn(M, method, *args, **kwargs)
                finally:
                    close(idx)
            return newton_wrapper
        nid = self._name_id(name)
        tower_keys = self.tower_keys if name == "wittring.CoeffTower.init" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if tower_keys is not None:
                t = args[0]
                tower_keys.append((t.p, t.f, t.e, t.ext, t.N))
            return out
        return wrapper

    def _wrap_generator(self, name, fn):
        """One call per invocation; one span per resumption, so a consumer
        that interleaves other work is not charged to the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = tracer.span(name, next, it)
                except StopIteration:
                    return
                yield value
        return wrapper

    def _wrap_criterion(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every binding of each target (the defining module, other
        dieumod modules that imported it by name, and verify.CRITERIA)."""
        import dieumod
        from dieumod import verify
        mods = [m for k, m in sys.modules.items()
                if k == "dieumod" or k.startswith("dieumod.")]
        for modname, path, name in TARGETS:
            owner = getattr(dieumod, modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original)
            self._set(owner, attr, wrapped)
            if not cls_path:
                for m in mods:
                    if m is not owner and vars(m).get(attr) is original:
                        self._set(m, attr, wrapped)
        for cid in VERIFY_CRITERIA:
            original = verify.CRITERIA[cid]
            self._undo.append(functools.partial(verify.CRITERIA.__setitem__, cid, original))
            verify.CRITERIA[cid] = self._wrap_criterion(criterion_span(cid), original)

    def _set(self, owner, attr, value):
        self._undo.append(functools.partial(setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def self_and_total(self):
        """Per span name: (self seconds, inclusive seconds)."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = np.bincount(names, weights=dur - child, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        return ({nm: float(self_t[i]) for i, nm in enumerate(self.names)},
                {nm: float(total[i]) for i, nm in enumerate(self.names)})

    def metrics(self, traced_run_s, untraced_run_s):
        self_t, total = self.self_and_total()
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self_t.get(name, 0.0)
        keys = self.tower_keys
        # a ratio over zero constructions is reported as 0 (base: .calls = 0)
        out["wittring.CoeffTower.distinct_ratio"] = (
            len(set(keys)) / len(keys) if keys else 0.0)
        reports = self.calls["invariants.invariant_report"]
        out["invariants.lie_type.per_report"] = (
            self.calls["invariants.lie_type"] / reports if reports else 0.0)
        for cid in VERIFY_CRITERIA:
            out[f"{criterion_span(cid)}_s"] = total.get(criterion_span(cid), 0.0)
        out["trace.run_s"] = traced_run_s
        out["trace.untraced_run_s"] = untraced_run_s
        out["trace.overhead_s"] = traced_run_s - untraced_run_s
        return out

    def write(self, path):
        """Write every span to a compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            parent=np.array(self.parent), item=np.array(self.item),
            start=np.array(self.start), end=np.array(self.end))
