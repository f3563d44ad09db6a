"""Spans around the public functions of each agreebox module.

The package imports names with `from ... import`, so a function is
patched in every agreebox module that holds it as a global (the module
that calls it), in the module that defines it, and on its class for
methods.  Each wrapped call records a span: id, parent id, the id of the
benchmark call it belongs to, name, start and end.  Spans stay in memory;
self time is a span's duration minus the time its child spans cover.
Some spans also feed counters read off their arguments or result.
"""

import importlib
import pkgutil
from collections import defaultdict
from time import perf_counter


def _bits(values):
    return max(
        (max(q.numerator.bit_length(), q.denominator.bit_length()) for q in values or ()),
        default=0,
    )


def _lp(counters, args, result):
    rows = args[0]
    m, n = len(rows), len(rows[0])
    counters["simplexq.feasible_nonneg.cells_total"] += m * (n + m + 1)
    _, x, y = result
    bits = _bits(x if x is not None else y)
    counters["simplexq.cert_bits_max"] = max(counters["simplexq.cert_bits_max"], bits)


def _is_local(counters, args, result):
    box = args[0]
    counters["bridge.is_local.local"] += bool(result.local)
    counters["bridge.states"] += box.nA**box.nX * box.nB**box.nY


def _box_to_model(counters, args, result):
    counters["bridge.states"] += result.omega_count


def _detect(counters, args, result):
    counters["epistemic.depth_max"] = max(counters["epistemic.depth_max"], result.hierarchy.N)
    counters["epistemic.ccd"] += bool(result.ccd)
    counters["epistemic.sd"] += bool(result.sd)


def _verify(counters, args, result):
    counters["classical.instances"] += result.instances
    counters["classical.certainty"] += result.certainty_instances


# (module, attribute, observer); "Class.method" patches the class
SPANNED = (
    ("cli", "main", None),
    ("rationals", "rat_str", None),
    ("rationals", "rat_dec", None),
    ("simplexq", "feasible_nonneg", _lp),
    ("simplexq", "LinearSolver.solve", None),
    ("bridge", "is_local", _is_local),
    ("bridge", "box_to_model", _box_to_model),
    ("boxes", "validate", None),
    ("boxes", "box_from_json", None),
    ("boxes", "box_to_json", None),
    ("boxes", "box_doc", None),
    ("boxes", "conditional", None),
    ("boxes", "cond_event_a", None),
    ("boxes", "cond_event_b", None),
    ("epistemic", "detect_ccd", _detect),
    ("reduction", "reduce_box", None),
    ("classify", "tsirelson_obstruction", None),
    ("families", "ccd_table_box", None),
    ("families", "sd_table_box", None),
    ("classical", "verify_agreement_theorem", _verify),
    ("classical", "tower", None),
)
# counted but not spanned: these run hundreds of times per box
COUNTED = (
    ("boxes", "Box.marginal_a", "boxes.marginal"),
    ("boxes", "Box.marginal_b", "boxes.marginal"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, call, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.call_id = 0
        self._next_id = 0
        self._stack = []  # [span id, child seconds]
        self._patches = []

    def _span(self, name, fn, observe):
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((frame[0], parent, self.call_id, name, start, end))
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        package = importlib.import_module("agreebox")
        modules = [package] + [
            importlib.import_module(f"agreebox.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for mod_name, attr, observe in SPANNED:
            original = self._original(mod_name, attr)
            self._patch(modules, mod_name, attr,
                        self._span(f"{mod_name}.{attr}", original, observe))
        for mod_name, attr, counter in COUNTED:
            original = self._original(mod_name, attr)
            self._patch(modules, mod_name, attr, self._count(counter, original))

    @staticmethod
    def _original(mod_name, attr):
        obj = importlib.import_module(f"agreebox.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    def _patch(self, modules, mod_name, attr, wrapper):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"agreebox.{mod_name}"), cls_name)
            self._patches.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)
            return
        original = self._original(mod_name, attr)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, extra):
        """Per-layer metrics; extra holds counters the workload reported."""
        out = {}
        for mod_name, attr, _ in SPANNED:
            name = f"{mod_name}.{attr}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1e3, "ms")
        c = self.counters

        def frac(num, den):
            return num / den if den else 0.0

        lp_calls = self.calls["simplexq.feasible_nonneg"]
        local_calls = self.calls["bridge.is_local"]
        bridge_calls = local_calls + self.calls["bridge.box_to_model"]
        detects = self.calls["epistemic.detect_ccd"]
        instances = c["classical.instances"]
        grid_points = extra.get("cli.sweep.grid_points", 0)
        out.update({
            "boxes.marginal.calls": (c["boxes.marginal"], "count"),
            "simplexq.feasible_nonneg.cells": (
                frac(c["simplexq.feasible_nonneg.cells_total"], lp_calls), "cells"),
            "simplexq.cert_bits_max": (c["simplexq.cert_bits_max"], "bits"),
            "bridge.is_local.local_frac": (frac(c["bridge.is_local.local"], local_calls), "ratio"),
            "bridge.states_per_call": (frac(c["bridge.states"], bridge_calls), "states"),
            "epistemic.depth_max": (c["epistemic.depth_max"], "levels"),
            "epistemic.ccd_frac": (frac(c["epistemic.ccd"], detects), "ratio"),
            "epistemic.sd_frac": (frac(c["epistemic.sd"], detects), "ratio"),
            "classical.instances": (instances, "count"),
            "classical.certainty_frac": (frac(c["classical.certainty"], instances), "ratio"),
            "cli.sweep.valid_frac": (
                frac(extra.get("cli.sweep.rows", 0), grid_points), "ratio"),
        })
        return out
