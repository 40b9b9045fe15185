"""Span tracer installed from outside the program.

`Tracer.install()` replaces every traced primpoints function by a wrapper
that records one span per call: name, start, end, parent span and item id.
The wrapper is bound at every module global that refers to the original
function, because `from .linalg import kernel_basis` and the like copy the
binding into the importing module.  `classify_place` is wrapped outside its
`lru_cache`, so cache hits still return without running the body.

Spans stay in memory; `raw_totals()` reduces them to per-function call
counts, self time (duration minus the time covered by child spans) and
inclusive time (outermost spans of that function only, so recursion is
not counted twice), plus a few counts read from call arguments and
results.  `layer_metrics()` turns totals summed over processes into the
named per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = (
    "linalg.kernel_basis",
    "linalg.rank",
    "linalg.det",
    "arith.factor_over_Q",
    "arith.resultant",
    "arith.lagrange_interpolate",
    "arith.poly_gcd",
    "arith.hensel_sqrt",
    "numfield.nf_new",
    "numfield.factor_over_nf",
    "numfield.nfp_gcd",
    "numfield.principal_subfields",
    "numfield.is_primitive_field",
    "numfield.nf_minpoly",
    "numfield.absolute_minpoly",
    "hyperell.rr_space",
    "hyperell.rr_space_infty",
    "hyperell.divisor_of_function",
    "hyperell.classify_place",
    "hyperell.decompose_effective",
    "hyperell.point_field",
    "pipeline.enumerate_classes",
    "pipeline.classify_points",
    "pipeline.construct_primitive_curve",
    "pipeline.specialize_fiber",
    "cli.main",
)

PACKAGE = "primpoints"


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id, outermost]
        self._stack = []
        self._active = {}
        self.item = "setup"
        self.tallies = {
            "kernel_cells": 0,
            "kernel_empty": 0,
            "factor_degree": 0,
            "subfields_primitive": 0,
        }
        self._cached = None

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function at each module global bound to it."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for qualname in TRACED:
            mod_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            if qualname == "hyperell.classify_place":
                self._cached = original
            wrapper = self._wrap(qualname, original, _RESULT_HOOKS.get(qualname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn, hook):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not active.get(name)
            active[name] = active.get(name, 0) + 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, outermost]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                active[name] -= 1
            if hook is not None:
                hook(self.tallies, args, result)
            return result

        return traced

    # -- reduction ----------------------------------------------------------

    def raw_totals(self):
        """Additive totals of this process, merged across processes by summing."""
        out = {f"{name}.{k}": 0 for name in TRACED for k in ("calls", "self_s", "incl_s")}
        child_s = [0.0] * len(self.spans)
        for record in self.spans:
            if record[3] >= 0:
                child_s[record[3]] += record[2] - record[1]
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_s[i]
            if outermost:
                out[f"{name}.incl_s"] += end - start
        out.update(self.tallies)
        info = self._cached.cache_info()
        out["cache_hits"], out["cache_misses"] = info.hits, info.misses
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")


def layer_metrics(raw):
    """Named per-layer metrics from summed raw totals: {name: (value, unit)}."""
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = (raw[f"{name}.calls"], "count")
        out[f"{name}.self_s"] = (raw[f"{name}.self_s"], "s")
        out[f"{name}.incl_s"] = (raw[f"{name}.incl_s"], "s")
    out["linalg.kernel_basis.cells"] = (raw["kernel_cells"], "count")
    out["linalg.kernel_basis.empty_ratio"] = (
        _ratio(raw["kernel_empty"], raw["linalg.kernel_basis.calls"]), "ratio")
    out["arith.factor_over_Q.in_degree_sum"] = (raw["factor_degree"], "count")
    out["numfield.principal_subfields.primitive_ratio"] = (
        _ratio(raw["subfields_primitive"], raw["numfield.principal_subfields.calls"]), "ratio")
    out["hyperell.classify_place.hit_ratio"] = (
        _ratio(raw["cache_hits"], raw["cache_hits"] + raw["cache_misses"]), "ratio")
    return out


def _kernel_hook(tallies, args, result):
    rows, ncols = args[0], args[1]
    tallies["kernel_cells"] += len(rows) * ncols
    tallies["kernel_empty"] += not result


def _factor_hook(tallies, args, result):
    tallies["factor_degree"] += args[0].degree or 0


def _subfields_hook(tallies, args, result):
    tallies["subfields_primitive"] += bool(result.is_primitive)


_RESULT_HOOKS = {
    "linalg.kernel_basis": _kernel_hook,
    "arith.factor_over_Q": _factor_hook,
    "numfield.principal_subfields": _subfields_hook,
}
