#!/usr/bin/env python3
"""Time two checkouts against each other in one interpreter.

Loads OLD/src/primpoints and NEW/src/primpoints under two package names,
builds each side's items with `perfbench/workloads.py` of this checkout,
and runs the passes in alternating order, so that a drift of machine speed
falls on both sides alike.  Every `lru_cache` of a package is cleared
before each pass and before each x0_71 item (the benchmark runs every
x0_71 item in a fresh interpreter, and each other workload's items in one).
Per workload it prints each side's minimum and median over the rounds and
NEW/OLD of both; it exits 1 if any item's output differs between the sides.
Outputs are the workloads' own strings and, for fiber-divisors, each
divisor's literal, so a change of a class's repr is no difference.

The noise floor: one checkout against itself (seven runs of 7 or 11
rounds, seeds 0 and 1, on a 2-CPU VM shared with other work) read NEW/OLD
of the minima 0.95-1.03 on fiber-sample and fiber-divisors and 0.74-1.12
on x0_71-points, rr-sweep and field-corpus, and of the medians 0.90-1.12
and 0.80-1.24.  A ratio inside that band shows no difference.

    fiber-sample      120 seeded fibers through `specialize_fiber`
    fiber-divisors    `divisor_of_function` alone on the same fibers
    x0_71-points      `points` on X0(71) at d = 4, 3, 6, 5 through the CLI
    rr-sweep          the Riemann-Roch sweep's `rr_space` dimensions
    field-corpus      `field` on the primitivity corpus through the CLI

Usage: python3 scripts/ab_inprocess.py OLD NEW [--rounds 11] [--seed 0]
"""

import argparse
import contextlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("fiber-sample", "fiber-divisors", "x0_71-points", "rr-sweep", "field-corpus")
MODULES = ("errors", "linalg", "arith", "permact", "numfield", "hyperell",
           "formats", "pipeline", "cli")


def load_package(name, checkout):
    """primpoints of `checkout`, imported as the package `name`."""
    path = os.path.join(os.path.abspath(checkout), "src", "primpoints")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return package


@contextlib.contextmanager
def as_primpoints(package):
    """Make `import primpoints` inside `workloads` resolve to `package`."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "primpoints"}
    for module in MODULES:
        sys.modules[f"primpoints.{module}"] = getattr(package, module)
    sys.modules["primpoints"] = package
    try:
        yield
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "primpoints"]:
            del sys.modules[key]
        sys.modules.update(saved)


def clear_caches(package):
    for module in MODULES:
        for value in vars(getattr(package, module)).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Side:
    """One checkout's package and its built items."""

    def __init__(self, name, checkout, seed, out_dir):
        self.name, self.package = name, load_package(f"primpoints_{name}", checkout)
        self.states = {}
        with as_primpoints(self.package):
            for workload in ("fiber-sample", "x0_71-points", "rr-sweep", "field-corpus"):
                self.states[workload] = workloads.setup(workload, ROOT, seed, out_dir)

    def run(self, workload):
        """(seconds, outputs) of one pass."""
        with as_primpoints(self.package):
            if workload == "x0_71-points":
                return self._x0_71()
            clear_caches(self.package)
            if workload == "fiber-divisors":
                return self._fiber_divisors()
            state = self.states[workload]
            start = time.perf_counter()
            outputs = [workloads.run_item(state, i) for i in range(workloads.item_count(state))]
            return time.perf_counter() - start, outputs

    def _fiber_divisors(self):
        hyperell = self.package.hyperell
        start = time.perf_counter()
        outputs = [
            hyperell.divisor_of_function(
                curve, w - hyperell.CurveFunction.constant(Fraction(beta))).literal()
            for (curve, w), beta in self.states["fiber-sample"]["fibers"]
        ]
        return time.perf_counter() - start, outputs

    def _x0_71(self):
        state, seconds, outputs = self.states["x0_71-points"], 0.0, []
        for i in range(workloads.item_count(state)):
            clear_caches(self.package)
            start = time.perf_counter()
            outputs.append(workloads.run_item(state, i))
            seconds += time.perf_counter() - start
        return seconds, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    differ = False
    with tempfile.TemporaryDirectory() as out_dir:
        sides = [Side("old", args.old, args.seed, out_dir), Side("new", args.new, args.seed, out_dir)]
        for workload in WORKLOADS:
            times = {side.name: [] for side in sides}
            for r in range(args.rounds):
                outputs = {}
                for side in sides if r % 2 == 0 else sides[::-1]:
                    seconds, outputs[side.name] = side.run(workload)
                    times[side.name].append(seconds)
                if outputs["old"] != outputs["new"]:
                    differ = True
                    print(f"{workload}: outputs differ in round {r}", flush=True)
            old, new = (min(times[side]) for side in ("old", "new"))
            old_med, new_med = (statistics.median(times[side]) for side in ("old", "new"))
            print(f"{workload}: old {old * 1000:.1f} ms (median {old_med * 1000:.1f})  "
                  f"new {new * 1000:.1f} ms (median {new_med * 1000:.1f})  "
                  f"new/old {new / old:.3f} (median {new_med / old_med:.3f})  "
                  f"(min of {args.rounds})", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
