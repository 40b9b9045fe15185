"""primpoints benchmark: one command, four workloads, exact output checks.

    python3 perfbench/run.py --workload x0_71-points --seed 0 --seconds 10 --trace 0

Run from the root of a primpoints checkout.  Every pass starts fresh
interpreters (perfbench/worker.py), one after another from this process,
so the program's caches start cold as for a command-line user.  Passes
repeat while another one is expected to end within --seconds; a workload
whose single pass is longer than --seconds runs exactly one pass.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced pass
over the same items and prints the per-layer metrics and the traced
pass's wall time, which over the untraced wall_s is the tracing overhead.
The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Details go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # every run ends (or fails) before this
SETUP_PROBES = 3  # extra set-up-only interpreters per run, for a steady setup_s
OUT_DIR = ".bench_out"

# functions that must record calls in a traced pass, per workload
EXPECTED_ON_PATH = {
    "x0_71-points": (
        "cli.main", "pipeline.classify_points", "pipeline.enumerate_classes",
        "hyperell.rr_space", "linalg.kernel_basis", "numfield.principal_subfields",
        "hyperell.decompose_effective", "hyperell.divisor_of_function",
        "arith.factor_over_Q",
    ),
    "field-corpus": (
        "cli.main", "numfield.is_primitive_field", "numfield.principal_subfields",
        "numfield.factor_over_nf", "numfield.nf_new", "arith.factor_over_Q",
    ),
    "rr-sweep": ("hyperell.rr_space", "hyperell.rr_space_infty", "linalg.kernel_basis"),
    "fiber-sample": (
        "pipeline.construct_primitive_curve", "pipeline.specialize_fiber",
        "hyperell.divisor_of_function", "hyperell.classify_place",
        "arith.factor_over_Q", "numfield.is_primitive_field",
    ),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    def __init__(self, root, workload, seed):
        self.root, self.workload, self.seed = root, workload, seed
        self.out_dir = os.path.join(root, OUT_DIR)
        self.started = time.monotonic()

    def child(self, items="all", spans=None, setup_only=False):
        """Run one worker interpreter; return (setup_s, payload)."""
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--root", self.root, "--workload", self.workload,
            "--seed", str(self.seed), "--items", items, "--out-dir", self.out_dir,
        ]
        if spans:
            cmd += ["--trace-spans", spans]
        if setup_only:
            cmd.append("--setup-only")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        return payload["setup_end"] - spawned, payload

    def one_pass(self, trace=False):
        """All items once: one interpreter per degree on X0(71), else one in all."""
        if self.workload == "x0_71-points":
            batches = [str(i) for i in range(len(workloads.X0_71_DEGREES))]
        else:
            batches = ["all"]
        result = {"work_s": 0.0, "setups": [], "items": [], "rss_mb": 0.0, "layers": None}
        for n, items in enumerate(batches):
            spans = None
            if trace:
                spans = os.path.join(
                    self.out_dir, f"spans-{self.workload}-seed{self.seed}-{n}.jsonl"
                )
            setup_s, payload = self.child(items, spans)
            result["work_s"] += payload["work_s"]
            result["setups"].append(setup_s)
            result["items"] += payload["items"]
            result["rss_mb"] = max(result["rss_mb"], payload["rss_mb"])
            if trace:
                layers = payload["layers"]
                if result["layers"] is not None:
                    layers = {k: v + result["layers"][k] for k, v in layers.items()}
                result["layers"] = layers
        return result

    def failures(self, one):
        """Item indices of a pass that raised or mismatched."""
        outputs = {i: out for i, _, out, _ in one["items"]}
        bad = workloads.failed_items(self.workload, self.root, self.seed, outputs)
        for i, _, _, error in one["items"]:
            if error is not None:
                log(f"item {i} raised {error}")
        if bad:
            keys = workloads.item_keys(self.workload, self.root, self.seed)
            log(f"{len(bad)} failed items, first: {keys[min(bad)]}")
        return bad


def tail_ms(latencies):
    """Latency at the highest percentile with at least ten items beyond it.

    With fewer than eleven items no such percentile exists; the slowest
    item is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} items"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} items"


def run_untraced(runner, seconds):
    deadline = runner.started + seconds
    passes = []
    setups = [runner.child(setup_only=True)[0] for _ in range(SETUP_PROBES)]
    while True:
        began = time.monotonic()
        passes.append(runner.one_pass())
        if time.monotonic() + (time.monotonic() - began) > deadline:
            break
    failed = attempted = 0
    for one in passes:
        failed += len(runner.failures(one))
        attempted += len(one["items"])
        setups += one["setups"]
    # latency percentiles per pass, then the median over passes, so the
    # percentile does not depend on how many passes fit in a run
    latencies = [[ms for _, ms, _, _ in one["items"]] for one in passes]
    tails = [tail_ms(per_pass) for per_pass in latencies]
    log(f"{runner.workload} seed {runner.seed}: {len(passes)} pass(es) of "
        f"{len(latencies[0])} items, tail = {tails[0][1]}, {len(setups)} set-ups")
    metrics = {
        "wall_s": (statistics.median(one["work_s"] for one in passes), "s"),
        "item_p50_ms": (statistics.median(statistics.median(x) for x in latencies), "ms"),
        "item_tail_ms": (statistics.median(tail for tail, _ in tails), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(one["rss_mb"] for one in passes), "MB"),
    }
    return failed, attempted, metrics


def run_traced(runner):
    traced = runner.one_pass(trace=True)
    failed, attempted = len(runner.failures(traced)), len(traced["items"])
    metrics = tracer.layer_metrics(traced["layers"])
    missing = [
        name for name in EXPECTED_ON_PATH[runner.workload]
        if metrics[f"{name}.calls"][0] == 0
    ]
    if missing:
        raise BenchError(f"traced pass recorded no calls of {', '.join(missing)}")
    metrics["trace.wall_s"] = (traced["work_s"], "s")
    log(f"{runner.workload} seed {runner.seed}: traced pass {traced['work_s']:.3f} s")
    return failed, attempted, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/primpoints/cli.py", "fixtures/x0_71.curve"):
        if not os.path.isfile(os.path.join(root, needed)):
            log(f"not a primpoints checkout: {needed} is missing under {root}")
            return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            failed, attempted, metrics = run_traced(runner)
        else:
            failed, attempted, metrics = run_untraced(runner, args.seconds)
    except BenchError as exc:
        log(f"benchmark error: {exc}")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
