"""One timed interpreter: set up a workload, run some of its items, report.

Started by run.py as a fresh process, so module caches start cold as they
do for a command-line user.  Prints one JSON object on its last stdout
line; the items' own printing is captured and never reaches it.

    python3 perfbench/worker.py --root . --workload rr-sweep --seed 0 \
        --items all --out-dir .bench_out [--trace-spans FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", default="all", help="'all' or comma-separated indices")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-spans", default=None, help="trace, and write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    tracer = None
    if args.trace_spans:
        import primpoints.cli  # noqa: F401  (loads every module before wrapping)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = workloads.setup(args.workload, args.root, args.seed, args.out_dir)
    setup_end = time.monotonic()
    payload = {"setup_end": setup_end}
    if not args.setup_only:
        if args.items == "all":
            indices = range(workloads.item_count(state))
        else:
            indices = [int(i) for i in args.items.split(",")]
        items = []
        start = time.perf_counter()
        for i in indices:
            if tracer is not None:
                tracer.item = i
            t0 = time.perf_counter()
            try:
                output, error = workloads.run_item(state, i), None
            except Exception as exc:  # an item that raises is a failed item
                output, error = None, f"{type(exc).__name__}: {exc}"
            items.append([i, (time.perf_counter() - t0) * 1000.0, output, error])
        payload["work_s"] = time.perf_counter() - start
        payload["items"] = items
    payload["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        payload["layers"] = tracer.raw_totals()
        tracer.write_spans(args.trace_spans)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
