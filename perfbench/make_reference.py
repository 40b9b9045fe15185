"""Capture the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a primpoints checkout at the commit whose outputs are
the reference.  Items run in fresh interpreters exactly as in an untraced
benchmark pass, at the default seed; the files land in perfbench/reference/.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    root = os.getcwd()
    os.makedirs(os.path.join(root, run.OUT_DIR), exist_ok=True)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        runner = run.Runner(root, workload, workloads.DEFAULT_SEED)
        one = runner.one_pass()
        errors = [(i, err) for i, _, _, err in one["items"] if err is not None]
        if errors:
            sys.exit(f"{workload}: items raised {errors}")
        keys = workloads.item_keys(workload, root, workloads.DEFAULT_SEED)
        outputs = [out for _, _, out, _ in one["items"]]
        with open(workloads.reference_path(workload), "w", encoding="utf-8") as fh:
            fh.write(workloads.format_reference(keys, outputs))
        print(f"{workload}: {len(outputs)} outputs in {one['work_s']:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
