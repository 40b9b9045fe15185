#!/usr/bin/env python3
"""Reproduce the full X0(71) low-degree point classification.

Runs the pipeline for degrees 3..6 against the shipped curve model and
Mordell-Weil data and prints each per-class report.  Degree 6 is the
interesting one: 22 primitive orbits, reducible classes at a = +-3, and
imprimitive classes at a = +-5, +-7, +-12.

Usage: python3 scripts/reproduce_x0_71.py [--degrees 3,4,5,6]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from primpoints.cli import _int_list, points_report, run_guarded  # noqa: E402
from primpoints.formats import parse_curve_file, parse_mw_file  # noqa: E402
from primpoints.hyperell import curve_new  # noqa: E402
from primpoints.pipeline import classify_points  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degrees", type=_int_list, default="3,4,5,6")
    args = parser.parse_args()

    with open(os.path.join(FIXTURES, "x0_71.curve")) as fh:
        f, label = parse_curve_file(fh.read())
    curve = curve_new(f)
    with open(os.path.join(FIXTURES, "x0_71.mw")) as fh:
        mw = parse_mw_file(fh.read(), curve)

    for degree in args.degrees:
        started = time.time()
        report = classify_points(curve, mw, degree)
        _, lines = points_report(curve, label, report)
        print("\n".join(lines) + "\n")
        print(f"# degree {degree} took {time.time() - started:.1f}s\n")


if __name__ == "__main__":
    sys.exit(run_guarded(main))
