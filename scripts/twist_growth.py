#!/usr/bin/env python3
"""Empirical growth of the quadratic twist census as bounds increase.

For y^2 = f(x), counts squarefree r with |r| <= M such that r*y^2 = f(x)
has a non-Weierstrass rational point of bounded height.  The hit count is
nondecreasing in the height bound by construction, and re-checked: a drop
exits 5.  Printing it for a few strictly increasing bounds gives a feel for
how sparse the twists with points are.

Usage: python3 scripts/twist_growth.py [--poly "x^6+1"] [--max-r 100]
       [--heights 5,10,25,50]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from primpoints.cli import _int_list, _size, run_guarded  # noqa: E402
from primpoints.errors import VerificationFailed  # noqa: E402
from primpoints.formats import parse_poly  # noqa: E402
from primpoints.pipeline import twist_census  # noqa: E402


def _heights(text):
    heights = _int_list(text)
    if any(a >= b for a, b in zip(heights, heights[1:])):
        raise argparse.ArgumentTypeError(f"heights must be strictly increasing: {text!r}")
    return heights


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--poly", default="x^6+1")
    parser.add_argument("--max-r", type=_size, default=100)
    parser.add_argument("--heights", type=_heights, default="5,10,25,50")
    args = parser.parse_args()

    f = parse_poly(args.poly)
    previous = -1
    for height in args.heights:
        started = time.time()
        result = twist_census(f, args.max_r, height)
        rs = [h.r for h in result.hits]
        if len(rs) < previous:
            raise VerificationFailed(
                f"twist hit count fell from {previous} to {len(rs)} at height {height}"
            )
        previous = len(rs)
        print(
            f"height<={height:4d}: {len(rs):3d} twists with points "
            f"{rs} ({time.time() - started:.1f}s)"
        )


if __name__ == "__main__":
    sys.exit(run_guarded(main))
